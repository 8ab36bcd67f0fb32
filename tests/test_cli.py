import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modiso.caps import Caps
from modiso.cli import _parse_field, main
from modiso.errors import SpecParseError
from modiso.gfq import FiniteField

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_report_json(capsys):
    code, out, _ = run(capsys, "report", "T:4,4", "--field", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["hh1_dim"] == 28
    assert doc["order"] == 81


def test_report_trivialish(capsys):
    code, out, _ = run(capsys, "report", "C:2", "--field", "2")
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_report_jennings_dims_over_f4(capsys):
    code, out, _ = run(capsys, "report", "D8", "--field", "2^2", "--json")
    assert code == 0
    assert json.loads(out)["jennings_dims"] == [2, 2, 2, 1]


def test_report_csv(capsys):
    code, out, _ = run(capsys, "report", "D8", "--field", "2", "--csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["hh1_dim"] == "9"
    assert rows["order"] == "8"


def test_report_json_and_csv_are_exclusive(capsys):
    code, out, err = run(capsys, "report", "D8", "--field", "2", "--json", "--csv")
    assert code == 64
    assert out == ""
    assert "not allowed with" in err


def test_report_round_trip_stable(capsys):
    code, first, _ = run(capsys, "report", "Q8", "--field", "2")
    code2, second, _ = run(capsys, "report", "Q8", "--field", "2")
    assert code == code2 == 0
    assert first == second
    doc = json.loads(first)
    assert json.dumps(doc, indent=2) + "\n" == first


def test_stdout_independent_of_hash_seed():
    commands = [["report", "T:2,5", "--field", "3"],
                ["compare", "X:C:2*D8", "X:C:2*Q8", "--field", "2"],
                ["iso", "D8", "Q8", "--mode", "algebra:1,3", "--field", "2^2"],
                ["compare", "T:2,6", "T:3,6", "--field", "3"],
                ["iso", "T:3,7", "T:3,7"],
                ["report", "B2G:2,3", "--field", "2"],
                ["compare", "D8", "Q8", "--field", "2"],
                ["report", "B1G:2", "--field", "2"]]
    for argv in commands:
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "modiso", *argv], cwd=ROOT,
                                  env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv


@pytest.mark.parametrize("closed", ["reader-gone", "fd-closed"])
def test_closed_stdout_exits_74_without_traceback(closed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if closed == "reader-gone":
        proc = subprocess.Popen([sys.executable, "-m", "modiso", "compare", "D8", "Q8",
                                 "--field", "2"],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the child writes
    else:
        # fd 1 is closed before the interpreter starts, so sys.stdout is None
        proc = subprocess.Popen(["sh", "-c", 'exec "$0" -m modiso report D8 --field 2 >&-',
                                 sys.executable], cwd=ROOT, env=env, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 74
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


def test_main_leaves_the_collector_as_it_found_it(capsys):
    # only the process entry point cli.run freezes; in-process callers keep a normal heap
    frozen = gc.get_freeze_count()
    code, out, _ = run(capsys, "report", "D8", "--field", "2")
    assert code == 0 and json.loads(out)["order"] == 8
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_profiler_prints_its_stats_after_a_command(capsys):
    # the process ends through sys.exit, so cProfile's stats and atexit handlers still run
    code, report, _ = run(capsys, "report", "D8", "--field", "2")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "modiso", "report", "D8",
                           "--field", "2"], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert code == proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(report)
    assert "function calls" in proc.stdout[len(report):]


def _fresh(code):
    """Run code in a fresh interpreter; its last stderr line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def _modules_after_mip(*argv):
    """Exit code of `mip argv` and the modules loaded, in a fresh interpreter."""
    code, modules = _fresh(
        "import json, sys\n"
        "from modiso.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n")
    return code, set(modules)


def test_import_modiso_loads_no_numpy_and_no_submodule():
    modules = _fresh("import json, sys, modiso\n"
                     "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n")
    assert [m for m in modules if m == "numpy" or m.startswith(("numpy.", "modiso."))] == []


def test_lazy_exports_are_the_defining_objects():
    assert _fresh(
        "import json, sys, modiso\n"
        "from modiso import build, cli\n"
        "assert '__all__' in dir(modiso) and len(modiso.__all__) == 28\n"
        "for name in modiso.__all__:\n"
        "    value = getattr(modiso, name)\n"
        "    holders = [m for key, m in sys.modules.items() if key.startswith('modiso.')\n"
        "               and name in vars(m)]\n"
        "    assert holders and all(vars(m)[name] is value for m in holders), name\n"
        "try:\n"
        "    modiso.nope\n"
        "except AttributeError:\n"
        "    print(json.dumps('ok'), file=sys.stderr)\n") == "ok"


def test_each_subcommand_loads_only_what_it_runs():
    code, modules = _modules_after_mip("--help")
    assert code == 0 and "numpy" not in modules
    # a group-mode `iso` builds no algebra either
    unused = {"numpy.ma", "modiso.tables", "modiso.modalg"}
    for argv, absent in ((("report", "B2G:2,3", "--field", "2"), unused | {"modiso.iso"}),
                         (("compare", "T:2,6", "T:3,6", "--field", "3"), unused | {"modiso.iso"}),
                         (("iso", "T:3,4", "T:3,4"), unused | {"modiso.gfq"})):
        code, modules = _modules_after_mip(*argv)
        assert code == 0 and not modules & absent, (argv, modules & absent)
    # a kernel cell that theory does not fix builds the algebra, still
    # without numpy.ma
    code, modules = _modules_after_mip("compare", "X:C:2*D8", "X:C:2*Q8", "--field", "2^2")
    assert code == 0 and "modiso.modalg" in modules and not modules & {"numpy.ma", "modiso.iso"}


def test_report_parse_error_exit_64(capsys):
    assert run(capsys, "report", "Zzz:1", "--field", "2")[0] == 64
    assert run(capsys, "report", "D8", "--field", "six")[0] == 64
    assert run(capsys, "report", "Ab:x", "--field", "2")[0] == 64
    assert run(capsys, "report", "Ab:4,y", "--field", "2")[0] == 64


def test_report_construction_error_exit_65(capsys):
    # inconsistent metacyclic parameters: the order assertion fires
    assert run(capsys, "report", "Meta:2,4,1,0,3", "--field", "2")[0] == 65
    # p must be prime: p < 2 is rejected before the declared order, a
    # composite p once its order has passed the cap, a huge p by the cap
    for spec in ("EA:4,2", "Meta:4,2,1,0,3", "Meta:-2,3,1,0,5", "EA:1,200",
                 "EA:1000000000000000000000000000000,2"):
        code, out, err = run(capsys, "report", spec, "--field", "2")
        assert (code, out) == (65, ""), spec
        assert "construction failed" in err, err


def test_huge_declared_order_is_rejected_by_its_exponent(capsys):
    # 3^(10^7) and friends are compared with the cap by their exponent: no
    # huge integer and no relator text is formed
    for spec in ("T:1,10000000", "Meta:2,10000000,1,0,5", "EA:2,100000000"):
        code, out, err = run(capsys, "report", spec, "--field", "2")
        assert (code, out) == (65, "")
        assert "exceeds group-order cap 2187" in err, err


def test_benchmark_commands_print_their_goldens(capsys):
    # every canonical benchmark command, in process: the exit code and the
    # stdout digest that perfbench/data/goldens.json pins
    goldens = json.loads((ROOT / "perfbench" / "data" / "goldens.json").read_text("utf-8"))
    for line, want in goldens.items():
        code, out, _ = run(capsys, *line.split())
        got = {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
        assert got == want, line


@pytest.mark.parametrize("argv,code,doc,err", [
    ("kernel-size T:2,5 --field 3 --section 1,3", 0,
     {"spec": "T:2,5", "field": "3", "section": [1, 3], "power": 1, "dim": 6,
      "kill": 729, "survive": 0}, ""),
    ("kernel-size B2G:1,3 --field 2^2 --section 1,3", 0,
     {"spec": "B2G:1,3", "field": "2^2", "section": [1, 3], "power": 1, "dim": 5,
      "kill": 64, "survive": 960}, ""),
    ("iso C:128 C:128 --mode algebra:1,66 --field 2", 4, None,
     "mip: 2^65 assignments exceed cap 10000000\n"),
], ids=["kernel-size-T:2,5-GF3", "kernel-size-B2G:1,3-GF4", "iso-C128-depth-66"])
def test_filtration_commands_above_order_32_pinned(capsys, argv, code, doc, err):
    # the benchmark goldens build no filtration above order 32; these pin
    # the stdout, stderr and exit code of three commands that do
    got = run(capsys, *argv.split())
    assert got == (code, "" if doc is None else json.dumps(doc, indent=2) + "\n", err)


@pytest.mark.parametrize("spec,field,section,power,dim,kill", [
    ("B1G:2", "2", "1,5", 2, 19, 131072), ("B1H:2", "2", "1,5", 2, 19, 393216),
    ("B2G:2,3", "2", "1,5", 2, 20, 262144), ("B2H:2,3", "2", "1,5", 2, 20, 524288),
    ("X:C:2*D8", "2^2", "1,4", 1, 11, 360448), ("X:C:2*Q8", "2^2", "1,4", 1, 11, 262144),
])
def test_deep_kernel_cells_pinned(capsys, spec, field, section, power, dim, kill):
    # the counts that full enumeration of each section printed; they
    # separate B1G:2/B1H:2, B2G:2,3/B2H:2,3 and X:C:2*D8/X:C:2*Q8
    got = run(capsys, "kernel-size", spec, "--field", field, "--section", section,
              "--power", str(power))
    q = {"2": 2, "2^2": 4}[field]
    doc = {"spec": spec, "field": field, "section": [int(x) for x in section.split(",")],
           "power": power, "dim": dim, "kill": kill, "survive": q**dim - kill}
    assert got == (0, json.dumps(doc, indent=2) + "\n", "")


def test_compare_d8_q8(capsys):
    code, out, _ = run(capsys, "compare", "D8", "Q8", "--field", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "distinguished"
    entries = {w["entry"] for w in doc["witnesses"]}
    assert {"hh1_dim", "max_elem_ab_classes"} <= entries


def test_compare_over_extension_field(capsys):
    code, out, _ = run(capsys, "compare", "D8", "Q8", "--field", "2^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "distinguished"
    assert any(w["entry"] == "hh1_dim" and [w["left"], w["right"]] == [9, 7]
               for w in doc["witnesses"])


def test_compare_ambiguous_pair_through_cli(capsys):
    code, out, _ = run(capsys, "compare", "T:2,6", "T:3,6", "--field", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "indistinguishable"
    assert len(doc["compared"]) >= 20
    code2, _, _ = run(capsys, "compare", "T:2,6", "T:3,6", "--field", "3",
                      "--assert-distinguished")
    assert code2 == 2


def test_compare_assert_distinguished_exit_2(capsys):
    code, out, _ = run(capsys, "compare", "D8", "Meta:2,2,1,0,3", "--field", "2",
                       "--assert-distinguished")
    assert code == 2
    assert json.loads(out)["outcome"] == "indistinguishable"


def test_tables_known_and_unknown(capsys):
    code, out, _ = run(capsys, "tables", "hh1")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert run(capsys, "tables", "nosuch")[0] == 64


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "jennings", "--json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["pass"] for r in rows)


def test_tables_class_data_and_contributions(capsys):
    for name in ("table2", "table3", "table4"):
        code, out, _ = run(capsys, "tables", name, "--json")
        assert code == 0, name
        rows = json.loads(out)
        assert rows and all(r["pass"] for r in rows), name


def test_tables_broche(capsys):
    code, out, _ = run(capsys, "tables", "broche")
    assert code == 0
    assert "FAIL" not in out


def test_tables_example_d8q8_known_red_cell(capsys):
    # the embedded reference value 8 for the quaternion-side nonzero-square
    # count is internally inconsistent (true count 12); the table reports that
    # one cell as FAIL and exits 2, and everything else passes
    code, out, _ = run(capsys, "tables", "example-d8q8", "--json")
    assert code == 2
    rows = json.loads(out)
    bad = [r for r in rows if not r["pass"]]
    assert len(bad) == 1
    assert bad[0]["item"] == "nonzero_squares_F2"
    assert (bad[0]["expected"], bad[0]["computed"]) == (8, 12)


def test_report_non_p_group_exit_65(capsys):
    assert run(capsys, "report", "C:12", "--field", "2")[0] == 65
    assert run(capsys, "report", "D8", "--field", "3")[0] == 65


def test_kernel_size_command(capsys):
    code, out, _ = run(capsys, "kernel-size", "D8", "--field", "2",
                       "--section", "1,3", "--power", "1")
    assert code == 0
    doc = json.loads(out)
    assert (doc["kill"], doc["survive"]) == (12, 4)


def test_kernel_size_large_power_stops_at_zero(tmp_path, capsys):
    # the section is nilpotent, so the power map stops once every element is 0
    code, out, _ = run(capsys, "kernel-size", "D8", "--field", "2",
                       "--section", "1,3", "--power", "100000000")
    assert code == 0
    doc = json.loads(out)
    assert (doc["kill"], doc["survive"]) == (16, 0)
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps({"kernel_sections": [[1, 3, 100000000]]}), encoding="utf-8")
    code, out, _ = run(capsys, "report", "D8", "--field", "2", "--caps", str(caps))
    assert code == 0
    assert json.loads(out)["kernel_sizes"] == [
        {"section": [1, 3], "power": 100000000, "counts": [16, 0]}]


def test_kernel_size_section_past_the_chain(capsys):
    # D8 over GF(2) has Δ^5 = 0: a deeper power is the zero ideal, and the
    # chain is never padded out to j terms
    docs = {}
    for section in ("1,5", "1,1000000000", "6,9"):
        code, out, _ = run(capsys, "kernel-size", "D8", "--field", "2", "--section", section)
        assert code == 0
        doc = json.loads(out)
        docs[section] = (doc["dim"], doc["kill"], doc["survive"])
    assert docs["1,1000000000"] == docs["1,5"] == (7, 48, 80)
    assert docs["6,9"] == (0, 1, 0)


def test_kernel_size_cap_exit_4(tmp_path, capsys):
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps({"enum_cap": 4}), encoding="utf-8")
    code, _, err = run(capsys, "kernel-size", "D8", "--field", "2",
                       "--section", "1,3", "--caps", str(caps))
    assert code == 4
    assert err == "mip: 2^4 elements exceed the enumeration cap 4\n"


def test_iso_group_witness(capsys):
    code, out, _ = run(capsys, "iso", "T:2,5", "T:3,5", "--mode", "group")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "isomorphic"
    assert all("image_word" in w for w in doc["images"])


def test_iso_algebra_modes(capsys):
    code, out, _ = run(capsys, "iso", "D8", "Q8", "--mode", "algebra:1,3", "--field", "2")
    assert code == 3
    assert json.loads(out)["outcome"] == "not-isomorphic"
    code, out, _ = run(capsys, "iso", "D8", "Q8", "--mode", "algebra:1,3", "--field", "2^2")
    assert code == 0
    assert json.loads(out)["outcome"] == "isomorphic"


def test_iso_algebra_least_witness_pinned(capsys):
    # the first accepting assignment in the search order: A's generators e_0,
    # e_1 of Δ/Δ^3 over GF(4) and their images in the Q8 section
    code, out, _ = run(capsys, "iso", "D8", "Q8", "--mode", "algebra:1,3", "--field", "2^2")
    assert code == 0
    assert json.loads(out) == {
        "outcome": "isomorphic", "mode": "algebra:1,3", "field": "2^2", "dim": 4,
        "generators": [[1, 0, 0, 0], [0, 1, 0, 0]],
        "images": [[0, 1, 2, 0], [0, 1, 3, 0]]}
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


@pytest.mark.parametrize("argv,code,doc", [
    ("iso D8 D8 --mode algebra:1,4 --field 2", 0,
     {"outcome": "isomorphic", "mode": "algebra:1,4", "field": "2", "dim": 6,
      "generators": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
      "images": [[0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0]]}),
    ("iso EA:3,2 EA:3,2 --mode algebra:1,3 --field 3", 0,
     {"outcome": "isomorphic", "mode": "algebra:1,3", "field": "3", "dim": 5,
      "generators": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]],
      "images": [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]}),
    ("iso C:8 C:8 --mode algebra:1,8 --field 2", 0,
     {"outcome": "isomorphic", "mode": "algebra:1,8", "field": "2", "dim": 7,
      "generators": [[1, 0, 0, 0, 0, 0, 0]], "images": [[0, 0, 0, 0, 0, 0, 1]]}),
    ("iso D8 Ab:4,2 --mode algebra:1,3 --field 2^2", 3,
     {"outcome": "not-isomorphic", "mode": "algebra:1,3", "reason": "exhausted"}),
], ids=["D8-D8-GF2-1,4", "EA:3,2-GF3-1,3", "C:8-GF2-1,8", "D8-Ab:4,2-GF4-1,3"])
def test_iso_algebra_outputs_pinned(capsys, argv, code, doc):
    # the first accepting assignment, or the exhausted search, as the
    # all-pairs search printed them
    assert run(capsys, *argv.split()) == (code, json.dumps(doc, indent=2) + "\n", "")


def test_iso_algebra_mode_uses_iso_cap(tmp_path, capsys):
    # the D8/Q8 section over GF(4) has 4^(4*2) = 4^8 candidate assignments
    args = ("iso", "D8", "Q8", "--mode", "algebra:1,3", "--field", "2^2")
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps({"iso_cap": 100}), encoding="utf-8")
    assert run(capsys, *args, "--caps", str(caps))[0] == 4
    caps.write_text(json.dumps({"enum_cap": 4}), encoding="utf-8")
    code, out, _ = run(capsys, *args, "--caps", str(caps))
    assert code == 0
    assert json.loads(out)["outcome"] == "isomorphic"


def test_iso_usage_errors(capsys):
    assert run(capsys, "iso", "D8", "Q8", "--mode", "algebra:1,3")[0] == 64  # no field
    assert run(capsys, "iso", "D8", "Q8", "--mode", "wat")[0] == 64


def test_caps_file_round_trip(tmp_path, capsys):
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps({"algebra_order_cap": 4}), encoding="utf-8")
    code, out, _ = run(capsys, "report", "D8", "--field", "2", "--caps", str(caps))
    assert code == 0
    assert json.loads(out)["jennings_dims"] == {"unavailable": "algebra_order_cap"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}), encoding="utf-8")
    assert run(capsys, "report", "D8", "--field", "2", "--caps", str(bad))[0] == 64


@pytest.mark.parametrize("argv,text,code", [
    (["kernel-size", "D8", "--field", "2", "--section", "0,3"], None, 64),
    (["iso", "D8", "Q8", "--mode", "algebra:0,3", "--field", "2"], None, 64),
    (["kernel-size", "C:6", "--field", "2", "--section", "1,2"], None, 65),
    (["kernel-size", "D8", "--field", "3", "--section", "1,2"], None, 65),
    (["iso", "D8", "Q8", "--mode", "algebra:1,3", "--field", "3"], None, 65),
    (["kernel-size", "D8", "--field", "2", "--section", "1,3", "--power", "-1"], None, 64),
    (["report", "D8", "--field", "1000000000000000003"], None, 64),
    (["report", "D8", "--field", "2^100000000"], None, 64),
    (["report", "D8", "--field", "2", "--caps", "{file}"], "5", 64),
    (["report", "D8", "--field", "2", "--caps", "{file}"], '{"enum_cap": "x"}', 64),
    (["report", "D8", "--field", "2", "--caps", "{file}"], '{"enum_cap": true}', 64),
    (["report", "D8", "--field", "2", "--caps", "{file}"], '{"kernel_sections": 5}', 64),
    (["report", "D8", "--field", "2", "--caps", "{file}"], '{"kernel_sections": [[0, 3, 1]]}', 64),
    (["report", "D8", "--field", "2", "--caps", "{file}"], "[" * 5000 + "]" * 5000, 64),
    (["report", "D8", "--field", "2", "--caps", "{file}"], '{"q_cap": 81}', 64),
    (["iso", "C:128", "C:128", "--mode", "algebra:1,66", "--field", "2", "--caps", "{file}"],
     json.dumps({"iso_cap": 10**30}), 4),
    (["kernel-size", "C:128", "--field", "2", "--section", "1,66", "--caps", "{file}"],
     json.dumps({"enum_cap": 10**30}), 4),
    (["tables", "hh1", "--caps", "{file}"], "{}", 64),
    (["report", "Pres:{file}", "--field", "2"], None, 64),
    (["report", "Pres:{file}", "--field", "2"], '{"generators": ["a"], ', 64),
    (["report", "Pres:{file}", "--field", "2"], '{"generators": ["a"], "relators": [5]}', 64),
    (["report", "Pres:{file}", "--field", "2"], '{"generators": "a", "relators": []}', 64),
    (["report", "Pres:{file}", "--field", "2"],
     json.dumps({"generators": ["a"], "relators": ["(" * 5000 + "a" + ")" * 5000]}), 64),
    (["report", "Pres:{file}", "--field", "2"],
     json.dumps({"generators": ["a"], "relators": ["(a^1048576)^1048576"]}), 64),
    (["report", "Pres:{file}", "--field", "2"],
     json.dumps({"generators": ["a"], "relators": ["a^" + "1" * 5000]}), 64),
    (["report", "Pres:{file}", "--field", "2"], json.dumps({"generators": [""], "relators": []}), 64),
    (["report", "Pres:{file}", "--field", "2"],
     json.dumps({"generators": ["a b"], "relators": []}), 64),
    (["report", "Pres:{file}", "--field", "2"],
     json.dumps({"generators": ["x^2"], "relators": []}), 64),
    (["report", "Pres:{file}", "--field", "2"],
     json.dumps({"generators": ["a", "a"], "relators": ["a^2"]}), 64),
], ids=["kernel-size-section-0,3", "iso-section-0,3", "kernel-size-C6", "kernel-size-D8-GF3",
        "iso-D8-GF3", "kernel-size-power-minus-1", "field-large-prime",
        "field-huge-power", "caps-not-object", "caps-str-value",
        "caps-bool-value", "caps-sections-not-list", "caps-section-0,3", "caps-deep-json",
        "caps-q-cap-removed", "iso-cap-past-int64", "enum-cap-past-int64", "tables-caps-removed",
        "pres-missing-file", "pres-malformed-json", "pres-relator-not-str",
        "pres-generators-not-list", "pres-deep-word", "pres-power-too-long",
        "pres-exponent-5000-digits", "pres-empty-name", "pres-name-with-space",
        "pres-name-x^2", "pres-duplicate-name"])
def test_bad_input_exit_code_without_traceback(tmp_path, capsys, argv, text, code):
    """`{file}` in argv names a file holding `text` (absent when text is None)."""
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    got, out, err = run(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert got == code
    assert out == ""
    assert "Traceback" not in err
    if code == 4:
        assert err == "mip: 2^65 points exceed the 2^63 that one enumeration can index\n"


CAP_VALUE = st.recursive(
    st.one_of(st.integers(min_value=-10**30, max_value=10**30), st.booleans(), st.floats(),
              st.none(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)
CAPS_JSON = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(Caps)] + ["q_cap", "nope"]),
    st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 10**30]),
              st.integers(min_value=0, max_value=10**30), CAP_VALUE,
              st.lists(st.lists(st.integers(min_value=-1, max_value=10**30),
                                min_size=3, max_size=3), max_size=2)),
    max_size=3)


@settings(max_examples=30, deadline=None)
@given(CAPS_JSON)
@example({"iso_cap": 10**30, "enum_cap": 10**30})
def test_caps_file_fuzz_exits_without_traceback(caps):
    # any caps file gives a documented exit code: 64 for a malformed one,
    # else the command's own outcome, with a fired cap exiting 4
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "caps.json"
        path.write_text(json.dumps(caps), encoding="utf-8")
        for argv in ("report D8 --field 2", "kernel-size C:128 --field 2 --section 1,66",
                     "iso C:128 C:128 --mode algebra:1,66 --field 2"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv.split(), "--caps", str(path)])
            assert code in (0, 3, 4, 64, 65), (argv, caps, code)
            assert "Traceback" not in err.getvalue()


def _presentations():
    """Presentation JSON on one to three generators: a power of 2 of each
    generator and up to three words of bounded powers and commutators, or a
    malformed document or word."""
    def words(gens):
        power = st.tuples(st.sampled_from(gens), st.integers(-9, 9)).map(lambda ge: f"{ge[0]}^{ge[1]}")
        factor = st.one_of(power, st.tuples(power, power).map(lambda uv: f"[{uv[0]},{uv[1]}]"))
        return st.lists(factor, min_size=1, max_size=4).map("*".join)

    def presentation(gens):
        powers = st.tuples(*(st.sampled_from([f"{g}^2", f"{g}^4", f"{g}^8"]) for g in gens))
        return st.tuples(powers, st.lists(words(gens), max_size=3)).map(
            lambda pw: {"generators": gens, "relators": [*pw[0], *pw[1]]})

    well_formed = st.integers(1, 3).map(lambda k: list("abc"[:k])).flatmap(presentation)
    junk_word = well_formed.flatmap(lambda doc: st.text(max_size=6).map(
        lambda text: {**doc, "relators": [*doc["relators"], text]}))
    junk_doc = st.one_of(st.text(max_size=8), st.dictionaries(
        st.sampled_from(["generators", "relators"]), st.one_of(st.text(max_size=4), st.integers())))
    return st.one_of(well_formed, junk_word, junk_doc)


@settings(max_examples=100, deadline=None)
@given(_presentations())
@example({"generators": ["a", "b"], "relators": []})
@example({"generators": ["a"], "relators": ["a^6561"]})
@example({"generators": ["a", "b"], "relators": ["a^4", "b^2", "(b*a)^2"]})
def test_presentation_file_fuzz_exits_without_traceback(doc):
    # any presentation file gives a documented exit code: 64 for a malformed
    # one, 65 when the group cannot be built or fingerprinted, else 0, or 4
    # when a cap fires
    with tempfile.TemporaryDirectory() as tmp:
        pres, caps = pathlib.Path(tmp) / "pres.json", pathlib.Path(tmp) / "caps.json"
        pres.write_text(json.dumps(doc), encoding="utf-8")
        caps.write_text(json.dumps({"coset_cap": 256}), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["report", f"Pres:{pres}", "--field", "2", "--caps", str(caps)])
        assert code in (0, 4, 64, 65), (doc, code, err.getvalue())
        assert "Traceback" not in err.getvalue()


LITERAL_INT = st.integers(min_value=-10**30, max_value=10**30)


@settings(max_examples=300)
@given(st.one_of(st.text(), LITERAL_INT.map(str),
                 st.tuples(LITERAL_INT, LITERAL_INT).map(lambda pk: f"{pk[0]}^{pk[1]}")))
def test_parse_field_total_on_junk(text):
    # a field literal gives a field or the parse error, within the deadline
    try:
        F = _parse_field(text)
    except SpecParseError:
        return
    assert isinstance(F, FiniteField) and F.q <= 81


def test_caps_coset_cap_construction_failure(tmp_path, capsys):
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps({"coset_cap": 10}), encoding="utf-8")
    code, _, err = run(capsys, "report", "T:1,5", "--field", "3", "--caps", str(caps))
    assert code == 65
    assert "construction failed" in err


def test_group_order_cap_before_table(tmp_path, capsys):
    # C_6561 from one relator is rejected before its 6561 x 6561 table is built
    path = tmp_path / "c6561.json"
    path.write_text(json.dumps({"generators": ["a"], "relators": ["a^6561"]}),
                    encoding="utf-8")
    for argv in (("report", f"Pres:{path}", "--field", "3"),
                 ("iso", f"Pres:{path}", f"Pres:{path}")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (65, "")
        assert "group order 6561 exceeds group-order cap 2187" in err
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps({"group_order_cap": 2}), encoding="utf-8")
    code, out, err = run(capsys, "report", "X:C:2*C:2", "--field", "2", "--caps", str(caps))
    assert (code, out) == (65, "")
    assert "declared order 4 exceeds group-order cap 2" in err


def test_presentation_file_spec(tmp_path, capsys):
    path = tmp_path / "d8.json"
    path.write_text(json.dumps({"generators": ["r", "s"],
                                "relators": ["r^4", "s^2", "(s*r)^2"]}),
                    encoding="utf-8")
    code, out, _ = run(capsys, "report", f"Pres:{path}", "--field", "2")
    assert code == 0
    assert json.loads(out)["hh1_dim"] == 9


def test_usage_error_exit_64(capsys):
    assert main(["report"]) == 64  # missing required arguments
    assert main(["nosuchcommand"]) == 64
