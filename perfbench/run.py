"""modiso benchmark: cold `mip` commands in a closed loop with one client.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.

Untraced (--trace 0), after set-up the client runs the workload's seeded
command list one command at a time, each in a fresh interpreter, and repeats
the whole list while another pass fits in S seconds (at least one pass). It
reports the end-to-end metrics named in BENCHMARK.json, and prints wall_s and
fail_ratio beside them:

  wall_rel     wall_s, the time to finish the command list (the sum over its
               commands of each command's median wall time across the run's
               passes), divided by the median wall time of
               perfbench/reference.py, a fixed computation run after every
               command; the ratio cancels most of the host's drift in speed
  peak_rss_mb  largest ru_maxrss of any command's process (from os.wait4)
  setup_s      median time for a fresh interpreter to finish `import modiso`,
               scaled to the reference's nominal speed: times
               REFERENCE_NOMINAL_S over the run's median reference time

Traced (--trace 1), the same command list is replayed in-process twice, each
time in a fresh interpreter (perfbench/replay.py): once plain and once with
spans around every public modiso function, giving the per-layer metrics.

Every command's exit code and stdout SHA-256 must match the pinned golden of
its canonical form (perfbench/data/goldens.json); a mismatch, a traceback or
a timeout counts as a failed command and the run carries on. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from hashlib import sha256

from spans import per_layer
from workloads import HERE, WORKLOADS, load_json, seeded_commands

SETUP_SAMPLES = 5
REFERENCE = os.path.join(HERE, "reference.py")
# Typical wall time of reference.py on the 2-CPU VM where the benchmark was
# defined; setup_s is scaled by it over the run's own reference time.
REFERENCE_NOMINAL_S = 0.4
RUN_DEADLINE_S = 160     # a run must end within 180 s, even if the program hangs
COMMAND_TIMEOUT_S = 120
# One BLAS thread per command: on the 2-CPU VM a second OpenBLAS thread left
# wall time unchanged, burned about 30% more CPU and made passes less steady.
BLAS_THREADS = "1"


class Run:
    """One benchmark run: its environment, scratch directory and deadline."""

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        src = os.path.join(os.getcwd(), "src")
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32),
                        OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        PYTHONPATH=os.pathsep.join(
                            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.goldens = load_json("goldens.json")

    def child(self, argv, timeout=COMMAND_TIMEOUT_S):
        """Run argv to completion; returns (exit code or None on timeout,
        stdout bytes, stderr bytes, wall seconds, rusage)."""
        timeout = max(0.0, min(timeout, self.deadline - time.perf_counter()))
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            killed = threading.Event()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        code = None if killed.is_set() else proc.returncode
        return code, stdout, stderr, wall, usage

    def matches(self, line, code, digest, stderr=b""):
        golden = self.goldens[line]
        ok = (code == golden["exit"] and digest == golden["stdout_sha256"]
              and b"Traceback" not in stderr)
        if not ok:
            print(f"FAILED: {line} (exit {code}, expected {golden['exit']})", file=sys.stderr)
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
        return ok


def setup_seconds(run):
    walls = []
    for _ in range(SETUP_SAMPLES):
        walls.append(run.child([sys.executable, "-c", "import modiso"])[3])
    return statistics.median(walls)


def end_to_end(run, commands, seconds, setup_s):
    passes, ref_wall, peak_kb, attempted, failed = [], [], 0, 0, 0
    walls = {line: [] for line, _ in commands}
    cpus = {line: [] for line, _ in commands}
    start = time.perf_counter()
    while True:
        total = 0.0
        for line, argv in commands:
            code, stdout, stderr, wall, usage = run.child([sys.executable, "-m", "modiso", *argv])
            attempted += 1
            failed += not run.matches(line, code, sha256(stdout).hexdigest(), stderr)
            total += wall
            walls[line].append(wall)
            cpus[line].append(usage.ru_utime + usage.ru_stime)
            peak_kb = max(peak_kb, usage.ru_maxrss)
            ref_wall.append(run.child([sys.executable, REFERENCE])[3])
        passes.append(total)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(passes) > seconds or time.perf_counter() > run.deadline:
            break
    wall_s = sum(statistics.median(v) for v in walls.values())
    cpu_s = sum(statistics.median(v) for v in cpus.values())
    ref_s = statistics.median(ref_wall)
    metrics = {"wall_rel": wall_s / ref_s, "peak_rss_mb": peak_kb / 1024,
               "setup_s": setup_s * REFERENCE_NOMINAL_S / ref_s}
    notes = {"wall_s": wall_s, "cpu_s": cpu_s, "setup_raw_s": setup_s,
             "passes": [round(p, 3) for p in passes], "reference_wall_s": ref_s,
             "command_wall_s": {k: [round(x, 3) for x in v] for k, v in walls.items()}}
    return attempted, failed, metrics, notes


def traced(run, commands):
    path = os.path.join(run.workdir, "commands.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([argv for _, argv in commands], fh)
    attempted = failed = 0
    reports, cpu = [], []
    for flag in (0, 1):
        out = os.path.join(run.workdir, f"replay{flag}.json")
        code, _, stderr, _, usage = run.child(
            [sys.executable, os.path.join(HERE, "replay.py"), path, out, "--trace", str(flag)],
            timeout=RUN_DEADLINE_S)
        attempted += len(commands)
        if code != 0:
            print(f"FAILED: replay --trace {flag} (exit {code})", file=sys.stderr)
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
            failed += len(commands)
            continue
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        for (line, _), res in zip(commands, report["commands"]):
            failed += not run.matches(line, res["exit"], res["stdout_sha256"])
        reports.append(report)
        cpu.append(usage.ru_utime + usage.ru_stime)
    if len(reports) != 2:
        return attempted, failed, {}, {}
    plain, spans = (sum(c["wall_s"] for c in r["commands"]) for r in reports)
    metrics = per_layer(reports[1]["spans"], spans)
    metrics["process.cpu_s"] = cpu[0]
    metrics["trace.overhead_ratio"] = spans / plain
    self_s = reports[1]["spans"]["self_s"]
    top = sorted(self_s, key=self_s.get, reverse=True)[:8]
    return attempted, failed, metrics, {"untraced_replay_s": plain, "traced_replay_s": spans,
                                        "top_self_s": {k: round(self_s[k], 3) for k in top}}


def machine_record():
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": f"OPENBLAS_NUM_THREADS={BLAS_THREADS}",
            "load": "one client, one command at a time"}


def run_workload(name, seed, seconds, trace, declared):
    """One run of one workload; returns (attempted, failed, {metric: value})."""
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(HERE, ".work"))
    try:
        run = Run(seed, workdir)
        rel = os.path.relpath(workdir)
        commands = seeded_commands(name, seed, rel)
        if trace:
            attempted, failed, metrics, notes = traced(run, commands)
        else:
            setup_s = setup_seconds(run)
            attempted, failed, metrics, notes = end_to_end(run, commands, seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {name} seed={seed} {json.dumps(notes, sort_keys=True)}")
    for metric, unit in declared:
        if metric in metrics:
            print(f"{name:12s} {metric:42s} {metrics[metric]:>16.6g} {unit}")
    if not trace:
        print(f"{name:12s} {'wall_s':42s} {notes['wall_s']:>16.6g} s")
        print(f"{name:12s} {'fail_ratio':42s} {failed / attempted:>16.6g} ratio")
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "modiso", "__init__.py")):
        sys.exit("perfbench: no ./src/modiso here; run from the root of a modiso checkout")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]

    print(f"# machine {json.dumps(machine_record(), sort_keys=True)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace, declared)
        attempted, failed = attempted + a, failed + f
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in declared:
            if metric in m:
                metrics[prefix + metric] = {"value": m[metric], "unit": unit}
    complete = len(metrics) == len(declared) * len(names)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
