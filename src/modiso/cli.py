"""Command-line front end.

Exit codes: 0 success; 2 a table cell failed or --assert-distinguished was not
met; 3 not isomorphic; 4 a cap was exceeded; 64 parse/usage error; 65 group
construction failed, or the group is not a p-group of the field's
characteristic; 74 stdout was closed before the output was written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .caps import DEFAULT_CAPS, Caps
from .errors import CapExceeded, SpecParseError

EX_OK, EX_FAIL, EX_NOTISO, EX_CAP, EX_USAGE, EX_BUILD, EX_IOERR = 0, 2, 3, 4, 64, 65, 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _parse_field(text: str):
    from .gfq import make_field

    try:
        if "^" in text:
            p, k = text.split("^", 1)
            return make_field(int(p), int(k))
        return make_field(int(text), 1)
    except (ValueError, CapExceeded) as err:
        raise SpecParseError(f"bad field literal {text!r}: {err}") from None


def _load_caps(path) -> Caps:
    if path is None:
        return DEFAULT_CAPS
    try:
        return Caps.load(path)
    except (OSError, ValueError, RecursionError) as err:
        raise SpecParseError(f"bad caps file: {err}") from None


def _build(spec: str, caps: Caps):
    from .families import build

    try:
        return build(spec, order_cap=caps.group_order_cap, coset_cap=caps.coset_cap)
    except SpecParseError:
        raise
    except (ValueError, CapExceeded) as err:
        print(f"mip: construction failed for {spec!r}: {err}", file=sys.stderr)
        raise SystemExit(EX_BUILD) from None


def _emit(obj, as_json=True):
    print(json.dumps(obj, indent=2) if as_json else obj)


def _flatten_csv(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten_csv(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        for i, v in enumerate(obj):
            rows.extend(_flatten_csv(v, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, json.dumps(obj, separators=(",", ":"))))
    return rows


def _fingerprint_or_die(G, F, caps):
    from .invariants import fingerprint

    try:
        return fingerprint(G, F, caps)
    except (ValueError, CapExceeded) as err:
        print(f"mip: cannot fingerprint: {err}", file=sys.stderr)
        raise SystemExit(EX_BUILD) from None


def _algebra_side(work, *args):
    """work(*args) for a command that builds FG: a group that is not a
    p-group of the field's characteristic exits 65."""
    try:
        return work(*args)
    except ValueError as err:
        print(f"mip: cannot build the group algebra: {err}", file=sys.stderr)
        raise SystemExit(EX_BUILD) from None


def _parse_section(text: str, what: str):
    """The pair i,j of a radical section Δ^i/Δ^j, with 1 <= i < j."""
    try:
        i, j = (int(x) for x in text.split(","))
    except ValueError:
        raise SpecParseError(f"bad {what} {text!r}, want i,j") from None
    if not 1 <= i < j:
        raise SpecParseError(f"bad {what} {text!r}, need 1 <= i < j")
    return i, j


def cmd_report(args) -> int:
    from .invariants import fingerprint_to_dict

    caps = _load_caps(args.caps)
    G = _build(args.spec, caps)
    F = _parse_field(args.field)
    fp = fingerprint_to_dict(_fingerprint_or_die(G, F, caps))
    if args.csv:
        for key, value in _flatten_csv(fp):
            print(f"{key},{value}")
    else:
        _emit(fp)
    return EX_OK


def cmd_compare(args) -> int:
    from .invariants import compare, verdict_to_dict

    caps = _load_caps(args.caps)
    G, H = _build(args.spec1, caps), _build(args.spec2, caps)
    F = _parse_field(args.field)
    verdict = compare(_fingerprint_or_die(G, F, caps), _fingerprint_or_die(H, F, caps))
    _emit(verdict_to_dict(verdict))
    if args.assert_distinguished and not verdict.distinguished:
        return EX_FAIL
    return EX_OK


def cmd_tables(args) -> int:
    from .tables import TABLE_BUILDERS

    if args.name not in TABLE_BUILDERS:
        print(f"mip: unknown table {args.name!r}; known: {', '.join(sorted(TABLE_BUILDERS))}",
              file=sys.stderr)
        return EX_USAGE
    rows = TABLE_BUILDERS[args.name]()
    payload = [{"group": r.group, "item": r.item,
                "expected": _plain(r.expected), "computed": _plain(r.computed),
                "pass": r.ok} for r in rows]
    if args.json:
        _emit(payload)
    else:
        gw = max(len(r.group) for r in rows)
        iw = max(len(r.item) for r in rows)
        for r in rows:
            status = "PASS" if r.ok else "FAIL"
            print(f"{r.group:<{gw}}  {r.item:<{iw}}  expected={_plain(r.expected)!r:<18} "
                  f"computed={_plain(r.computed)!r:<18} {status}")
        bad = sum(not r.ok for r in rows)
        print(f"-- {len(rows) - bad}/{len(rows)} cells pass")
    return EX_OK if all(r.ok for r in rows) else EX_FAIL


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def cmd_kernel_size(args) -> int:
    from .invariants import kernel_cell, predicted_jennings_dims

    caps = _load_caps(args.caps)
    G = _build(args.spec, caps)
    F = _parse_field(args.field)
    i, j = _parse_section(args.section, "--section")
    if args.power < 0:
        raise SpecParseError(f"bad --power {args.power}, need >= 0")
    try:
        kill, survive = _algebra_side(kernel_cell, G, F, i, j, args.power, caps)
    except CapExceeded as err:
        print(f"mip: {err}", file=sys.stderr)
        return EX_CAP
    _emit({"spec": args.spec, "field": args.field, "section": [i, j], "power": args.power,
           "dim": sum(predicted_jennings_dims(G)[i - 1:j - 1]), "kill": kill, "survive": survive})
    return EX_OK


def cmd_iso(args) -> int:
    from .iso import IsoWitness, group_isomorphic, nilpotent_algebra_iso

    caps = _load_caps(args.caps)
    G, H = _build(args.spec1, caps), _build(args.spec2, caps)
    try:
        if args.mode == "group":
            result = group_isomorphic(G, H, cap=caps.iso_cap)
            if isinstance(result, IsoWitness):
                gens = G.presentation.generators
                _emit({"outcome": "isomorphic", "mode": "group",
                       "images": [{"generator": gens[t], "image_index": img,
                                   "image_word": H.label(img)}
                                  for t, img in enumerate(result.images)]})
                return EX_OK
        elif args.mode.startswith("algebra:"):
            if args.field is None:
                raise SpecParseError("algebra mode needs --field")
            i, j = _parse_section(args.mode[len("algebra:"):], "algebra mode section")
            F = _parse_field(args.field)
            from .modalg import radical_section

            def section(X):
                caps.check_algebra_order(X.n)
                return radical_section(X, F, i, j)

            A, B = (_algebra_side(section, X) for X in (G, H))
            result = nilpotent_algebra_iso(A, B, cap=caps.iso_cap)
            if isinstance(result, IsoWitness):
                _emit({"outcome": "isomorphic", "mode": args.mode, "field": args.field,
                       "dim": A.dim,
                       "generators": [g.tolist() for g in result.source_gens],
                       "images": [u.tolist() for u in result.images]})
                return EX_OK
        else:
            raise SpecParseError(f"unknown mode {args.mode!r}")
    except CapExceeded as err:
        print(f"mip: {err}", file=sys.stderr)
        return EX_CAP
    _emit({"outcome": "not-isomorphic", "mode": args.mode, "reason": result.reason})
    return EX_NOTISO


def make_parser() -> _Parser:
    parser = _Parser(prog="mip", description=(
        "Construct finite p-groups, fingerprint their modular group algebras, "
        "and decide or witness (non-)isomorphism at desk scale."))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--caps", metavar="FILE", default=None,
                       help="JSON file overriding resource caps")

    p = sub.add_parser("report", help="fingerprint one group over one field")
    p.add_argument("spec")
    p.add_argument("--field", required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (the default)")
    fmt.add_argument("--csv", action="store_true", help="key,value lines instead of JSON")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="compare the fingerprints of two groups")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.add_argument("--field", required=True)
    p.add_argument("--assert-distinguished", action="store_true")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("tables", help="recompute a named reference table")
    p.add_argument("name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("kernel-size", help="power-map kernel size of a radical section")
    p.add_argument("spec")
    p.add_argument("--field", required=True)
    p.add_argument("--section", required=True, metavar="i,j")
    p.add_argument("--power", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_kernel_size)

    p = sub.add_parser("iso", help="isomorphism search with verified witnesses")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.add_argument("--mode", default="group", help="group | algebra:i,j")
    p.add_argument("--field", default=None)
    common(p)
    p.set_defaults(func=cmd_iso)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if sys.stdout is None:
            # fd 1 was closed when the interpreter started: nothing can be written
            return EX_IOERR
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    except SpecParseError as err:
        print(f"mip: {err}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else EX_USAGE
        return code


def run(argv=None):
    """The process entry point of `mip` and `python -m modiso`: main, then exit.

    At exit CPython runs full cyclic-GC passes over every container object
    still alive, about 21,700 of them once numpy and the standard library are
    loaded; that took 15-20 ms of a 150-250 ms cold command on 2 CPUs. The
    process is about to hand all of that memory back, so the objects are
    frozen first and the passes skip them. Shutdown otherwise runs as usual:
    atexit handlers (cProfile's stats, coverage's data), stream flushes and
    module teardown. main() itself never touches GC state, because the tests
    and perfbench/replay.py call it in-process many times."""
    code = main(argv)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
