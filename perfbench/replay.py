"""Replay a command list in one interpreter, optionally traced.

    python3 perfbench/replay.py COMMANDS.json OUT.json --trace 0|1

COMMANDS.json is a list of argv lists for `mip`. Each command runs through
`modiso.cli.main` with stdout captured; the group cache is cleared before
each command, so no command reuses another's group or the algebra caches
attached to it. OUT.json gets, per command, the exit code, the SHA-256 of
stdout and the wall time, plus the span summary when traced.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("commands")
    ap.add_argument("out")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    with open(args.commands, encoding="utf-8") as fh:
        commands = json.load(fh)

    from modiso import cli, families

    clear_groups = families.build.cache_clear
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    for argv in commands:
        clear_groups()
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash is a failed command; the replay goes on
            code = None
            err.write(traceback.format_exc())
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.end_command()
        if code is None:
            sys.stderr.write(err.getvalue())
        results.append({"exit": code, "wall_s": wall,
                        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()})

    report = {"commands": results}
    if tracer is not None:
        report["spans"] = tracer.summary()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
