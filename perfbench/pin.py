"""Regenerate the pinned benchmark data from the program at the current commit.

    python3 perfbench/pin.py

Run from the root of a checkout. Writes two files under perfbench/data:

* presentations.json: the canonical presentation of every group spec that a
  workload's `report` or `compare` command names (the seeded rewrite starts
  from these, so the benchmark itself never builds a group);
* goldens.json: for every canonical command, its exit code and the SHA-256 of
  its stdout.

Pinning is deliberate: a change that alters a byte of stdout must re-pin and
say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import DATA, WORKLOADS, command_specs  # noqa: E402


def main():
    from modiso.families import build

    presentations = {}
    goldens = {}
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    for commands in WORKLOADS.values():
        for line in commands:
            argv = line.split()
            for pos in command_specs(argv):
                presentations[argv[pos]] = build(argv[pos]).presentation.to_json()
            proc = subprocess.run([sys.executable, "-m", "modiso", *argv],
                                  capture_output=True, env=env, timeout=600, check=False)
            goldens[line] = {"exit": proc.returncode,
                             "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
            print(f"{line}: exit {proc.returncode}", file=sys.stderr)
    for name, obj in (("presentations.json", presentations), ("goldens.json", goldens)):
        with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
