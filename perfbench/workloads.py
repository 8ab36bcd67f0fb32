"""Workload definitions and the seeded rewrite of their inputs.

Each workload is a fixed list of canonical `mip` command lines. A seed turns
that list into the inputs one run actually sends:

* the command order is shuffled;
* every group spec of a `report` or `compare` command becomes an equivalent
  `Pres:` JSON file whose generators are renamed, whose relators are each
  rotated or inverted, and whose relator order is shuffled;
* the seed also becomes the child's PYTHONHASHSEED (see run.py).

Fingerprints and verdicts are isomorphism invariants, so the rewritten command
must print exactly the canonical command's stdout. `iso` commands keep their
canonical specs: group witnesses name elements of H, and algebra witnesses are
coordinates in a basis that depends on the presentation.
"""

from __future__ import annotations

import json
import os
import random
import string

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")


# Canonical command lines, as typed after `mip`. Why each workload exists is
# recorded in BENCHMARK.json and README.md; times are single cold runs on a
# 2-CPU x86_64 VM.
WORKLOADS = {
    "filtration": (
        "report B2G:2,3 --field 2",            # |G| = 128, p = 2, k = 1; 5.4 s
        "report X:C:2*B2G:1,3 --field 2^2",    # |G| = 64 over GF(4); 2.6 s
        "report Meta:3,3,1,0,10 --field 3",    # |G| = 81, p = 3; 2.9 s
    ),
    "enumeration": (
        "report Meta:2,4,1,0,15 --field 2",             # Zassenhaus dims; 6.1 s
        "compare X:C:2*D8 X:C:2*Q8 --field 2^2",        # kernel sizes over GF(4); 1.5 s
        "iso D8 Q8 --mode algebra:1,3 --field 2^2",     # witness found; 2.4 s
        "iso D8 Q8 --mode algebra:1,4 --field 2",       # exhaustive, exit 3; 0.6 s
    ),
    "group-side": (
        "compare T:2,6 T:3,6 --field 3",   # the criterion-6 ambiguous pair; 1.2 s
        "report T:2,7 --field 3",          # |G| = 2187; 4.7 s
        "iso T:3,7 T:3,7",                 # group witness search; 3.0 s
    ),
}


def load_json(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def command_specs(argv):
    """Indices of the group-spec arguments that the seed may rewrite."""
    if argv[0] == "report":
        return [1]
    if argv[0] == "compare":
        return [1, 2]
    return []


# -- presentation rewriting ----------------------------------------------------

def _letters(relator, index):
    """Expand a printed normal-form relator ("a^2*b^-1*a") to signed letters."""
    out = []
    for token in relator.split("*"):
        name, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        g = index[name] + 1
        out.extend([g if e > 0 else -g] * abs(e))
    return out


def _text(letters, names):
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        g = abs(letters[i]) - 1
        e = (j - i) if letters[i] > 0 else -(j - i)
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
        i = j
    return "*".join(parts)


def rewrite_presentation(pres, rng):
    """An equivalent presentation: renamed generators, each relator rotated
    (a conjugate) and possibly inverted, relators in shuffled order."""
    gens = pres["generators"]
    index = {g: i for i, g in enumerate(gens)}
    pool = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase + string.digits]
    names = rng.sample(pool, len(gens))
    relators = []
    for rel in pres["relators"]:
        w = _letters(rel, index)
        if rng.random() < 0.5:
            w = [-x for x in reversed(w)]
        if w:
            r = rng.randrange(len(w))
            w = w[r:] + w[:r]
        relators.append(_text(w, names))
    rng.shuffle(relators)
    return {"generators": names, "relators": relators}


def seeded_commands(workload, seed, workdir):
    """The run's command list: [(canonical line, argv)], with Pres files for
    rewritten specs written under workdir (a path relative to the checkout)."""
    rng = random.Random(seed)
    presentations = load_json("presentations.json")
    lines = list(WORKLOADS[workload])
    rng.shuffle(lines)
    out = []
    for k, line in enumerate(lines):
        argv = line.split()
        for pos in command_specs(argv):
            path = os.path.join(workdir, f"cmd{k}_arg{pos}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rewrite_presentation(presentations[argv[pos]], rng), fh)
            argv[pos] = f"Pres:{path}"
        out.append((line, argv))
    return out
