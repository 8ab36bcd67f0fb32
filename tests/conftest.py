"""Shared test corpus.

Corpus membership is deliberate: the deep-chain groups C64/D64 are excluded so
that exhaustive power-map enumerations stay inside the default caps, and the
order-128 pair appears only where the algebra side is affordable.
"""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from modiso.families import build, from_presentation
from modiso.words import Presentation, word_concat, word_inverse

# 2-groups of order <= 32 plus the matching 3-groups; the shared corpus for
# the structural property suites
CORPUS_SMALL = [
    "C:2", "C:4", "C:8", "C:16", "C:32",
    "EA:2,2", "EA:2,3", "Ab:4,2", "Ab:4,4", "Ab:8,2",
    "D8", "Q8",
    "Meta:2,3,1,0,7",   # dihedral of order 16
    "Meta:2,3,1,1,7",   # generalized quaternion of order 16
    "Meta:2,3,1,0,3",   # semidihedral of order 16
    "Meta:2,3,1,0,5",   # modular of order 16
    "Meta:2,4,1,0,15",  # dihedral of order 32
    "Meta:2,4,1,1,15",  # generalized quaternion of order 32
    "B1G:1", "B1H:1", "B2G:1,2", "B2H:1,2",
    "X:C:2*D8", "X:C:2*Q8",
    "C:3", "C:9", "C:27",
    "EA:3,2", "EA:3,3", "Ab:9,3",
    "Meta:3,2,1,0,4",   # modular of order 27
    "HEIS27",
]

# additions for the radical-filtration suite (algebra side affordable to 128)
CORPUS_MEDIUM = CORPUS_SMALL + [
    "B2G:1,3", "B2H:1,3", "T:1,4", "T:2,4", "B2G:2,3", "B2H:2,3",
]

METACYCLIC_SPECS = [
    "C:4", "C:8", "C:16", "C:32", "C:64",
    "Ab:4,2", "Ab:8,2", "Ab:16,2", "Ab:4,4", "Ab:8,4",
    "D8", "Q8",
    "Meta:2,3,1,0,7", "Meta:2,3,1,1,7", "Meta:2,3,1,0,3", "Meta:2,3,1,0,5",
    "Meta:2,4,1,0,15", "Meta:2,4,1,1,15", "Meta:2,4,1,0,7", "Meta:2,4,1,0,9",
    "Meta:3,2,1,0,4", "Meta:3,3,1,0,10", "Meta:3,2,2,0,4",
]

NON_METACYCLIC_SPECS = [
    "EA:2,3", "EA:2,4", "EA:2,5", "EA:3,3", "Ab:9,3,3",
    "Ab:4,2,2", "Ab:8,2,2", "X:C:2*D8", "X:C:2*Q8",
    "X:C:2*Meta:2,3,1,0,5", "HEIS27",
]


def build_corpus_group(spec: str):
    if spec == "HEIS27":
        # extraspecial of order 27 and exponent 3
        return from_presentation(
            ("a", "b", "c"),
            ("a^3", "b^3", "[b,a]*c^-1", "c^3", "[c,a]", "[c,b]"),
            declared_order=27)
    return build(spec)


@pytest.fixture(scope="session")
def corpus_small():
    return [(spec, build_corpus_group(spec)) for spec in CORPUS_SMALL]


@pytest.fixture(scope="session")
def corpus_medium():
    return [(spec, build_corpus_group(spec)) for spec in CORPUS_MEDIUM]


@pytest.fixture
def associative_sections(monkeypatch):
    """Every radical section built while the test runs, and its prime
    restriction, passes `oracles.check_associative`."""
    import oracles
    from modiso import modalg

    build_section = modalg.radical_section

    def checked(*args, **kwargs):
        Q = build_section(*args, **kwargs)
        oracles.check_associative(Q)
        if (P := modalg._prime_restriction(Q)) is not Q:
            oracles.check_associative(P)
        return Q

    monkeypatch.setattr(modalg, "radical_section", checked)


def adversarial_presentation(P: Presentation, rng: random.Random) -> Presentation:
    """The same group through the Tietze substitution a -> a'*b^-1 (a' = ab)
    for two distinct generators a and b, then every relator rotated and
    possibly inverted, the relators shuffled and the generators renamed and
    reordered."""
    ngens = len(P.generators)
    a, b = (g + 1 for g in rng.sample(range(ngens), 2))
    sub = {a: (a, -b), -a: (b, -a)}
    rels = []
    for w in P.relators:
        w = list(word_concat(*(sub.get(x, (x,)) for x in w)))
        if w:
            r = rng.randrange(len(w))
            w = w[r:] + w[:r]
        if rng.random() < 0.5:
            w = word_inverse(w)
        rels.append(word_concat(w))
    rng.shuffle(rels)
    slot = rng.sample(range(ngens), ngens)
    rels = [tuple((slot[abs(x) - 1] + 1) * (1 if x > 0 else -1) for x in w) for w in rels]
    names = rng.sample([f"{c}{i}" for c in "uvwxyz" for i in range(10)], ngens)
    return Presentation(tuple(names), tuple(rels))


def run_optimized(code: str) -> str:
    """Run code under `python -O`, which strips every assert, with the
    package and the tests importable; its stdout."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
