"""Finite p-groups, their modular group algebras over small finite fields, and
the invariant battery for deciding group-algebra (non-)isomorphism at desk
scale, with verified witnesses.

The exported names load on first access (PEP 562), so `import modiso` and a
`mip` command import only the submodules they use.
"""

import importlib

_EXPORTS = {
    "Caps": "caps", "DEFAULT_CAPS": "caps", "CapExceeded": "errors", "SpecParseError": "errors",
    "build": "families",
    "FiniteField": "gfq", "Subspace": "gfq", "make_field": "gfq",
    "FiniteGroup": "groups", "Subgroup": "groups",
    "Fingerprint": "invariants", "Verdict": "invariants", "compare": "invariants",
    "fingerprint": "invariants",
    "IsoWitness": "iso", "NotIsomorphic": "iso", "group_isomorphic": "iso",
    "nilpotent_algebra_iso": "iso", "verify_witness": "iso",
    "QuotientAlgebra": "modalg",
    "Presentation": "words", "parse_word": "words", "print_word": "words",
    "todd_coxeter": "words",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
