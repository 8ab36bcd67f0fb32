"""Resource caps, and the default of every capped library function. Every
cap is overridable; fingerprint entries whose cap fires are reported as
unavailable rather than computed or guessed."""

from __future__ import annotations

import json

from .errors import CapExceeded


class Caps:
    """The caps, keyword-constructed over `DEFAULTS` and immutable, since
    `DEFAULT_CAPS` is every capped function's default. `FIELDS` is the
    schema that `from_json` reads."""

    DEFAULTS = {
        "coset_cap": 100000,
        "group_order_cap": 2187,
        "algebra_order_cap": 256,
        "enum_cap": 1 << 24,
        "elemab_cap": 10**6,
        "direct_factor_cap": 64,
        "kernel_order_cap": 32,
        "kernel_q_cap": 4,
        "zassenhaus_order_cap": 64,
        "iso_cap": 10**7,
        "kernel_sections": ((1, 2, 1), (1, 3, 1), (2, 3, 1), (1, 3, 2)),
    }
    FIELDS = tuple(DEFAULTS)
    __slots__ = FIELDS

    def __init__(self, **caps):
        unknown = caps.keys() - Caps.DEFAULTS.keys()
        if unknown:
            raise TypeError(f"unknown cap names: {sorted(unknown)}")
        if "kernel_sections" in caps:
            caps["kernel_sections"] = _kernel_sections(caps["kernel_sections"])
        for name, default in Caps.DEFAULTS.items():
            object.__setattr__(self, name, caps.get(name, default))

    def __setattr__(self, name, value):
        raise AttributeError("Caps are immutable")

    def check_algebra_order(self, n: int):
        """Raise CapExceeded unless a group of order n is within
        `algebra_order_cap`: the gate of every route that builds FG."""
        if n > self.algebra_order_cap:
            raise CapExceeded("algebra_order_cap",
                              f"|G| = {n} exceeds the algebra-side cap {self.algebra_order_cap}")

    @staticmethod
    def from_json(data) -> "Caps":
        """Caps from a decoded JSON object; raises ValueError on unknown names
        and on values of the wrong shape."""
        if not isinstance(data, dict):
            raise ValueError("caps must be a JSON object")
        unknown = set(data) - set(Caps.FIELDS)
        if unknown:
            raise ValueError(f"unknown cap names: {sorted(unknown)}")
        for name, value in data.items():
            if name != "kernel_sections" and not _is_count(value):
                raise ValueError(f"cap {name} must be an integer >= 0, got {value!r}")
        return Caps(**data)

    @staticmethod
    def load(path) -> "Caps":
        with open(path, encoding="utf-8") as fh:
            return Caps.from_json(json.load(fh))


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _kernel_sections(value) -> tuple:
    """kernel_sections, a list or tuple of lists or tuples (i, j, k), as a
    tuple of tuples: the section Δ^i/Δ^j with 1 <= i < j and the power p^k,
    k >= 0."""
    if not (isinstance(value, (list, tuple)) and all(
            isinstance(entry, (list, tuple)) and len(entry) == 3 and all(map(_is_count, entry))
            and 1 <= entry[0] < entry[1] for entry in value)):
        raise ValueError("kernel_sections must be a list of [i, j, k] with 1 <= i < j "
                         f"and k >= 0, got {value!r}")
    return tuple(map(tuple, value))


DEFAULT_CAPS = Caps()
