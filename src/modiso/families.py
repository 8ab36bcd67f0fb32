"""Every group family of interest, as a presentation with a declared order.

`build` is the one construction path. It turns a spec of the mini-language

    D8  Q8  C:8  Ab:4,2  EA:3,2  Meta:2,3,1,0,5  T:4,5
    B1G:2  B1H:2  B2G:1,2  B2H:1,2  X:<spec>*<spec>  Pres:<path>

into a presentation, runs coset enumeration, and asserts that the group it
finds has the declared order.

Each family row is a generator over the spec's integer parameters: it
validates them, yields the declared order as (base, exponent), and yields the
presentation only once `build` has checked that order against the cap, so a
huge order never becomes a huge integer or relator text.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import gcd, prod

from .caps import DEFAULT_CAPS
from .errors import SpecParseError
from .groups import FiniteGroup, _is_prime_power
from .words import Presentation, todd_coxeter, word_commutator


def _order_8(gens, rels):
    yield 2, 3
    yield Presentation.parse(gens, rels)


def _abelian(*orders):
    if any(x < 1 for x in orders):
        raise ValueError("orders must be positive")
    yield prod(orders), 1
    gens = tuple(chr(ord("a") + i) if len(orders) <= 26 else f"g{i}" for i in range(len(orders)))
    # commutators first: the relator order fixes the element numbering,
    # which `iso` prints
    rels = [f"[{gens[j]},{gens[i]}]" for i in range(len(gens)) for j in range(i + 1, len(gens))]
    rels += [f"{g}^{x}" for g, x in zip(gens, orders)]
    yield Presentation.parse(gens, rels)


def _elem_abelian(p, r):
    if p < 2 or r < 1:
        raise ValueError("need a prime p and r >= 1")
    yield p, r
    if _is_prime_power(p) != (p, 1):  # p <= the cap once `build` resumes the row
        raise ValueError(f"{p} is not prime")
    # the r-fold order list exists only once p^r has passed the cap
    yield from islice(_abelian(*(p,) * r), 1, None)


def _metacyclic(p, m, n, s, r):
    """⟨a,b | a^(p^m) = 1, b^(p^n) = a^(p^(m-s)), a^b = a^r⟩, order p^(m+n).

    The order assertion is the consistency check: a bad (s, r) pair collapses
    the group and is rejected.
    """
    if not (0 <= s <= m) or p < 2 or gcd(r, p) != 1 or m < 1 or n < 0:
        raise ValueError("metacyclic parameters out of range")
    yield p, m + n
    if _is_prime_power(p) != (p, 1):
        raise ValueError(f"{p} is not prime")
    rels = (f"a^{p**m}", f"b^{p**n}*a^{-(p**(m - s))}", f"b^-1*a*b*a^{-r}")
    yield Presentation.parse(("a", "b"), rels)


def _max_class_3(i, n):
    """The i-th series member among the 3-groups of maximal class, order 3^n.

    Presented on {a,b,c,d} with defining relators c=[b,a], d=[c,a]; the
    central element z is eliminated textually (it is a power of c or d
    depending on the parity of n).
    """
    if i not in range(1, 8):
        raise ValueError("series index must be 1..7")
    if n < 4 or (i >= 5 and n < 5):
        raise ValueError(f"series {i} needs n >= {5 if i >= 5 else 4}")
    yield 3, n

    rels = ["[b,a]*c^-1", "[c,a]*d^-1", "[d,a]*d^3*c^3", "[d,b]", "[d,c]",
            f"c^{3**((n - 1) // 2)}", f"d^{3**((n - 2) // 2)}"]
    zbase, zexp = "d" if n % 2 == 0 else "c", (-3)**((n - 3) // 2)

    def z_pow(t):
        return f"*{zbase}^{zexp * t}" if t else ""

    # the z-exponents of a^3, b^3 and [c,b], one row per series
    a3, b3z, cb = {1: (0, 0, 0), 2: (0, 1, 0), 3: (0, -1, 0), 4: (1, 0, 0),
                   5: (0, 0, -1), 6: (1, 0, -1), 7: (-1, 0, -1)}[i]
    rels.append("a^3" + z_pow(-a3))
    rels.append("b^3" + z_pow(-b3z) + "*d*c^3")
    rels.append("[c,b]" + z_pow(-cb))
    yield Presentation.parse(("a", "b", "c", "d"), rels)


def _broche(variant, m, n=None):
    """The two-generated class-two pairs. Case 1 (n None) has
    a^(2^m) = [b,a]^(2^(m-1)), order 2^(3m); case 2 has a of order 2^n with
    n > m, order 2^(n+2m). The G side has b^(2^m) = [b,a]^(2^(m-1)), the H
    side b^(2^m) = 1."""
    if m < 1 or (n is not None and n <= m):
        raise ValueError("need m >= 1, and n > m in case 2")
    yield 2, 3 * m if n is None else n + 2 * m
    rels = [f"[b,a]^{2**m}", "[[b,a],a]", "[[b,a],b]",
            f"a^{2**m}*([b,a]^{2**(m - 1)})^-1" if n is None else f"a^{2**n}"]
    rels.append(f"b^{2**m}" + ("" if variant == "H" else f"*([b,a]^{2**(m - 1)})^-1"))
    yield Presentation.parse(("a", "b"), rels)


def _direct_product(factors):
    """The factors' presentations side by side (generators get _k suffixes),
    each generator commuting with those of the later factors; the
    cross-commutators come first, as in `_abelian`."""
    yield prod(F.n for F in factors), 1
    gens, relators, ends = [], [], []
    for idx, F in enumerate(factors, start=1):
        P, offset = F.presentation, len(gens)
        gens += [f"{name}_{idx}" for name in P.generators]
        relators += [tuple(x + offset if x > 0 else x - offset for x in w) for w in P.relators]
        ends += [len(gens)] * len(P.generators)
    commutators = [word_commutator((a + 1,), (b + 1,))
                   for a in range(len(gens)) for b in range(ends[a], len(gens))]
    yield Presentation(tuple(gens), tuple(commutators + relators))


# head -> (integer parameter count, None for any; row); D8 and Q8 take no colon
_FAMILIES = {
    "D8": (0, lambda: _order_8(("r", "s"), ("r^4", "s^2", "(s*r)^2"))),
    "Q8": (0, lambda: _order_8(("i", "j"), ("i^4", "j^2*i^-2", "j^-1*i*j*i"))),
    "C": (1, _abelian),
    "Ab": (None, _abelian),
    "EA": (2, _elem_abelian),
    "Meta": (5, _metacyclic),
    "T": (2, _max_class_3),
    "B1G": (1, lambda m: _broche("G", m)),
    "B1H": (1, lambda m: _broche("H", m)),
    "B2G": (2, lambda m, n: _broche("G", m, n)),
    "B2H": (2, lambda m, n: _broche("H", m, n)),
}


def _ints(rest, how_many, what):
    parts = rest.split(",")
    if how_many is not None and len(parts) != how_many:
        raise SpecParseError(f"{what} needs {how_many} integer parameter(s), got {rest!r}")
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise SpecParseError(f"bad integer in {rest!r}") from None


@lru_cache(maxsize=256)
def build(spec: str, order_cap: int = DEFAULT_CAPS.group_order_cap,
          coset_cap: int = DEFAULT_CAPS.coset_cap) -> FiniteGroup:
    """Construct a group from its mini-language spec string.

    A family's declared order is checked against `order_cap` before its
    presentation is formed, and the enumerated group must have exactly that
    order. A `Pres:` file declares no order; `order_cap` bounds the group it
    presents once its cosets are enumerated.
    """
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    if head == "Pres" and sep:
        return todd_coxeter(Presentation.load(rest), coset_cap, order_cap)
    if head == "X" and sep:
        parts = rest.split("*")
        if len(parts) < 2:
            raise SpecParseError("X: needs at least two *-separated factors")
        row = _direct_product([build(part, order_cap, coset_cap) for part in parts])
    elif head in _FAMILIES and bool(sep) == (_FAMILIES[head][0] != 0):
        how_many, family = _FAMILIES[head]
        row = family(*_ints(rest, how_many, head)) if sep else family()
    else:
        raise SpecParseError(f"unknown family spec {spec!r}")
    base, exp = next(row)
    # once 2^exp exceeds the cap the exponent decides, and base^exp is never formed
    if (base >= 2 and exp >= order_cap.bit_length()) or base**exp > order_cap:
        order = base if exp == 1 else f"{base}^{exp}"
        raise ValueError(f"declared order {order} exceeds group-order cap {order_cap}")
    G = todd_coxeter(next(row), coset_cap, order_cap)
    if G.n != base**exp:
        raise ValueError(f"inconsistent presentation: got order {G.n}, declared {base**exp}")
    return G


def from_presentation(gens, relator_texts, declared_order=None):
    """Arbitrary presentation escape hatch (used by the test corpus)."""
    G = todd_coxeter(Presentation.parse(tuple(gens), tuple(relator_texts)))
    if declared_order is not None and G.n != declared_order:
        raise ValueError(
            f"inconsistent presentation: got order {G.n}, declared {declared_order}")
    return G

