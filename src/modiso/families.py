"""Constructors for every group family of interest, with order assertions.

Each constructor assembles a presentation, runs coset enumeration, and checks
the resulting order against the declared formula. The string mini-language
(`build`) is the surface the CLI uses:

    D8  Q8  C:8  Ab:4,2  EA:3,2  Meta:2,3,1,0,5  T:4,5
    B1G:2  B1H:2  B2G:1,2  B2H:1,2  X:<spec>*<spec>  Pres:<path>
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

from .errors import SpecParseError
from .groups import FiniteGroup
from .words import Presentation, todd_coxeter, word_commutator

ORDER_CAP_DEFAULT = 2187
COSET_CAP_DEFAULT = 100000

_ABC = "abcdefghijklmnopqrstuvwxyz"


def _tc(gens, relator_texts, declared_order=None, coset_cap=COSET_CAP_DEFAULT):
    P = Presentation.parse(gens, relator_texts)
    G = todd_coxeter(P, coset_cap=coset_cap)
    if declared_order is not None and G.n != declared_order:
        raise ValueError(
            f"inconsistent presentation: got order {G.n}, declared {declared_order}")
    return G


def dihedral8(coset_cap=COSET_CAP_DEFAULT):
    return _tc(("r", "s"), ("r^4", "s^2", "(s*r)^2"), 8, coset_cap)


def quaternion8(coset_cap=COSET_CAP_DEFAULT):
    return _tc(("i", "j"), ("i^4", "j^2*i^-2", "j^-1*i*j*i"), 8, coset_cap)


def cyclic(n, coset_cap=COSET_CAP_DEFAULT):
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    return _tc(("a",), (f"a^{n}",), n, coset_cap)


def abelian(orders, coset_cap=COSET_CAP_DEFAULT):
    orders = tuple(int(x) for x in orders)
    if not orders or any(x < 1 for x in orders):
        raise ValueError("orders must be positive")
    gens = tuple(_ABC[i] if len(orders) <= 26 else f"g{i}" for i in range(len(orders)))
    rels = [f"{g}^{x}" for g, x in zip(gens, orders)]
    rels += [f"[{gens[j]},{gens[i]}]" for i in range(len(gens)) for j in range(i + 1, len(gens))]
    return _tc(gens, rels, prod(orders), coset_cap)


def elem_abelian(p, r, coset_cap=COSET_CAP_DEFAULT):
    return abelian((p,) * r, coset_cap)


def metacyclic(p, m, n, s, r, coset_cap=COSET_CAP_DEFAULT):
    """⟨a,b | a^(p^m) = 1, b^(p^n) = a^(p^(m-s)), a^b = a^r⟩, order p^(m+n).

    The order assertion is the consistency check: a bad (s, r) pair collapses
    the group and is rejected.
    """
    if not (0 <= s <= m) or gcd(r, p) != 1 or m < 1 or n < 0:
        raise ValueError("metacyclic parameters out of range")
    rels = (f"a^{p**m}", f"b^{p**n}*a^{-(p**(m - s))}", f"b^-1*a*b*a^{-r}")
    return _tc(("a", "b"), rels, p**(m + n), coset_cap)


def max_class_3(i, n, order_cap=ORDER_CAP_DEFAULT, coset_cap=COSET_CAP_DEFAULT):
    """The i-th series member among the 3-groups of maximal class, order 3^n.

    Presented on {a,b,c,d} with defining relators c=[b,a], d=[c,a]; the
    central element z is eliminated textually (it is a power of c or d
    depending on the parity of n).
    """
    if i not in range(1, 8):
        raise ValueError("series index must be 1..7")
    if n < 4 or (i >= 5 and n < 5):
        raise ValueError(f"series {i} needs n >= {5 if i >= 5 else 4}")
    if 3**n > order_cap:
        raise ValueError(f"order 3^{n} exceeds cap {order_cap}")

    rels = ["[b,a]*c^-1", "[c,a]*d^-1", "[d,a]*d^3*c^3", "[d,b]", "[d,c]"]
    if n % 2 == 0:
        e = (n - 2) // 2
        rels += [f"c^{3**e}", f"d^{3**e}"]
        zbase, zexp = "d", (-3)**((n - 4) // 2)
    else:
        rels += [f"c^{3**((n - 1) // 2)}", f"d^{3**((n - 3) // 2)}"]
        zbase, zexp = "c", (-3)**((n - 3) // 2)

    def z_pow(t):
        return f"*{zbase}^{zexp * t}" if t else ""

    a3 = {1: 0, 2: 0, 3: 0, 4: 1, 5: 0, 6: 1, 7: -1}[i]
    b3z = {1: 0, 2: 1, 3: -1, 4: 0, 5: 0, 6: 0, 7: 0}[i]
    cb = {1: 0, 2: 0, 3: 0, 4: 0, 5: -1, 6: -1, 7: -1}[i]
    rels.append("a^3" + z_pow(-a3))
    rels.append("b^3" + z_pow(-b3z) + "*d*c^3")
    rels.append("[c,b]" + z_pow(-cb))
    G = _tc(("a", "b", "c", "d"), rels, 3**n, coset_cap)
    return G


def broche_case1(variant, m, coset_cap=COSET_CAP_DEFAULT):
    """Two-generated class-two pair with a^(2^m) = b^(2^m) = [b,a]^(2^(m-1))
    on the G side, b^(2^m) = 1 on the H side; order 2^(3m)."""
    if variant not in ("G", "H") or m < 1:
        raise ValueError("variant must be G or H with m >= 1")
    rels = [f"[b,a]^{2**m}", "[[b,a],a]", "[[b,a],b]",
            f"a^{2**m}*([b,a]^{2**(m - 1)})^-1"]
    rels.append(f"b^{2**m}" + ("" if variant == "H" else f"*([b,a]^{2**(m - 1)})^-1"))
    return _tc(("a", "b"), rels, 2**(3 * m), coset_cap)


def broche_case2(variant, m, n, coset_cap=COSET_CAP_DEFAULT):
    """Two-generated class-two pair with a of order 2^n (n > m); the G side has
    b^(2^m) = [b,a]^(2^(m-1)), the H side b^(2^m) = 1; order 2^(n+2m)."""
    if variant not in ("G", "H") or not (n > m >= 1):
        raise ValueError("need variant in {G, H} and n > m >= 1")
    rels = [f"[b,a]^{2**m}", "[[b,a],a]", "[[b,a],b]", f"a^{2**n}"]
    rels.append(f"b^{2**m}" + ("" if variant == "H" else f"*([b,a]^{2**(m - 1)})^-1"))
    return _tc(("a", "b"), rels, 2**(n + 2 * m), coset_cap)


def direct_product(factors, coset_cap=COSET_CAP_DEFAULT, order_cap=ORDER_CAP_DEFAULT):
    """Direct product via a combined presentation (generators get _k suffixes)."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    declared = prod(F.n for F in factors)
    _check_cap(declared, order_cap)
    gens = []
    relators = []
    offset = 0
    for idx, F in enumerate(factors, start=1):
        P = F.presentation
        if P is None:
            raise ValueError("direct factors must carry presentations")
        gens.extend(f"{name}_{idx}" for name in P.generators)
        for w in P.relators:
            relators.append(tuple(x + offset if x > 0 else x - offset for x in w))
        offset += len(P.generators)
    off = 0
    for F in factors:
        k = len(F.presentation.generators)
        for a in range(off, off + k):
            for b in range(off + k, offset):
                relators.append(word_commutator((a + 1,), (b + 1,)))
        off += k
    P = Presentation(tuple(gens), tuple(relators))
    G = todd_coxeter(P, coset_cap=coset_cap)
    if G.n != declared:
        raise ValueError(f"direct product order {G.n} != {declared}")
    return G


def presented(path, coset_cap=COSET_CAP_DEFAULT, order_cap=ORDER_CAP_DEFAULT):
    return todd_coxeter(Presentation.load(path), coset_cap=coset_cap, order_cap=order_cap)


def from_presentation(gens, relator_texts, declared_order=None, coset_cap=COSET_CAP_DEFAULT):
    """Arbitrary presentation escape hatch (used by the test corpus)."""
    return _tc(tuple(gens), tuple(relator_texts), declared_order, coset_cap)


# -- mini-language ------------------------------------------------------------

def _ints(rest, how_many, what):
    parts = rest.split(",")
    if len(parts) != how_many:
        raise SpecParseError(f"{what} needs {how_many} integer parameter(s), got {rest!r}")
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise SpecParseError(f"bad integer in {rest!r}") from None


@lru_cache(maxsize=256)
def build(spec: str, order_cap: int = ORDER_CAP_DEFAULT, coset_cap: int = COSET_CAP_DEFAULT) -> FiniteGroup:
    """Construct a group from its mini-language spec string."""
    spec = spec.strip()
    if spec == "D8":
        return dihedral8(coset_cap)
    if spec == "Q8":
        return quaternion8(coset_cap)
    if spec.startswith("X:"):
        parts = spec[2:].split("*")
        if len(parts) < 2:
            raise SpecParseError("X: needs at least two *-separated factors")
        return direct_product([build(p, order_cap, coset_cap) for p in parts], coset_cap,
                              order_cap)
    if spec.startswith("Pres:"):
        return presented(spec[5:], coset_cap, order_cap)
    head, _, rest = spec.partition(":")
    if not rest:
        raise SpecParseError(f"unknown family spec {spec!r}")
    if head == "C":
        (n,) = _ints(rest, 1, "C")
        _check_cap(n, order_cap)
        return cyclic(n, coset_cap)
    if head == "Ab":
        orders = [int(x) for x in rest.split(",") if x]
        if not orders:
            raise SpecParseError("Ab: needs at least one order")
        _check_cap(prod(orders), order_cap)
        return abelian(orders, coset_cap)
    if head == "EA":
        p, r = _ints(rest, 2, "EA")
        _check_cap(p**r, order_cap)
        return elem_abelian(p, r, coset_cap)
    if head == "Meta":
        p, m, n, s, r = _ints(rest, 5, "Meta")
        _check_cap(p**(m + n), order_cap)
        return metacyclic(p, m, n, s, r, coset_cap)
    if head == "T":
        i, n = _ints(rest, 2, "T")
        return max_class_3(i, n, order_cap, coset_cap)
    if head in ("B1G", "B1H"):
        (m,) = _ints(rest, 1, head)
        _check_cap(2**(3 * m), order_cap)
        return broche_case1(head[-1], m, coset_cap)
    if head in ("B2G", "B2H"):
        m, n = _ints(rest, 2, head)
        _check_cap(2**(n + 2 * m), order_cap)
        return broche_case2(head[-1], m, n, coset_cap)
    raise SpecParseError(f"unknown family spec {spec!r}")


def _check_cap(order, cap):
    if order > cap:
        raise ValueError(f"declared order {order} exceeds group-order cap {cap}")


def paper_pair(name: str, *params):
    """The standard comparison pairs, in (G, H) order."""
    if name == "d8q8":
        return dihedral8(), quaternion8()
    if name == "broche1":
        (m,) = params
        return broche_case1("G", m), broche_case1("H", m)
    if name == "broche2":
        m, n = params
        return broche_case2("G", m, n), broche_case2("H", m, n)
    if name == "t2t3":
        (n,) = params
        return max_class_3(2, n), max_class_3(3, n)
    raise ValueError(f"unknown pair {name!r}")
