"""The invariant battery: assemble a Fingerprint of (G, F) and compare two
fingerprints.

Every entry of the Fingerprint is forced equal for groups with isomorphic
group algebras over the given field, so any difference between two
fingerprints certifies that the algebras are non-isomorphic. Entries whose
resource cap fired are recorded as Unavailable and excluded from comparison:
caps must never manufacture an indistinguishability claim.
"""

from __future__ import annotations

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .errors import CapExceeded
from .gfq import FiniteField, _check_indexable, _enumerate_coords
from .groups import (
    FiniteGroup,
    _commutators,
    _jennings_basis,
    _log_p,
    abelian_type,
    agemo,
    centralizer,
    char_series,
    conjugacy_classes,
    exponent,
    jennings_ranks,
    jennings_series,
    max_elem_abelian_direct_factor,
    maximal_elem_abelian_classes,
    min_generators,
    omega,
    subgroup_intersection,
    subgroup_product,
)


class Unavailable:
    """An entry whose cap fired, named by the cap."""

    __slots__ = ("cap",)

    def __init__(self, cap: str):
        self.cap = cap

    def __eq__(self, other):
        return isinstance(other, Unavailable) and self.cap == other.cap


def hh1_dimension(G: FiniteGroup) -> int:
    """Dimension of the first Hochschild cohomology of FG: the sum over
    conjugacy classes of the minimal number of generators of the centralizer
    (a purely group-theoretic value, independent of the field size).

    Classes carry no centralizer; this builds `centralizer(G, c.rep)` for
    each class and reads d once per distinct centralizer subgroup."""
    G.require_p_group()
    total = 0
    seen = {}
    for c in conjugacy_classes(G):
        C = centralizer(G, c.rep)
        if C not in seen:
            seen[C] = min_generators(C)
        total += seen[C]
    return total


def class_power_stats(G: FiniteGroup, k: int):
    """(number of distinct class power sets C^(p^k),
    number of classes with |C^(p^k)| = |C|)."""
    p, _ = G.require_p_group()
    pk = G.pow_map(p**k)
    distinct = set()
    preserving = 0
    for c in conjugacy_classes(G):
        power = frozenset(pk[c.elems].tolist())
        distinct.add(power)
        if len(power) == c.length:
            preserving += 1
    return len(distinct), preserving


def transfer_sections(G: FiniteGroup):
    """For k = 0..e, the types of the six invariant abelian sections built
    from Z = Z(G), ℧_k, Ω_k, and G', in row order Z ∩ ℧_k(G)G',
    Z℧_k(G)G' / ℧_k(G)G', G / ℧_k(Z)G', ℧_k(Z)G' / G', G / Ω_k(Z)G' and
    Ω_k(Z)G' / G'. e is the least k with ℧_k(G) = 1, which is log_p exp(G),
    since g^(p^k) = 1 for all g iff p^k >= exp(G)."""
    p, _ = G.require_p_group()
    cs = char_series(G)
    Z, derived = cs.center, cs.derived
    full = G.full_subgroup()
    out = []
    for k in range(_log_p(exponent(G), p) + 1):
        pow_derived = subgroup_product(agemo(G, k), derived)
        pow_center_derived = subgroup_product(agemo(Z, k), derived)
        tor_center_derived = subgroup_product(omega(Z, k), derived)
        row = {
            "center_meet_pow_derived": abelian_type(subgroup_intersection(Z, pow_derived)),
            "center_mod_pow_derived": abelian_type(subgroup_product(Z, pow_derived), pow_derived),
            "over_pow_center_derived": abelian_type(full, pow_center_derived),
            "pow_center_derived_mod_derived": abelian_type(pow_center_derived, derived),
            "over_tor_center_derived": abelian_type(full, tor_center_derived),
            "tor_center_derived_mod_derived": abelian_type(tor_center_derived, derived),
        }
        out.append(row)
    return out


def square_cell(G: FiniteGroup, F: FiniteField, D: int) -> tuple:
    """The kernel cell (1, 3, 1) for p = 2, read off the group: (#x in Δ/Δ³
    with x² in Δ³, #other x), where Δ/Δ³ has F_2-dimension D.

    Let g_1..g_d be the weight-1 Jennings generators and v: D_2/D_3 ->
    F_2^r the coordinates in the weight-2 ones. In characteristic 2,
    x = Σ a_i (g_i - 1) + Δ² has x² ≡ Σ_l Q_l(a) (h_l - 1) mod Δ³ with
    Q(a) = Σ a_i² v(g_i²) + Σ_(i<j) a_i a_j v([g_i, g_j]), and the h_l - 1
    are independent mod Δ³ (notes/decisions.md, "The square cell is read
    off the group"). So the kernel is the zeros of Q over F^d, times
    |Δ²/Δ³| = 2^(D - F.k·d)."""
    basis = _jennings_basis(G)
    ones = [g for g, w in basis if w == 1]
    twos = [g for g, w in basis if w == 2]
    # coordinates on D_2: D_3 (trivial past the series' end) is 0, and
    # x·h_l adds bit l to x in D_3<h_1..h_(l-1)>
    series = jennings_series(G)
    coord = np.full(G.n, -1, dtype=np.int64)
    coord[series[min(2, len(series) - 1)].elems] = 0
    for bit, h in enumerate(twos):
        known = np.flatnonzero(coord >= 0)
        coord[G.mul[known, h]] = coord[known] | (1 << bit)
    a = np.asarray(ones, dtype=np.int32)
    pairs = np.triu_indices(len(ones), 1)
    comm = _commutators(G, a[:, None], a)[pairs]
    terms = np.concatenate([coord[G.mul[a, a]], coord[comm]])
    C = ((terms[:, None] >> np.arange(len(twos))) & 1).astype(np.uint8)
    zero = 0
    for x in _enumerate_coords(F.q, len(ones), "enum_cap"):
        monomials = np.hstack([F.MUL[x, x], F.MUL[x[:, pairs[0]], x[:, pairs[1]]]])
        zero += int((~F.matmul(monomials, C).any(axis=1)).sum())
    zero *= F.p ** (D - F.k * len(ones))
    return zero, F.p**D - zero


def kernel_cell(G: FiniteGroup, F: FiniteField, i: int, j: int, k: int,
                caps: Caps = DEFAULT_CAPS) -> tuple:
    """The kernel cell (i, j, k): (#x in Δ^i/Δ^j with x^(p^k) in Δ^j, #other
    x). The one route of every cell, and every gate of the work it does, in
    order (notes/decisions.md, "One kernel-cell route"): `algebra_order_cap`
    bounds |G|; the section's F_p-dimension D is read off the Jennings dims;
    `enum_cap` bounds p^D; a forced cell is the whole section; any other
    cell needs p^D < 2^63, and is read off the group for p = 2 and (1,3,1),
    else counted by truncation in FG. Raises CapExceeded, and ValueError
    unless 1 <= i < j, k >= 0 and G is a p-group of F's characteristic."""
    if not 1 <= i < j or k < 0:
        raise ValueError(f"kernel cell ({i}, {j}, {k}) needs 1 <= i < j and k >= 0")
    caps.check_algebra_order(G.n)
    p, _ = G.require_p_group(F.p)
    D = F.k * sum(predicted_jennings_dims(G)[i - 1:j - 1])
    if D > 0 and p**D > caps.enum_cap:
        raise CapExceeded("enum_cap", f"{p}^{D} elements exceed the enumeration cap {caps.enum_cap}")
    if k >= j.bit_length() or i * p**k >= j:
        # forced: x in Δ^i has x^(p^k) in Δ^(i p^k) ⊆ Δ^j (p^k >= 2^k > j
        # when k >= j.bit_length()), so the whole section is the kernel
        return p**D, 0
    _check_indexable(p, D, "enum_cap")
    if p == 2 and (i, j, k) == (1, 3, 1):
        return square_cell(G, F, D)
    from . import modalg

    return modalg.kernel_size_power_map(modalg.radical_section(G, F, i, j), k)


class Fingerprint:
    """The fingerprint's schema is its field list `FIELDS`: the field order
    is the JSON key order, and `compare` reads the fields in three passes
    (see there)."""

    FIELDS = (
        "field_spec",  # (p, k)
        "order",
        "abelianization",
        "center_type",
        "jennings_factors",
        "min_gens",
        "exponent",
        "nilpotency_class",
        "class_flags",
        "class_power_stats",  # [{"k", "distinct_powers", "size_preserving"}]
        "hh1_dim",
        "max_elem_ab_classes",  # dict or Unavailable
        "transfer_sections",  # [{section name: type}], row k at position k
        "elem_ab_direct_factor_rank",
        "jennings_dims",  # list or Unavailable
        "kernel_sizes",  # [{"section": (i, j), "power": k, "counts": (z, nz) | Unavailable}]
        "small_group_ring_dim",
        "zassenhaus_dims",
    )
    __slots__ = FIELDS

    def __init__(self, **entries):
        if entries.keys() != set(Fingerprint.FIELDS):
            raise TypeError("a Fingerprint takes exactly its FIELDS")
        for name, value in entries.items():
            setattr(self, name, value)


def fingerprint(G: FiniteGroup, F: FiniteField, caps: Caps = DEFAULT_CAPS) -> Fingerprint:
    """The invariant battery of FG. Each `kernel_sizes` cell passes the
    fingerprint's own gates, `algebra_order_cap` and then
    `kernel_order_cap`/`kernel_q_cap`, and is then computed by `kernel_cell`,
    which holds the gates of its work; only a cell that theory does not fix
    builds the group algebra. Every other entry is read off the group side,
    including three algebra dimensions that theory pins (derivations in
    notes/decisions.md; the algebra-side routes are the test oracles in
    tests/oracles.py): `jennings_dims` from Jennings' product over the ranks
    d_n of D_n/D_(n+1), `small_group_ring_dim` = |G:G'| + d(G') and
    `zassenhaus_dims` = dim Δ^(n+1) + d_n. The three keep the
    `algebra_order_cap` gate of their algebra routes, and `zassenhaus_dims`
    also `prime_field_only` and `zassenhaus_order_cap`, which the report
    prints. `min_gens` is d_1, since D_2 = G^p G' = Φ(G)."""
    p, _ = G.require_p_group(F.p)
    if G.n > caps.group_order_cap:
        raise CapExceeded("group_order_cap",
                          f"|G| = {G.n} exceeds the group-order cap {caps.group_order_cap}")

    cs = char_series(G)
    exp = exponent(G)
    e = _log_p(exp, p)

    ranks = jennings_ranks(G)
    derived_rank = min_generators(cs.derived)
    flags = {
        "exponent_is_p": exp == p,
        "derived_cyclic": derived_rank <= 1,
        "class_two": cs.nilpotency_class == 2,
        "maximal_class": cs.nilpotency_class >= 2 and G.n == p**(cs.nilpotency_class + 1),
    }

    try:
        elemab = maximal_elem_abelian_classes(G, cap=caps.elemab_cap)
    except CapExceeded as err:
        elemab = Unavailable(err.cap_name)
    try:
        factor_rank = max_elem_abelian_direct_factor(G, cap=caps.direct_factor_cap)
    except CapExceeded as err:
        factor_rank = Unavailable(err.cap_name)

    try:
        caps.check_algebra_order(G.n)
    except CapExceeded as err:
        jdims = sgr_dim = zass = Unavailable(err.cap_name)
    else:
        jdims = predicted_jennings_dims(G)
        sgr_dim = G.n // cs.derived.order + derived_rank
        if F.k != 1:
            zass = Unavailable("prime_field_only")
        elif G.n > caps.zassenhaus_order_cap:
            zass = Unavailable("zassenhaus_order_cap")
        else:
            zass = [sum(jdims[n:]) + ranks[n - 1] for n in range(1, len(ranks) + 1)]

    kernel = []
    for (i, j, k) in caps.kernel_sections:
        if isinstance(jdims, Unavailable):  # the algebra-side cap fired
            counts = jdims
        elif G.n > caps.kernel_order_cap or F.q > caps.kernel_q_cap:
            counts = Unavailable("kernel_order_cap")
        else:
            try:
                counts = kernel_cell(G, F, i, j, k, caps)
            except CapExceeded as err:
                counts = Unavailable(err.cap_name)
        kernel.append({"section": (i, j), "power": k, "counts": counts})

    return Fingerprint(
        field_spec=(F.p, F.k),
        order=G.n,
        abelianization=abelian_type(G.full_subgroup(), cs.derived),
        center_type=abelian_type(cs.center),
        jennings_factors=[(p,) * r for r in ranks],
        min_gens=ranks[0] if ranks else 0,
        exponent=exp,
        nilpotency_class=cs.nilpotency_class,
        class_flags=flags,
        class_power_stats=[dict(zip(("k", "distinct_powers", "size_preserving"),
                                    (k,) + class_power_stats(G, k))) for k in range(e + 1)],
        hh1_dim=hh1_dimension(G),
        max_elem_ab_classes=elemab,
        transfer_sections=transfer_sections(G),
        elem_ab_direct_factor_rank=factor_rank,
        jennings_dims=jdims,
        kernel_sizes=kernel,
        small_group_ring_dim=sgr_dim,
        zassenhaus_dims=zass,
    )


class Verdict:
    __slots__ = ("outcome", "witnesses", "compared", "notes")

    def __init__(self, outcome: str, witnesses: list, compared: list, notes: list):
        self.outcome = outcome  # "distinguished" | "indistinguishable"
        self.witnesses = witnesses  # [(entry name, left, right)]
        self.compared = compared  # entry names that were available on both sides
        self.notes = notes

    @property
    def distinguished(self) -> bool:
        return self.outcome == "distinguished"


ROWS = ("class_power_stats", "transfer_sections", "kernel_sizes")
UNCOMPARED = ("field_spec", "nilpotency_class", "class_flags")
_COORDS = ("section", "k", "power")


def _cells(name, rows) -> dict:
    """{cell name: value} of a row field, in coordinate order. A row's
    coordinates are its "section", "k" and "power" entries: a row that has
    them is one cell holding its other entries (the one entry itself when
    there is one), and a row that has none is one cell per entry at k = its
    position. A tuple coordinate prints bare, an integer one as k=."""
    cells = []
    for pos, row in enumerate(rows):
        own = tuple(v for key, v in row.items() if key in _COORDS)
        label = ",".join(",".join(map(str, c)) if isinstance(c, tuple) else f"k={c}"
                         for c in own or (pos,))
        rest = {key: v for key, v in row.items() if key not in _COORDS}
        if own:
            value = tuple(rest.values())
            cells.append((own, f"{name}[{label}]", value[0] if len(value) == 1 else value))
        else:
            cells += [((pos,), f"{name}[{label}].{key}", v) for key, v in rest.items()]
    return {cell: value for _, cell, value in sorted(cells, key=lambda c: c[0])}


def compare(f: Fingerprint, g: Fingerprint) -> Verdict:
    """Compare every mutually available entry; any difference is a witness of
    non-isomorphism of the group algebras. Three passes over the schema:
    every field outside ROWS and UNCOMPARED as one value, in field order;
    each ROWS field cell by cell, a cell only when both sides have it; and
    `nilpotency_class`, when some class flag holds on both sides (the flags
    are themselves invariant-checkable)."""
    if f.field_spec != g.field_spec:
        raise ValueError("fingerprints over different fields are not comparable")
    witnesses = []
    compared = []
    notes = []

    def check(name, a, b):
        if isinstance(a, Unavailable) or isinstance(b, Unavailable):
            return
        compared.append(name)
        if a != b:
            witnesses.append((name, a, b))

    for name in Fingerprint.FIELDS:
        if name not in ROWS + UNCOMPARED:
            check(name, getattr(f, name), getattr(g, name))
    for name in ROWS:
        fc, gc = _cells(name, getattr(f, name)), _cells(name, getattr(g, name))
        for cell in fc:
            if cell in gc:
                check(cell, fc[cell], gc[cell])

    ff, gf = f.class_flags, g.class_flags
    if any(ff[flag] and gf[flag] for flag in ff):
        check("nilpotency_class", f.nilpotency_class, g.nilpotency_class)
    else:
        asym = sorted(flag for flag in ff if ff[flag] != gf[flag])
        if asym:
            notes.append("nilpotency class not compared; asymmetric flags: " + ", ".join(asym))

    outcome = "distinguished" if witnesses else "indistinguishable"
    return Verdict(outcome=outcome, witnesses=witnesses, compared=compared, notes=notes)


# -- serialization ---------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, Unavailable):
        return {"unavailable": value.cap}
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def fingerprint_to_dict(fp: Fingerprint) -> dict:
    """JSON form of a fingerprint: its fields in order, `field_spec` as
    "field"."""
    p, k = fp.field_spec
    out = {"field": f"{p}^{k}" if k > 1 else str(p)}
    out.update((name, _jsonable(getattr(fp, name)))
               for name in Fingerprint.FIELDS if name != "field_spec")
    return out


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "outcome": v.outcome,
        "witnesses": [{"entry": name, "left": _jsonable(a), "right": _jsonable(b)}
                      for (name, a, b) in v.witnesses],
        "compared": list(v.compared),
        "notes": list(v.notes),
    }


def jennings_polynomial(p: int, ranks) -> list:
    """Coefficients of ∏_n (1 + t^n + ... + t^((p-1)n))^(d_n) — the predicted
    dimensions of the radical-power sections Δ^w / Δ^(w+1)."""
    poly = [1]
    for n, d in enumerate(ranks, start=1):
        factor = [0] * ((p - 1) * n + 1)
        for t in range(p):
            factor[t * n] = 1
        for _ in range(d):
            out = [0] * (len(poly) + len(factor) - 1)
            for i, a in enumerate(poly):
                if a:
                    for j, b in enumerate(factor):
                        if b:
                            out[i + j] += a * b
            poly = out
    return poly


def predicted_jennings_dims(G: FiniteGroup) -> list:
    """Radical-section dimensions predicted from the group side alone."""
    p, _ = G.require_p_group()
    coeffs = jennings_polynomial(p, jennings_ranks(G))
    return coeffs[1:]
