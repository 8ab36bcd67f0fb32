import json

import numpy as np
import pytest

from modiso.caps import Caps
from modiso.errors import CapExceeded
from modiso.families import build, from_presentation
from modiso.gfq import make_field
from modiso.groups import (
    FiniteGroup,
    abelian_type,
    agemo,
    conjugacy_classes,
    jennings_ranks,
    max_elem_abelian_direct_factor,
    maximal_elem_abelian_classes,
    min_generators,
)
from modiso.invariants import (
    Unavailable,
    class_power_stats,
    compare,
    fingerprint,
    fingerprint_to_dict,
    hh1_dimension,
    jennings_polynomial,
    predicted_jennings_dims,
    transfer_sections,
    verdict_to_dict,
)
from modiso.iso import IsoWitness, NotIsomorphic, group_isomorphic, verify_witness
from modiso import groups, invariants, modalg

import oracles
from oracles import quotient_group
from conftest import METACYCLIC_SPECS, NON_METACYCLIC_SPECS, build_corpus_group

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F9 = make_field(3, 2)


# -- hh1 ------------------------------------------------------------------------

def test_hh1_known_values():
    assert hh1_dimension(build("T:4,4")) == 28
    assert hh1_dimension(build("T:2,4")) == 38
    assert hh1_dimension(build("D8")) == 9
    assert hh1_dimension(build("Q8")) == 7


def _derivation_space_hh1(G, p):
    """Oracle: dim of the derivation space of F_pG by solving the product rule
    constraints directly, minus the inner derivations (n - #classes)."""
    n = G.n
    mul, inv = G.mul, G.inv
    rows = n * n * n
    M = np.zeros((rows, n * n), dtype=np.int64)
    eq = np.arange(rows)
    g1 = (eq // (n * n)).astype(np.int64)
    g2 = ((eq // n) % n).astype(np.int64)
    h = (eq % n).astype(np.int64)
    np.add.at(M, (eq, mul[g1, g2].astype(np.int64) * n + h), 1)
    np.add.at(M, (eq, g1 * n + mul[h, inv[g2]].astype(np.int64)), -1)
    np.add.at(M, (eq, g2 * n + mul[inv[g1], h].astype(np.int64)), -1)
    M %= p

    # plain mod-p row reduction (independent of the package's linear algebra)
    M = np.unique(M[M.any(axis=1)], axis=0)
    rank = 0
    for col in range(n * n):
        nz = np.nonzero(M[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        M[[rank, piv]] = M[[piv, rank]]
        M[rank] = (M[rank] * pow(int(M[rank, col]), p - 2, p)) % p
        coefs = M[:, col].copy()
        coefs[rank] = 0
        if coefs.any():
            M = (M - np.outer(coefs, M[rank])) % p
        rank += 1
    dim_der = n * n - rank
    dim_inner = n - len(conjugacy_classes(G))
    return dim_der - dim_inner


@pytest.mark.parametrize("spec", [
    # every corpus group of order <= 16
    "C:2", "C:4", "C:8", "C:16", "EA:2,2", "EA:2,3", "Ab:4,2", "D8", "Q8",
    "Meta:2,3,1,0,7", "Meta:2,3,1,1,7", "Meta:2,3,1,0,3", "Meta:2,3,1,0,5",
    "B1G:1", "B1H:1", "B2G:1,2", "B2H:1,2", "X:C:2*D8", "X:C:2*Q8",
    "C:3", "C:9", "EA:3,2",
])
def test_hh1_matches_derivation_space_oracle(spec):
    G = build_corpus_group(spec)
    p = G.require_p_group()[0]
    assert hh1_dimension(G) == _derivation_space_hh1(G, p)


def test_hh1_closed_forms_small():
    from modiso.tables import hh1_closed_form
    for i, n in [(1, 4), (2, 4), (3, 4), (4, 4), (2, 5), (5, 5), (6, 5), (7, 5)]:
        assert hh1_dimension(build(f"T:{i},{n}")) == hh1_closed_form(i, n)


# -- class power statistics --------------------------------------------------------

def test_class_power_stats_examples():
    assert class_power_stats(build("D8"), 1) == (2, 2)
    assert class_power_stats(build("Q8"), 1) == (2, 2)
    # the two central classes of C2 both have size-preserving squares
    assert class_power_stats(build("C:2"), 1) == (1, 2)


def test_class_power_stats_recovers_exponent():
    from modiso.groups import exponent
    for spec in ["D8", "Q8", "C:16", "T:1,4", "Ab:4,2"]:
        G = build(spec)
        p = G.require_p_group()[0]
        k = 0
        while class_power_stats(G, k)[0] != 1:
            k += 1
        assert p**k >= exponent(G) > p ** (k - 1) if k else exponent(G) == 1


# -- transfer sections ---------------------------------------------------------------

def test_transfer_sections_d8_q8_k0():
    for spec in ("D8", "Q8"):
        row = transfer_sections(build(spec))[0]
        assert row["center_meet_pow_derived"] == (2,)   # Z ∩ (℧_0 G)G' = Z
        assert row["center_mod_pow_derived"] == ()
        assert row["over_pow_center_derived"] == (2, 2)  # G/ZG'
        assert row["pow_center_derived_mod_derived"] == ()  # ZG'/G' (Z = G' here)
        assert row["over_tor_center_derived"] == (2, 2)  # G/G' at k = 0
        assert row["tor_center_derived_mod_derived"] == ()


def test_transfer_sections_abelian():
    G = build("Ab:4,2")
    rows = transfer_sections(G)
    # abelian: G' = 1, Z = G; section 1 at k is the type of ℧_k(G)
    assert rows[0]["center_meet_pow_derived"] == (4, 2)
    assert rows[1]["center_meet_pow_derived"] == (2,)
    assert rows[1]["over_pow_center_derived"] == (2, 2)  # G/℧_1(G)
    assert rows[1]["tor_center_derived_mod_derived"] == (2, 2)  # Ω_1(G)


def test_transfer_sections_default_depth_is_agemo_depth(corpus_small):
    for spec, G in corpus_small:
        k = 0
        while agemo(G, k).order > 1:
            k += 1
        assert len(transfer_sections(G)) == k + 1, spec


def test_section_types_match_built_quotients(corpus_small, monkeypatch):
    # every (X, Y) that transfer_sections reads, at every k: the power-count
    # type against the table of the built quotient X/Y
    checked = []

    def both_routes(X, Y=None):
        Y = X.parent.trivial_subgroup() if Y is None else Y
        got = abelian_type(X, Y)
        assert got == oracles.abelian_type_of_table(quotient_group(X, Y)[0])
        checked.append(got)
        return got

    monkeypatch.setattr(invariants, "abelian_type", both_routes)
    for spec, G in corpus_small:
        before = len(checked)
        rows = transfer_sections(G)
        assert len(checked) - before == 6 * len(rows), spec


# -- fingerprints and comparison ------------------------------------------------------

def test_fingerprint_builds_no_group(monkeypatch):
    # the section types, the elementary abelian search and the kernel-size
    # algebra (D8 over GF(4)) all work inside the given group's table
    cases = [(build("T:2,5"), F3), (build("D8"), F4)]
    built = []
    init = FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    for G, F in cases:
        fingerprint(G, F)
    assert built == []


def test_fingerprint_d8_q8_basic_entries_agree():
    f, g = fingerprint(build("D8"), F2), fingerprint(build("Q8"), F2)
    assert f.abelianization == g.abelianization == (2, 2)
    assert f.center_type == g.center_type == (2,)
    assert f.jennings_factors == g.jennings_factors
    assert f.jennings_dims == g.jennings_dims == [2, 2, 2, 1]
    assert f.small_group_ring_dim == g.small_group_ring_dim == 5


def test_fingerprint_t14_hh1():
    assert fingerprint(build("T:1,4"), F3).hh1_dim == 34


def test_fingerprint_c2():
    fp = fingerprint(build("C:2"), F2)
    assert fp.order == 2
    assert fp.abelianization == (2,)
    assert fp.center_type == (2,)
    assert fp.jennings_dims == [1]


def test_fingerprint_min_gens_matches_frattini_route(corpus_small):
    for spec, G in corpus_small:
        F = make_field(G.require_p_group()[0], 1)
        assert fingerprint(G, F).min_gens == min_generators(G), spec


def test_fingerprint_field_mismatch():
    with pytest.raises(ValueError):
        fingerprint(build("D8"), F3)


def test_compare_d8_q8_witnesses():
    v = compare(fingerprint(build("D8"), F2), fingerprint(build("Q8"), F2))
    assert v.distinguished
    names = {w[0] for w in v.witnesses}
    assert names == {"hh1_dim", "max_elem_ab_classes", "kernel_sizes[1,3,k=1]"}


def test_compare_reflexive():
    f = fingerprint(build("D8"), F2)
    v = compare(f, f)
    assert not v.distinguished
    assert v.outcome == "indistinguishable"
    assert "hh1_dim" in v.compared


def test_compare_field_mismatch():
    with pytest.raises(ValueError):
        compare(fingerprint(build("D8"), F2), fingerprint(build("D8"), F4))


def test_compare_unavailable_is_not_compared():
    caps = Caps(direct_factor_cap=4)
    f = fingerprint(build("D8"), F2, caps)
    g = fingerprint(build("Q8"), F2, caps)
    assert isinstance(f.elem_ab_direct_factor_rank, Unavailable)
    v = compare(f, g)
    assert "elem_ab_direct_factor_rank" not in v.compared
    assert v.distinguished  # still separated by the other entries


def test_cap_messages_give_requested_and_allowed_size():
    # each group-side cap names the size it was asked for and the size it allows
    with pytest.raises(CapExceeded, match=r"^3 elementary abelian subgroups exceed the elemab cap 2$"):
        maximal_elem_abelian_classes(build("D8"), cap=2)
    with pytest.raises(CapExceeded, match=r"^\|G\| = 8 exceeds the direct-factor cap 4$"):
        max_elem_abelian_direct_factor(build("D8"), cap=4)
    with pytest.raises(CapExceeded, match=r"^\|G\| = 8 exceeds the group-order cap 4$") as err:
        fingerprint(build("D8"), F2, Caps(group_order_cap=4))
    assert err.value.cap_name == "group_order_cap"


def test_group_side_entries_field_size_independent():
    for spec, Fa, Fb in [("D8", F2, F4), ("Q8", F2, F4), ("T:1,4", F3, F9)]:
        G = build(spec)
        fa, fb = fingerprint(G, Fa), fingerprint(G, Fb)
        assert fa.abelianization == fb.abelianization
        assert fa.center_type == fb.center_type
        assert fa.jennings_factors == fb.jennings_factors
        assert fa.min_gens == fb.min_gens and fa.exponent == fb.exponent
        assert fa.hh1_dim == fb.hh1_dim
        assert fa.class_power_stats == fb.class_power_stats
        assert fa.transfer_sections == fb.transfer_sections
        if not isinstance(fb.jennings_dims, Unavailable):
            assert fa.jennings_dims == fb.jennings_dims


def test_soundness_on_isomorphic_pair():
    # full battery on small isomorphic pairs given by different presentations
    for a, b in [("D8", "Meta:2,2,1,0,3"), ("Q8", "Meta:2,2,1,1,3")]:
        G, H = build(a), build(b)
        for F in (F2, F4):
            v = compare(fingerprint(G, F), fingerprint(H, F))
            assert not v.distinguished, (a, b, v.witnesses)

    # direct products with their factors swapped: equal fingerprints over
    # GF(p) and GF(p^2), and a verified group witness each way
    for a, b in [("X:D8*C:2", "X:C:2*D8"), ("X:Q8*C:4", "X:C:4*Q8"),
                 ("X:T:1,4*C:3", "X:C:3*T:1,4"),
                 ("X:Meta:2,3,1,0,5*EA:2,2", "X:EA:2,2*Meta:2,3,1,0,5")]:
        G, H = build(a), build(b)
        p, _ = G.require_p_group()
        for F in (make_field(p, 1), make_field(p, 2)):
            f, g = fingerprint(G, F), fingerprint(H, F)
            assert fingerprint_to_dict(f) == fingerprint_to_dict(g), (a, b, F)
            assert not compare(f, g).distinguished, (a, b, F)
        for X, Y in [(G, H), (H, G)]:
            w = group_isomorphic(X, Y)
            assert isinstance(w, IsoWitness) and verify_witness(w, X, Y), (a, b)

    # the order-243 isomorphic pair: group-side entries (algebra capped)
    caps = Caps(algebra_order_cap=128)
    G, H = build("T:2,5"), build("T:3,5")
    for F in (F3, F9):
        v = compare(fingerprint(G, F, caps), fingerprint(H, F, caps))
        assert not v.distinguished, v.witnesses


# the order-512 groups of García-Lucas, Margolis and del Río (arXiv
# 2106.07231): not isomorphic, with FG ≅ FH over every field of
# characteristic 2; z = [y,x], G has y^8 = 1 and H has y^8 = x^8
GML_RELATORS = ("[y,x]^4", "x^-1*[y,x]*x*[y,x]", "y^-1*[y,x]*y*[y,x]", "x^16")


def test_all_field_counterexample_is_never_distinguished():
    # a distinguished verdict on this pair, over any field of characteristic
    # 2, is a soundness bug: report the entry that separated, keep the pair
    G = from_presentation("xy", GML_RELATORS + ("y^8",), declared_order=512)
    H = from_presentation("xy", GML_RELATORS + ("y^8*x^-8",), declared_order=512)
    for F in (F2, F4):
        v = compare(fingerprint(G, F), fingerprint(H, F))
        assert not v.distinguished, (F, v.witnesses)
    assert isinstance(group_isomorphic(G, H), NotIsomorphic)


def test_t2_t3_even_indistinguishable_small():
    G, H = build("T:2,4"), build("T:3,4")
    v = compare(fingerprint(G, F3), fingerprint(H, F3))
    # at n = 4 the pair is separated (hh1: 38 vs 12 + 2*9 = 30)
    assert v.distinguished
    assert ("hh1_dim", 38, 30) in v.witnesses


def test_nilpotency_class_licensing():
    # C8 (class 1, derived cyclic) vs D8-like flags: licensing requires a
    # shared condition; build two groups where only one is maximal class
    f = fingerprint(build("C:8"), F2)
    g = fingerprint(build("Ab:4,2"), F2)
    v = compare(f, g)
    assert "nilpotency_class" in v.compared  # both have cyclic derived subgroup
    f2 = fingerprint(build("D8"), F2)
    g2 = fingerprint(build("EA:2,3"), F2)
    v2 = compare(f2, g2)
    # D8 is not exponent-2 while EA is; D8 class two, EA not; derived cyclic
    # holds for both (EA derived trivial), so class is still compared
    assert "nilpotency_class" in v2.compared


def test_hh1_separates_order16_metacyclics():
    # hand derivation: reflection classes contribute 2 when the centralizer is
    # a Klein subgroup and 1 when it is cyclic
    values = {"Meta:2,3,1,0,7": 11,   # dihedral
              "Meta:2,3,1,0,3": 10,   # semidihedral
              "Meta:2,3,1,1,7": 9,    # generalized quaternion
              "Meta:2,3,1,0,5": 16}   # modular
    for spec, want in values.items():
        assert hh1_dimension(build(spec)) == want, spec


def test_battery_decides_order_16():
    # 15 constructions covering all 14 isomorphism types of order 16: the
    # exhaustive isomorphism search and the fingerprint battery must agree
    # exactly (witness <=> indistinguishable), i.e. the battery decides the
    # problem at this order
    from itertools import combinations

    from modiso.families import from_presentation
    from modiso.iso import IsoWitness, group_isomorphic

    specs = ["C:16", "Ab:4,4", "Ab:4,2,2", "Ab:8,2", "EA:2,4",
             "Meta:2,3,1,0,7", "Meta:2,3,1,1,7", "Meta:2,3,1,0,3", "Meta:2,3,1,0,5",
             "X:C:2*D8", "X:C:2*Q8", "Meta:2,2,2,0,3", "B2G:1,2", "B2H:1,2"]
    groups = {s: build(s) for s in specs}
    groups["central-product"] = from_presentation(
        ("x", "y", "z"), ("x^2", "y^2", "z^4", "[y,x]*z^-2", "[z,x]", "[z,y]"), 16)
    fps = {s: fingerprint(G, F2) for s, G in groups.items()}
    iso_pairs = set()
    for a, b in combinations(groups, 2):
        is_iso = isinstance(group_isomorphic(groups[a], groups[b]), IsoWitness)
        distinguished = compare(fps[a], fps[b]).distinguished
        assert is_iso != distinguished, (a, b)
        if is_iso:
            iso_pairs.add((a, b))
    # exactly one planned coincidence: the (1,2) class-two G-side is C4⋊C4
    assert iso_pairs == {("Meta:2,2,2,0,3", "B2G:1,2")}


def test_battery_decides_order_32_sample():
    # same agreement check at order 32 on a mixed sample (abelian, maximal
    # class, modular, class-two pairs, direct products)
    from itertools import combinations

    from modiso.iso import IsoWitness, group_isomorphic

    specs = ["C:32", "Ab:16,2", "Ab:8,4", "EA:2,5",
             "Meta:2,4,1,0,15", "Meta:2,4,1,1,15", "Meta:2,4,1,0,7", "Meta:2,4,1,0,9",
             "B2G:1,3", "B2H:1,3", "X:C:2*Meta:2,3,1,0,7", "Meta:2,3,2,0,7"]
    groups = {s: build(s) for s in specs}
    fps = {s: fingerprint(groups[s], F2) for s in specs}
    for a, b in combinations(specs, 2):
        is_iso = isinstance(group_isomorphic(groups[a], groups[b]), IsoWitness)
        assert is_iso != compare(fps[a], fps[b]).distinguished, (a, b)
        assert not is_iso  # the sample is pairwise non-isomorphic


def test_battery_decides_order_27():
    # all five isomorphism types of order 27
    from itertools import combinations

    from modiso.iso import IsoWitness, group_isomorphic

    groups = {s: build_corpus_group(s)
              for s in ["C:27", "Ab:9,3", "EA:3,3", "HEIS27", "Meta:3,2,1,0,4"]}
    fps = {s: fingerprint(G, F3) for s, G in groups.items()}
    for a, b in combinations(groups, 2):
        assert not isinstance(group_isomorphic(groups[a], groups[b]), IsoWitness)
        assert compare(fps[a], fps[b]).distinguished, (a, b)


def test_fingerprint_invariant_under_relabeling():
    # conjugating the multiplication table by a random permutation must not
    # change a single entry of the fingerprint
    import numpy as np

    for spec, F in [("D8", F2), ("Meta:2,3,1,0,3", F2), ("T:1,4", F3)]:
        G = build(spec)
        rng = np.random.default_rng(G.n)
        perm = rng.permutation(G.n)
        inv_perm = np.argsort(perm)
        H = oracles.checked_group(inv_perm[G.mul[np.ix_(perm, perm)]],
                                  gens=[int(inv_perm[g]) for g in G.gens])
        assert not compare(fingerprint(G, F), fingerprint(H, F)).distinguished


# -- Jennings machinery ----------------------------------------------------------------

def test_jennings_polynomial_d8():
    # ranks 2, 1, 1 give (1+t)^2 (1+t^2)(1+t^3)... for D8 the ranks are [2, 1]
    G = build("D8")
    assert jennings_ranks(G) == [2, 1]
    assert jennings_polynomial(2, [2, 1]) == [1, 2, 2, 2, 1]
    assert predicted_jennings_dims(G) == [2, 2, 2, 1]


def test_jennings_prediction_matches_algebra(corpus_small):
    for spec, G in corpus_small:
        p = G.require_p_group()[0]
        F = make_field(p, 1)
        assert modalg.jennings_dims(G, F) == predicted_jennings_dims(G), spec


@pytest.mark.parametrize("k", [1, 2])
def test_group_side_entries_match_algebra_oracles(corpus_small, k):
    for spec, G in corpus_small:
        p = G.require_p_group()[0]
        F = make_field(p, k)
        fp = fingerprint(G, F)
        assert fp.jennings_dims == modalg.jennings_dims(G, F), spec
        assert fp.small_group_ring_dim == oracles.small_group_ring(G, F).dim, spec
        if k == 1:
            depth = len(jennings_ranks(G))
            assert fp.zassenhaus_dims == [oracles.zassenhaus_ideal(G, F, n).dim
                                          for n in range(1, depth + 1)], spec
        else:
            assert fp.zassenhaus_dims == Unavailable("prime_field_only"), spec


def test_zassenhaus_dims_name_only_their_order_caps():
    # zassenhaus_dims is a function of (p, ranks) and enumerates nothing: over
    # GF(p) it is a list or names an order cap, whatever enum_cap says
    for spec in METACYCLIC_SPECS + NON_METACYCLIC_SPECS:
        G = build_corpus_group(spec)
        F = make_field(G.require_p_group()[0], 1)
        zass = fingerprint(G, F).zassenhaus_dims
        assert fingerprint(G, F, Caps(enum_cap=1)).zassenhaus_dims == zass, spec
        assert isinstance(zass, list) or zass.cap in ("algebra_order_cap",
                                                      "zassenhaus_order_cap"), spec
    # C64's widest Zassenhaus section, Δ/Δ^33, has 2^32 > enum_cap elements
    assert isinstance(fingerprint(build("C:64"), F2).zassenhaus_dims, list)


def _kernel_cell_by_enumeration(G, F, cell, enum_cap):
    i, j, k = cell
    try:
        sect = modalg.radical_section(G, F, i, j)
        return oracles.kernel_size_by_enumeration(sect, k, enum_cap=enum_cap)
    except CapExceeded as err:
        return Unavailable(err.cap_name)


def test_forced_kernel_cells_match_enumeration(corpus_small):
    # with i * p^k >= j the power map kills Δ^i/Δ^j, and fingerprint reads
    # the cell off jennings_dims; enum_cap 2^12 keeps every enumeration
    # short and leaves the widest sections unavailable on both routes
    enum_cap = 1 << 12
    seen = set()
    for spec, G in corpus_small:
        p = G.require_p_group()[0]
        cells = tuple((i, j, k) for j in range(2, 6) for i in range(1, j)
                      for k in range(1, 4) if i * p**k >= j)
        caps = Caps(kernel_sections=cells, enum_cap=enum_cap)
        for F in ((F2, F4) if p == 2 else (F3,)):
            for entry in fingerprint(G, F, caps).kernel_sizes:
                cell = entry["section"] + (entry["power"],)
                expected = _kernel_cell_by_enumeration(G, F, cell, enum_cap)
                assert entry["counts"] == expected, (spec, F, cell)
                seen.add(type(expected))
    assert seen == {tuple, Unavailable}


def test_forced_kernel_cell_enum_cap_gate_matches_enumeration():
    # D8: Δ/Δ^2 has dimension 2 over F, so 2^2 elements over GF(2), 2^4 over GF(4)
    G = build("D8")
    for F, size in [(F2, 4), (F4, 16)]:
        for enum_cap in (size - 1, size):
            caps = Caps(kernel_sections=((1, 2, 1),), enum_cap=enum_cap)
            counts = fingerprint(G, F, caps).kernel_sizes[0]["counts"]
            assert counts == _kernel_cell_by_enumeration(G, F, (1, 2, 1), enum_cap)
            assert counts == ((size, 0) if enum_cap == size else Unavailable("enum_cap"))


def test_square_cell_matches_enumeration(corpus_medium):
    # x -> x^2 on Δ/Δ^3 for p = 2 is read off squares and commutators in
    # D_2/D_3; enumeration checks it where the section has at most 2^16
    # elements, and the truncated count of kernel_size_power_map elsewhere
    F8 = make_field(2, 3)
    caps = Caps(kernel_sections=((1, 3, 1),), algebra_order_cap=128, kernel_order_cap=128,
                kernel_q_cap=8, enum_cap=1 << 40)
    enumerated = 0
    for spec, G in corpus_medium:
        if G.require_p_group()[0] != 2:
            continue
        for F in (F2, F4, F8):
            counts = fingerprint(G, F, caps).kernel_sizes[0]["counts"]
            sect = modalg.radical_section(G, F, 1, 3)
            if sect.dim * F.k <= 16:
                want = oracles.kernel_size_by_enumeration(sect, 1)
                enumerated += 1
            else:
                want = modalg.kernel_size_power_map(sect, 1)
            assert counts == want, (spec, F)
    assert enumerated > 40


def test_square_cell_enum_cap_gate_matches_enumeration():
    # D8: Δ/Δ^3 has dimension 2 + 2 over F, so 2^4 elements over GF(2), 2^8 over GF(4)
    G = build("D8")
    for F, size in [(F2, 16), (F4, 256)]:
        for enum_cap in (size - 1, size):
            caps = Caps(kernel_sections=((1, 3, 1),), enum_cap=enum_cap)
            counts = fingerprint(G, F, caps).kernel_sizes[0]["counts"]
            assert counts == _kernel_cell_by_enumeration(G, F, (1, 3, 1), enum_cap)
            assert isinstance(counts, tuple) == (enum_cap == size)


def test_fingerprint_computes_the_jennings_series_once(monkeypatch):
    # the series of a group is cached on it: jennings_ranks reads its orders,
    # and for p = 2 the square cell (1,3,1) reads D_3 and the Jennings basis
    # built from it; a p = 3 fingerprint's default cells are forced, so it
    # builds no basis. Fresh groups, past build's cache
    calls = []
    series = groups.jennings_series
    monkeypatch.setattr(groups, "jennings_series", lambda X: calls.append(X) or series(X))
    for spec, F, basis in [("X:C:2*D8", F4, True), ("Ab:9,3", F3, False)]:
        calls.clear()
        G = build.__wrapped__(spec)
        fp = fingerprint(G, F)
        assert all(isinstance(e["counts"], tuple) for e in fp.kernel_sizes), spec
        assert [X for X in calls if isinstance(X, groups.Subgroup)] == [G.full_subgroup()], spec
        assert ("jennings_basis" in G._cache) == basis, spec


# -- serialization ---------------------------------------------------------------------

def test_fingerprint_json_roundtrip_byte_identical():
    for spec, F in [("D8", F2), ("Q8", F4), ("T:1,4", F3)]:
        d = fingerprint_to_dict(fingerprint(build(spec), F))
        s = json.dumps(d, indent=2)
        assert s == json.dumps(json.loads(s), indent=2)
        assert list(json.loads(s)) == list(d)


def test_fingerprint_schema_is_its_field_list():
    # the JSON keys are the field order; compare reads the value fields, then
    # the ROWS cells (kernel cells sorted by (section, power), whatever the
    # caps order), then the licensed nilpotency class
    names = list(invariants.Fingerprint.FIELDS)
    assert names[0] == "field_spec"
    sections = [[2, 3, 1], [1, 3, 1], [1, 2, 1], [1, 3, 2], [1, 4, 1]]
    f = fingerprint(build("D8"), F2, Caps(kernel_sections=tuple(map(tuple, sections))))
    d = fingerprint_to_dict(f)
    assert list(d) == ["field"] + names[1:]
    assert [e["section"] + [e["power"]] for e in d["kernel_sizes"]] == sections
    assert d["class_power_stats"][1] == {"k": 1, "distinct_powers": 2, "size_preserving": 2}
    values = [n for n in names if n not in invariants.ROWS + invariants.UNCOMPARED]
    rows = ([f"class_power_stats[k={k}]" for k in range(3)]
            + [f"transfer_sections[k={k}].{name}" for k in range(3)
               for name in f.transfer_sections[0]]
            + [f"kernel_sizes[{i},{j},k={k}]" for (i, j, k) in sorted(sections)])
    assert compare(f, f).compared == values + rows + ["nilpotency_class"]
    # a row cell is compared only where both sides have it: C2 has k = 0, 1
    v = compare(fingerprint(build("C:2"), F2), fingerprint(build("C:4"), F2))
    assert [c for c in v.compared if c.startswith("class_power_stats")] == [
        "class_power_stats[k=0]", "class_power_stats[k=1]"]


def test_verdict_serialization():
    v = compare(fingerprint(build("D8"), F2), fingerprint(build("Q8"), F2))
    d = verdict_to_dict(v)
    assert d["outcome"] == "distinguished"
    assert all(set(w) == {"entry", "left", "right"} for w in d["witnesses"])
    s = json.dumps(d)
    assert s == json.dumps(json.loads(s))


def test_unavailable_serialized_with_cap_name():
    caps = Caps(algebra_order_cap=4)
    d = fingerprint_to_dict(fingerprint(build("D8"), F2, caps))
    assert d["jennings_dims"] == {"unavailable": "algebra_order_cap"}
    assert d["kernel_sizes"][0]["counts"] == {"unavailable": "algebra_order_cap"}
