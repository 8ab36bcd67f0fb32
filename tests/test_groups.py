import tracemalloc
from collections import Counter

import numpy as np
import pytest

from modiso.errors import CapExceeded
from modiso.families import build, from_presentation
from modiso.groups import (
    Subgroup,
    _commutators,
    _index_set,
    abelian_type,
    agemo,
    center,
    centralizer,
    char_series,
    commutator_subgroup,
    conjugacy_classes,
    exponent,
    is_metacyclic,
    jennings_series,
    max_elem_abelian_direct_factor,
    maximal_elem_abelian_classes,
    min_generators,
    omega,
    omega_in,
    subgroup_intersection,
    subgroup_product,
    table_dtype,
)

import oracles as O
from oracles import ASSOC_EXHAUSTIVE_LIMIT, ASSOC_SAMPLES, quotient_group, sample_ints
from conftest import METACYCLIC_SPECS, NON_METACYCLIC_SPECS, build_corpus_group


def D8():
    return build("D8")


def Q8():
    return build("Q8")


# -- table validation ------------------------------------------------------------

def cyclic_table(n):
    ar = np.arange(n)
    return (ar[:, None] + ar[None, :]) % n


def twisted_table(n):
    """0 is a unique two-sided identity and -x the inverse of x, but every
    other product x∘y is -(x + y) mod n, so (x∘y)∘z = x + y - z while
    x∘(y∘z) = -x + y + z."""
    t = (-cyclic_table(n)) % n
    t[0, :] = t[:, 0] = np.arange(n)
    return t


def test_finite_group_rejects_bad_tables():
    with pytest.raises(ValueError, match="square"):
        O.checked_group(np.zeros((2, 3)), gens=[0])
    with pytest.raises(ValueError, match="out of range"):
        O.checked_group([[0, 1], [1, 2]], gens=[1])
    with pytest.raises(ValueError, match="unique identity"):
        O.checked_group([[0, 0], [0, 0]], gens=[0])
    with pytest.raises(ValueError, match="inverse"):
        O.checked_group([[0, 1, 2], [1, 1, 1], [2, 1, 2]], gens=[1, 2])
    assert O.checked_group(cyclic_table(4), gens=[1]).n == 4
    with pytest.raises(ValueError, match="do not generate"):
        O.checked_group(cyclic_table(4), gens=[2])


def test_finite_group_rejects_nonassociative_exhaustive():
    t = twisted_table(12)
    assert t[t[1, 1], 3] != t[1, t[1, 3]]
    with pytest.raises(ValueError, match="not associative"):
        O.checked_group(t, gens=[1])


def test_finite_group_rejects_nonassociative_sampled():
    n = ASSOC_EXHAUSTIVE_LIMIT + 88
    t = twisted_table(n)
    assert t[t[1, 1], 3] != t[1, t[1, 3]]
    i, j, k = sample_ints(n, (3, ASSOC_SAMPLES))
    assert (t[t[i, j], k] != t[i, t[j, k]]).any()
    with pytest.raises(ValueError, match="not associative"):
        O.checked_group(t, gens=[1])


def test_finite_group_range_checks_before_narrowing():
    # the entry 2 + 65536 is 2 once narrowed to int16, which would make the
    # table cyclic_table(4)
    t = cyclic_table(4)
    t[1, 1] += 1 << 16
    assert np.array_equal(t.astype(np.int16), cyclic_table(4))
    with pytest.raises(ValueError, match="out of range"):
        O.checked_group(t, gens=[1])


def test_table_is_two_bytes_while_indices_fit():
    assert table_dtype(32767) == np.int16
    assert table_dtype(32768) == np.int32
    assert build("T:2,7").mul.dtype == np.int16
    assert O.checked_group(cyclic_table(4), gens=[1]).mul.dtype == np.int16


def test_sampled_associativity_draws_the_one_shot_stream(monkeypatch):
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(sample_ints(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(O, "sample_ints", recording)
    n = ASSOC_EXHAUSTIVE_LIMIT + 88
    O.checked_group(cyclic_table(n), gens=[1])
    # each block draws one chunk of the i, j and k rows, in that order
    rows = [np.concatenate(drawn[r::3]) for r in range(3)]
    assert len(drawn) > 3
    assert np.array_equal(rows, sample_ints(n, (3, ASSOC_SAMPLES)))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_pass_allocates_an_n_by_n_temporary():
    # numpy reports its buffers to tracemalloc, so the peaks are exact counts
    G = build("T:2,6")
    fresh = _peak_bytes(lambda: O.checked_group(G.mul, gens=G.gens))
    assert fresh < G.n ** 2
    H = O.checked_group(G.mul, gens=G.gens)
    assert _peak_bytes(lambda: center(H)) < G.n ** 2
    assert _peak_bytes(lambda: conjugacy_classes(H)) < G.n ** 2


# -- FiniteGroup.generated -----------------------------------------------------

def test_generated_central_involution():
    G = D8()
    r = G.gens[0]
    r2 = G.mul[r, r]
    assert G.generated([r2]).order == 2


def test_generated_whole_quaternion():
    G = Q8()
    assert G.generated(list(G.gens)).order == 8


def test_generated_T1_maximal_subgroup():
    G = build("T:1,4")
    N = G.generated(list(G.gens[1:]))  # <b, c, d>
    assert N.order == 27


def test_generated_empty_seed():
    G = D8()
    assert G.generated([]).order == 1


def _closure_seeds(G):
    """The seed shapes the package passes to `generated`, and sampled ones:
    the sorted walk of each Jennings and lower central term (the whole group
    first), the Jennings basis walk, commutator seeds and the Frattini seed,
    ℧/Ω seeds, whole-group images of the generators, and random seeds."""
    p, _ = G.require_p_group()
    full, D = G.full_subgroup(), jennings_series(G)
    for S in D + tuple(char_series(G).lower_central):
        yield S.elems
        yield _commutators(G, np.asarray(S.gens, dtype=np.int32)[:, None],
                           full.elems[None, :]).ravel()
    for Dw, Dnext in zip(D, D[1:]):
        yield list(Dnext.gens) + Dw.elems.tolist()
    comm = _commutators(G, np.asarray(full.gens, dtype=np.int32)[:, None], full.elems[None, :])
    yield _index_set(np.concatenate([comm.ravel(), G.pow_map(p)]), G.n)
    for k in (1, 2):
        powers = G.pow_map(p**k)
        yield _index_set(powers, G.n)
        yield np.flatnonzero(powers == G.id)
        yield np.flatnonzero(char_series(G).derived._member[powers])
    yield list(G.gens)
    for x in sample_ints(G.n, (3,)).tolist():
        yield G.conj_perm(x)[list(G.gens)]
    for size, offset in ((1, 0), (2, 10), (3, 20), (5, 30), (8, 40)):
        yield sample_ints(G.n, (size,), offset)


def test_generated_matches_frontier_closure(corpus_medium):
    # the coset closure keeps the frontier oracle's members and generators
    groups = corpus_medium + [(spec, build(spec)) for spec in ("T:2,6", "C:128", "Ab:729,3")]
    for spec, G in groups:
        for seed in _closure_seeds(G):
            got, want = G.generated(seed), O.generated_by_frontier(G, seed)
            assert np.array_equal(got.elems, want.elems), spec
            assert got.gens == want.gens, spec


def test_conj_perm_is_cached_read_only(corpus_small):
    for spec, G in corpus_small:
        for g in range(G.n):
            perm = G.conj_perm(g)
            assert not perm.flags.writeable, spec
            assert np.array_equal(perm, G.mul[G.mul[G.inv[g]], g]), spec
            assert G.conj_perm(g) is perm, spec


# -- characteristic series -----------------------------------------------------

def test_char_series_dihedral():
    cs = char_series(D8())
    assert cs.derived.order == 2
    assert cs.nilpotency_class == 2
    assert cs.center.order == 2
    assert jennings_series(D8())[1].order == 2


def test_char_series_T2_5():
    assert char_series(build("T:2,5")).nilpotency_class == 4


def test_char_series_cyclic():
    cs = char_series(build("C:8"))
    assert cs.nilpotency_class == 1
    assert cs.derived.order == 1


def test_char_series_requires_p_group():
    with pytest.raises(ValueError):
        char_series(build("C:12"))


# -- agemo / omega ---------------------------------------------------------------

def test_agemo_c4():
    G = build("C:4")
    assert agemo(G, 1).order == 2
    assert agemo(G, 0).order == 4


def test_omega_quaternion_is_center():
    G = Q8()
    om = omega(G, 1)
    assert om.order == 2
    assert om == center(G)


def test_omega_in_broche_case2():
    G = build("B2G:1,2")
    U = omega_in(G, char_series(G).derived, 1)
    assert U.order == 8
    a, b = G.gens
    want = G.generated([G.mul[a, a], b, G.word_image((-2, -1, 2, 1), G.gens)])
    assert U == want


def test_agemo_omega_dispatcher_and_guards():
    G = Q8()
    S = G.generated([G.gens[0]])  # <i> is normal
    assert omega_in(G, S, 0) == S
    H = build("X:C:2*D8")
    nonnormal = next(
        H.generated([g]) for g in range(H.n)
        if not H.generated([g]).is_normal())
    with pytest.raises(ValueError):
        omega_in(H, nonnormal, 1)


# -- quotients -------------------------------------------------------------------

def test_quotient_dihedral_by_center():
    G = D8()
    Q, proj = quotient_group(G, center(G))
    assert Q.n == 4
    assert exponent(Q) == 2
    assert proj[G.id] == Q.id


def test_quotient_T1_by_center():
    G = build("T:1,4")
    Q, _ = quotient_group(G, center(G))
    assert Q.n == 27


def test_quotient_by_whole_group():
    G = D8()
    Q, _ = quotient_group(G, G.full_subgroup())
    assert Q.n == 1


def test_quotient_reads_coset_minima_in_row_blocks():
    # G/D_1 = G/G is trivial, but its coset minima span the whole n x n table
    G = build("T:2,7")
    assert _peak_bytes(lambda: quotient_group(G, G.full_subgroup())) < 1 << 20


def test_quotient_table_is_gathered_through_a_narrow_projection():
    # G/Z of T:2,7 has order 729, a 1.0 MiB int16 table: the m x m gather
    # and the table itself, with no int32 copy between them
    G = build("T:2,7")
    Z = center(G)
    assert _peak_bytes(lambda: quotient_group(G, Z)) < 2.5 * (1 << 20)


def test_quotient_requires_normal():
    G = D8()
    s = next(g for g in range(G.n)
             if G.element_orders()[g] == 2 and not G.generated([g]).is_normal())
    with pytest.raises(ValueError):
        quotient_group(G, G.generated([s]))


# -- conjugacy classes -----------------------------------------------------------

def test_classes_T1_4_profile():
    cls = conjugacy_classes(build("T:1,4"))
    assert len(cls) == 17
    assert Counter(c.length for c in cls) == {1: 3, 3: 8, 9: 6}


def test_classes_T5_5_profile():
    cls = conjugacy_classes(build("T:5,5"))
    assert len(cls) == 19
    assert Counter(c.length for c in cls) == {1: 3, 3: 2, 9: 8, 27: 6}


def test_classes_abelian_singletons():
    cls = conjugacy_classes(build("C:9"))
    assert len(cls) == 9
    assert all(c.length == 1 for c in cls)


def test_conjugacy_classes_build_no_subgroup(monkeypatch):
    built = []
    init = Subgroup.__init__

    def counting_init(self, parent, elems):
        built.append(len(elems))
        init(self, parent, elems)

    G = build("T:2,5")
    fresh = O.checked_group(G.mul, gens=G.gens)
    monkeypatch.setattr(Subgroup, "__init__", counting_init)
    assert sum(c.length for c in conjugacy_classes(fresh)) == fresh.n
    assert built == []


@pytest.fixture(scope="module")
def oracle_groups(corpus_small):
    return corpus_small + [(spec, build(spec)) for spec in ("T:2,6", "T:3,6", "B1G:2", "Ab:243,9")]


def test_center_matches_all_pairs_oracle(oracle_groups):
    for spec, G in oracle_groups:
        assert center(G) == O.center_all_pairs(G), spec


def test_classes_match_per_element_oracle(oracle_groups):
    for spec, G in oracle_groups:
        got, want = conjugacy_classes(G), O.conjugacy_classes_per_element(G)
        assert [c.rep for c in got] == [c.rep for c in want], spec
        assert [c.length for c in got] == [c.length for c in want], spec
        assert all(np.array_equal(a.elems, b.elems) for a, b in zip(got, want)), spec


# -- subgroup and quotient tables against the checked constructor ------------------

def normal_subgroups(G):
    """(label, N) for the centre, the derived subgroup, Ω_1(Z) and each
    Jennings D_j of G, among them D_2 = Φ(G)."""
    cs = char_series(G)
    normal = [("Z", cs.center), ("G'", cs.derived), ("Omega_1(Z)", omega(cs.center, 1))]
    return normal + [(f"D_{j}", D) for j, D in enumerate(jennings_series(G), start=1)]


def proved_tables(G):
    """(label, group) for `quotient_group` on each of `normal_subgroups(G)`."""
    for name, N in normal_subgroups(G):
        yield f"G/{name}", quotient_group(G, N)[0]


def assert_matches_checked_group(H, label):
    C = O.checked_group(np.array(H.mul), gens=H.gens)
    assert isinstance(H.id, int) and H.id == C.id, label
    assert H.gens == C.gens, label
    assert np.array_equal(H.inv, C.inv), label
    assert H.mul.dtype == C.mul.dtype and np.array_equal(H.mul, C.mul), label


def test_proved_subgroup_and_quotient_tables_match_checked_group(oracle_groups):
    for spec, G in oracle_groups:
        for label, H in proved_tables(G):
            assert_matches_checked_group(H, f"{spec}: {label}")


def test_subgroup_series_matches_the_series_of_the_checked_subgroup(oracle_groups):
    # the series of N read in place in G, against the series of N built as a
    # standalone group through the checked constructor and mapped back to G
    for spec, G in oracle_groups:
        for name, N in normal_subgroups(G):
            if N.order == 1:  # the trivial group is no p-group; its series is itself
                assert jennings_series(N) == (N,), f"{spec}: {name}"
                continue
            H, embed = O.subgroup_group(N)
            got = jennings_series(N)
            want = [O.subgroup(G, embed[D.elems]) for D in jennings_series(H)]
            assert list(got) == want, f"{spec}: {name}"


def test_proved_tables_of_a_relabeled_group_keep_their_identity():
    # renumbered elements put the identity of the group, of its subgroups
    # and of its quotients away from index 0
    G = build("T:1,4")
    perm = np.random.default_rng(G.n).permutation(G.n)
    inv_perm = np.argsort(perm)
    H = O.checked_group(inv_perm[G.mul[np.ix_(perm, perm)]], gens=[int(inv_perm[g]) for g in G.gens])
    assert H.id != 0
    ids = []
    for label, K in proved_tables(H):
        assert_matches_checked_group(K, f"T:1,4 relabeled: {label}")
        ids.append(K.id)
    assert any(ids), ids


def test_class_partition_and_centralizer_identity():
    G = build("T:2,4")
    cls = conjugacy_classes(G)
    assert sum(c.length for c in cls) == G.n
    seen = np.concatenate([c.elems for c in cls])
    assert len(np.unique(seen)) == G.n
    for c in cls:
        assert c.length * centralizer(G, c.rep).order == G.n


# -- abelian type ------------------------------------------------------------------

def test_abelian_type_dihedral_abelianization():
    G = D8()
    cs = char_series(G)
    assert abelian_type(G.full_subgroup(), cs.derived) == (2, 2)


def test_abelian_type_center_T2_6():
    G = build("T:2,6")
    assert abelian_type(center(G)) == (3,)


def test_abelian_type_rejects_non_p_group():
    with pytest.raises(ValueError):
        abelian_type(build("C:12"))


def test_abelian_type_rejects_nonabelian():
    with pytest.raises(ValueError):
        abelian_type(D8())


def test_abelian_type_needs_normal_subgroup():
    G = D8()
    s = next(g for g in range(G.n)
             if G.element_orders()[g] == 2 and not G.generated([g]).is_normal())
    with pytest.raises(ValueError, match="not normal"):
        abelian_type(G.full_subgroup(), G.generated([s]))
    # normal in X is enough: ⟨s⟩ is not normal in G but is in the Klein group ⟨s, z⟩
    klein = G.generated([s] + center(G).gens)
    assert abelian_type(klein, G.generated([s])) == (2,)


def test_abelian_type_mixed():
    assert abelian_type(build("Ab:4,2")) == (4, 2)
    assert abelian_type(build("Ab:9,3,3")) == (9, 3, 3)
    assert abelian_type(build("C:16")) == (16,)


# -- the Jennings series, against Lazard's formula ---------------------------------

def test_lazard_c4():
    G = build("C:4")
    D = jennings_series(G)
    assert list(D) == O.dimension_subgroups_lazard(G)
    assert [S.order for S in D] == [4, 2, 1]
    a = G.gens[0]
    assert D[1] == G.generated([G.mul[a, a]])


def test_lazard_broche_case2_unit():
    # D_2(U) of U = Ω_1(G:G') in place, and by Lazard's formula on U built
    # as a standalone group
    for spec, want in [("B2G:1,2", 2), ("B2H:1,2", 1)]:
        G = build(spec)
        U = omega_in(G, char_series(G).derived, 1)
        D = jennings_series(U)
        assert D[1].order == want, spec
        Ug, embed = O.subgroup_group(U)
        assert [O.subgroup(G, embed[S.elems]) for S in O.dimension_subgroups_lazard(Ug)] == list(D)


def test_lazard_elementary_abelian():
    G = build("EA:3,2")
    D = jennings_series(G)
    assert list(D) == O.dimension_subgroups_lazard(G)
    assert [S.order for S in D] == [9, 1]


def test_lazard_chain_properties():
    # C2 ≀ C4 is the one group here where [D_2, G] is not inside
    # [D_2, D_2]·℧_1(D_2): its series needs the commutators with all of G
    wreath = from_presentation("ac", ("a^2", "c^4", "[a,c^-1*a*c]", "[a,c^-2*a*c^2]",
                                      "[a,c^-3*a*c^3]"), declared_order=64)
    groups = [(spec, build(spec)) for spec in ["D8", "Q8", "T:1,4", "Ab:8,4", "B2G:1,2"]]
    for spec, G in groups + [("C2 wr C4", wreath)]:
        D = jennings_series(G)
        assert list(D) == O.dimension_subgroups_lazard(G), spec
        assert D[0].order == G.n
        assert D[1] == subgroup_product(agemo(G, 1), char_series(G).derived)
        for a, b in zip(D, D[1:]):
            assert a.contains_set(b)


# -- numeric invariants -------------------------------------------------------------

def test_min_generators():
    assert min_generators(D8()) == 2
    assert min_generators(build("C:8")) == 1
    assert min_generators(build("EA:2,3")) == 3


def test_min_generators_type2_centralizer_T2_4():
    G = build("T:2,4")
    cls = conjugacy_classes(G)
    three_gen = [c for c in cls if c.length == 3 and min_generators(centralizer(G, c.rep)) == 3]
    assert len(three_gen) == 8  # all type-2 classes are three-generated here


def test_exponent():
    assert exponent(Q8()) == 4
    assert exponent(build("EA:3,2")) == 3
    G = build("T:1,5")
    assert exponent(G) == int(max(G.element_orders()))


def test_is_metacyclic():
    ok, witness = is_metacyclic(Q8())
    assert ok and witness.order == 4 and witness.is_normal()
    ok, _ = is_metacyclic(build("EA:2,3"))
    assert not ok
    ok, _ = is_metacyclic(build("Meta:2,3,1,0,5"))
    assert ok


# groups that are not p-groups: is_metacyclic takes any finite group
NON_P_GROUPS = {
    "S3": (("a", "b"), ("a^3", "b^2", "b^-1*a*b*a")),
    "C6": (("a",), ("a^6",)),
    "A4": (("a", "b"), ("a^2", "b^3", "(a*b)^3")),
    "S4": (("a", "b"), ("a^2", "b^3", "(a*b)^4")),
    "D10": (("a", "b"), ("a^5", "b^2", "b^-1*a*b*a")),
    "C3xS3": (("a", "b", "c"), ("a^3", "b^2", "b^-1*a*b*a", "c^3", "[c,a]", "[c,b]")),
    # the central C3 comes first here, and G/C3 = S3 has exponent 6 = |S3|
    # but no element of order 6
    "C3xS3, c first": (("c", "a", "b"), ("c^3", "a^3", "b^2", "b^-1*a*b*a", "[c,a]",
                                         "[c,b]")),
    "Dic3": (("a", "b"), ("a^6", "b^2*a^-3", "b^-1*a*b*a")),
    "C2^2xC3": (("a", "b", "c"), ("a^2", "b^2", "c^3", "[a,b]", "[a,c]", "[b,c]")),
}


def _metacyclic_by_quotients(G):
    """is_metacyclic's verdict and witness by building G/S: the first cyclic
    normal S, by decreasing order and then least elements, whose quotient
    has an element of order |G:S|. (The exponent of G/S equals |G:S| for a
    cyclic G/S, but also for G/S = S3.)"""
    cyclic = dict.fromkeys(G.generated([g]) for g in range(G.n))
    for S in sorted(cyclic, key=lambda S: (-S.order, S.elems.tolist())):
        if S.is_normal() and quotient_group(G, S)[0].element_orders().max() == G.n // S.order:
            return True, S
    return False, None


def test_is_metacyclic_matches_the_quotient_oracle(corpus_medium):
    groups = [(spec, build_corpus_group(spec))
              for spec in METACYCLIC_SPECS + NON_METACYCLIC_SPECS]
    groups += corpus_medium
    groups += [(name, from_presentation(*pres)) for name, pres in NON_P_GROUPS.items()]
    orders = {name: G.n for name, G in groups[-len(NON_P_GROUPS):]}
    assert orders == {"S3": 6, "C6": 6, "A4": 12, "S4": 24, "D10": 10, "C3xS3": 18,
                      "C3xS3, c first": 18, "Dic3": 12, "C2^2xC3": 12}
    for spec, G in groups:
        assert is_metacyclic(G) == _metacyclic_by_quotients(G), spec


def test_maximal_elem_abelian_classes():
    assert maximal_elem_abelian_classes(D8()) == {2: 2}
    assert maximal_elem_abelian_classes(Q8()) == {1: 1}
    assert maximal_elem_abelian_classes(build("C:3")) == {1: 1}
    # the search from Ω_1(Z) = ⟨z⟩ in D32 visits ⟨z⟩ and eight Klein groups
    assert maximal_elem_abelian_classes(build("Meta:2,4,1,0,15"), cap=9) == {2: 2}
    with pytest.raises(CapExceeded):
        maximal_elem_abelian_classes(build("Meta:2,4,1,0,15"), cap=3)


def test_maximal_elem_abelian_classes_against_all_subgroups(corpus_small):
    # oracle: every elementary abelian subgroup, the maximal ones under
    # inclusion, and their orbits under conjugation by every element
    for spec, G in corpus_small:
        if G.n > 32:
            continue
        p, _ = G.require_p_group()
        elem_ab = []
        for S in _all_subgroups(G):
            block = G.mul[np.ix_(S.elems, S.elems)]
            if (G.pow_map(p)[S.elems] == G.id).all() and (block == block.T).all():
                elem_ab.append(S)
        maximal = {E for E in elem_ab
                   if not any(F.order > E.order and F.contains_set(E) for F in elem_ab)}
        classes = Counter()
        while maximal:
            E = min(maximal, key=lambda S: S.elems.tolist())
            maximal -= {O.subgroup(G, G.conj_perm(g)[E.elems]) for g in range(G.n)}
            classes[round(np.log(E.order) / np.log(p))] += 1
        assert maximal_elem_abelian_classes(G) == dict(sorted(classes.items())), spec


def test_max_elem_abelian_direct_factor():
    assert max_elem_abelian_direct_factor(build("X:C:2*D8")) == 1
    assert max_elem_abelian_direct_factor(Q8()) == 0
    assert max_elem_abelian_direct_factor(build("EA:2,2")) == 2
    with pytest.raises(CapExceeded):
        max_elem_abelian_direct_factor(build("T:1,5"), cap=64)


def _all_subgroups(G):
    seen = {G.trivial_subgroup()._key: G.trivial_subgroup()}
    frontier = [G.trivial_subgroup()]
    while frontier:
        S = frontier.pop()
        for g in range(G.n):
            if not S.contains(g):
                T = G.generated(list(S.elems) + [g])
                if T._key not in seen:
                    seen[T._key] = T
                    frontier.append(T)
    return list(seen.values())


@pytest.mark.parametrize("spec", ["D8", "Q8", "C:8", "Ab:4,2", "X:C:2*D8", "Meta:2,3,1,0,5", "EA:2,3"])
def test_direct_factor_against_complement_search(spec):
    # oracle: literal brute force over central elementary abelian A and all
    # complement candidates U with U normal, U ∩ A = 1, |U||A| = |G|
    G = build(spec)
    p, _ = G.require_p_group()
    subs = _all_subgroups(G)
    Z = center(G)
    best = 0
    for A in subs:
        if not Z.contains_set(A) or exponent(O.subgroup_group(A)[0]) not in (1, p):
            continue
        rank = 0
        o = A.order
        while o > 1:
            o //= p
            rank += 1
        if rank <= best:
            continue
        for U in subs:
            if (U.order * A.order == G.n
                    and subgroup_intersection(U, A).order == 1
                    and U.is_normal()):
                best = rank
                break
    assert best == max_elem_abelian_direct_factor(G)


# -- section lemmas (small instances; the acceptance suite runs the full corpus) ----

def test_rank_preserving_correspondence_instance():
    G = build("T:1,4")
    K = char_series(G).derived
    Kg, embed = O.subgroup_group(K)
    # map the Frattini elements of K as a standalone group back to G
    L = O.subgroup(G, embed[jennings_series(Kg)[1].elems])
    for extra in range(G.n):
        H = G.generated(list(K.elems) + [extra])
        Hq = quotient_group(H, L)[0] if L.order > 1 else O.subgroup_group(H)[0]
        assert min_generators(H) == min_generators(Hq.full_subgroup())


def test_derived_of_order_p_criterion(corpus_small):
    hits = 0
    for spec, G in corpus_small:
        p = G.require_p_group()[0]
        cs = char_series(G)
        if cs.derived.order == p and min_generators(G) == 2:
            assert abelian_type(G.full_subgroup(), cs.center) == (p, p), spec
            hits += 1
    assert hits >= 4  # the criterion must actually be exercised


def test_subgroup_product_and_intersection():
    G = D8()
    Z = center(G)
    A = G.generated([G.gens[0]])
    P = subgroup_product(Z, A)
    assert P == A  # Z is inside <r>
    B = G.generated([G.gens[1]])
    assert subgroup_product(A, B).order == 8
    assert subgroup_intersection(A, B).order == 1


# -- trusted subgroups and generator commutators ---------------------------------

def _commutator_cases(G):
    """(A, B) with A ⊆ B: each γ_i, D_n, Z(G) and class centralizer against
    B = G, and each centralizer against itself."""
    full = G.full_subgroup()
    cents = list(dict.fromkeys(centralizer(G, c.rep) for c in conjugacy_classes(G)))
    tops = (char_series(G).lower_central + list(jennings_series(G))
            + [center(G)] + cents)
    return [(A, full) for A in tops] + [(C, C) for C in cents]


def test_commutator_subgroup_matches_all_pairs_oracle(corpus_small):
    # in T:2,4, [a, b] over generators a and b of G generate less than G',
    # so b must range over all of B
    for spec, G in corpus_small + [("T:2,4", build("T:2,4"))]:
        for A, B in _commutator_cases(G):
            assert commutator_subgroup(A, B) == O.commutator_subgroup_all_pairs(A, B), spec


def test_generated_keeps_a_generating_set(corpus_small):
    for spec, G in corpus_small:
        for S in dict.fromkeys(S for case in _commutator_cases(G) for S in case):
            T = G.generated(S.gens)
            assert T == S, spec
            if S is G.full_subgroup():
                # the whole group carries G.gens, which may be redundant: HEIS27's c = [b, a]
                assert S.gens == list(G.gens), spec
            else:
                assert T.gens == S.gens, spec  # each kept generator is new


def test_subgroup_rejects_non_subgroup_sets():
    G = D8()
    r, s = G.gens
    r2 = int(G.mul[r, r])
    for elems in ([], [r2], [G.id, r], [G.id, s, r2]):  # the first two lack 1
        with pytest.raises(ValueError, match="not a subgroup"):
            O.subgroup(G, elems)
    assert O.subgroup(G, [r2, G.id]) == G.generated([r2])


def test_subgroup_product_asserts_a_normal_factor():
    G = D8()
    r, s = G.gens
    A, B = G.generated([s]), G.generated([G.mul[s, r]])
    assert not A.is_normal() and not B.is_normal()
    with pytest.raises(AssertionError):
        subgroup_product(A, B)  # <s, sr> = D8, but |<s>||<sr>| = 4
