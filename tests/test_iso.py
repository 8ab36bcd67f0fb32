import itertools
import random
from collections import Counter

import numpy as np
import pytest

from modiso.errors import CapExceeded
from modiso.families import build, from_presentation
from modiso.gfq import make_field
from modiso.groups import FiniteGroup
from modiso.invariants import compare, fingerprint, fingerprint_to_dict
from modiso.iso import (
    IsoWitness,
    NotIsomorphic,
    group_isomorphic,
    nilpotent_algebra_iso,
    verify_witness,
)
from modiso import gfq, iso, modalg
from modiso.words import todd_coxeter

import oracles
from conftest import CORPUS_SMALL, adversarial_presentation, build_corpus_group, run_optimized

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F3 = make_field(3, 1)

# every radical section a test builds is checked associative, with its
# prime restriction
pytestmark = pytest.mark.usefixtures("associative_sections")


def section(spec, F, i=1, j=3):
    return modalg.radical_section(build_corpus_group(spec), F, i, j)


# -- groups -----------------------------------------------------------------------

def test_group_iso_order_profile_prune():
    r = group_isomorphic(build("C:4"), build("EA:2,2"))
    assert isinstance(r, NotIsomorphic)
    assert "profile" in r.reason or "order" in r.reason


def test_group_iso_t2_t3_odd_has_witness():
    G, H = build("T:2,5"), build("T:3,5")
    r = group_isomorphic(G, H)
    assert isinstance(r, IsoWitness)
    assert verify_witness(r, G, H)


def test_group_iso_t2_t3_even_exhausted():
    G, H = build("T:2,6"), build("T:3,6")
    r = group_isomorphic(G, H)
    assert isinstance(r, NotIsomorphic)
    assert r.reason == "exhausted"


def test_group_iso_same_group_two_presentations():
    G, H = build("D8"), build("Meta:2,2,1,0,3")
    r = group_isomorphic(G, H)
    assert isinstance(r, IsoWitness)
    assert verify_witness(r, G, H)
    # spec-level soundness: witness implies indistinguishable fingerprints
    for F in (F2, F4):
        assert not compare(fingerprint(G, F), fingerprint(H, F)).distinguished


def test_group_iso_determinism():
    G, H = build("T:2,5"), build("T:3,5")
    r1 = group_isomorphic(G, H)
    r2 = group_isomorphic(G, H)
    assert r1.images == r2.images


def test_group_iso_cap():
    G, H = build("EA:2,4"), build("EA:2,4")
    with pytest.raises(CapExceeded):
        group_isomorphic(G, H, cap=10)


def test_group_iso_requires_presentation():
    G = build("D8")
    table_only = oracles.checked_group(G.mul.copy(), gens=list(G.gens))
    with pytest.raises(ValueError):
        group_isomorphic(table_only, G)
    # without element words the search could not be verified, so it does
    # not start, whatever the target
    wordless = oracles.checked_group(G.mul.copy(), gens=list(G.gens), presentation=G.presentation)
    for H in (G, build("Q8")):
        with pytest.raises(ValueError):
            group_isomorphic(wordless, H)


def test_group_verify_rejects_wrong_images():
    G, H = build("D8"), build("Meta:2,2,1,0,3")
    good = group_isomorphic(G, H)
    assert isinstance(good, IsoWitness)
    bad = IsoWitness(kind="group", images=[good.images[0], H.id],
                     source_gens=list(G.gens))
    assert not verify_witness(bad, G, H)


def test_group_verify_rejects_malformed_images():
    # images outside [0, |H|) must not wrap around, and the image count must
    # match the source generators
    G, H = build("D8"), build("Meta:2,2,1,0,3")
    for images in ([-7, -4], [99, 1], [1]):
        bad = IsoWitness(kind="group", images=images, source_gens=list(G.gens))
        assert verify_witness(bad, G, H) is False, images


def test_generator_check_matches_all_pairs_check():
    # the witness check on generators accepts exactly the image tuples that
    # the all-pairs check accepts: every tuple between groups of order 8
    # (|Aut(D8)| = 8, |Aut(Q8)| = 24), and random tuples plus the identity
    # on T:2,5
    D8, Q8, T = build("D8"), build("Q8"), build("T:2,5")
    rng = random.Random(0)
    cases = [(G, H, list(itertools.product(range(H.n), repeat=len(G.gens))), accepted)
             for G, H, accepted in ((D8, D8, 8), (D8, Q8, 0), (Q8, Q8, 24))]
    cases.append((T, T, [tuple(T.gens)] + [tuple(rng.randrange(T.n) for _ in T.gens)
                                           for _ in range(200)], None))
    for G, H, tuples, accepted in cases:
        hits = 0
        for images in tuples:
            w = IsoWitness(kind="group", images=list(images), source_gens=list(G.gens))
            verdict = verify_witness(w, G, H)
            assert verdict == oracles.group_witness_holds_all_pairs(w, G, H), (G, H, images)
            hits += verdict
        assert hits == accepted if accepted is not None else hits >= 1


def test_searches_return_no_unverified_witness_under_optimize():
    # python -O strips asserts; with the verifier refusing every witness,
    # neither search may hand one out
    out = run_optimized(
        "from modiso import iso, modalg\n"
        "from modiso.families import build\n"
        "from modiso.gfq import make_field\n"
        "F = make_field(2, 2)\n"
        "A, B = (modalg.radical_section(build(s), F, 1, 3) for s in ('D8', 'Q8'))\n"
        "print('found', type(iso.nilpotent_algebra_iso(A, B)).__name__)\n"
        "iso.verify_witness = lambda *args: False\n"
        "for search, X, Y in ((iso.nilpotent_algebra_iso, A, B),\n"
        "                     (iso.group_isomorphic, build('D8'), build('D8'))):\n"
        "    try:\n"
        "        print('returned', type(search(X, Y)).__name__)\n"
        "    except AssertionError as err:\n"
        "        print('refused:', err)\n")
    refused = "refused: accepted assignment failed verification"
    assert out.splitlines() == ["found IsoWitness", refused, refused], out


def test_algebra_verify_rejects_malformed_images():
    # the search's own witness edited: an image count that does not match
    # the source generators, a code outside [0, q), a vector of the wrong
    # length, a non-integer vector or a ragged nesting is rejected, not
    # raised on
    A, B = section("D8", F4), section("Q8", F4)
    w = nilpotent_algebra_iso(A, B)
    assert verify_witness(w, A, B)
    first = w.images[0]
    for images in (w.images[:-1], w.images + [first],
                   [np.full_like(first, 4)] + w.images[1:],
                   [np.array([300] + [0] * (A.dim - 1))] + w.images[1:],
                   [np.array([-1] + [0] * (A.dim - 1))] + w.images[1:],
                   [first[:-1]] + w.images[1:],
                   [first.astype(float)] + w.images[1:],
                   [[first.tolist(), [0]]] + w.images[1:]):
        bad = IsoWitness(kind="algebra", images=images, source_gens=w.source_gens)
        assert verify_witness(bad, A, B) is False, images
    bad = IsoWitness(kind="algebra", images=w.images, source_gens=w.source_gens[:-1])
    assert verify_witness(bad, A, B) is False
    # a second copy of a generator: the monomial basis skips it, so the map
    # must still send it to its stated image
    twice = w.source_gens + [w.source_gens[0]]
    bad = IsoWitness(kind="algebra", images=w.images + [np.array([3, 1, 2, 0])], source_gens=twice)
    assert verify_witness(bad, A, B) is False
    same = IsoWitness(kind="algebra", images=w.images + [w.images[0]], source_gens=twice)
    assert verify_witness(same, A, B) is True


def test_algebra_iso_deep_nilpotent_algebra_reaches_the_cap():
    # Δ/Δ^66 of F_2C_128 is xF_2[x]/(x^66), x = g - 1 for a generator g.
    # It is nilpotent of degree 66, so the search reports its cap instead
    # of rejecting the input
    A = section("C:128", F2, 1, 66)
    assert A.dim == 65
    assert A.nilpotency_degree() == 66
    with pytest.raises(CapExceeded, match="2\\^65 assignments"):
        nilpotent_algebra_iso(A, A)


def test_group_iso_socle_prune_leaves_one_closure(monkeypatch):
    # every relator-satisfying assignment but the isomorphisms is rejected
    # by the socle prune, so at most one closure runs in H
    G = build("T:2,5")
    calls = []
    generated = FiniteGroup.generated

    def counting_generated(self, seed):
        calls.append(self.n)
        return generated(self, seed)

    monkeypatch.setattr(FiniteGroup, "generated", counting_generated)
    r = group_isomorphic(G, G)
    assert isinstance(r, IsoWitness)
    assert r.images == [22, 1, 5, 9]
    assert len(calls) <= 1


def test_group_iso_trivial_centre_keeps_closure_check():
    # S3 has trivial centre, so the socle prune is empty and closure in H
    # decides alone
    S = from_presentation(("a", "b"), ("a^3", "b^2", "(a*b)^2"), declared_order=6)
    T = from_presentation(("x", "y"), ("x^2", "y^2", "(x*y)^3"), declared_order=6)
    for G, H in ((S, T), (T, S)):
        r = group_isomorphic(G, H)
        assert isinstance(r, IsoWitness)
        assert verify_witness(r, G, H)


ADVERSARIAL_SPECS = [spec for spec in CORPUS_SMALL
                     if len(build_corpus_group(spec).gens) >= 2] + ["T:2,5"]


@pytest.mark.parametrize("spec", ADVERSARIAL_SPECS)
def test_adversarial_presentation_is_isomorphic(spec):
    G = build_corpus_group(spec)
    H = todd_coxeter(adversarial_presentation(G.presentation, random.Random(spec)))
    assert H.n == G.n
    for X, Y in ((G, H), (H, G)):
        r = group_isomorphic(X, Y)
        assert isinstance(r, IsoWitness), (spec, r)
        assert verify_witness(r, X, Y)
    F = make_field(G.require_p_group()[0], 1)
    fg, fh = fingerprint(G, F), fingerprint(H, F)
    assert not compare(fg, fh).distinguished
    assert fingerprint_to_dict(fg) == fingerprint_to_dict(fh)


def assert_least_isomorphism(G, H):
    # the search returns the brute-force scan's least isomorphism, and
    # NotIsomorphic exactly when the scan finds none
    want = oracles.least_group_isomorphism(G, H)
    got = group_isomorphic(G, H)
    if want is None:
        assert isinstance(got, NotIsomorphic)
    else:
        assert isinstance(got, IsoWitness) and got.images == list(want), (got, want)


def test_group_witness_is_the_least_isomorphism_on_the_corpus(corpus_small):
    for spec, G in corpus_small:
        targets = [G]
        if len(G.gens) >= 2:
            targets += [todd_coxeter(adversarial_presentation(G.presentation, random.Random(f"{spec}/{k}")))
                        for k in (1, 2)]
        for H in targets:
            for X, Y in ((G, H), (H, G)):
                assert_least_isomorphism(X, Y)


LEAST_ISO_PAIRS = [
    # direct products with their factors swapped
    ("X:D8*C:2", "X:C:2*D8"), ("X:Q8*C:4", "X:C:4*Q8"), ("X:T:1,4*C:3", "X:C:3*T:1,4"),
    ("X:Meta:2,3,1,0,5*EA:2,2", "X:EA:2,2*Meta:2,3,1,0,5"),
    # every generator deduced; b deduced from a*b after the searched a
    ("C:1", "C:1"), ("TRIVIAL", "C:1"), ("C4-DEDUCED", "C:4"),
    # C4 ⋊ C4 and C2 × Q8 share their order and class-size profile, so the
    # search is exhausted; D8 and Q8 part at the order profile
    ("Meta:2,2,2,0,3", "X:C:2*Q8"), ("D8", "Q8"),
]


def least_iso_group(spec):
    if spec == "TRIVIAL":
        return from_presentation(("a", "b"), ("a", "a*b"), declared_order=1)
    if spec == "C4-DEDUCED":
        return from_presentation(("a", "b"), ("a^4", "a*b", "b^4"), declared_order=4)
    return build(spec)


@pytest.mark.parametrize("s1,s2", LEAST_ISO_PAIRS)
def test_group_witness_is_the_least_isomorphism(s1, s2):
    G, H = least_iso_group(s1), least_iso_group(s2)
    for X, Y in ((G, H), (H, G)):
        assert_least_isomorphism(X, Y)


def test_group_witness_full_map_is_isomorphism():
    G, H = build("Q8"), build("Meta:2,2,1,1,3")
    r = group_isomorphic(G, H)
    assert isinstance(r, IsoWitness)
    assert verify_witness(r, G, H)
    m = r.full_map
    assert sorted(m.tolist()) == list(range(H.n))
    assert np.array_equal(m[G.mul], H.mul[m[:, None], m[None, :]])


# -- algebras ----------------------------------------------------------------------

def test_algebra_iso_lambda_gamma_f2_not_isomorphic():
    r = nilpotent_algebra_iso(section("D8", F2), section("Q8", F2))
    assert isinstance(r, NotIsomorphic)
    assert r.reason == "exhausted"


def test_algebra_iso_lambda_gamma_f4_witness():
    A, B = section("D8", F4), section("Q8", F4)
    r = nilpotent_algebra_iso(A, B)
    assert isinstance(r, IsoWitness)
    assert verify_witness(r, A, B)


def test_algebra_iso_over_one_field_however_it_is_made():
    # make_field caches on (p, k), so sections built from GF(4) objects made
    # by different calls are over the same field
    A, B = section("D8", make_field(2, k=2)), section("Q8", make_field(2, 2))
    r = nilpotent_algebra_iso(A, B)
    assert isinstance(r, IsoWitness)
    assert verify_witness(r, A, B)


def test_algebra_iso_self():
    A = section("D8", F2)
    r = nilpotent_algebra_iso(A, A)
    assert isinstance(r, IsoWitness)
    assert verify_witness(r, A, A)


def test_algebra_identity_witness_verifies():
    A = section("Q8", F2)
    gens = oracles.unit_generators(A)
    wit = IsoWitness(kind="algebra", images=[g.copy() for g in gens], source_gens=gens)
    assert verify_witness(wit, A, A)


def test_algebra_iso_rejects_unital():
    # FG itself: the nilpotency check rejects it
    C4 = build("C:4")
    A = oracles.unital_quotient(C4, F2, oracles.zero_ideal(C4, F2))
    B = section("D8", F2)
    with pytest.raises(ValueError):
        nilpotent_algebra_iso(A, B)


def test_algebra_iso_dim_mismatch():
    A = section("D8", F2, 1, 3)
    B = section("D8", F2, 1, 2)
    r = nilpotent_algebra_iso(A, B)
    assert isinstance(r, NotIsomorphic)


def test_algebra_iso_cap():
    with pytest.raises(CapExceeded):
        nilpotent_algebra_iso(section("D8", F4), section("Q8", F4), cap=100)


def test_paper_explicit_witness():
    D8, Q8 = build("D8"), build("Q8")
    lam = modalg.radical_section(D8, F4, 1, 3)
    gam = modalg.radical_section(Q8, F4, 1, 3)
    x = gam.project(modalg.basis_minus_one(Q8, F4, Q8.gens[0]))
    y = gam.project(modalg.basis_minus_one(Q8, F4, Q8.gens[1]))
    a = lam.project(modalg.basis_minus_one(D8, F4, D8.gens[0]))
    b = lam.project(modalg.basis_minus_one(D8, F4, D8.gens[1]))
    images = [a, F4.vadd(F4.vsmul(F4.p, a), b)]  # x -> a, y -> w*a + b; w is the code p
    wit = IsoWitness(kind="algebra", images=images, source_gens=[x, y])
    assert verify_witness(wit, gam, lam)


def test_swapped_witness_fails_over_f2():
    D8, Q8 = build("D8"), build("Q8")
    lam = modalg.radical_section(D8, F2, 1, 3)
    gam = modalg.radical_section(Q8, F2, 1, 3)
    x = gam.project(modalg.basis_minus_one(Q8, F2, Q8.gens[0]))
    y = gam.project(modalg.basis_minus_one(Q8, F2, Q8.gens[1]))
    a = lam.project(modalg.basis_minus_one(D8, F2, D8.gens[0]))
    b = lam.project(modalg.basis_minus_one(D8, F2, D8.gens[1]))
    wit = IsoWitness(kind="algebra", images=[a, F2.vadd(a, b)], source_gens=[x, y])
    assert not verify_witness(wit, gam, lam)


@pytest.mark.parametrize("s1,s2,accepted,rejected", [
    ("D8", "Q8", 0, 96), ("D8", "D8", 32, 64), ("Q8", "Q8", 96, 0)])
def test_algebra_witness_check_is_the_pairwise_product_check(s1, s2, accepted, rejected):
    # every generator assignment of Δ/Δ^3 over GF(2): the witness check
    # accepts exactly the maps of rank d that respect each of the d²
    # products, checked pair by pair with B.mul_batch. Of the 96 maps of
    # rank d, D8 -> D8 has 64 that are not multiplicative and D8 -> Q8 has
    # no other kind
    A, B = section(s1, F2), section(s2, F2)
    gens = oracles.unit_generators(A)
    verdicts = Counter()
    for flat in gfq._enumerate_coords(F2.q, A.dim * len(gens), "iso_cap"):
        for imgs in flat.reshape(-1, len(gens), A.dim):
            w = IsoWitness(kind="algebra", images=list(imgs), source_gens=gens)
            got = verify_witness(w, A, B)
            if gfq.EchelonBuilder(F2, A.dim).add_block(w.full_map) < A.dim:
                assert not got
                continue
            assert got == bool(oracles.products_hold(B, A.sc, w.full_map[None])[0]), imgs
            verdicts[got] += 1
    assert (verdicts[True], verdicts[False]) == (accepted, rejected)


def test_kernel_size_preserved_by_witness():
    # when a witness exists the kernel sizes must agree (checked on the pair)
    A, B = section("D8", F4), section("Q8", F4)
    assert isinstance(nilpotent_algebra_iso(A, B), IsoWitness)
    for k in (1, 2):
        assert (modalg.kernel_size_power_map(A, k)
                == modalg.kernel_size_power_map(B, k))


def test_not_isomorphic_pairs_have_differing_battery():
    # completeness cross-check: exhausted search on the F2 pair matches the
    # kernel-size separation
    a = modalg.kernel_size_power_map(section("D8", F2), 1)
    b = modalg.kernel_size_power_map(section("Q8", F2), 1)
    assert a != b


# the source and target specs, the field and j of the section Δ/Δ^j
SEARCH_PAIRS = [
    ("D8", "Q8", F2, 3), ("D8", "Q8", F4, 3), ("D8", "Q8", F2, 4), ("D8", "D8", F2, 4),
    ("Q8", "Q8", F2, 3), ("Q8", "Q8", F4, 3), ("C:8", "C:8", F2, 8),
    ("EA:3,2", "EA:3,2", F3, 3), ("C:9", "EA:3,2", F3, 3),
    ("D8", "Ab:4,2", F2, 3), ("Q8", "Ab:4,2", F2, 3),
    ("Ab:4,2", "D8", F2, 3), ("EA:2,3", "EA:2,3", F2, 3), ("HEIS27", "HEIS27", F3, 3),
    ("D8", "D8", F4, 3), ("Ab:4,2", "Ab:4,2", F4, 3),
]

# (s1, s2, q, j) -> the homomorphisms that the all-pairs search rejects on
# rank alone before it ends: maps that are not onto, which the search skips
# before it checks a relation. C:9/EA:3,2 ends at the square-dimension prune
RANK_REJECTED = {
    ("D8", "Q8", 2, 3): 16, ("D8", "Q8", 4, 3): 456, ("D8", "Q8", 2, 4): 256,
    ("D8", "D8", 2, 4): 128, ("Q8", "Q8", 2, 3): 8, ("Q8", "Q8", 4, 3): 448,
    ("C:8", "C:8", 2, 8): 1, ("EA:3,2", "EA:3,2", 3, 3): 246, ("C:9", "EA:3,2", 3, 3): 0,
    ("D8", "Ab:4,2", 2, 3): 64, ("Q8", "Ab:4,2", 2, 3): 64, ("Ab:4,2", "D8", 2, 3): 128,
    ("EA:2,3", "EA:2,3", 2, 3): 4232, ("HEIS27", "HEIS27", 3, 3): 756,
    ("D8", "D8", 4, 3): 453, ("Ab:4,2", "Ab:4,2", 4, 3): 65,
}


@pytest.mark.parametrize("s1,s2,F,j", SEARCH_PAIRS)
def test_algebra_search_matches_the_all_pairs_search(s1, s2, F, j):
    A, B = section(s1, F, 1, j), section(s2, F, 1, j)
    rejected = []
    got = nilpotent_algebra_iso(A, B)
    want = oracles.nilpotent_algebra_iso_all_pairs(A, B, rejected=rejected)
    assert len(rejected) == RANK_REJECTED[s1, s2, F.q, j]
    assert type(got) is type(want)
    if isinstance(want, NotIsomorphic):
        assert got.reason == want.reason
    else:
        for name in ("source_gens", "images"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("s1,s2,F,j", [
    ("D8", "Q8", F2, 3), ("D8", "D8", F2, 4), ("C:8", "C:8", F2, 8), ("EA:3,2", "EA:3,2", F3, 3)])
def test_relations_accept_what_all_products_accept(s1, s2, F, j):
    # over every candidate linear map, checking the relations of A's
    # presentation accepts exactly the maps that respect all d² products.
    # Over C:8 and EA:3,2 every map does: both sections are commutative and
    # their products of top degree vanish
    A, B = section(s1, F, 1, j), section(s2, F, 1, j)
    gens = oracles.unit_generators(A)
    words, Vinv, relations = iso._monomial_basis(A, gens)
    assert len(relations) == A.dim * len(gens) - (A.dim - len(gens))
    c = oracles.product_tensor(A, oracles.word_images(A, words, np.array(gens)[None])[0], Vinv)
    accepted = 0
    for flat in gfq._enumerate_coords(F.q, A.dim * len(gens), "iso_cap"):
        imgs = flat.reshape(-1, len(gens), A.dim)
        U = oracles.word_images(B, words, imgs)
        assert np.array_equal(
            np.stack(iso._basis_images(words, imgs.transpose(1, 0, 2), B.mul_batch), axis=1), U)
        want = np.flatnonzero(oracles.products_hold(B, c, U))
        assert np.array_equal(iso._relations_hold(B, relations, U, imgs), want)
        accepted += len(want)
    assert accepted > 0


@pytest.mark.parametrize("F,j", [(F2, 4), (F4, 3)])
def test_relations_of_top_degree_hold_on_every_candidate(F, j):
    # D8 and Q8 have the same degree on Δ/Δ^j, so the relations whose
    # monomial is a word of that length are dropped: they hold on every
    # candidate, and the live ones accept what all d² products accept, the
    # test of `oracles.nilpotent_algebra_iso_all_pairs` (SEARCH_PAIRS runs
    # both searches on these two pairs)
    A, B = section("D8", F, 1, j), section("Q8", F, 1, j)
    e = A.nilpotency_degree()
    assert e == B.nilpotency_degree()
    gens = oracles.unit_generators(A)
    words, Vinv, relations = iso._monomial_basis(A, gens)
    live = iso._live_relations(A, B, words, relations)
    dropped = [r for r in relations if len(words[r[0]]) + 1 >= e]
    assert 0 < len(live) and len(live) + len(dropped) == len(relations)
    assert all(not c.any() for _, _, c in dropped)
    c = oracles.product_tensor(A, oracles.word_images(A, words, np.array(gens)[None])[0], Vinv)
    for flat in gfq._enumerate_coords(F.q, A.dim * len(gens), "iso_cap"):
        imgs = flat.reshape(-1, len(gens), A.dim)
        U = oracles.word_images(B, words, imgs)
        assert len(iso._relations_hold(B, dropped, U, imgs)) == len(U)
        assert np.array_equal(iso._relations_hold(B, live, U, imgs),
                              np.flatnonzero(oracles.products_hold(B, c, U)))


def test_relations_all_live_when_degrees_differ():
    # D8 Δ/Δ^4 has degree 4 and C:8 Δ/Δ^8 degree 8: every relation stays,
    # so the search ends with the same reason as before
    A, B = section("D8", F2, 1, 4), section("C:8", F2, 1, 8)
    assert A.nilpotency_degree() != B.nilpotency_degree()
    words, _, relations = iso._monomial_basis(A, oracles.unit_generators(A))
    assert iso._live_relations(A, B, words, relations) is relations
