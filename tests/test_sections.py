"""Each algebra object is echelonized once: against the two-elimination references.

`modalg.radical_section` reads the coordinates of v in Δ^i/Δ^j as
Δ^j.sift(v) on the section's own pivot columns, and checks the
reconstruction. The reference, `oracles.section_by_tagged_solver`, solves
them in a `TaggedEchelon` over J and the section basis. Each layer L_t is
gathered off the chain's rows of Δ^t, against the RREF of the projected
rows. `iso._monomial_basis` keeps and inverts a presentation's monomials in
one tagged echelon, against `oracles.monomial_basis_two_pass`. The
associativity fixture of test_modalg.py is left out here: it would check
each of the thousands of sections compared.
"""

import numpy as np
import pytest

from modiso import iso, modalg as M
from modiso.families import build
from modiso.gfq import make_field

import oracles as O


@pytest.mark.parametrize("p,k,count", [(2, 1, 1255), (2, 2, 1255), (3, 1, 567), (3, 2, 567)])
def test_section_coordinates_match_the_tagged_solver(corpus_small, p, k, count):
    # the same basis, structure constants and layers L_i, ..., L_j on every
    # Δ^i/Δ^j, 1 <= i < j <= depth + 1, of every corpus group over GF(p^k).
    # Each gathered layer L_t is the RREF of the projected rows of Δ^t, in
    # rows and pivots; it has dimension dim Δ^t - dim Δ^j and holds the
    # reference images of Δ^t
    F = make_field(p, k)
    sections = 0
    for spec, G in corpus_small:
        if G.require_p_group()[0] != p:
            continue
        pows = M.augmentation_powers(G, F)
        for i in range(1, len(pows)):
            for j in range(i + 1, len(pows) + 1):
                S = M.radical_section(G, F, i, j)
                J = pows[j - 1]
                sc, reps, _, solve = O.section_by_tagged_solver(G, F, pows[i - 1], J)
                assert np.array_equal(S.reps, reps), (spec, i, j)
                assert np.array_equal(S.sc, sc), (spec, i, j)
                for t in range(i, j + 1):
                    L, P = S.layer(t), pows[t - 1]
                    oracle = O.echelon_basis(S.project(P.rows), F, S.dim)
                    assert (L.pivots, L.rows.tolist()) == (oracle.pivots, oracle.rows.tolist()), (
                        spec, i, j, t)
                    assert L.dim == P.dim - J.dim, (spec, i, j, t)
                    assert L.contains_rows(solve(P.rows)).all(), (spec, i, j, t)
                sections += 1
    assert sections == count


@pytest.mark.parametrize("spec,p,k,i,j", [("D8", 2, 1, 1, 3), ("Q8", 2, 2, 2, 4),
                                          ("C:9", 3, 1, 1, 5), ("EA:3,2", 3, 2, 2, 4)])
def test_project_rejects_a_vector_outside_the_section_ideal(spec, p, k, i, j):
    # e_g and e_1 lie outside Δ, and for i > 1 some row of Δ^(i-1) lies
    # outside Δ^i; one such row fails a whole block
    G, F = build(spec), make_field(p, k)
    S = M.radical_section(G, F, i, j)
    pows = M.augmentation_powers(G, F)
    e = np.eye(G.n, dtype=np.uint8)
    outside = [e[G.gens[0]], e[G.id]]
    if i > 1:
        outside.append(pows[i - 2].rows[~pows[i - 1].contains_rows(pows[i - 2].rows)][0])
    for v in outside:
        with pytest.raises(ValueError, match="outside the section's ideal"):
            S.project(v)
        with pytest.raises(ValueError, match="outside the section's ideal"):
            S.project(np.vstack([pows[i - 1].rows, v]))
    assert S.project(pows[i - 1].rows).shape == (pows[i - 1].dim, S.dim)


def _memoized(mul):
    products = {}

    def memo(x, y):
        key = (x.tobytes(), y.tobytes())
        if key not in products:
            products[key] = mul(x, y)
        return products[key]

    return memo


@pytest.mark.parametrize("p,k,count", [(2, 1, 626), (2, 2, 626), (3, 1, 258), (3, 2, 258)])
def test_monomial_basis_matches_the_two_pass_reference(corpus_small, p, k, count):
    # the same words, inverse basis and relations on every Δ^1/Δ^j and
    # Δ^2/Δ^j of dimension at most 24, presented on the search's generators
    # and on all unit vectors, most of them skipped. Under the default
    # `iso_cap` the search presents no larger section: q^(d·m) <= 10^7
    # gives d·m <= 23
    F = make_field(p, k)
    presentations = 0
    for spec, G in corpus_small:
        if G.require_p_group()[0] != p:
            continue
        pows = M.augmentation_powers(G, F)
        for i in (1, 2):
            for j in range(i + 1, len(pows) + 1):
                S = M.radical_section(G, F, i, j)
                if not 0 < S.dim <= 24:
                    continue
                S.mul = _memoized(S.mul)  # both eliminations read the same products
                for gens in (O.unit_generators(S), list(np.eye(S.dim, dtype=np.uint8))):
                    words, Vinv, relations = iso._monomial_basis(S, gens)
                    ref_words, ref_Vinv, ref_relations = O.monomial_basis_two_pass(S, gens)
                    assert words == ref_words, (spec, i, j)
                    assert np.array_equal(Vinv, ref_Vinv), (spec, i, j)
                    assert [(a, t, c.tolist()) for a, t, c in relations] == [
                        (a, t, c.tolist()) for a, t, c in ref_relations], (spec, i, j)
                    presentations += 1
    assert presentations == count
