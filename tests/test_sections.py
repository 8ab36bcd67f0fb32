"""A section's coordinates are one sift: against the tagged-solver reference.

`modalg.quotient_algebra` reads the coordinates of v in I/J as J.sift(v) on
the section's own pivot columns, and checks the reconstruction. The
reference, `oracles.section_by_tagged_solver`, solves them in a
`TaggedEchelon` over J and the section basis, as the product did before.
The associativity fixture of test_modalg.py is left out here: it would
check each of the thousands of sections compared.
"""

import numpy as np
import pytest

from modiso import modalg as M
from modiso.families import build
from modiso.gfq import make_field

import oracles as O


@pytest.mark.parametrize("p,k,count", [(2, 1, 1255), (2, 2, 1255), (3, 1, 567), (3, 2, 567)])
def test_section_coordinates_match_the_tagged_solver(corpus_small, p, k, count):
    # the same basis, structure constants and layers L_i, ..., L_j on every
    # Δ^i/Δ^j, 1 <= i < j <= depth + 1, of every corpus group over GF(p^k).
    # L_t has dimension dim Δ^t - dim Δ^j, so it is the layer that holds
    # the reference images of Δ^t and has that dimension
    F = make_field(p, k)
    sections = 0
    for spec, G in corpus_small:
        if G.require_p_group()[0] != p:
            continue
        pows = M.augmentation_powers(G, F)
        for i in range(1, len(pows)):
            for j in range(i + 1, len(pows) + 1):
                S = M.radical_section(G, F, i, j)
                sc, reps, images = O.section_by_tagged_solver(G, F, i, j)
                assert np.array_equal(S.reps, reps), (spec, i, j)
                assert np.array_equal(S.sc, sc), (spec, i, j)
                for t, image in enumerate(images, start=i):
                    L = S.layer(t)
                    assert L.dim == pows[t - 1].dim - pows[j - 1].dim, (spec, i, j, t)
                    assert L.contains_rows(image).all(), (spec, i, j, t)
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
