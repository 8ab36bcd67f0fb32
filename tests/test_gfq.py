import itertools

import numpy as np
import pytest

from modiso.errors import CapExceeded
from modiso.gfq import EchelonBuilder, TaggedEchelon, invertible, make_field

from oracles import echelon_basis, invert_matrix, reducible_monics

ALL_FIELDS = [(p, k) for p in range(2, 82) if all(p % d for d in range(2, p))
              for k in range(1, 7) if p**k <= 81]
FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (7, 1)]


def V(codes):
    return np.array(codes, dtype=np.uint8)


def test_f4_modulus_and_omega():
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1
    w = F.p  # the code of x
    assert F.MUL[w, w] == F.ADD[w, 1]
    assert F.ADD[F.ADD[F.MUL[w, w], w], 1] == 0


def test_f3_prime_arithmetic():
    F = make_field(3, 1)
    assert F.ADD[2, 2] == 1
    assert F.MUL[2, 2] == 1
    assert F.NEG[1] == 2 and F.INV[2] == 2


def test_f8_modulus_by_exhaustive_scan():
    # oracle: scan all monic cubics over F2 in ascending code order, checking
    # irreducibility by the absence of roots (degree 3: no root <=> irreducible)
    def poly_eval(coeffs, x):
        return sum(c * x**i for i, c in enumerate(coeffs)) % 2

    first = None
    for code in range(8):
        m = (code & 1, (code >> 1) & 1, (code >> 2) & 1, 1)
        if all(poly_eval(m, x) != 0 for x in (0, 1)):
            first = m
            break
    assert first == (1, 1, 0, 1)  # x^3 + x + 1
    F = make_field(2, 3)
    assert F.modulus == first
    assert F.q == 8


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(CapExceeded):
        make_field(2, 7)


def test_make_field_one_object_per_field():
    assert make_field(2, k=2) is make_field(2, 2)
    assert make_field(p=3, k=1) is make_field(np.int64(3), 1)


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_codes_are_digit_polynomials_in_w(p, k):
    # with the tables alone: c == sum_i DIG[c, i] * w^i for every code c, and
    # the modulus vanishes at w (code p; 0 over a prime field, modulus x)
    F = make_field(p, k)
    w = p % F.q
    wpow = [1]
    for _ in range(k):
        wpow.append(int(F.MUL[wpow[-1], w]))
    codes = np.zeros(F.q, dtype=np.uint8)
    for i in range(k):
        codes = F.ADD[codes, F.MUL[F.DIG[:, i], wpow[i]]]
    assert np.array_equal(codes, np.arange(F.q))
    value = 0
    for i, m in enumerate(F.modulus):
        value = F.ADD[value, F.MUL[m, wpow[i]]]
    assert value == 0


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_modulus_is_least_irreducible(p, k):
    # every monic candidate below the modulus in code order is a product of
    # two monic polynomials of lower degree; the modulus is not
    F = make_field(p, k)
    reducible = reducible_monics(p, k)
    assert F.modulus not in reducible
    low = sum(c * p**i for i, c in enumerate(F.modulus[:-1]))
    for code in range(low):
        assert tuple(code // p**i % p for i in range(k)) + (1,) in reducible


@pytest.mark.parametrize("p,k", FIELDS)
def test_field_axioms_exhaustive(p, k):
    F = make_field(p, k)
    q = F.q
    a = np.arange(q, dtype=np.uint8)
    A, B, C = a[:, None, None], a[None, :, None], a[None, None, :]
    assert np.array_equal(F.ADD[F.ADD[A, B], C], F.ADD[A, F.ADD[B, C]])
    assert np.array_equal(F.MUL[F.MUL[A, B], C], F.MUL[A, F.MUL[B, C]])
    assert np.array_equal(F.MUL[A, F.ADD[B, C]], F.ADD[F.MUL[A, B], F.MUL[A, C]])
    assert np.array_equal(F.ADD[a, F.NEG[a]], np.zeros(q, dtype=np.uint8))
    assert np.array_equal(F.MUL[a[1:], F.INV[a[1:]]], np.ones(q - 1, dtype=np.uint8))
    assert np.array_equal(F.ADD[A[:, :, 0], B[:, :, 0]], F.ADD[B[:, :, 0], A[:, :, 0]])
    assert np.array_equal(F.MUL[A[:, :, 0], B[:, :, 0]], F.MUL[B[:, :, 0], A[:, :, 0]])


@pytest.mark.parametrize("p,k", FIELDS)
def test_frobenius_additive_and_bijective(p, k):
    F = make_field(p, k)
    a = np.arange(F.q, dtype=np.uint8)
    frob = a.copy()
    for _ in range(p - 1):
        frob = F.MUL[frob, a]
    s = F.ADD[a[:, None], a[None, :]]
    frob_s = s.copy()
    for _ in range(p - 1):
        frob_s = F.MUL[frob_s, s]
    assert np.array_equal(frob_s, F.ADD[frob[:, None], frob[None, :]])
    assert sorted(frob.tolist()) == list(range(F.q))


def _matmul_by_tables(F, A, B):
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for t in range(A.shape[1]):
                acc = F.ADD[acc, F.MUL[A[i, t], B[t, j]]]
            out[i, j] = acc
    return out


@pytest.mark.parametrize("p,k", FIELDS)
def test_matmul_matches_scalar_table_loop(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(100 * p + k)
    for m, r, n in [(1, 6, 5), (5, 7, 4), (3, 0, 2), (1, 1, 1)]:
        A = rng.integers(0, F.q, size=(m, r)).astype(np.uint8)
        B = rng.integers(0, F.q, size=(r, n)).astype(np.uint8)
        assert np.array_equal(F.matmul(A, B), _matmul_by_tables(F, A, B))


def test_matmul_rejects_inner_dimension_beyond_exact_float_sums():
    F = make_field(7, 1)
    r = (1 << 53) // 36 + 1  # (p-1)^2 * r >= 2^53; zero-stride views allocate nothing
    A = np.broadcast_to(np.uint8(1), (1, r))
    B = np.broadcast_to(np.uint8(1), (r, 1))
    with pytest.raises(OverflowError):
        F.matmul(A, B)


@pytest.mark.parametrize("p,k", FIELDS)
def test_invert_matrix_random_invertible(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(7 * p + k)
    for d in (1, 2, 5, 8):
        while True:
            M = rng.integers(0, F.q, size=(d, d)).astype(np.uint8)
            if echelon_basis(list(M), F, d).dim == d:
                break
        assert np.array_equal(F.matmul(invert_matrix(M, F), M), np.eye(d, dtype=np.uint8))


@pytest.mark.parametrize("p,k", FIELDS)
def test_invertible_matches_the_echelon_rank(p, k):
    # half of each batch is made singular: a random row is replaced by a
    # random combination of the others
    F = make_field(p, k)
    rng = np.random.default_rng(11 * p + k)
    for m in (0, 1, 2, 3, 5):
        M = rng.integers(0, F.q, size=(200, m, m)).astype(np.uint8)
        for M_i in M[:100] if m else ():
            r = rng.integers(0, m)
            coefs = rng.integers(0, F.q, size=(1, m)).astype(np.uint8)
            coefs[0, r] = 0
            M_i[r] = F.matmul(coefs, M_i)[0]
        want = [EchelonBuilder(F, m).add_block(M_i) == m for M_i in M]
        assert invertible(M, F).tolist() == want
        assert not any(want[:100]) or m == 0


def test_invert_matrix_singular_raises():
    F = make_field(3, 1)
    M = V([1, 2, 0, 2, 1, 0, 0, 0, 1]).reshape(3, 3)  # row 2 = 2 * row 1
    with pytest.raises(ValueError):
        invert_matrix(M, F)


def test_tagged_solve_outside_span_raises():
    F = make_field(2, 2)
    te = TaggedEchelon(F, 3, 2)
    assert te.add_block(V([[1, 2, 0, 1, 0], [0, 1, 3, 0, 1]])) == 2
    v = F.vadd(F.vsmul(3, V([1, 2, 0])), V([0, 1, 3]))
    assert te.solve(v).tolist() == [3, 1]
    with pytest.raises(ValueError):
        te.solve(V([0, 0, 1]))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_add_block_with_duplicates_matches_add_many(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(5 * p + k)
    for _ in range(10):
        base = rng.integers(0, F.q, size=(4, 9)).astype(np.uint8)
        C = base[rng.integers(0, 4, size=12)]  # every row repeated, in random order
        C[rng.integers(0, 12)] = F.vsmul(int(rng.integers(1, F.q)), C[0])
        b1, b2 = EchelonBuilder(F, 9), EchelonBuilder(F, 9)
        b1.add(base[0])
        b2.add(base[0])
        before = b1.dim
        grown = b1.add_block(C)
        for row in C:
            b2.add(row)
        assert b1.freeze() == b2.freeze()
        assert grown == b1.dim - before


def test_echelon_rank_with_minor_oracle():
    F = make_field(2, 1)
    vecs = [V(v) for v in [(1, 1, 0), (0, 1, 1), (1, 0, 1)]]
    S = echelon_basis(vecs, F)
    assert S.dim == 2

    # oracle: rank via exhaustive minor check (largest r with a nonzero r x r minor)
    M = np.array([v.tolist() for v in vecs])

    def det_mod2(mat):
        mat = [row[:] for row in mat]
        n = len(mat)
        det = 1
        for c in range(n):
            piv = next((r for r in range(c, n) if mat[r][c]), None)
            if piv is None:
                return 0
            mat[c], mat[piv] = mat[piv], mat[c]
            for r in range(c + 1, n):
                if mat[r][c]:
                    mat[r] = [(x + y) % 2 for x, y in zip(mat[r], mat[c])]
        return det

    rank = 0
    for r in range(1, 4):
        found = False
        for rows in itertools.combinations(range(3), r):
            for cols in itertools.combinations(range(3), r):
                sub = [[int(M[i][j]) for j in cols] for i in rows]
                if det_mod2(sub):
                    found = True
        if found:
            rank = r
    assert rank == S.dim


def test_echelon_trivial_cases():
    F = make_field(2, 1)
    assert echelon_basis([], F).dim == 0
    assert echelon_basis([V([0, 0, 0, 0])], F).dim == 0


def test_echelon_ragged_input():
    F = make_field(2, 1)
    with pytest.raises(ValueError):
        echelon_basis([V([1, 0]), V([1, 0, 1])], F)


def test_echelon_idempotent():
    F = make_field(3, 1)
    rng = np.random.default_rng(7)
    vecs = [np.asarray(v, dtype=np.uint8) for v in rng.integers(0, 3, size=(6, 5))]
    S = echelon_basis(vecs, F)
    S2 = echelon_basis(list(S.rows), F, ambient=5)
    assert np.array_equal(S.rows, S2.rows)
    assert S.pivots == S2.pivots


def test_contains_full_space_and_residues():
    F = make_field(2, 1)
    S = echelon_basis([V([1, 0]), V([0, 1])], F)
    assert S.contains_rows(V([[1, 1], [0, 0]])).tolist() == [True, True]

    Z = echelon_basis([], F, ambient=3)
    assert Z.contains_rows(V([[0, 1, 1], [0, 0, 0]])).tolist() == [False, True]
    assert Z.sift(V([0, 1, 1])).tolist() == [0, 1, 1]

    L = echelon_basis([V([1, 1, 0])], F)
    assert L.contains_rows(V([[1, 1, 1], [1, 1, 0]])).tolist() == [False, True]
    assert L.sift(V([1, 1, 1])).tolist() == [0, 0, 1]


def test_contains_dimension_mismatch():
    F = make_field(2, 1)
    S = echelon_basis([V([1, 0])], F)
    with pytest.raises(ValueError):
        S.contains_rows(V([1, 0, 0]))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_dim_formula_random(p, k):
    # dim A + dim B = dim(A + B) + dim(A ∩ B), the sum through
    # Subspace.builder and the intersection counted over all of F^n
    F = make_field(p, k)
    rng = np.random.default_rng(11 * p + k)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        A = echelon_basis(list(rng.integers(0, F.q, size=(rng.integers(0, 5), n)).astype(np.uint8)), F, ambient=n)
        B = echelon_basis(list(rng.integers(0, F.q, size=(rng.integers(0, 5), n)).astype(np.uint8)), F, ambient=n)
        b = A.builder()
        b.add_block(B.rows)
        s = b.freeze()
        assert s.contains_rows(np.vstack([A.rows, B.rows])).all()
        every = np.array(list(itertools.product(range(F.q), repeat=n)), dtype=np.uint8)
        common = int((A.contains_rows(every) & B.contains_rows(every)).sum())
        assert common == F.q ** (A.dim + B.dim - s.dim)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_null_space(p, k):
    # rank-nullity over all of F^n: M kills q^(n - rank) vectors
    F = make_field(p, k)
    rng = np.random.default_rng(3 * p + k)
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        M = rng.integers(0, F.q, size=(m, n)).astype(np.uint8)
        rank = echelon_basis(list(M), F, ambient=n).dim
        every = np.array(list(itertools.product(range(F.q), repeat=n)), dtype=np.uint8)
        killed = int((~F.matmul(every, M.T).any(axis=1)).sum())
        assert killed == F.q ** (n - rank)
