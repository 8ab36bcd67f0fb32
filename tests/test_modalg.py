import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from modiso.caps import Caps
from modiso.errors import CapExceeded
from modiso.families import build
from modiso.gfq import EchelonBuilder, make_field
from modiso.groups import (
    char_series,
    jennings_series,
)
from modiso import modalg as M
from modiso.invariants import kernel_cell

import oracles as O
from oracles import quotient_group

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)

# every radical section a test builds is checked associative, with its
# prime restriction
pytestmark = pytest.mark.usefixtures("associative_sections")


def alg(spec, F=F2):
    """(G, F): the group of spec and the field its algebra FG is over."""
    return build(spec), F


# -- element arithmetic ---------------------------------------------------------

def test_basis_times_inverse_is_unit():
    G, F = alg("D8")
    g = G.gens[0]
    e = np.eye(G.n, dtype=np.uint8)
    assert np.array_equal(O.convolve(G, F, e[g], e[int(G.inv[g])]), e[G.id])


def test_square_of_g_minus_one_in_f2c2():
    G, F = alg("C:2")
    v = M.basis_minus_one(G, F, G.gens[0])
    assert not O.convolve(G, F, v, v).any()


def test_cube_of_a_minus_one_in_f2c4():
    G, F = alg("C:4")
    v = M.basis_minus_one(G, F, G.gens[0])
    cube = O.convolve(G, F, O.convolve(G, F, v, v), v)
    assert cube.tolist() == [1, 1, 1, 1]  # a^3 + a^2 + a + 1


def test_augmentation_is_multiplicative():
    G, F = alg("Q8", F4)
    rng = np.random.default_rng(5)

    def augmentation(x):
        out = 0
        for c in x:
            out = int(F4.ADD[out, c])
        return out

    for _ in range(10):
        x, y = rng.integers(0, 4, size=(2, G.n)).astype(np.uint8)
        ex, ey = augmentation(x), augmentation(y)
        assert augmentation(O.convolve(G, F, x, y)) == int(F4.MUL[ex, ey])


def test_order_cap():
    # the one algebra-side gate, read before FG is built: T:2,6 has 729 > 256
    with pytest.raises(CapExceeded, match=r"^\|G\| = 729 exceeds the algebra-side cap 256$"):
        Caps().check_algebra_order(build("T:2,6").n)
    with pytest.raises(CapExceeded, match="algebra-side cap 256"):
        kernel_cell(build("T:2,6"), F3, 1, 3, 1)  # forced, but still gated
    Caps(algebra_order_cap=729).check_algebra_order(729)


# -- augmentation powers -----------------------------------------------------------

def test_aug_power_dims_d8():
    assert [I.dim for I in M.augmentation_powers(*alg("D8"))] == [7, 5, 3, 1, 0]
    assert M.jennings_dims(*alg("D8")) == [2, 2, 2, 1]


def test_aug_power_dims_field_independent():
    assert [I.dim for I in M.augmentation_powers(*alg("D8", F4))] == [7, 5, 3, 1, 0]


def test_capped_power_calls_do_not_pollute_the_chain():
    # sections cut the chain at Δ^j, or keep it as it is when j is past the
    # first zero power, and a caller that trims its copy leaves the cache whole
    A = alg("D8")
    assert [I.dim for I in M.radical_section(*A, 1, 9).powers] == [7, 5, 3, 1, 0]
    assert [I.dim for I in M.radical_section(*A, 1, 2).powers] == [7, 5]
    pows = M.augmentation_powers(*A)
    del pows[2:]
    assert [I.dim for I in M.augmentation_powers(*A)] == [7, 5, 3, 1, 0]
    assert M.jennings_dims(*A) == [2, 2, 2, 1]
    padded_lie = O.lie_power_ideals(*A, i_max=6)
    assert len(padded_lie) == 6
    assert [L.dim for L in O.lie_power_ideals(*A)][-1] == 0


def test_aug_power_dims_f3c3():
    assert [I.dim for I in M.augmentation_powers(*alg("C:3", F3))] == [2, 1, 0]


def test_aug_powers_strictly_decreasing_and_nested():
    pows = M.augmentation_powers(*alg("B2G:1,2"))
    for a, b in zip(pows, pows[1:]):
        assert b.dim < a.dim
        assert a.contains_rows(b.rows).all()


@pytest.mark.parametrize("spec,F", [("D8", F2), ("Q8", F2), ("C:8", F2), ("C:9", F3)])
def test_ideal_power_coherence(spec, F):
    # Δ^a · Δ^b = Δ^(a+b) for all computed powers
    G = build(spec)
    pows = M.augmentation_powers(G, F)
    nz = [P for P in pows if P.dim > 0]
    for a in range(1, len(nz) + 1):
        for b in range(1, len(nz) - a + 2):
            target = pows[a + b - 1] if a + b <= len(pows) else pows[-1]
            built = EchelonBuilder(F, G.n)
            for u in pows[a - 1].rows:
                for v in pows[b - 1].rows:
                    built.add(O.convolve(G, F, u, v))
            got = built.freeze()
            assert got.dim == target.dim
            assert target.contains_rows(got.rows).all()


def test_two_sided_closure_under_every_group_element():
    for spec, F in [("D8", F2), ("Q8", F4), ("C:8", F2), ("Ab:4,2", F2)]:
        G = build(spec)
        for P in M.augmentation_powers(G, F):
            for g in range(G.n):
                for side in ("left", "right"):
                    assert P.contains_rows(O.translate(G, P.rows, g, side)).all()


def test_jennings_chain_matches_translate_oracle(corpus_medium):
    # the Jennings-basis filtration and the translate loop give the same
    # canonical RREF rows and pivots at every level; the corpus chains are
    # shared with criterion 7 through the group's cache
    cases = [(spec, G, make_field(G.require_p_group()[0], k))
             for spec, G in corpus_medium if G.n <= 128 for k in (1, 2)]
    cases.append(("Meta:3,2,2,0,4", build("Meta:3,2,2,0,4"), make_field(3, 2)))
    for spec, G, F in cases:
        jennings = M.augmentation_powers(G, F)
        translates = O.augmentation_powers_by_translates(G, F)
        assert len(jennings) == len(translates), (spec, F)
        for m, (a, b) in enumerate(zip(jennings, translates), start=1):
            assert a.pivots == b.pivots, (spec, F, m)
            assert np.array_equal(a.rows, b.rows), (spec, F, m)


@pytest.mark.parametrize("spec,p,k,max_dim", [
    ("D8", 2, 1, None),
    ("Q8", 2, 2, None),
    ("Meta:2,4,1,0,15", 2, 1, None),
    ("X:C:2*D8", 2, 2, None),
    ("Meta:3,3,1,0,10", 3, 1, 19),  # 162 of its 435 sections
    ("EA:3,2", 3, 2, None),
])
def test_section_degree_and_square_match_the_product_loops(spec, p, k, max_dim):
    # the degree and the square read off the layers equal the loops over
    # all products, on every Δ^i/Δ^j with 1 <= i < j <= depth + 2
    A = alg(spec, make_field(p, k))
    top = len(M.jennings_dims(*A)) + 2
    dims = [P.dim for P in M.augmentation_powers(*A)] + [0] * top  # zero past the chain
    for i in range(1, top):
        for j in range(i + 1, top + 1):
            if max_dim is not None and dims[i - 1] - dims[j - 1] > max_dim:
                continue
            S = M.radical_section(*A, i, j)
            assert S.nilpotency_degree() == O.nilpotency_degree_by_powers(S), (i, j)
            assert S.power_subspace() == O.square_by_products(S), (i, j)


def test_power_oracle_on_the_truncated_polynomial_algebra():
    # xF_2[x]/(x^66) as an abstract algebra: basis e_i = x^(i+1), i < 65, and
    # e_i e_j = e_(i+j+1). The loop finds degree 66; the product reads no
    # degree off an algebra without layers
    d = 65
    sc = np.zeros((d, d, d), dtype=np.uint8)
    i, j = np.nonzero(np.add.outer(np.arange(d), np.arange(d)) + 1 < d)
    sc[i, j, i + j + 1] = 1
    A = M.QuotientAlgebra(F2, sc)
    assert O.nilpotency_degree_by_powers(A) == 66
    assert A.nilpotency_degree() is None


# -- relative augmentation ideals ----------------------------------------------------

def test_relative_ideal_dims():
    G, F = alg("D8")
    derived = char_series(G).derived
    assert O.relative_augmentation_ideal(G, F, derived).dim == 4  # 8 - 8/2
    assert O.relative_augmentation_ideal(G, F, G.trivial_subgroup()).dim == 0
    full = O.relative_augmentation_ideal(G, F, G.full_subgroup())
    assert full.dim == 7
    assert full == M.augmentation_powers(G, F)[0]


def test_relative_ideal_dim_formula_across_normals():
    for spec, F in [("T:1,4", F3), ("B2G:1,2", F2), ("Meta:2,3,1,0,5", F2)]:
        G = build(spec)
        cs = char_series(G)
        for N in [cs.derived, cs.center, jennings_series(G)[1]]:
            assert O.relative_augmentation_ideal(G, F, N).dim == G.n - G.n // N.order


def test_relative_ideal_requires_normal():
    G, F = alg("D8")
    s = next(g for g in range(G.n)
             if not G.generated([g]).is_normal())
    with pytest.raises(ValueError):
        O.relative_augmentation_ideal(G, F, G.generated([s]))


# -- quotient algebras ---------------------------------------------------------------

def test_lambda_section_is_nilpotent_degree_3():
    Lam = M.radical_section(*alg("D8"), 1, 3)
    assert Lam.dim == 4
    assert Lam.nilpotency_degree() == 3


def test_zero_section():
    # past the chain's end both powers are the zero ideal
    A = alg("D8")
    depth = len(M.augmentation_powers(*A)) - 1  # Δ^(depth + 1) = 0
    Z = M.radical_section(*A, depth + 2, depth + 4)
    assert Z.dim == 0
    assert Z.layer(depth + 3).dim == 0


@pytest.mark.parametrize("i,j", [(0, 2), (2, 2), (3, 1)])
def test_radical_section_needs_1_le_i_lt_j(i, j):
    with pytest.raises(ValueError, match="need 1 <= i < j"):
        M.radical_section(*alg("D8"), i, j)


def test_natural_quotient_iso_structure_constants():
    # FG/Δ(N)FG has exactly the structure constants of F[G/N] on the
    # coset-representative basis
    for spec, F in [("D8", F2), ("Q8", F4), ("T:1,4", F3), ("Meta:2,3,1,0,5", F2)]:
        G = build(spec)
        N = char_series(G).derived
        Q = O.unital_quotient(G, F, O.relative_augmentation_ideal(G, F, N))
        Gq, proj = quotient_group(G, N)
        assert Q.dim == Gq.n
        # the images of one representative per coset form a basis; compute the
        # change of basis and drag the product through it
        reps = [int(np.nonzero(proj == c)[0].min()) for c in range(Gq.n)]
        T = Q.project(np.eye(G.n, dtype=np.uint8)[reps])
        for c1 in range(Gq.n):
            for c2 in range(Gq.n):
                prod = Q.mul(T[c1], T[c2])
                assert np.array_equal(prod, T[int(Gq.mul[c1, c2])])


def test_unital_quotient_has_unit():
    A = alg("D8")
    Q = O.unital_quotient(*A, M.augmentation_powers(*A)[3])
    e = Q.unit
    for i in range(Q.dim):
        v = np.zeros(Q.dim, dtype=np.uint8)
        v[i] = 1
        assert np.array_equal(Q.mul(e, v), v)


@pytest.mark.parametrize("spec,p,k,section", [
    ("D8", 2, 1, (1, 3)),
    ("Q8", 2, 2, (1, 4)),
    ("D8", 2, 3, (1, 3)),
    ("EA:3,2", 3, 2, (1, 3)),
    ("Ab:4,4,2", 2, 2, None),  # all of Δ, dim 31: the sampled associativity path
])
def test_mul_batch_matches_rowwise_mul(spec, p, k, section):
    F = make_field(p, k)
    A = alg(spec, F)
    if section is None:
        depth = len(M.augmentation_powers(*A)) - 1  # Δ^(depth + 1) = 0
        Q = M.radical_section(*A, 1, depth + 1)
        assert Q.dim > 24
    else:
        Q = M.radical_section(*A, *section)
    rng = np.random.default_rng(Q.dim)
    X, Y = rng.integers(0, F.q, size=(2, 30, Q.dim)).astype(np.uint8)
    rowwise = np.array([Q.mul(x, y) for x, y in zip(X, Y)], dtype=np.uint8)
    assert np.array_equal(Q.mul_batch(X, Y), rowwise)


def test_sampled_associativity_check_rejects_nonassociative_tensor():
    # e0*e0 = e1, e1*e0 = e2 and every other basis product 0, in dim 25 (past
    # the exhaustive limit): (e0 e0) e0 = e2 but e0 (e0 e0) = e0 e1 = 0
    d = 25
    sc = np.zeros((d, d, d), dtype=np.uint8)
    sc[0, 0, 1] = 1
    sc[1, 0, 2] = 1
    square = sc[0, 0].astype(np.int64)  # e0 e0
    left = square @ sc[:, 0] % 2        # (e0 e0) e0: row k of sc[:, 0] is e_k e0
    right = square @ sc[0, :] % 2       # e0 (e0 e0): row k of sc[0, :] is e0 e_k
    assert not np.array_equal(left, right)
    with pytest.raises(AssertionError, match="not associative"):
        O.check_associative(M.QuotientAlgebra(F2, sc))


def test_associativity_oracle_on_both_branches(monkeypatch):
    # the GF(4) section Δ/Δ^5 of X:C:2*D8 has d = 14, inside the exhaustive
    # branch; its prime restriction has dimension 28, past it
    drawn, sample_ints = [], O.sample_ints

    def recording(*args, **kwargs):
        drawn.append(args)
        return sample_ints(*args, **kwargs)

    S = M.radical_section(*alg("X:C:2*D8", F4), 1, 5)
    P = M._prime_restriction(S)
    assert (S.dim, P.dim) == (14, 28)
    monkeypatch.setattr(O, "sample_ints", recording)
    O.check_associative(S)
    assert drawn == []
    O.check_associative(P)
    assert drawn == [(2, (3, 200, 28))]


def test_sampled_associativity_checks_do_not_load_numpy_random():
    code = (
        "import sys\n"
        "from modiso import build, make_field\n"
        "from modiso import modalg\n"
        "G = build('T:1,6')\n"
        "assert G.n > 512\n"
        "Q = modalg.radical_section(build('C:32'), make_field(2, 1), 1, 32)  # all of Δ\n"
        "assert Q.dim > 24\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- algebra-side dimension subgroups ---------------------------------------------------

def test_algebraic_dimension_subgroups_c4():
    G, F = alg("C:4")
    D = O.dimension_subgroups_algebraic(G, F)
    assert [S.order for S in D] == [4, 2, 1]
    a = G.gens[0]
    assert sorted(D[1].elems.tolist()) == sorted([G.id, int(G.mul[a, a])])


def test_algebraic_matches_lazard_small():
    for spec, F in [("D8", F2), ("Q8", F2), ("EA:3,2", F3), ("B2G:1,2", F2)]:
        G = build(spec)
        alg_side = O.dimension_subgroups_algebraic(G, F)
        assert alg_side == O.dimension_subgroups_lazard(G) == list(jennings_series(G))


# -- kernel sizes -------------------------------------------------------------------

def _brute_kernel(Q, k):
    # oracle: enumerate the section elementwise with scalar loops
    F = Q.field
    p = F.p
    zero = 0
    for coords in itertools.product(range(F.q), repeat=Q.dim):
        x = np.array(coords, dtype=np.uint8)
        y = x
        for _ in range(k):
            base = y
            acc = base
            for _ in range(p - 1):
                acc = Q.mul(acc, base)
            y = acc
        if not y.any():
            zero += 1
    return zero, F.q**Q.dim - zero


def test_kernel_sizes_lambda_gamma_with_oracle():
    Lam = M.radical_section(*alg("D8"), 1, 3)
    Gam = M.radical_section(*alg("Q8"), 1, 3)
    assert M.kernel_size_power_map(Lam, 1) == (12, 4) == _brute_kernel(Lam, 1)
    assert M.kernel_size_power_map(Gam, 1) == (4, 12) == _brute_kernel(Gam, 1)


def test_kernel_sizes_square_zero_section():
    # in a section with A^2 = 0 every element kills at k = 1
    S = M.radical_section(*alg("D8"), 2, 3)  # dim 2, products land in Δ^4 ∩ section = 0
    if S.nilpotency_degree() == 2:
        assert M.kernel_size_power_map(S, 1) == (4, 0)


def test_kernel_sizes_over_f4_and_restriction_consistency():
    Lam4 = M.radical_section(*alg("D8", F4), 1, 3)
    Gam4 = M.radical_section(*alg("Q8", F4), 1, 3)
    # isomorphic over F4, so the counts agree; oracle recomputes elementwise
    assert M.kernel_size_power_map(Lam4, 1) == _brute_kernel(Lam4, 1)
    assert M.kernel_size_power_map(Lam4, 1) == M.kernel_size_power_map(Gam4, 1)


def test_kernel_size_basis_independence_via_relabeled_group():
    # same group with permuted element indices: counts must not move
    G = build("Q8")
    perm = np.roll(np.arange(G.n), 3)
    perm[np.nonzero(perm == G.id)[0][0]], perm[G.id] = perm[G.id], perm[np.nonzero(perm == G.id)[0][0]]
    inv_perm = np.argsort(perm)
    table = inv_perm[G.mul[np.ix_(perm, perm)]]
    H = O.checked_group(table, gens=[int(inv_perm[g]) for g in G.gens])
    S1 = M.radical_section(G, F2, 1, 3)
    S2 = M.radical_section(H, F2, 1, 3)
    assert M.kernel_size_power_map(S1, 1) == M.kernel_size_power_map(S2, 1)


def test_kernel_size_cap():
    # the enum_cap gate is kernel_cell's: it reads p^D off the Jennings dims
    # before FG is built, and kernel_size_power_map only counts
    G = build("D8")
    with pytest.raises(CapExceeded, match=r"^2\^6 elements exceed the enumeration cap 63$"):
        kernel_cell(G, F2, 1, 4, 1, Caps(enum_cap=63))
    S = M.radical_section(G, F2, 1, 4)
    assert kernel_cell(G, F2, 1, 4, 1, Caps(enum_cap=64)) == _brute_kernel(S, 1)


@pytest.mark.parametrize("cell", [(0, 2, 1), (-1, 2, 1), (3, 2, 1), (2, 2, 1), (1, 3, -1)],
                         ids=["i=0", "i<0", "j<i", "j=i", "k<0"])
def test_malformed_kernel_cell_is_refused_before_any_gate(cell):
    # a cell needs 1 <= i < j and k >= 0; the refusal comes before the
    # algebra-side gate, which these caps would fire, and before any count
    G = build("D8")
    for caps in (Caps(), Caps(algebra_order_cap=4, enum_cap=0)):
        with pytest.raises(ValueError, match="needs 1 <= i < j and k >= 0"):
            kernel_cell(G, F2, *cell, caps)
    # a Python-built Caps checks its cells as Caps.from_json does, so no
    # fingerprint gate can turn one into an unavailable entry
    with pytest.raises(ValueError, match="with 1 <= i < j and k >= 0"):
        Caps(kernel_sections=(cell,))


def test_python_built_caps_normalize_their_cells():
    # lists or tuples, as Caps.from_json reads them
    assert Caps(kernel_sections=[[1, 3, 1], (2, 3, 1)]).kernel_sections == ((1, 3, 1), (2, 3, 1))
    assert Caps.from_json({"kernel_sections": [[1, 3, 1]]}).kernel_sections == ((1, 3, 1),)


# (spec, field, i, j, k): every F_p-dimension is at most 16. The cells
# cover k = 0, 1 and 2 over GF(2), GF(3) and GF(4). D8 (1,3,2) and C:9
# (1,9,2) have j' <= i; D8 (1,9,1), D8 (2,6,1), C:4 (1,9,2) and C:8 (2,12,1)
# run past the end of the chain
KERNEL_CELLS = [
    ("D8", F2, 1, 3, 1), ("Q8", F2, 1, 3, 1), ("D8", F4, 1, 3, 1), ("Q8", F4, 1, 4, 1),
    ("Q8", F2, 1, 5, 2), ("C:8", F2, 1, 8, 2), ("C:8", F2, 1, 6, 0), ("D8", F4, 1, 4, 0),
    ("C:9", F3, 1, 5, 1), ("C:9", F3, 1, 9, 2), ("EA:3,2", F3, 1, 4, 0),
    ("Meta:3,2,1,0,1", F3, 1, 4, 1), ("B2G:1,2", F2, 1, 4, 1), ("D8", F2, 2, 6, 1),
    ("D8", F2, 1, 3, 2), ("D8", F2, 1, 9, 1), ("C:4", F2, 1, 9, 2), ("C:8", F2, 2, 12, 1),
    ("Q8", F4, 2, 4, 1), ("C:27", F3, 1, 10, 2), ("C:8", F4, 1, 6, 2),
]


@pytest.mark.parametrize("spec,F,i,j,k", KERNEL_CELLS,
                         ids=[f"{s}-GF{F.q}-{i},{j},{k}" for s, F, i, j, k in KERNEL_CELLS])
def test_truncated_kernel_count_matches_enumeration(spec, F, i, j, k):
    S = M.radical_section(build(spec), F, i, j)
    assert F.p ** (S.dim * F.k) <= 1 << 16
    assert M.kernel_size_power_map(S, k) == O.kernel_size_by_enumeration(S, k)


def test_kernel_size_needs_a_radical_section():
    S = M.radical_section(*alg("D8"), 1, 3)
    with pytest.raises(ValueError, match="radical section"):
        M.kernel_size_power_map(M.QuotientAlgebra(S.field, S.sc), 1)


# -- Lie power ideals and Zassenhaus ideals ----------------------------------------------

def test_lie_first_term_is_delta():
    A = alg("D8")
    assert O.lie_power_ideals(*A, 1)[0] == M.augmentation_powers(*A)[0]


def test_lie_second_term_is_commutator_ideal():
    G, F = alg("D8")
    rel = O.relative_augmentation_ideal(G, F, char_series(G).derived)
    assert O.lie_power_ideals(G, F, 2)[1] == rel


def test_lie_abelian_vanishes():
    assert O.lie_power_ideals(*alg("Ab:4,2"), 2)[1].dim == 0


def test_zassenhaus_z1_is_delta():
    A = alg("D8")
    assert O.zassenhaus_ideal(*A, 1) == M.augmentation_powers(*A)[0]


def test_zassenhaus_z2_d8():
    G, F = alg("D8")
    Z2 = O.zassenhaus_ideal(G, F, 2)
    assert Z2.dim == 4
    # oracle: span(D_2 - 1) + Δ^3  (Passi-Sehgal over the prime field)
    D2 = jennings_series(G)[1]
    b = EchelonBuilder(F2, G.n)
    for row in M.augmentation_powers(G, F)[2].rows:
        b.add(row)
    for g in D2.elems.tolist():
        b.add(M.basis_minus_one(G, F, g))
    assert b.freeze() == Z2


def test_zassenhaus_over_extension_field_sandwich():
    # over any field Z_n sits between Δ^(n+1) and Δ^n (the construction is
    # field-generic even though the prime-field case is the calibrated one)
    for spec in ("C:4", "D8"):
        A = alg(spec, F4)
        pows = M.augmentation_powers(*A)
        Z2 = O.zassenhaus_ideal(*A, 2)
        assert Z2.contains_rows(pows[2].rows).all()
        assert pows[1].contains_rows(Z2.rows).all()


def test_zassenhaus_z2_c4():
    G, F = alg("C:4")
    Z2 = O.zassenhaus_ideal(G, F, 2)
    a = G.gens[0]
    sq = M.basis_minus_one(G, F, int(G.mul[a, a]))
    assert Z2.contains_rows(sq)
    delta3 = M.augmentation_powers(G, F)[2]
    assert Z2.dim == delta3.dim + 1


# -- small group ring ---------------------------------------------------------------

def test_small_group_ring_dims():
    assert O.small_group_ring(*alg("D8")).dim == 5
    assert O.small_group_ring(*alg("Q8")).dim == 5


def test_small_group_ring_product_ideal_oracle():
    # dim(Δ · Δ(G')FG) via a dense product span must equal |G| - small ring dim
    G, F = alg("D8")
    rel = O.relative_augmentation_ideal(G, F, char_series(G).derived)
    delta = M.augmentation_powers(G, F)[0]
    b = EchelonBuilder(F2, G.n)
    for u in delta.rows:
        for v in rel.rows:
            b.add(O.convolve(G, F, u, v))
    assert b.freeze().dim == 3
    assert O.small_group_ring(G, F).dim == G.n - 3


def test_small_group_ring_abelian_is_whole_algebra():
    G, F = alg("Ab:4,2")
    assert O.small_group_ring(G, F).dim == G.n


def test_small_group_ring_over_extension_field():
    assert O.small_group_ring(*alg("D8", F4)).dim == 5
