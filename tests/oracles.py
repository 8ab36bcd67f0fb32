"""Oracles for values the product computes by a shorter route.

`invariants.fingerprint` computes `jennings_dims`, `small_group_ring_dim`,
`zassenhaus_dims` and the dimension subgroups from group-side data (the
derivations are in notes/decisions.md). The algebra-side routes here compute
the same objects inside the group algebra FG, so the tests can check the
group-side values against an independent construction. The commutator
subgroup route forms every commutator [a, b], where the product uses only
generators of A. The centre compares every row of the table with its column
and the classes conjugate each new representative by every element, where
the product reads both through the generators. The abelian type of a standalone group is read from its
whole table, where the product counts powers inside X without building X/Y.
The monic polynomials that are products of two of lower degree are listed by
multiplying every pair, where the product tests irreducibility by the absence
of zero divisors in F_p[C]. The HLT coset enumeration here scans every
relator in full from every live coset, where the product scans a power
relator once per closed cycle. The radical filtration here is built by
translating every row of Δ^m by every group element, without the dimension
subgroups, where the product builds it from a Jennings basis of G; the
nilpotency degree and the square of a section are echelonized from all
products of basis vectors, where the product reads them off the section's
layers. The power-map kernel cells here enumerate the whole section, where
the product enumerates a complement of the layer that decides them. The
coordinates of a section here are solved in a tagged echelon over J and the
section basis, for any two ideals J ⊆ I, where the product reads them off
one sift by Δ^j; its layers are echelonized here from the projected rows of
each power, where the product gathers them off the chain. The monomial
basis of a presentation is kept here in one elimination and inverted in a
second, where the product reads both off one tagged echelon; the span and
inverse of arbitrary vectors (`echelon_basis`, `invert_matrix`) live here
only. The algebra search here evaluates each basis monomial from its whole
word and checks all d² products of a candidate against the product
tensor of the source in its monomial basis, where the product checks the
relations of a presentation. A group witness here is checked on every pair
of elements, where the product checks it on every element and generator. The
least group isomorphism here is found by scanning every tuple of target
elements in lexicographic order, where the product searches only the
generators it cannot deduce, over pools of equal order and class size, with
the socle prune and a closure check. The
checked group constructor here takes an arbitrary table and searches its
identity, scans its inverses, checks associativity (exhaustively up to 512
elements, on 100,000 sampled triples beyond) and generation, where the product
builds every group by a route that proves its table, a regular coset action.
A subgroup becomes a standalone group only here, through the checked
constructor, and a quotient only here, by multiplying the cosets of a normal
subgroup through their least representatives, a table proved by that
construction; the product reads every series of a subgroup and every section
in place, and reads "G/S is cyclic" off power maps. The subgroup closure here runs in frontier rounds of new elements, where
the product closes coset by coset. The Jennings series here is Lazard's product of
powers of the lower central series, generated afresh for every n, where the
product recurses on the terms before it. The
associativity check of structure constants runs on the radical sections and
prime restrictions the product builds, which are associative by
construction. The closure-checked subgroup and ideal constructors, the
translates and the convolution product in FG, and the unital quotients FG/J
serve the tests only; every oracle takes the group and the field. The
product trusts the subgroups and radical powers it generates, multiplies
inside sections and builds radical sections Δ^i/Δ^j. No `mip` command runs
them.
"""

from __future__ import annotations

import numpy as np

from modiso.caps import DEFAULT_CAPS
from modiso.errors import CapExceeded
from modiso.gfq import EchelonBuilder, FiniteField, Subspace, TaggedEchelon, _enumerate_coords
from modiso.groups import (BLOCK, ConjClass, FiniteGroup, Subgroup, _check_normal_in, _index_set,
                           char_series, table_dtype)
from modiso.iso import IsoWitness, NotIsomorphic, _monomial_basis
from modiso.modalg import QuotientAlgebra, _prime_restriction, basis_minus_one
from modiso.words import Presentation, _columns, _table_group

ASSOC_EXHAUSTIVE_LIMIT = 512
ASSOC_SAMPLES = 100_000


def sample_ints(high: int, shape, offset: int = 0) -> np.ndarray:
    """Deterministic pseudo-random integers in [0, high): the splitmix64
    finalizer applied to offset + 1, offset + 2, ... (no numpy.random, no
    global state), so consecutive offsets continue one stream."""
    z = np.arange(offset + 1, offset + int(np.prod(shape)) + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    z %= np.uint64(high)
    return z.astype(np.int64).reshape(shape)


def echelon_basis(vectors, field: FiniteField, ambient: int | None = None) -> Subspace:
    """Reduced row echelon basis of the span of the given code vectors."""
    vectors = [np.asarray(v, dtype=np.uint8) for v in vectors]
    if ambient is None:
        ambient = len(vectors[0]) if vectors else 0
    for v in vectors:
        if v.shape != (ambient,):
            raise ValueError("ragged input lengths")
    b = EchelonBuilder(field, ambient)
    b.add_block(np.array(vectors, dtype=np.uint8).reshape(len(vectors), ambient))
    return b.freeze()


def invert_matrix(M, field: FiniteField) -> np.ndarray:
    """Inverse of a square code matrix (rows must be independent)."""
    M = np.asarray(M, dtype=np.uint8)
    eye = np.eye(M.shape[0], dtype=np.uint8)
    te = TaggedEchelon(field, M.shape[0], M.shape[0])
    if te.add_block(np.hstack([M, eye])) < M.shape[0]:
        raise ValueError("matrix is singular")
    # row i of the result expresses e_i in the rows of M: out @ M = I
    return te.solve(eye)


def checked_group(mul, gens, presentation=None, elem_words=None) -> FiniteGroup:
    """The group of an arbitrary table, checked: square, entries in range
    (before narrowing to `table_dtype(n)`), a unique two-sided identity, an
    inverse for every element, associativity and generation by gens. A
    failed check raises ValueError."""
    mul = np.asarray(mul)
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise ValueError("multiplication table must be square")
    n = mul.shape[0]
    # range-check before narrowing, or an entry could wrap into range
    if n == 0 or mul.min() < 0 or mul.max() >= n:
        raise ValueError("table entries out of range")
    mul = mul.astype(table_dtype(n), copy=False)

    # e*0 = 0 for the identity e, and a two-sided identity is unique
    ar = np.arange(n, dtype=mul.dtype)
    ident = next((e for e in np.flatnonzero(mul[:, 0] == 0).tolist()
                  if np.array_equal(mul[e], ar) and np.array_equal(mul[:, e], ar)), None)
    if ident is None:
        raise ValueError("table has no unique identity")

    # inv[x] is the last y in row x with x*y = 1, or -1 if there is none
    inv = np.empty(n, dtype=np.int32)
    step = max(1, BLOCK // n)
    for i in range(0, n, step):
        hit = mul[i:i + step] == ident
        last = n - 1 - hit[:, ::-1].argmax(axis=1)
        inv[i:i + step] = np.where(hit.any(axis=1), last, -1)
    if (inv < 0).any() or not np.array_equal(mul[inv, ar], np.full(n, ident)):
        raise ValueError("some element has no two-sided inverse")

    _check_table_associative(mul)
    G = FiniteGroup(mul, ident, inv, gens, presentation, elem_words)
    if G.generated(G.gens).order != n:
        raise ValueError("distinguished generators do not generate the group")
    return G


def subgroup_group(S: Subgroup):
    """(S as a standalone group, the embedding of its indices in the
    parent): the parent's table restricted to S, renumbered and checked."""
    G, elems = S.parent, S.elems
    local = np.full(G.n, -1, dtype=np.int32)
    local[elems] = np.arange(S.order, dtype=np.int32)
    return checked_group(local[G.mul[np.ix_(elems, elems)]], gens=local[S.gens]), elems


def quotient_group(X, N: Subgroup):
    """(X/N as a FiniteGroup, projection array G -> X/N, -1 off X), for a
    group or subgroup X and N normal in X. Cosets are numbered in order of
    their least elements, and the table, identity and inverses are those of
    the least representatives, projected."""
    if isinstance(X, FiniteGroup):
        X = X.full_subgroup()
    _check_normal_in(X, N)
    G = X.parent
    rep_of = np.full(G.n, -1, dtype=np.int32)
    step = max(1, BLOCK // N.order)
    for i in range(0, X.order, step):
        rows = X.elems[i:i + step]
        rep_of[rows] = G.mul[np.ix_(rows, N.elems)].min(axis=1)
    reps = _index_set(rep_of[X.elems], G.n)
    proj = np.full(G.n, -1, dtype=np.int32)
    proj[X.elems] = np.searchsorted(reps, rep_of[X.elems])
    m = len(reps)
    # proj narrowed first, so the gather is the table: two m x m arrays, not three
    Q = FiniteGroup(proj.astype(table_dtype(m))[G.mul[np.ix_(reps, reps)]], int(proj[G.id]),
                    proj[G.inv[reps]], _index_set(proj[X.gens], m))
    if Q.n * N.order != X.order:
        raise AssertionError("the cosets do not partition X")
    return Q, proj


def _check_table_associative(mul):
    """Exhaustive up to ASSOC_EXHAUSTIVE_LIMIT elements; beyond, the triples
    of `sample_ints(n, (3, ASSOC_SAMPLES))`, drawn a block at a time."""
    n = mul.shape[0]
    if n <= ASSOC_EXHAUSTIVE_LIMIT:
        for i in range(n):
            if not np.array_equal(mul[mul[i], :], mul[i][mul]):
                raise ValueError("table is not associative")
        return
    step = BLOCK // 16  # the draw's int64 temporaries stay a few times BLOCK bytes
    for start in range(0, ASSOC_SAMPLES, step):
        size = min(step, ASSOC_SAMPLES - start)
        i, j, k = (sample_ints(n, size, offset=row * ASSOC_SAMPLES + start)
                   for row in range(3))
        if not np.array_equal(mul[mul[i, j], k], mul[i, mul[j, k]]):
            raise ValueError("table is not associative")


def check_associative(Q: QuotientAlgebra):
    """Raise AssertionError unless the structure constants of Q are
    associative: exhaustive on basis triples up to dimension 24, on 200
    sampled triples of elements beyond."""
    d = Q.dim
    if d == 0:
        return
    F = Q.field
    if d <= 24:
        for l in range(d):
            lhs = F.matmul(Q.sc.reshape(d * d, d), Q.sc[:, l, :]).reshape(d, d, d)
            rhs = np.zeros_like(lhs)
            for i in range(d):
                rhs[i] = F.matmul(Q.sc[:, l, :], Q.sc[i])
            if not np.array_equal(lhs, rhs):
                raise AssertionError("structure constants are not associative")
    else:
        X, Y, Z = sample_ints(F.q, (3, 200, d)).astype(np.uint8)
        if not np.array_equal(Q.mul_batch(Q.mul_batch(X, Y), Z),
                              Q.mul_batch(X, Q.mul_batch(Y, Z))):
            raise AssertionError("structure constants are not associative")


def subgroup(G: FiniteGroup, elems) -> Subgroup:
    """The subgroup on an arbitrary element set: a non-empty finite set
    closed under products holds the identity and every inverse."""
    elems = np.asarray(elems, dtype=np.int32)
    member = np.zeros(G.n, dtype=bool)
    member[elems] = True
    if elems.size == 0 or not member[G.mul[np.ix_(elems, elems)]].all():
        raise ValueError("element set is not a subgroup")
    return Subgroup(G, member)


def translate(G: FiniteGroup, rows: np.ndarray, g: int, side: str) -> np.ndarray:
    """rows * g (side='right') or g * rows (side='left') in FG: a column
    permutation."""
    invg = int(G.inv[g])
    perm = G.mul[invg] if side == "left" else G.mul[:, invg]
    return np.asarray(rows, dtype=np.uint8)[..., perm]


def ideal(G: FiniteGroup, space: Subspace) -> Subspace:
    """An echelon subspace of FG, checked to be a two-sided ideal: closed
    under left and right multiplication by the group's generators (hence by
    all of G)."""
    for g in G.gens:
        for side in ("left", "right"):
            if not space.contains_rows(translate(G, space.rows, g, side)).all():
                raise ValueError("subspace is not a two-sided ideal")
    return space


def zero_ideal(G: FiniteGroup, F: FiniteField) -> Subspace:
    return echelon_basis([], F, G.n)


def convolve(G: FiniteGroup, F: FiniteField, x, y) -> np.ndarray:
    """The product x * y in FG."""
    x = np.asarray(x, dtype=np.uint8)
    return F.matmul(x[None, :], np.asarray(y, dtype=np.uint8)[G.mul[G.inv]])[0]


def unital_quotient(G: FiniteGroup, F: FiniteField, J: Subspace) -> QuotientAlgebra:
    """FG/J as a structure-constant algebra on the unit vectors off J's
    pivots, built by `section_by_tagged_solver`, with `unit` set to the
    coordinates of the identity and checked to act as one."""
    whole = echelon_basis(list(np.eye(G.n, dtype=np.uint8)), F, G.n)
    sc, reps, cols, _ = section_by_tagged_solver(G, F, whole, J)
    Q = QuotientAlgebra(F, sc, reps=reps, J=J, cols=cols)
    one = np.zeros(G.n, dtype=np.uint8)
    one[G.id] = 1
    Q.unit = Q.project(one)
    E = np.eye(Q.dim, dtype=np.uint8)
    U = np.broadcast_to(Q.unit, E.shape)
    assert np.array_equal(Q.mul_batch(U, E), E)
    assert np.array_equal(Q.mul_batch(E, U), E)
    return Q


def section_by_tagged_solver(G: FiniteGroup, F: FiniteField, I: Subspace, J: Subspace):
    """(sc, reps, cols, solve) of the section I/J of two ideals J ⊆ I of FG,
    on the basis that `modalg.radical_section` takes: the echelon rows
    rep_t of I whose pivots c_t (cols) are not pivots of J. Every coordinate
    is solved in one `TaggedEchelon`: J's rows carry the zero tag and rep_t
    carries e_t, so the tag block of a reconstruction is the coordinates
    mod J, which solve(v) returns for the vectors (or rows) v of I."""
    if not I.contains_rows(J.rows).all():
        raise ValueError("J is not contained in I")
    jpiv = set(J.pivots)
    keep = [t for t, pv in enumerate(I.pivots) if pv not in jpiv]
    reps = I.rows[keep]
    d = len(reps)
    solver = TaggedEchelon(F, G.n, d)
    assert solver.add_block(np.block([[J.rows, np.zeros((J.dim, d), dtype=np.uint8)],
                                      [reps, np.eye(d, dtype=np.uint8)]])) == I.dim
    sc = np.zeros((d, d, d), dtype=np.uint8)
    for b in range(d):
        # rep_a * rep_b for all a, then their tags
        sc[:, b] = solver.solve(F.matmul(reps, reps[b][G.mul[G.inv]]))
    return sc, reps, [I.pivots[t] for t in keep], solver.solve


def monomial_basis_two_pass(A: QuotientAlgebra, gens):
    """`iso._monomial_basis` in two eliminations: an `EchelonBuilder` keeps
    the monomials, and `invert_matrix` then inverts the kept basis, whose
    inverse gives every relation's coordinates."""
    F = A.field
    basis = EchelonBuilder(F, A.dim)
    gens = [np.asarray(g, dtype=np.uint8) for g in gens]
    index, keep_vecs, products = {}, [], []
    queue = [((t,), g) for t, g in enumerate(gens)]
    for w, v in queue:
        if basis.add(v):
            index[w] = len(keep_vecs)
            keep_vecs.append(v)
            queue.extend((w + (t,), A.mul(v, g)) for t, g in enumerate(gens))
        elif len(w) > 1:
            products.append((index[w[:-1]], w[-1], v))
    if basis.dim != A.dim:
        return None
    Vinv = invert_matrix(np.array(keep_vecs, dtype=np.uint8), F)
    coords = F.matmul(np.array([v for *_, v in products]).reshape(-1, A.dim), Vinv)
    return list(index), Vinv, [(j, t, c) for (j, t, _), c in zip(products, coords)]


def generated_by_frontier(G: FiniteGroup, seed) -> Subgroup:
    """The subgroup generated by the seed indices, with the kept generators
    of `FiniteGroup.generated`: closed in frontier rounds, the members times
    the new generator and then the new elements times every kept generator."""
    mul = G.mul
    seed = np.asarray(seed, dtype=np.int32)
    member = np.zeros(G.n, dtype=bool)
    member[G.id] = True
    gens, start = [], 0
    while (rest := np.flatnonzero(~member[seed[start:]])).size:
        start += int(rest[0])
        gens.append(int(seed[start]))
        frontier, cols = np.flatnonzero(member), gens[-1:]
        while frontier.size:
            fresh = np.zeros(G.n, dtype=bool)
            fresh[mul[np.ix_(frontier, cols)]] = True
            fresh &= ~member
            member |= fresh
            frontier, cols = np.flatnonzero(fresh), gens
    return Subgroup(G, member, gens)


def commutator_subgroup_all_pairs(A: Subgroup, B: Subgroup) -> Subgroup:
    """⟨[a,b] : a in A, b in B⟩ from all |A|·|B| commutators."""
    G = A.parent
    mul, inv = G.mul, G.inv
    a = A.elems[:, None]
    b = B.elems[None, :]
    return G.generated(np.unique(mul[mul[inv[a], inv[b]], mul[a, b]]))


def center_all_pairs(G: FiniteGroup) -> Subgroup:
    """Z(G): the z whose row of the table equals its column."""
    return Subgroup(G, (G.mul == G.mul.T).all(axis=1))


def conjugacy_classes_per_element(G: FiniteGroup) -> list:
    """The classes in order of least element, each the set of x^-1 g x over
    every x, with |class| * |C(g)| = |G| checked for each."""
    n = G.n
    mul, inv = G.mul, G.inv
    ar = np.arange(n, dtype=np.int32)
    seen = np.zeros(n, dtype=bool)
    out = []
    for g in range(n):
        if seen[g]:
            continue
        cls = _index_set(mul[mul[inv, g], ar], n)
        seen[cls] = True
        assert len(cls) * (mul[g] == mul[:, g]).sum() == n
        out.append(ConjClass(rep=g, elems=cls, length=len(cls)))
    assert sum(c.length for c in out) == n
    return out


def abelian_type_of_table(Q: FiniteGroup) -> tuple:
    """Invariant factors of an abelian p-group from its table: the elements
    of order dividing p^k number p^(sum of min(e_i, k))."""
    assert (Q.mul == Q.mul.T).all(), "not abelian"
    if Q.n == 1:
        return ()
    p, e = Q.require_p_group()
    orders = Q.element_orders()
    logs = [round(np.log((orders <= p**k).sum()) / np.log(p)) for k in range(e + 1)]
    ge = [hi - lo for lo, hi in zip(logs, logs[1:])] + [0]  # ge[k - 1] = #{i : e_i >= k}
    parts = [p**k for k in range(e, 0, -1) for _ in range(ge[k - 1] - ge[k])]
    assert np.prod(parts) == Q.n
    return tuple(parts)


def augmentation_powers_by_translates(G: FiniteGroup, F: FiniteField, n_max: int | None = None):
    """[Δ^1, Δ^2, ...] as `modalg.augmentation_powers` returns them, built
    without the group's dimension subgroups: Δ is spanned by the g - 1, and
    Δ^(m+1) by every basis row of Δ^m right-multiplied by every g - 1, one
    right translate minus the row. Cached on the group for each field, apart
    from the product's chain."""
    key = ("translate_chain", F.p, F.k)
    if key not in G._cache:
        b = EchelonBuilder(F, G.n)
        b.add_block(np.array([basis_minus_one(G, F, g) for g in range(G.n)], dtype=np.uint8))
        G._cache[key] = [ideal(G, b.freeze())]
    chain = G._cache[key]
    while chain[-1].dim > 0 and (n_max is None or len(chain) < n_max):
        prev = chain[-1]
        b = EchelonBuilder(F, G.n)
        for g in range(G.n):
            if g != G.id:
                b.add_block(F.vsub(translate(G, prev.rows, g, "right"), prev.rows))
        nxt = b.freeze()
        assert nxt.dim < prev.dim
        chain.append(nxt)
    return list(chain[:n_max])


def nilpotency_degree_by_powers(Q: QuotientAlgebra) -> int | None:
    """Least m with Q^m = 0, each power echelonized from all products of the
    previous one with the basis, or None if Q is not nilpotent. Each step
    lowers the dimension of Q^m or returns None, so the loop ends."""
    F, d = Q.field, Q.dim
    cur = echelon_basis(list(np.eye(d, dtype=np.uint8)), F, d)
    m = 1
    while cur.dim > 0:
        nxt = EchelonBuilder(F, d)
        for u in cur.rows:
            # row e of the block is u * e_e
            nxt.add_block(F.matmul(u[None, :], Q.sc.reshape(d, -1)).reshape(d, d))
        new = nxt.freeze()
        if new.dim >= cur.dim:
            return None
        cur = new
        m += 1
    return m


def square_by_products(Q: QuotientAlgebra):
    """Q^2: the span of all d^2 products of basis vectors."""
    d = Q.dim
    return echelon_basis([Q.sc[i, j] for i in range(d) for j in range(d)], Q.field, d)


def kernel_size_by_enumeration(Q: QuotientAlgebra, k: int, enum_cap: int = DEFAULT_CAPS.enum_cap):
    """(#elements with x^(p^k) = 0, #elements with x^(p^k) != 0), by exhaustive
    enumeration of the section."""
    P = _prime_restriction(Q)
    p, dim = P.field.p, P.dim
    if dim > 0 and p**dim > enum_cap:
        raise CapExceeded("enum_cap", f"{p}^{dim} elements exceed the enumeration cap")
    zero = 0
    total = p**dim
    for block in _enumerate_coords(p, dim, "enum_cap"):
        powered = P.power_map_batch(block, k)
        zero += int((~powered.any(axis=1)).sum())
    return zero, total - zero


def relative_augmentation_ideal(G: FiniteGroup, F: FiniteField, N: Subgroup) -> Subspace:
    """Δ(N)FG for N normal in G: the ideal generated by {u - 1 : u in N}.

    Spanned by e_x - e_rep over the right cosets of N, so dim = |G| - [G:N].
    """
    if N.parent is not G or not N.is_normal():
        raise ValueError("N must be a normal subgroup of G")
    key = ("relaug", F.p, F.k, N._key)
    if key not in G._cache:
        rep = G.mul[N.elems].min(axis=0)  # least element of each coset Ng
        xs = np.nonzero(rep != np.arange(G.n))[0]
        rows = np.eye(G.n, dtype=np.uint8)[xs]
        rows[np.arange(len(xs)), rep[xs]] = F.NEG[1]
        b = EchelonBuilder(F, G.n)
        b.add_block(rows)
        space = b.freeze()
        assert space.dim == G.n - G.n // N.order
        G._cache[key] = ideal(G, space)
    return G._cache[key]


def lie_power_ideals(G: FiniteGroup, F: FiniteField, i_max: int | None = None):
    """The Lie power series: first term Δ, each next the ideal closure of the
    span of commutators [g, u] with u running over the previous basis."""
    chain = G._cache.setdefault(("lie_chain", F.p, F.k),
                                augmentation_powers_by_translates(G, F, 1))
    while chain[-1].dim > 0 and (i_max is None or len(chain) < i_max):
        prev = chain[-1]
        b = EchelonBuilder(F, G.n)
        for g in range(G.n):
            b.add_block(F.vsub(translate(G, prev.rows, g, "left"),
                               translate(G, prev.rows, g, "right")))
        # ideal closure to a fixed point (translation by every group element)
        grew = True
        while grew:
            grew = False
            cur = b.freeze()
            for g in range(G.n):
                for side in ("left", "right"):
                    grew |= b.add_block(translate(G, cur.rows, g, side)) > 0
        chain.append(ideal(G, b.freeze()))
        if chain[-1].dim == chain[-2].dim and chain[-1].dim > 0:
            raise AssertionError("Lie power series stalled above zero")
    if i_max is None:
        return list(chain)
    out = list(chain[:i_max])
    while len(out) < i_max:
        out.append(chain[-1])
    return out


def dimension_subgroups_lazard(G: FiniteGroup) -> list:
    """The Jennings series by Lazard's product formula,
    D_n = ∏ ℧_j(γ_i) over i·p^j >= n, down to the first trivial term."""
    p, _ = G.require_p_group()
    lc = char_series(G).lower_central
    out = [G.full_subgroup()]
    while out[-1].order > 1:
        n = len(out) + 1
        seeds = [np.array([G.id], dtype=np.int32)]
        for i, gamma in enumerate(lc[:-1], start=1):  # the last term is trivial
            pj = 1
            while i * pj < n:
                pj *= p
            seeds.append(G.pow_map(pj)[gamma.elems])
        out.append(G.generated(_index_set(np.concatenate(seeds), G.n)))
    return out


def dimension_subgroups_algebraic(G: FiniteGroup, F: FiniteField, n_max: int | None = None):
    """D_n = {g : g - 1 in Δ^n}, read off the radical filtration built by
    translates."""
    pows = augmentation_powers_by_translates(G, F, n_max=n_max)
    out = []
    g_minus_one = np.array([basis_minus_one(G, F, g) for g in range(G.n)], dtype=np.uint8)
    for P in pows:
        members = np.nonzero(P.contains_rows(g_minus_one))[0]
        out.append(subgroup(G, members))
        if n_max is None and out[-1].order == 1:
            break
    return out


def zassenhaus_ideal(G: FiniteGroup, F: FiniteField, n: int,
                     enum_cap: int = DEFAULT_CAPS.enum_cap) -> Subspace:
    """Z_n(FG): the sum over i * p^j >= n of the spans of p^j-th powers of the
    i-th Lie power ideal, plus Δ^(n+1); computed inside FG/Δ^(n+1) (legitimate
    because Z_n contains Δ^(n+1)) with the power images enumerated exhaustively.
    """
    p = G.require_p_group()[0]
    pows = augmentation_powers_by_translates(G, F, n_max=n + 1)
    Jnp1 = pows[n] if len(pows) > n else zero_ideal(G, F)
    Q = unital_quotient(G, F, Jnp1)

    lies = lie_power_ideals(G, F)
    b = EchelonBuilder(F, Q.dim)
    for i, L in enumerate(lies, start=1):
        if L.dim == 0:
            break
        pj, j = 1, 0
        while True:
            if i * pj >= n:
                # image of the i-th Lie ideal inside Q
                img = EchelonBuilder(F, Q.dim)
                img.add_block(Q.project(L.rows))
                sect = img.freeze()
                if sect.dim > 0 and p**sect.dim > enum_cap:
                    raise CapExceeded(
                        "enum_cap",
                        f"Zassenhaus section of dim {sect.dim} over GF({F.q}) "
                        "exceeds the enumeration cap")
                for block in _enumerate_coords(F.q, sect.dim, "enum_cap"):
                    b.add_block(Q.power_map_batch(F.matmul(block, sect.rows), j))
            if pj >= n:  # higher powers of anything in Δ land inside Δ^(n+1)
                break
            pj *= p
            j += 1
    span_q = b.freeze()

    out = EchelonBuilder(F, G.n)
    out.add_block(np.vstack([Jnp1.rows, F.matmul(span_q.rows, Q.reps)]))
    return ideal(G, out.freeze())


def small_group_ring(G: FiniteGroup, F: FiniteField) -> QuotientAlgebra:
    """FG / (Δ(FG) · Δ(G')FG) as a unital structure-constant algebra."""
    rel = relative_augmentation_ideal(G, F, char_series(G).derived)
    delta = augmentation_powers_by_translates(G, F, 1)[0]
    b = EchelonBuilder(F, G.n)
    for v in rel.rows:
        b.add_block(F.matmul(delta.rows, v[G.mul[G.inv]]))
    K = ideal(G, b.freeze())
    return unital_quotient(G, F, K)


def reducible_monics(p: int, k: int) -> set:
    """Every monic polynomial of degree k over F_p that is a product of two
    monic polynomials of lower degree, as ascending coefficient tuples."""
    def monics(d):
        for code in range(p**d):
            yield [code // p**i % p for i in range(d)] + [1]

    return {tuple(int(c) for c in np.convolve(a, b) % p)
            for d in range(1, k // 2 + 1) for a in monics(d) for b in monics(k - d)}


def todd_coxeter_rescan(P: Presentation, coset_cap: int = 100000):
    """`words.todd_coxeter` with HLT that rescans every relator from every
    live coset."""
    ncols = 2 * len(P.generators)
    rel_cols = [_columns(w) for w in P.relators]
    table = [[None] * ncols]
    rep = [0]
    queue = []

    def find(c):
        while rep[c] != c:
            c = rep[c]
        return c

    def define(a, x):
        if len(table) >= coset_cap:
            raise CapExceeded("coset_cap")
        b = len(table)
        table.append([None] * ncols)
        rep.append(b)
        table[a][x] = b
        table[b][x ^ 1] = a

    def merge(a, b):
        a, b = find(a), find(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            rep[b] = a
            queue.append(b)

    def coincidence(a, b):
        merge(a, b)
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            for x in range(ncols):
                d = table[y][x]
                if d is None:
                    continue
                table[d][x ^ 1] = None
                mu, nu = find(y), find(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
        queue.clear()

    def scan_and_fill(a, cols):
        f, i = a, 0
        b, j = a, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            define(f, cols[i])

    alpha = 0
    while alpha < len(table):
        if find(alpha) == alpha:
            for cols in rel_cols:
                if cols:
                    scan_and_fill(alpha, cols)
                if find(alpha) != alpha:
                    break
            if find(alpha) == alpha:
                for x in range(ncols):
                    if table[alpha][x] is None:
                        define(alpha, x)
        alpha += 1

    return _table_group(P, _live_action(table, rep))


def _live_action(table, rep):
    """The action (ncols, n) int32 of each column of a coset table on its
    live cosets, the c with rep[c] == c, renumbered 0..n-1 in creation
    order; an entry is read through the live coset it was merged into. A
    live coset with an undefined entry raises ValueError."""
    root = np.array(rep, dtype=np.int64)
    while not np.array_equal(up := root[root], root):
        root = up
    live = np.flatnonzero(root == np.arange(len(rep)))
    rows = np.array([table[c] for c in live.tolist()], dtype=np.float64)  # None -> nan
    if np.isnan(rows).any():
        raise ValueError("incomplete coset table")
    index = np.zeros(len(rep), dtype=np.int32)
    index[live] = np.arange(len(live))
    return np.ascontiguousarray(index[root[rows.astype(np.int64)]].T)


def group_witness_holds_all_pairs(w: IsoWitness, G: FiniteGroup, H: FiniteGroup) -> bool:
    """Whether the map that evaluates G's element words at the witness images
    is a bijection G -> H with phi(a*b) = phi(a)*phi(b) for every pair."""
    phi = np.array([int(H.word_image(word, w.images)) for word in G.elem_words])
    if sorted(phi.tolist()) != list(range(H.n)):
        return False
    return bool(np.array_equal(phi[G.mul], H.mul[np.ix_(phi, phi)]))


def least_group_isomorphism(G: FiniteGroup, H: FiniteGroup):
    """The lexicographically least tuple of H elements, one for each of G's
    presentation generators, that satisfies every relator of G and whose map
    on G's element words is a bijection onto H; None if there is none.

    Every tuple is scanned in lexicographic order, coordinate t over all of
    H at once. The tuples under a prefix that already fails a relator in its
    own letters are skipped: none of them satisfies that relator. No
    element order, class size, deduction, socle or closure is used."""
    if G.n != H.n:
        return None
    r, every = len(G.gens), np.arange(H.n)
    # the relators whose last letter is generator t, checked at coordinate t
    by_top = [[w for w in G.presentation.relators if max(map(abs, w), default=0) == t + 1]
              for t in range(r)]
    # the element words as rows of letters x + r, padded with r (the identity)
    depth = max(map(len, G.elem_words))
    letters = np.array([w + (0,) * (depth - len(w)) for w in G.elem_words]).reshape(G.n, depth) + r

    def scan(prefix):
        t = len(prefix)
        images = dict(enumerate([*prefix, every]))
        ok = np.ones(H.n, dtype=bool)
        for w in by_top[t]:
            ok &= H.word_image(w, images) == H.id
        survivors = every[ok]
        if t + 1 < r:
            for h in survivors.tolist():
                if (hit := scan(prefix + (h,))) is not None:
                    return hit
            return None
        gens = np.array([np.broadcast_to(x, survivors.shape) for x in [*prefix, survivors]])
        image = np.concatenate([H.inv[gens[::-1]], np.full((1, survivors.size), H.id), gens])
        phi = np.full((G.n, survivors.size), H.id)
        for col in letters.T:
            phi = H.mul[phi, image[col]]
        onto = (np.sort(phi, axis=0) == every[:, None]).all(axis=0)
        return (*prefix, int(survivors[onto][0])) if onto.any() else None

    return scan(())


def unit_generators(A: QuotientAlgebra) -> list:
    """The unit vectors e_i that are independent modulo A^2, in order of i."""
    probe = A.power_subspace().builder()
    gens = []
    for i in range(A.dim):
        e = np.zeros(A.dim, dtype=np.uint8)
        e[i] = 1
        if probe.add(e):
            gens.append(e)
    return gens


def product_tensor(A: QuotientAlgebra, V, Vinv) -> np.ndarray:
    """c[i, j] = coordinates of V_i * V_j in the basis V (x = coords @ V)."""
    F, d = A.field, A.dim
    c = np.zeros((d, d, d), dtype=np.uint8)
    for i in range(d):
        for j in range(d):
            c[i, j] = F.matmul(A.mul(V[i], V[j])[None, :], Vinv)[0]
    return c


def word_images(B: QuotientAlgebra, words, imgs) -> np.ndarray:
    """U[:, j] = the image of basis word j at the generator images imgs
    (N, m, d), multiplied out letter by letter."""
    N, _, d = imgs.shape
    U = np.zeros((N, d, d), dtype=np.uint8)
    for j, w in enumerate(words):
        val = imgs[:, w[0], :]
        for t in w[1:]:
            val = B.mul_batch(val, imgs[:, t, :])
        U[:, j, :] = val
    return U


def products_hold(B: QuotientAlgebra, c, U) -> np.ndarray:
    """Mask of the candidates whose basis images U (N, d, d) respect all d²
    products: c[i, j]·U = U_i·U_j for every pair (i, j)."""
    F = B.field
    N, d, _ = U.shape
    ok = np.ones(N, dtype=bool)
    Ucols = U.transpose(1, 0, 2).reshape(d, N * d)  # row t: U[:, t, :] flattened
    for i in range(d):
        for j in range(d):
            lhs = F.matmul(c[i, j][None, :], Ucols)[0].reshape(N, d)
            ok &= (lhs == B.mul_batch(U[:, i, :], U[:, j, :])).all(axis=1)
            if not ok.any():
                return ok
    return ok


def nilpotent_algebra_iso_all_pairs(A: QuotientAlgebra, B: QuotientAlgebra,
                                    cap: int = DEFAULT_CAPS.iso_cap, rejected: list | None = None):
    """The reference algebra search: the candidates of
    `iso.nilpotent_algebra_iso` in the same order, accepted by
    `products_hold` and a rank check, so the first witness is the same.
    The generator images of every homomorphism that the rank check rejects
    go to `rejected` when it is given."""
    if A.dim != B.dim:
        return NotIsomorphic("dimension mismatch")
    if A.power_subspace().dim != B.power_subspace().dim:
        return NotIsomorphic("square-dimension prune")
    F, d = A.field, A.dim
    gens = unit_generators(A)
    m = len(gens)
    if F.q ** (d * m) > cap:
        raise CapExceeded("iso_cap", f"{F.q}^{d * m} assignments exceed cap {cap}")
    words, Vinv, _ = _monomial_basis(A, gens)
    c = product_tensor(A, word_images(A, words, np.array(gens)[None])[0], Vinv)
    for flat in _enumerate_coords(F.q, d * m, "iso_cap", chunk=1 << 14):
        imgs = flat.reshape(-1, m, d)
        U = word_images(B, words, imgs)
        for ci in np.flatnonzero(products_hold(B, c, U)).tolist():
            if EchelonBuilder(F, d).add_block(U[ci]) == d:
                return IsoWitness(kind="algebra", images=[u.copy() for u in imgs[ci]],
                                  source_gens=gens)
            if rejected is not None:
                rejected.append(imgs[ci].copy())
    return NotIsomorphic("exhausted")
