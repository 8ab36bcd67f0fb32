"""Oracles for values the product computes by a shorter route.

`invariants.fingerprint` computes `jennings_dims`, `small_group_ring_dim`,
`zassenhaus_dims` and the dimension subgroups from group-side data (the
derivations are in notes/decisions.md). The algebra-side routes here compute
the same objects inside the group algebra FG, so the tests can check the
group-side values against an independent construction. The commutator
subgroup route forms every commutator [a, b], where the product uses only
generators of A. The abelian type of a standalone group is read from its
whole table, where the product counts powers inside X without building X/Y.
The monic polynomials that are products of two of lower degree are listed by
multiplying every pair, where the product tests irreducibility by the absence
of zero divisors in F_p[C]. The HLT coset enumeration here scans every
relator in full from every live coset, where the product scans a power
relator once per closed cycle. The closure-checked subgroup constructor, the
convolution product and the unital quotients FG/J serve the tests only: the
product trusts the subgroups it generates, multiplies inside sections and
builds radical sections I/J. No `mip` command runs them.
"""

from __future__ import annotations

import numpy as np

from modiso.caps import DEFAULT_CAPS
from modiso.errors import CapExceeded
from modiso.gfq import EchelonBuilder, echelon_basis
from modiso.groups import FiniteGroup, Subgroup, char_series
from modiso.modalg import (
    GroupAlgebra,
    Ideal,
    QuotientAlgebra,
    _enumerate_coords,
    _zero_ideal,
    augmentation_ideal,
    augmentation_powers,
    quotient_algebra,
)
from modiso.words import Presentation, _columns, _table_group


def subgroup(G: FiniteGroup, elems) -> Subgroup:
    """The subgroup on an arbitrary element set: a non-empty finite set
    closed under products holds the identity and every inverse."""
    elems = np.asarray(elems, dtype=np.int32)
    member = np.zeros(G.n, dtype=bool)
    member[elems] = True
    if elems.size == 0 or not member[G.mul[np.ix_(elems, elems)]].all():
        raise ValueError("element set is not a subgroup")
    return Subgroup(G, member)


def convolve(A: GroupAlgebra, x, y) -> np.ndarray:
    """The product x * y in FG."""
    x = np.asarray(x, dtype=np.uint8)
    return A.field.matmul(x[None, :], A.right_mul_matrix(y))[0]


def unital_quotient(A: GroupAlgebra, J: Ideal) -> QuotientAlgebra:
    """FG/J as a structure-constant algebra, with `unit` set to the
    coordinates of the identity and checked to act as one."""
    whole = Ideal(A, echelon_basis(list(np.eye(A.n, dtype=np.uint8)), A.field, A.n), check=False)
    Q = quotient_algebra(A, whole, J)
    one = np.zeros(A.n, dtype=np.uint8)
    one[A.group.id] = 1
    Q.unit = Q.project(one)
    E = np.eye(Q.dim, dtype=np.uint8)
    U = np.broadcast_to(Q.unit, E.shape)
    assert np.array_equal(Q.mul_batch(U, E), E)
    assert np.array_equal(Q.mul_batch(E, U), E)
    return Q


def commutator_subgroup_all_pairs(A: Subgroup, B: Subgroup) -> Subgroup:
    """⟨[a,b] : a in A, b in B⟩ from all |A|·|B| commutators."""
    G = A.parent
    mul, inv = G.mul, G.inv
    a = A.elems[:, None]
    b = B.elems[None, :]
    return G.generated(np.unique(mul[mul[inv[a], inv[b]], mul[a, b]]))


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


def relative_augmentation_ideal(A: GroupAlgebra, N: Subgroup) -> Ideal:
    """Δ(N)FG for N normal in G: the ideal generated by {u - 1 : u in N}.

    Spanned by e_x - e_rep over the right cosets of N, so dim = |G| - [G:N].
    """
    if N.parent is not A.group or not N.is_normal():
        raise ValueError("N must be a normal subgroup of G")
    key = ("relaug", N._key)
    if key not in A._cache:
        rep = A.group.mul[N.elems].min(axis=0)  # least element of each coset Ng
        xs = np.nonzero(rep != np.arange(A.n))[0]
        rows = np.eye(A.n, dtype=np.uint8)[xs]
        rows[np.arange(len(xs)), rep[xs]] = A.field.NEG[1]
        b = EchelonBuilder(A.field, A.n)
        b.add_block(rows)
        space = b.freeze()
        assert space.dim == A.n - A.n // N.order
        A._cache[key] = Ideal(A, space)
    return A._cache[key]


def lie_power_ideals(A: GroupAlgebra, i_max: int | None = None):
    """The Lie power series: first term Δ, each next the ideal closure of the
    span of commutators [g, u] with u running over the previous basis."""
    chain = A._cache.setdefault("lie_chain", [augmentation_ideal(A)])
    while chain[-1].dim > 0 and (i_max is None or len(chain) < i_max):
        prev = chain[-1].space
        b = EchelonBuilder(A.field, A.n)
        F = A.field
        for g in range(A.n):
            b.add_block(F.vsub(A.translate(prev.rows, g, "left"),
                               A.translate(prev.rows, g, "right")))
        # ideal closure to a fixed point (translation by every group element)
        grew = True
        while grew:
            grew = False
            cur = b.freeze()
            for g in range(A.n):
                for side in ("left", "right"):
                    grew |= b.add_block(A.translate(cur.rows, g, side)) > 0
        chain.append(Ideal(A, b.freeze()))
        if chain[-1].dim == chain[-2].dim and chain[-1].dim > 0:
            raise AssertionError("Lie power series stalled above zero")
    if i_max is None:
        return list(chain)
    out = list(chain[:i_max])
    while len(out) < i_max:
        out.append(chain[-1])
    return out


def dimension_subgroups_algebraic(A: GroupAlgebra, n_max: int | None = None):
    """D_n = {g : g - 1 in Δ^n}, read off the radical filtration directly."""
    G = A.group
    pows = augmentation_powers(A, n_max=n_max)
    out = []
    g_minus_one = np.array([A.basis_minus_one(g) for g in range(A.n)], dtype=np.uint8)
    for P in pows:
        members = np.nonzero(P.space.contains_rows(g_minus_one))[0]
        out.append(subgroup(G, members))
        if n_max is None and out[-1].order == 1:
            break
    return out


def zassenhaus_ideal(A: GroupAlgebra, n: int, enum_cap: int = DEFAULT_CAPS.enum_cap) -> Ideal:
    """Z_n(FG): the sum over i * p^j >= n of the spans of p^j-th powers of the
    i-th Lie power ideal, plus Δ^(n+1); computed inside FG/Δ^(n+1) (legitimate
    because Z_n contains Δ^(n+1)) with the power images enumerated exhaustively.
    """
    F = A.field
    p = A.group.require_p_group()[0]
    pows = augmentation_powers(A, n_max=n + 1)
    Jnp1 = pows[n] if len(pows) > n else _zero_ideal(A)
    Q = unital_quotient(A, Jnp1)

    lies = lie_power_ideals(A)
    b = EchelonBuilder(F, Q.dim)
    for i, L in enumerate(lies, start=1):
        if L.dim == 0:
            break
        pj, j = 1, 0
        while True:
            if i * pj >= n:
                # image of the i-th Lie ideal inside Q
                img = EchelonBuilder(F, Q.dim)
                img.add_block(Q.project(L.space.rows))
                sect = img.freeze()
                if sect.dim > 0 and p**sect.dim > enum_cap:
                    raise CapExceeded(
                        "enum_cap",
                        f"Zassenhaus section of dim {sect.dim} over GF({F.q}) "
                        "exceeds the enumeration cap")
                for block in _enumerate_coords(F.q, sect.dim):
                    b.add_block(Q.power_map_batch(F.matmul(block, sect.rows), j))
            if pj >= n:  # higher powers of anything in Δ land inside Δ^(n+1)
                break
            pj *= p
            j += 1
    span_q = b.freeze()

    out = EchelonBuilder(F, A.n)
    out.add_block(np.vstack([Jnp1.space.rows, F.matmul(span_q.rows, Q.reps)]))
    return Ideal(A, out.freeze())


def small_group_ring(A: GroupAlgebra) -> QuotientAlgebra:
    """FG / (Δ(FG) · Δ(G')FG) as a unital structure-constant algebra."""
    F = A.field
    derived = char_series(A.group).derived
    rel = relative_augmentation_ideal(A, derived)
    delta = augmentation_ideal(A)
    b = EchelonBuilder(F, A.n)
    for v in rel.space.rows:
        b.add_block(F.matmul(delta.space.rows, A.right_mul_matrix(v)))
    K = Ideal(A, b.freeze())
    return unital_quotient(A, K)


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

    root = np.array([find(c) for c in range(len(table))], dtype=np.int64)
    return _table_group(P, table, root)
