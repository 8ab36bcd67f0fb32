"""Modular group algebra engine.

Elements of FG are uint8 code vectors indexed by group elements. The module
computes the augmentation-ideal filtration, radical sections I/J as
structure-constant algebras and power-map kernel sizes: the routes `mip`
runs. The algebra-side routes to entries that the fingerprint reads off the
group side (relative augmentation ideals, Lie power ideals, Zassenhaus
ideals, algebra-side dimension subgroups and the small group ring) live in
`tests/oracles.py`, where the tests compare them with the group-side values,
together with the unital quotients FG/J those routes build.
"""

from __future__ import annotations

import numpy as np

from .caps import DEFAULT_CAPS
from .errors import CapExceeded
from .gfq import EchelonBuilder, FiniteField, Subspace, TaggedEchelon, echelon_basis, make_field
from .groups import FiniteGroup, sample_ints


class GroupAlgebra:
    """FG for a finite group G and finite field F."""

    def __init__(self, group: FiniteGroup, field: FiniteField):
        self.group = group
        self.field = field
        self.n = group.n
        self._cache = {}

    # -- element arithmetic ------------------------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.uint8)

    def basis_minus_one(self, g: int) -> np.ndarray:
        """The vector g - 1."""
        v = self.zero()
        F = self.field
        v[g] = F.vadd(v[g], 1)
        v[self.group.id] = F.vsub(v[self.group.id], 1)
        return v

    def right_mul_matrix(self, y: np.ndarray) -> np.ndarray:
        """Matrix R with (x @ R) = x * y; row h of R is e_h * y."""
        return np.asarray(y, dtype=np.uint8)[self.group.mul[self.group.inv]]

    def translate(self, rows: np.ndarray, g: int, side: str) -> np.ndarray:
        """rows * g (side='right') or g * rows (side='left'); a column permutation."""
        G = self.group
        invg = int(G.inv[g])
        perm = G.mul[invg] if side == "left" else G.mul[:, invg]
        return np.asarray(rows, dtype=np.uint8)[..., perm]

    def __repr__(self):
        return f"GroupAlgebra(|G|={self.n}, {self.field})"


def group_algebra(G: FiniteGroup, F: FiniteField,
                  order_cap: int = DEFAULT_CAPS.algebra_order_cap) -> GroupAlgebra:
    """FG for a p-group G and a field F of characteristic p, cached on the
    group so radical filtrations are computed once."""
    if G.n > order_cap:
        raise CapExceeded(
            "algebra_order_cap",
            f"|G| = {G.n} exceeds the algebra-side cap {order_cap}")
    p, _ = G.require_p_group()
    if p != F.p:
        raise ValueError(f"field characteristic {F.p} does not match group prime {p}")
    key = ("algebra", F.p, F.k)
    if key not in G._cache:
        G._cache[key] = GroupAlgebra(G, F)
    return G._cache[key]


class Ideal:
    """A two-sided ideal of FG, carried by an echelonized subspace.

    Closure under left/right multiplication is verified against the group's
    generators at construction (which implies closure under all of G).
    """

    def __init__(self, algebra: GroupAlgebra, space: Subspace, check: bool = True):
        self.algebra = algebra
        self.space = space
        if check:
            for g in algebra.group.gens:
                for side in ("left", "right"):
                    if not space.contains_rows(algebra.translate(space.rows, g, side)).all():
                        raise ValueError("subspace is not a two-sided ideal")

    @property
    def dim(self) -> int:
        return self.space.dim

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.space == other.space

    def __repr__(self):
        return f"Ideal(dim={self.dim} of {self.algebra})"


def _zero_ideal(A: GroupAlgebra) -> Ideal:
    return Ideal(A, echelon_basis([], A.field, A.n), check=False)


def augmentation_ideal(A: GroupAlgebra) -> Ideal:
    key = "delta1"
    if key not in A._cache:
        b = EchelonBuilder(A.field, A.n)
        b.add_block(np.array([A.basis_minus_one(g) for g in range(A.n)], dtype=np.uint8))
        A._cache[key] = Ideal(A, b.freeze())
    return A._cache[key]


def augmentation_powers(A: GroupAlgebra, n_max: int | None = None):
    """[Δ^1, Δ^2, ...]; stops at the first zero power or after n_max terms,
    whichever comes first.

    Δ^(m+1) is generated from Δ^m by right-multiplying every basis row by
    (g - 1) for every g in G; right translation is a column permutation, so
    each candidate batch is one gather and one subtraction.
    """
    A.group.require_p_group()
    chain = A._cache.setdefault("delta_chain", [augmentation_ideal(A)])
    while chain[-1].dim > 0 and (n_max is None or len(chain) < n_max):
        prev = chain[-1].space
        b = EchelonBuilder(A.field, A.n)
        for g in range(A.n):
            if g == A.group.id:
                continue
            b.add_block(A.field.vsub(A.translate(prev.rows, g, "right"), prev.rows))
        nxt = b.freeze()
        assert nxt.dim < prev.dim or prev.dim == 0
        chain.append(Ideal(A, nxt, check=False))
    return list(chain[:n_max])


def jennings_dims(A: GroupAlgebra):
    """Dimensions of the radical-power sections Δ^m / Δ^(m+1)."""
    pows = augmentation_powers(A)
    dims = [p.dim for p in pows]
    return [a - b for a, b in zip(dims, dims[1:] + [0] * (dims[-1] > 0))]


# -- structure-constant quotients ---------------------------------------------

class QuotientAlgebra:
    """A structure-constant algebra: a section I/J of FG, or an abstract one.

    Elements are coordinate vectors of length dim; sc[i, j] holds the
    coordinates of (rep_i * rep_j) mod J.
    """

    def __init__(self, field, sc, reps=None, solver=None, label=""):
        self.field = field
        self.sc = sc
        self.dim = sc.shape[0]
        self.reps = reps  # (dim, n) ambient lifts, or None for abstract algebras
        self._solver = solver
        self.label = label
        self._cache = {}
        self._check_associative()

    def _check_associative(self):
        """Exhaustive on basis triples for small dimensions, sampled beyond
        (mirrors the group-table policy)."""
        d = self.dim
        if d == 0:
            return
        F = self.field
        if d <= 24:
            for l in range(d):
                lhs = F.matmul(self.sc.reshape(d * d, d), self.sc[:, l, :]).reshape(d, d, d)
                rhs = np.zeros_like(lhs)
                for i in range(d):
                    rhs[i] = F.matmul(self.sc[:, l, :], self.sc[i])
                if not np.array_equal(lhs, rhs):
                    raise AssertionError("structure constants are not associative")
        else:
            X, Y, Z = sample_ints(F.q, (3, 200, d)).astype(np.uint8)
            if not np.array_equal(self.mul_batch(self.mul_batch(X, Y), Z),
                                  self.mul_batch(X, self.mul_batch(Y, Z))):
                raise AssertionError("structure constants are not associative")

    def project(self, ambient_vec) -> np.ndarray:
        """Coordinates of an FG vector's image in this section."""
        if self._solver is None:
            raise ValueError("abstract algebra has no ambient projection")
        return self._solver.solve(ambient_vec)

    def mul(self, x, y) -> np.ndarray:
        F = self.field
        x = np.asarray(x, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8)
        T = F.matmul(x[None, :], self.sc.reshape(self.dim, -1))[0].reshape(self.dim, self.dim)
        return F.matmul(y[None, :], T)[0]

    def mul_batch(self, X, Y) -> np.ndarray:
        """Row-wise products of two (N, dim) coordinate batches, computed over
        the prime field: the rows are encoded to digits, multiplied in the
        prime restriction and decoded."""
        F = self.field
        P = _prime_restriction(self)
        X = np.asarray(X, dtype=np.uint8)
        Y = np.asarray(Y, dtype=np.uint8)
        N = len(X)
        if F.k > 1:
            X, Y = F.DIG[X].reshape(N, P.dim), F.DIG[Y].reshape(N, P.dim)
        # out = einsum("ni,nj,ijl->nl", X, Y, P.sc), one slice of P.sc at a
        # time so that neither P.sc nor X is copied to float64 whole; every
        # sum is an integer below 2^53, so the float path is exact
        Yf = Y.astype(np.float64)
        out = np.zeros((N, P.dim))
        t = np.empty_like(out)
        for i in range(P.dim):
            np.matmul(Yf, P.sc[i].astype(np.float64), out=t)
            t *= X[:, i, None]
            out += t
        del Yf, t  # free the float buffers before the integer reduction
        out = out.astype(np.int64) % F.p
        if F.k > 1:
            return (out.reshape(N, self.dim, F.k) @ F.PW).astype(np.uint8)
        return out.astype(np.uint8)

    def power_map_batch(self, X, pk_rounds: int) -> np.ndarray:
        """x -> x^(p^pk_rounds) applied to every row of X."""
        p = self.field.p
        out = np.asarray(X, dtype=np.uint8)
        for _ in range(pk_rounds):
            if not out.any():
                break  # zero is fixed by every power
            base = out
            acc = base
            for _ in range(p - 1):
                acc = self.mul_batch(acc, base)
            out = acc
        return out

    def power_subspace(self) -> "Subspace":
        """Span of all pairwise basis products (A^2 in coordinates)."""
        if "square" not in self._cache:
            d = self.dim
            self._cache["square"] = echelon_basis(
                [self.sc[i, j] for i in range(d) for j in range(d)], self.field, d)
        return self._cache["square"]

    def nilpotency_degree(self) -> int | None:
        """Least m with A^m = 0, or None if A is not nilpotent. Each step
        lowers the dimension of A^m or returns None, so the loop ends."""
        if "nilpotency_degree" not in self._cache:
            self._cache["nilpotency_degree"] = self._nilpotency_degree()
        return self._cache["nilpotency_degree"]

    def _nilpotency_degree(self) -> int | None:
        cur = echelon_basis(list(np.eye(self.dim, dtype=np.uint8)), self.field, self.dim)
        m = 1
        while cur.dim > 0:
            nxt = EchelonBuilder(self.field, self.dim)
            # row (u, e) of the block is u * e_e
            nxt.add_block(self.field.matmul(cur.rows, self.sc.reshape(self.dim, -1))
                          .reshape(-1, self.dim))
            new = nxt.freeze()
            if new.dim >= cur.dim:
                return None
            cur = new
            m += 1
        return m

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return f"QuotientAlgebra(dim={self.dim}, {self.field}{tag})"


def quotient_algebra(A: GroupAlgebra, I: Ideal, J: Ideal, label="") -> QuotientAlgebra:
    """The section I/J as a structure-constant algebra.

    The section basis is canonical: the echelon rows of I whose pivots are not
    pivots of J.
    """
    F = A.field
    carrier = I.space
    if not J.space <= carrier:
        raise ValueError("J is not contained in I")

    jpiv = set(J.space.pivots)
    reps = carrier.rows[[i for i, pv in enumerate(carrier.pivots) if pv not in jpiv]]
    d = len(reps)
    assert d == carrier.dim - J.space.dim

    # J's rows carry the zero tag and rep_i carries e_i
    solver = TaggedEchelon(F, A.n, d)
    solver.add_block(np.block([[J.space.rows, np.zeros((J.space.dim, d), dtype=np.uint8)],
                               [reps, np.eye(d, dtype=np.uint8)]]))

    sc = np.zeros((d, d, d), dtype=np.uint8)
    for j in range(d):
        # rep_i * rep_j for all i, then their section coordinates
        sc[:, j] = solver.solve(F.matmul(reps, A.right_mul_matrix(reps[j])))
    return QuotientAlgebra(F, sc, reps=reps, solver=solver, label=label)


def radical_section(A: GroupAlgebra, i: int, j: int, label=None) -> QuotientAlgebra:
    """The section Δ^i / Δ^j (i < j); a power past the end of the chain is
    the zero ideal."""
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    pows = augmentation_powers(A, n_max=j)
    I, J = (pows[k - 1] if k <= len(pows) else _zero_ideal(A) for k in (i, j))
    return quotient_algebra(A, I, J, label=label or f"rad[{i},{j}]")


def _prime_restriction(Q: QuotientAlgebra) -> QuotientAlgebra:
    """The same algebra viewed over the prime subfield (dim multiplies by k).

    Its basis is w^e * rep_i (w = code p), and coordinate (l, e3) of
    (w^e1 * rep_i)(w^e2 * rep_j) is digit e3 of sc[i, j, l] * w^(e1 + e2):
    entry (e3, e1) of BLK[sc[i, j, l] * w^e2], so the whole tensor is one
    gather.
    """
    F = Q.field
    if F.k == 1:
        return Q
    if "prime_restriction" not in Q._cache:
        dk = Q.dim * F.k
        # axes (i, j, l, e2, e3, e1) -> (i, e1, j, e2, l, e3)
        sc_p = F.BLK[F.MUL[Q.sc[..., None], F.PW]].transpose(0, 5, 1, 3, 2, 4)
        Q._cache["prime_restriction"] = QuotientAlgebra(
            make_field(F.p, 1), sc_p.reshape(dk, dk, dk), label=f"{Q.label}|prime")
    return Q._cache["prime_restriction"]


def _enumerate_coords(q: int, dim: int, chunk: int = 1 << 15):
    """Yield (m, dim) uint8 blocks covering all q^dim coordinate vectors, in
    mixed-radix order (last coordinate fastest)."""
    total = q**dim
    start = 0
    radix = np.array([q**(dim - 1 - i) for i in range(dim)], dtype=np.int64)
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        out = (idx[:, None] // radix[None, :]) % q
        yield out.astype(np.uint8)
        start = stop


def kernel_size_power_map(Q: QuotientAlgebra, k: int, enum_cap: int = DEFAULT_CAPS.enum_cap):
    """(#elements with x^(p^k) = 0, #elements with x^(p^k) != 0), by exhaustive
    enumeration of the section."""
    P = _prime_restriction(Q)
    p, dim = P.field.p, P.dim
    if dim > 0 and p**dim > enum_cap:
        raise CapExceeded("enum_cap", f"{p}^{dim} elements exceed the enumeration cap")
    zero = 0
    total = p**dim
    for block in _enumerate_coords(p, dim):
        powered = P.power_map_batch(block, k)
        zero += int((~powered.any(axis=1)).sum())
    return zero, total - zero
