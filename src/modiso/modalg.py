"""Modular group algebra engine.

Elements of FG are uint8 code vectors indexed by group elements, and every
route takes the group G and the field F itself. The module builds the
radical filtration from a Jennings basis of G, cached on the group for each
field, radical sections Δ^i/Δ^j as structure-constant algebras that read
their layers, nilpotency degree and square off it, and power-map kernel
sizes: the routes `mip` runs. The second routes to these, and to the
entries that the fingerprint reads off the group side, live in
`tests/oracles.py`.
"""

from __future__ import annotations

import numpy as np

from .gfq import EchelonBuilder, FiniteField, Subspace, _enumerate_coords, make_field
from .groups import FiniteGroup, _jennings_basis


def basis_minus_one(G: FiniteGroup, F: FiniteField, g: int) -> np.ndarray:
    """The vector g - 1 of FG."""
    v = np.zeros(G.n, dtype=np.uint8)
    v[g] = F.vadd(v[g], 1)
    v[G.id] = F.vsub(v[G.id], 1)
    return v


def augmentation_powers(G: FiniteGroup, F: FiniteField):
    """[Δ^1, Δ^2, ...] of FG as echelon subspaces, down to the first zero
    power; a fresh list over the chain, which is cached on the group for
    each field. Raises ValueError unless G is a p-group of F's
    characteristic.

    Jennings: the monomials ∏(g_i - 1)^(a_i), 0 <= a_i < p, over a Jennings
    basis g_i of weights w_i, are a basis of FG, and those of weight
    Σ a_i·w_i >= m span Δ^m, over every field of characteristic p. Each is a
    right translate of its prefix minus the prefix. They go into one echelon
    basis from the top weight down, frozen after each weight: the canonical
    RREF of Δ^m (notes/decisions.md).
    """
    key = ("delta_chain", F.p, F.k)
    if key not in G._cache:
        G.require_p_group(F.p)
        mons = np.zeros((1, G.n), dtype=np.uint8)
        mons[0, G.id] = 1
        weights = np.zeros(1, dtype=np.int64)
        for g, w in _jennings_basis(G):
            right = G.mul[:, G.inv[g]]  # x·g is the column permutation x[h·g^-1]
            blocks = [mons]
            for _ in range(F.p - 1):
                blocks.append(F.vsub(blocks[-1][:, right], blocks[-1]))
            mons = np.vstack(blocks)
            weights = np.concatenate([weights + a * w for a in range(F.p)])
        b = EchelonBuilder(F, G.n)
        chain = [b.freeze()]  # the zero ideal past the top weight
        for m in range(int(weights.max()), 0, -1):
            block = mons[weights == m]
            if b.add_block(block) != len(block):
                raise AssertionError(f"the Jennings monomials of weight {m} are dependent")
            chain.append(b.freeze())
        G._cache[key] = chain[::-1]
    return list(G._cache[key])


def jennings_dims(G: FiniteGroup, F: FiniteField):
    """Dimensions of the radical-power sections Δ^m / Δ^(m+1) of FG."""
    dims = [P.dim for P in augmentation_powers(G, F)]  # the chain ends at zero
    return [a - b for a, b in zip(dims, dims[1:])]


# -- structure-constant quotients ---------------------------------------------

class QuotientAlgebra:
    """A structure-constant algebra: a section I/J of FG, or the prime
    restriction of one. Both are associative by construction, so no check
    runs here; `check_associative` in `tests/oracles.py` is the test-side one.

    Elements are coordinate vectors of length dim; sc[i, j] holds the
    coordinates of (rep_i * rep_j) mod J. A radical section Δ^i/Δ^j keeps
    the powers Δ^i, Δ^(i+1), ... down to the first inside Δ^j (Δ^j or zero);
    its layer L_t is the image of Δ^t, and (Δ^i/Δ^j)^m = L_(i·m).
    """

    def __init__(self, field, sc, reps=None, J=None, cols=None):
        self.field = field
        self.sc = sc
        self.dim = sc.shape[0]
        self.reps = reps  # (dim, n) ambient lifts, or None for a prime restriction
        self._J, self._cols = J, cols  # the ideal divided out; the pivot columns of reps
        self.first = None  # i of a radical section Δ^i/Δ^j
        self.powers = None  # [Δ^i, Δ^(i+1), ..., J] of a radical section
        self._cache = {}

    def project(self, ambient_vec) -> np.ndarray:
        """Coordinates of an FG vector's (or each row's) image in this section
        I/J. r = J.sift(v) is zero on J's pivots, so for v in I it is
        Σ_t r[c_t]·rep_t over the pivot columns c_t of the reps
        (notes/decisions.md, "A section's coordinates are one sift"); a v
        outside I misses that reconstruction and raises ValueError."""
        if self.reps is None:
            raise ValueError("abstract algebra has no ambient projection")
        r = self._J.sift(ambient_vec)
        flat = r.reshape(-1, r.shape[-1])
        coords = flat[:, self._cols]
        if not np.array_equal(self.field.matmul(coords, self.reps), flat):
            raise ValueError("vector outside the section's ideal")
        return coords.reshape(r.shape[:-1] + (self.dim,))

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

    def layer(self, t: int) -> "Subspace":
        """L_t, the image of Δ^t (t >= i) in coordinates: zero from the last
        power on, which lies in Δ^j. The echelon rows of Δ^t whose pivots are
        not pivots of Δ^j, read on the section's pivot columns, are already
        its RREF (notes/decisions.md, "Each algebra object is echelonized
        once")."""
        P = self.powers[min(t - self.first, len(self.powers) - 1)]
        jpiv = set(self._J.pivots)
        keep = [s for s, pv in enumerate(P.pivots) if pv not in jpiv]
        position = {c: s for s, c in enumerate(self._cols)}
        return Subspace(self.field, self.dim, P.rows[keep][:, self._cols],
                        tuple(position[P.pivots[s]] for s in keep))

    def power_subspace(self) -> "Subspace":
        """A^2 in coordinates: the layer L_(2i)."""
        return self.layer(2 * self.first)

    def nilpotency_degree(self) -> int | None:
        """Least m with A^m = L_(i·m) = 0, or None for an algebra without
        layers; the powers strictly decrease, so L_t = 0 from i + len - 1 on."""
        if self.powers is None:
            return None
        end = self.first + len(self.powers) - 1
        return -(-end // self.first)

    def __repr__(self):
        return f"QuotientAlgebra(dim={self.dim}, {self.field})"


def radical_section(G: FiniteGroup, F: FiniteField, i: int, j: int) -> QuotientAlgebra:
    """The section Δ^i / Δ^j (i < j) of FG as a structure-constant algebra,
    carrying the powers Δ^i, Δ^(i+1), ... that its layers are read from.

    The section basis is canonical: the echelon rows of Δ^i whose pivots are
    not pivots of Δ^j, which lies in Δ^i on the one chain.
    """
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    # the chain ends at Δ^j or at zero, which stands for every later power
    pows = augmentation_powers(G, F)[:j]
    powers = pows[min(i, len(pows)) - 1:]
    I, J = powers[0], powers[-1]
    jpiv = set(J.pivots)
    keep = [t for t, pv in enumerate(I.pivots) if pv not in jpiv]
    d = len(keep)
    if d != I.dim - J.dim:
        raise AssertionError("the section basis does not complement J in I")
    Q = QuotientAlgebra(F, np.zeros((d, d, d), dtype=np.uint8), reps=I.rows[keep], J=J,
                        cols=[I.pivots[t] for t in keep])
    Q.first, Q.powers = i, powers
    right = G.mul[G.inv]  # y[right] is the matrix of x -> x * y: row h is e_h * y
    for b in range(d):
        # rep_a * rep_b for all a, then their section coordinates
        Q.sc[:, b] = Q.project(F.matmul(Q.reps, Q.reps[b][right]))
    return Q


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
            make_field(F.p, 1), sc_p.reshape(dk, dk, dk))
    return Q._cache["prime_restriction"]


def kernel_size_power_map(Q: QuotientAlgebra, k: int):
    """(#elements with x^(p^k) = 0, #elements with x^(p^k) != 0) on a radical
    section Δ^i/Δ^j, counted by truncation.

    For x in Δ^i and z in Δ^t, (x + z)^(p^k) - x^(p^k) lies in
    Δ^(t + (p^k - 1)·i), so x^(p^k) in Δ^j depends only on x mod Δ^j' with
    j' = j - (p^k - 1)·i: the count is q^(dim L_j') times the count over the
    non-pivot coordinates of the layer L_j'. If j' <= i the layer L_i is the
    whole section and so is the kernel. This bounds no work:
    `invariants.kernel_cell` gates every cell before it gets here
    (notes/decisions.md, "Kernel cells by truncation").
    """
    if Q.powers is None:
        raise ValueError("kernel cells need a radical section")
    F = Q.field
    p, dim = F.p, Q.dim * F.k
    i = Q.first
    j = i + len(Q.powers) - 1  # Δ^j, or the zero power that equals it
    L = Q.layer(max(j - (p**k - 1) * i, i))
    free = np.ones((Q.dim, F.k), dtype=bool)  # prime-restriction column c·k + e
    free[list(L.pivots)] = False
    cols = np.flatnonzero(free)
    P = _prime_restriction(Q)
    zero = 0
    for block in _enumerate_coords(p, len(cols), "enum_cap"):
        x = np.zeros((len(block), dim), dtype=np.uint8)
        x[:, cols] = block
        zero += int((~P.power_map_batch(x, k).any(axis=1)).sum())
    zero *= F.q**L.dim
    return zero, p**dim - zero
