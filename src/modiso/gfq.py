"""Exact arithmetic in small finite fields F_{p^k} and echelon-form linear algebra.

F_{p^k} is F_p[C], C the companion matrix of the modulus. Field elements are
integer codes 0..q-1 whose base-p digits are the coordinates in the basis
1, C, ..., C^(k-1); each code's k x k matrix over F_p is its polynomial in C.
Elementwise arithmetic goes through q x q tables read off those matrices
(numpy fancy indexing). Matrix products are float64 BLAS products reduced
mod p, exact while every intermediate stays below 2^53 (checked); F_q is
encoded into F_p for them, each element becoming its k x k matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded

QCAP = 81  # every table is q x q, and codes are uint8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """F_{p^k} as F_p[C], C the companion matrix of the modulus; immutable once built.

    DIG maps a code to its digit vector and PW holds the digit weights p^i.
    BLK[c] = sum_i DIG[c, i] * C^i mod p is the k x k matrix over F_p of
    multiplication by c on digit columns, and the code tables ADD/MUL/NEG/INV
    are read off DIG, PW and BLK. modulus is the least monic x^k + low, in
    code order of low, that is irreducible (ascending coefficients, length k+1).
    """

    def __init__(self, p: int, k: int):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        # the size check runs before any trial division and never forms a
        # huge p**k: 2^k > QCAP once k reaches QCAP.bit_length()
        if p >= 2 and (k >= QCAP.bit_length() or p**k > QCAP):
            size = p if k == 1 else f"{p}^{k}"
            raise CapExceeded("q_cap", f"field size {size} exceeds cap {QCAP}")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p**k
        self.p, self.k, self.q = p, k, q
        self.PW = p ** np.arange(k, dtype=np.int64)
        self.DIG = (np.arange(q)[:, None] // self.PW % p).astype(np.uint8)

        dig = self.DIG.astype(np.int64)
        add_dig = (dig[:, None, :] + dig[None, :, :]) % p
        self.ADD = (add_dig @ self.PW).astype(np.uint8)
        self.NEG = (((-dig) % p) @ self.PW).astype(np.uint8)

        # F_p[x]/(m) = F_p[C] is a field exactly when m is irreducible, that
        # is when no two nonzero codes multiply to zero; C e_i = e_(i+1) and
        # C e_(k-1) = -low
        powers = np.empty((k, k, k), dtype=np.int64)
        powers[0] = np.eye(k)
        for low in range(q):
            C = np.eye(k, k, -1, dtype=np.int64)
            C[:, -1] = -dig[low] % p
            for i in range(1, k):
                powers[i] = C @ powers[i - 1] % p
            blk = np.tensordot(dig, powers, axes=1) % p
            mul = self.PW @ (blk @ dig.T % p)  # MUL[a, b] reads BLK[a] @ DIG[b]
            if mul[1:, 1:].all():
                break
        self.modulus = tuple(dig[low].tolist()) + (1,)
        self.BLK = blk.astype(np.uint8)
        self.MUL = mul.astype(np.uint8)
        self.INV = np.argmax(self.MUL == 1, axis=1).astype(np.uint8)  # INV[0] = 0

    # -- vectorized code arithmetic --------------------------------------------

    def vadd(self, u, v):
        return self.ADD[u, v]

    def vsub(self, u, v):
        return self.ADD[u, self.NEG[v]]

    def vsmul(self, s, u):
        return self.MUL[s, u]

    def matmul(self, A, B):
        """Field-exact product of two code matrices, (m,r) @ (r,n) -> (m,n).

        Over F_{p^k} each entry of A becomes its k x k block BLK and each
        entry of B its digit column, so the product is one F_p product: a
        float64 BLAS matmul reduced mod p. Every intermediate is at most
        (p-1)^2 * r * k, which must stay below 2^53 for the float path to be
        exact.
        """
        A = np.asarray(A, dtype=np.uint8)
        B = np.asarray(B, dtype=np.uint8)
        p, k = self.p, self.k
        (m, r), n = A.shape, B.shape[1]
        if (p - 1) ** 2 * r * k >= 1 << 53:
            raise OverflowError(f"inner dimension {r} over {self} is too long for exact float64 sums")
        if k > 1:
            # inner index (digit f, entry l): B's digit planes stack without a copy
            A = self.BLK[A].transpose(0, 2, 3, 1).reshape(m * k, k * r)
            B = self.DIG.T[:, B].reshape(k * r, n)
        prod = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p
        if k > 1:
            return (self.PW @ prod.reshape(m, k, n)).astype(np.uint8)
        return prod.astype(np.uint8)

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


_FIELDS: dict = {}


def make_field(p: int, k: int) -> FiniteField:
    """The field F_{p^k} with the deterministic (least irreducible) modulus:
    one object per (p, k), however the arguments are passed."""
    key = (int(p), int(k))
    if key not in _FIELDS:
        _FIELDS[key] = FiniteField(*key)
    return _FIELDS[key]


def _check_indexable(q: int, dim: int, cap_name: str):
    """Raise CapExceeded(cap_name) for a space of 2^63 points or more, which
    an int64 index cannot enumerate."""
    if q**dim >= 1 << 63:
        raise CapExceeded(cap_name,
                          f"{q}^{dim} points exceed the 2^63 that one enumeration can index")


def _enumerate_coords(q: int, dim: int, cap_name: str, chunk: int = 1 << 15):
    """Yield (m, dim) uint8 blocks covering all q^dim coordinate vectors, in
    mixed-radix order (last coordinate fastest). The points are indexed in
    int64, so a space of 2^63 points or more raises CapExceeded(cap_name)."""
    _check_indexable(q, dim, cap_name)
    total = q**dim
    start = 0
    radix = np.array([q**(dim - 1 - i) for i in range(dim)], dtype=np.int64)
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        out = (idx[:, None] // radix[None, :]) % q
        yield out.astype(np.uint8)
        start = stop


# -- echelon-form subspaces ---------------------------------------------------

def _sift(field: FiniteField, rows: np.ndarray, pivots, V) -> np.ndarray:
    """Reduce V (one vector, or a block of rows) by the reduced echelon rows
    `rows` with pivot columns `pivots`: one coefficient gather and one field
    matmul. The result is zero in every pivot column, and it is zero in the
    pivot-eligible columns exactly where V lies in the span."""
    V = np.asarray(V, dtype=np.uint8)
    if V.shape[-1:] != rows.shape[1:]:
        raise ValueError(f"vector length {V.shape[-1:]} != ambient {rows.shape[1]}")
    if len(pivots):
        coefs = V[..., list(pivots)]
        if coefs.any():
            delta = field.matmul(coefs.reshape(-1, len(pivots)), rows)
            return field.vsub(V, delta.reshape(V.shape))
    return V.copy()


class EchelonBuilder:
    """Mutable accumulator for a reduced row echelon basis.

    Rows are kept fully reduced against each other at all times, so sifting a
    vector is a single coefficient-gather plus one field matmul. Pivots are
    taken among the first `width` columns (all of them by default); any
    columns past `width` ride along with every row operation. Freeze to get
    an immutable Subspace (rows sorted by pivot; the RREF basis is canonical,
    so the result does not depend on insertion order).
    """

    def __init__(self, field: FiniteField, ambient: int, width: int | None = None):
        self.field = field
        self.ambient = ambient
        self.width = ambient if width is None else width
        self._buf = np.zeros((max(self.width, 1), ambient), dtype=np.uint8)
        self._pivots = []

    @property
    def dim(self):
        return len(self._pivots)

    @property
    def _rows(self):
        return self._buf[: self.dim]

    def sift(self, v: np.ndarray) -> np.ndarray:
        """Reduce v (or each row of a block) by every pivot row; the result
        has zeros in all pivot columns."""
        return _sift(self.field, self._rows, self._pivots, v)

    def _insert_reduced(self, r: np.ndarray, j: int) -> np.ndarray:
        """Normalize the sifted row r at its pivot j, clear column j from the
        other rows and append r; returns the normalized row."""
        F = self.field
        r = F.vsmul(int(F.INV[r[j]]), r)
        d = self.dim
        if d:
            # each entry of a rank-one update is one product: a MUL gather
            coefs = self._buf[:d, j].copy()
            if coefs.any():
                self._buf[:d] = F.vsub(self._buf[:d], F.MUL[coefs[:, None], r[None, :]])
        self._buf[d] = r
        self._pivots.append(j)
        return r

    def add(self, v: np.ndarray) -> bool:
        """Sift v and insert the residue if nonzero. Returns True if dim grew."""
        v = np.asarray(v, dtype=np.uint8)
        if v.shape != (self.ambient,):
            raise ValueError(f"vector length {v.shape} != ambient {self.ambient}")
        return self.add_block(v[None, :]) > 0

    def add_block(self, C: np.ndarray) -> int:
        """Insert many rows at once. The block is reduced against the current
        basis with one matmul, then against each row it contributes, so
        repeated or dependent rows fall out as zero rows. Returns the dim
        growth (the final subspace is the canonical RREF either way)."""
        F, w = self.field, self.width
        C = self.sift(C)
        added = 0
        while True:
            C = C[C[:, :w].any(axis=1)]
            if not C.shape[0]:
                return added
            j = int(np.nonzero(C[0, :w])[0][0])
            r = self._insert_reduced(C[0], j)
            C = F.vsub(C[1:], F.MUL[C[1:, j, None], r[None, :]])
            added += 1

    def freeze(self) -> "Subspace":
        d = self.dim
        if d:
            order = np.argsort(np.array(self._pivots, dtype=np.int64))
            rows = self._buf[:d][order].copy()
            pivots = tuple(self._pivots[i] for i in order)
        else:
            rows = np.zeros((0, self.ambient), dtype=np.uint8)
            pivots = ()
        return Subspace(self.field, self.ambient, rows, pivots)


class Subspace:
    """Immutable subspace of F^ambient in reduced row echelon form."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.rows.setflags(write=False)
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def sift(self, v: np.ndarray) -> np.ndarray:
        """Reduce v (or each row of a block) by the basis; zero exactly on the span."""
        return _sift(self.field, self.rows, self.pivots, v)

    def contains_rows(self, V) -> np.ndarray:
        """Boolean mask over the rows of V: True where the row lies in the span."""
        return ~self.sift(V).any(axis=-1)

    def builder(self) -> EchelonBuilder:
        """A mutable copy, for extending this subspace."""
        b = EchelonBuilder(self.field, self.ambient)
        b._buf[: self.dim] = self.rows
        b._pivots = list(self.pivots)
        return b

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient == other.ambient
                and self.pivots == other.pivots
                and np.array_equal(self.rows, other.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, {self.field})"


class TaggedEchelon(EchelonBuilder):
    """Echelon accumulator over augmented rows [v | tag]: pivots are taken in
    v's columns only, so every row operation carries the tag (e.g. quotient
    coordinates) along with its vector."""

    def __init__(self, field: FiniteField, ambient: int, tagdim: int):
        super().__init__(field, ambient + tagdim, width=ambient)

    def solve(self, v) -> np.ndarray:
        """Tag combination expressing v (or each row of a block), read off the
        tag block of its reconstruction; raises if v is outside the span."""
        v = np.asarray(v, dtype=np.uint8)
        if v.shape[-1:] != (self.width,):
            raise ValueError(f"vector length {v.shape[-1:]} != {self.width}")
        rows = v.reshape(-1, self.width)
        recon = self.field.matmul(rows[:, self._pivots], self._rows)
        if not np.array_equal(recon[:, : self.width], rows):
            raise ValueError("vector outside the accumulated span")
        return recon[:, self.width:].reshape(v.shape[:-1] + (self.ambient - self.width,))


def invertible(M, field: FiniteField) -> np.ndarray:
    """Boolean mask over a batch of square code matrices (N, m, m): True
    where the matrix is invertible. Gaussian elimination runs on the whole
    batch at once, one column at a time; a matrix without a pivot in some
    column is singular."""
    M = np.array(M, dtype=np.uint8)
    N, m, _ = M.shape
    F, rows = field, np.arange(N)
    ok = np.ones(N, dtype=bool)
    for c in range(m):
        nonzero = M[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        r = c + nonzero.argmax(axis=1)
        M[rows, c], M[rows, r] = M[rows, r], M[rows, c]
        piv = F.MUL[F.INV[M[:, c, c]][:, None], M[:, c]]  # a zero row on singular ones
        M[:, c + 1:] = F.vsub(M[:, c + 1:], F.MUL[M[:, c + 1:, c, None], piv[:, None, :]])
    return ok
