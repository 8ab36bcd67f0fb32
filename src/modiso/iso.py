"""Brute-force isomorphism decisions with explicit, independently verified
witnesses: generator-image search for small groups, and exhaustive
generator-assignment search for small nilpotent structure-constant algebras.

NotIsomorphic is only ever returned after a provably exhaustive search. The
group search is pruned by element order, class size and the socle, the
algebra search by section dimensions: the invariants are preserved by every
isomorphism, and the socle prune removes only homomorphisms that are not
injective. No pruning is heuristic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .caps import DEFAULT_CAPS
from .errors import CapExceeded
from .groups import FiniteGroup, _is_prime_power, conjugacy_classes

if TYPE_CHECKING:
    from .modalg import QuotientAlgebra


@dataclass
class IsoWitness:
    kind: str              # "group" | "algebra"
    images: list           # per source generator: an H element index / a B coordinate vector
    source_gens: list      # the source generators (element indices / coordinate vectors)
    full_map: object = None


@dataclass
class NotIsomorphic:
    reason: str


def _class_size_of(G: FiniteGroup):
    sizes = np.zeros(G.n, dtype=np.int64)
    for c in conjugacy_classes(G):
        sizes[c.elems] = c.length
    return sizes


def _socle_words(G: FiniteGroup, sizes, orders):
    """One element word for each central subgroup of prime order, named by
    its least element."""
    reps = set()
    for z in np.flatnonzero((sizes == 1) & (orders > 1)).tolist():
        o = int(orders[z])
        if _is_prime_power(o) == (o, 1):
            reps.add(min(G.power(z, k) for k in range(1, o)))
    return [G.elem_words[z] for z in sorted(reps)]


def group_isomorphic(G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_CAPS.iso_cap):
    """Search for an isomorphism G -> H by assigning images to G's
    presentation generators, pruned by element order, class size and the
    socle.

    Generators that occur exactly once in some relator whose other letters are
    already assigned are deduced instead of searched. An assignment that
    satisfies every relator is a homomorphism between groups of equal order;
    it is dropped if it sends an element of a central subgroup of prime order
    to the identity, since for nilpotent G every nontrivial normal subgroup,
    the kernel included, meets the centre. Closure in H is the final check on
    the survivors, which decides for groups that are not nilpotent. The
    returned witness is the lexicographically least accepting assignment;
    NotIsomorphic means the pruned search was exhausted.
    """
    if G.presentation is None or G.elem_words is None:
        raise ValueError("source group must carry its defining presentation and element words")
    if G.n != H.n:
        return NotIsomorphic("order mismatch")
    if Counter(G.element_orders().tolist()) != Counter(H.element_orders().tolist()):
        return NotIsomorphic("order-profile prune")
    g_sizes, h_sizes = _class_size_of(G), _class_size_of(H)
    g_orders, h_orders = G.element_orders(), H.element_orders()
    if (Counter(zip(g_orders.tolist(), g_sizes.tolist()))
            != Counter(zip(h_orders.tolist(), h_sizes.tolist()))):
        return NotIsomorphic("order/class-size profile prune")

    P = G.presentation
    ngens = len(P.generators)
    socle = _socle_words(G, g_sizes, g_orders)

    # decide which generators are deduced from a relator (single occurrence,
    # all other letters earlier) and which must be searched
    plan = []
    assigned = set()
    for t in range(ngens):
        deduction = None
        for w in P.relators:
            occ = [(pos, x) for pos, x in enumerate(w) if abs(x) - 1 == t]
            others_ok = all(abs(x) - 1 in assigned for x in w if abs(x) - 1 != t)
            if len(occ) == 1 and others_ok:
                deduction = (w, occ[0][0], 1 if occ[0][1] > 0 else -1)
                break
        if deduction is not None:
            plan.append(("deduce", t, deduction))
        else:
            plan.append(("search", t))
        assigned.add(t)

    pools = {}
    space = 1
    for step in plan:
        if step[0] != "search":
            continue
        t = step[1]
        g = G.gens[t]
        pool = np.nonzero((h_orders == int(g_orders[g])) & (h_sizes == int(g_sizes[g])))[0]
        if pool.size == 0:
            return NotIsomorphic("no candidate images for a generator")
        pools[t] = pool.astype(np.int32)
        space *= pool.size
    if space > cap:
        raise CapExceeded("iso_cap", f"search space {space} exceeds cap {cap}")

    searched = [step[1] for step in plan if step[0] == "search"]
    vector_gen = searched[-1] if searched else None

    def run(prefix_values, idx):
        if idx < len(searched) - 1:
            t = searched[idx]
            for h in pools[t].tolist():
                hit = run(prefix_values + [(t, h)], idx + 1)
                if hit is not None:
                    return hit
            return None
        # innermost searched generator is evaluated for its whole pool at once
        images = [None] * ngens
        for t, h in prefix_values:
            images[t] = h
        cands = pools[vector_gen] if vector_gen is not None else np.array([0], dtype=np.int32)
        if vector_gen is not None:
            images[vector_gen] = cands
        for step in plan:
            if step[0] == "deduce":
                t, (w, pos, sign) = step[1], step[2]
                pre = H.word_image(w[:pos], images)
                suf = H.word_image(w[pos + 1:], images)
                val = H.mul[H.inv[pre], H.inv[suf]]
                images[t] = H.inv[val] if sign < 0 else val
        ok = np.ones(cands.shape, dtype=bool)
        for w in P.relators:
            ok &= H.word_image(w, images) == H.id
        for w in socle:
            ok &= H.word_image(w, images) != H.id
        for ci in np.nonzero(ok)[0].tolist():
            final = [int(im[ci]) if isinstance(im, np.ndarray) else int(im)
                     for im in images]
            if H.generated(final).order != H.n:
                continue
            w = IsoWitness(kind="group", images=final, source_gens=list(G.gens))
            if verify_witness(w, G, H):
                return w
            raise AssertionError("accepted assignment failed verification")
        return None

    hit = run([], 0)
    return hit if hit is not None else NotIsomorphic("exhausted")


# -- nilpotent algebra isomorphism ------------------------------------------------

def _monomial_basis(A: QuotientAlgebra, gens):
    """A basis of A made of monomials in the given generators (BFS by word
    length, then generator order), or None if they do not generate."""
    from .gfq import EchelonBuilder, invert_matrix

    F = A.field
    d = A.dim
    basis = EchelonBuilder(F, d)
    keep_words, keep_vecs = [], []
    queue = [((i,), np.asarray(g, dtype=np.uint8)) for i, g in enumerate(gens)]
    qi = 0
    while qi < len(queue) and basis.dim < d:
        w, v = queue[qi]
        qi += 1
        if basis.add(v):
            keep_words.append(w)
            keep_vecs.append(v)
            for i, g in enumerate(gens):
                queue.append((w + (i,), A.mul(v, np.asarray(g, dtype=np.uint8))))
    if basis.dim != d:
        return None
    V = np.array(keep_vecs, dtype=np.uint8)
    return keep_words, V, invert_matrix(V, F)


def _algebra_generators(A: QuotientAlgebra):
    """Unit-vector generators of A modulo A^2, a monomial basis expressed as
    words in those generators, and the product tensor in that basis."""
    F = A.field
    d = A.dim
    sq = A.power_subspace()
    gens = []
    probe = sq.builder()
    for i in range(d):
        e = np.zeros(d, dtype=np.uint8)
        e[i] = 1
        if probe.add(e):
            gens.append(e)
    assert len(gens) == d - sq.dim
    mono = _monomial_basis(A, gens)
    if mono is None:
        raise ValueError("generators do not span (algebra not nilpotent?)")
    words, V, Vinv = mono
    # c[i, j] = coordinates of V_i * V_j in the V basis (x = coords @ V)
    c = np.zeros((d, d, d), dtype=np.uint8)
    for i in range(d):
        for j in range(d):
            c[i, j] = F.matmul(A.mul(V[i], V[j])[None, :], Vinv)[0]
    return gens, words, V, Vinv, c


def nilpotent_algebra_iso(A: QuotientAlgebra, B: QuotientAlgebra, cap: int = DEFAULT_CAPS.iso_cap):
    """Exhaustive isomorphism search between two nilpotent structure-constant
    algebras; the witness maps A's chosen generators to B elements."""
    if A.field is not B.field:
        raise ValueError("algebras over different fields")
    if A.nilpotency_degree() is None or B.nilpotency_degree() is None:
        raise ValueError("inputs must be nilpotent")
    if A.dim != B.dim:
        return NotIsomorphic("dimension mismatch")
    if A.power_subspace().dim != B.power_subspace().dim:
        return NotIsomorphic("square-dimension prune")
    F = A.field
    d = A.dim
    if d == 0:
        return IsoWitness(kind="algebra", images=[], source_gens=[])
    from .gfq import EchelonBuilder
    from .modalg import _enumerate_coords

    m = d - A.power_subspace().dim  # generators of A modulo A^2
    if F.q ** (d * m) > cap:
        raise CapExceeded("iso_cap", f"{F.q}^{d * m} assignments exceed cap {cap}")
    gens, words, V, Vinv, c = _algebra_generators(A)

    for flat in _enumerate_coords(F.q, d * m, chunk=1 << 14):
        imgs = flat.reshape(-1, m, d)
        N = imgs.shape[0]
        # evaluate every monomial word at the candidate images
        U = np.zeros((N, d, d), dtype=np.uint8)
        for j, w in enumerate(words):
            val = imgs[:, w[0], :]
            for t in w[1:]:
                val = B.mul_batch(val, imgs[:, t, :])
            U[:, j, :] = val
        ok = np.ones(N, dtype=bool)
        Ucols = U.transpose(1, 0, 2).reshape(d, N * d)  # row t: U[:, t, :] flattened
        for i in range(d):
            for j in range(d):
                lhs = F.matmul(c[i, j][None, :], Ucols)[0].reshape(N, d)
                rhs = B.mul_batch(U[:, i, :], U[:, j, :])
                ok &= (lhs == rhs).all(axis=1)
                if not ok.any():
                    break
            if not ok.any():
                break
        for ci in np.nonzero(ok)[0].tolist():
            if EchelonBuilder(F, d).add_block(U[ci]) != d:
                continue
            w = IsoWitness(kind="algebra",
                           images=[imgs[ci, t, :].copy() for t in range(m)],
                           source_gens=[g.copy() for g in gens])
            assert verify_witness(w, A, B)
            return w
    return NotIsomorphic("exhausted")


def verify_witness(w: IsoWitness, source, target) -> bool:
    """Full independent check of a witness; never trusts the search."""
    if w.kind == "group":
        G, H = source, target
        if not isinstance(G, FiniteGroup) or not isinstance(H, FiniteGroup):
            raise ValueError("group witness needs two groups")
        if G.elem_words is None:
            raise ValueError("source group must carry element words")
        if len(w.images) != len(G.gens) or not all(
                isinstance(h, (int, np.integer)) and 0 <= h < H.n for h in w.images):
            return False
        # all element words at once, padded with letter 0 (the identity)
        ngens = len(G.gens)
        images = np.asarray(w.images, dtype=np.int32)
        letter_image = np.concatenate([H.inv[images[::-1]], [H.id], images])
        depth = max(map(len, G.elem_words))
        letters = np.array([word + (0,) * (depth - len(word)) for word in G.elem_words],
                           dtype=np.int64).reshape(G.n, depth) + ngens
        the_map = np.full(G.n, H.id, dtype=np.int32)
        for col in letters.T:
            the_map = H.mul[the_map, letter_image[col]]
        w.full_map = the_map
        if sorted(the_map.tolist()) != list(range(H.n)):
            return False
        # phi(a*b) == phi(a)*phi(b) for every pair, a block of rows at a time
        step = max(1, (1 << 17) // G.n)
        return all(np.array_equal(the_map[G.mul[i:i + step]],
                                  H.mul[the_map[i:i + step]][:, the_map])
                   for i in range(0, G.n, step))

    if w.kind == "algebra":
        from .gfq import EchelonBuilder

        A, B = source, target
        if A.dim != B.dim:
            return False
        d, F = A.dim, A.field

        def is_codes(v):
            try:
                v = np.asarray(v)
            except ValueError:  # a ragged nesting is no vector
                return False
            return v.shape == (d,) and v.dtype.kind in "iu" and bool(((v >= 0) & (v < F.q)).all())

        if len(w.images) != len(w.source_gens) or not all(
                map(is_codes, [*w.images, *w.source_gens])):
            return False
        if d == 0:
            return True
        mono = _monomial_basis(A, w.source_gens)
        if mono is None:
            return False  # claimed source generators do not generate A
        words, V, Vinv = mono
        U = np.zeros((d, d), dtype=np.uint8)
        for j, word in enumerate(words):
            val = np.asarray(w.images[word[0]], dtype=np.uint8)
            for t in word[1:]:
                val = B.mul(val, np.asarray(w.images[t], dtype=np.uint8))
            U[j] = val
        # linear map on the standard basis: e_i -> coords_V(e_i) @ U
        M = F.matmul(Vinv, U)
        w.full_map = M
        if EchelonBuilder(F, d).add_block(M) != d:
            return False
        for i in range(d):
            for j in range(d):
                lhs = F.matmul(A.sc[i, j][None, :], M)[0]
                rhs = B.mul(M[i], M[j])
                if not np.array_equal(lhs, rhs):
                    return False
        return True

    raise ValueError(f"unknown witness kind {w.kind!r}")
