"""Brute-force isomorphism decisions with explicit, independently verified
witnesses: generator-image search for small groups, and exhaustive
generator-assignment search for small nilpotent structure-constant algebras.

NotIsomorphic is only ever returned after a provably exhaustive search. The
group search is pruned by element order, class size and the socle, the
algebra search by section dimensions and to onto maps: the invariants are
preserved by every isomorphism, the socle prune removes only homomorphisms
that are not injective, and the onto prune only maps that are not
surjective. No pruning is heuristic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from .caps import DEFAULT_CAPS
from .errors import CapExceeded
from .groups import FiniteGroup, _is_prime_power, conjugacy_classes

if TYPE_CHECKING:
    from .modalg import QuotientAlgebra


class IsoWitness:
    __slots__ = ("kind", "images", "source_gens", "full_map")

    def __init__(self, kind: str, images: list, source_gens: list, full_map=None):
        self.kind = kind  # "group" | "algebra"
        self.images = images  # per source generator: an H element index / a B coordinate vector
        self.source_gens = source_gens  # element indices / coordinate vectors
        self.full_map = full_map


class NotIsomorphic:
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


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
    earlier generators are deduced instead of searched. An assignment that
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
    socle = _socle_words(G, g_sizes, g_orders)
    # a generator that occurs once in a relator whose other letters are all
    # earlier generators is deduced from it; the others are searched
    deduced, pools = {}, {}
    for t, g in enumerate(G.gens):
        for w in P.relators:
            later = [pos for pos, x in enumerate(w) if abs(x) - 1 >= t]
            if len(later) == 1 and abs(w[later[0]]) - 1 == t:
                deduced[t] = (w, later[0])
                break
        else:
            pools[t] = np.flatnonzero((h_orders == g_orders[g]) & (h_sizes == g_sizes[g]))
            if pools[t].size == 0:
                return NotIsomorphic("no candidate images for a generator")
    space = math.prod(pool.size for pool in pools.values())
    if space > cap:
        raise CapExceeded("iso_cap", f"search space {space} exceeds cap {cap}")

    # lexicographic over the searched generators: each prefix of scalar
    # images meets the whole pool of the last one at once, or a
    # one-element vector when every generator is deduced
    searched = [*pools]
    cands = pools[searched[-1]] if searched else np.zeros(1, dtype=np.intp)
    for prefix in itertools.product(*(pools[t].tolist() for t in searched[:-1])):
        images = dict(zip(searched, [*prefix, cands]))
        for t, (w, pos) in deduced.items():  # in order of t
            val = H.mul[H.inv[H.word_image(w[:pos], images)],
                        H.inv[H.word_image(w[pos + 1:], images)]]
            images[t] = val if w[pos] > 0 else H.inv[val]
        ok = np.ones(cands.shape, dtype=bool)
        for w in P.relators:
            ok &= H.word_image(w, images) == H.id
        for w in socle:
            ok &= H.word_image(w, images) != H.id
        for ci in np.flatnonzero(ok).tolist():
            final = [int(images[t][ci] if np.ndim(images[t]) else images[t])
                     for t in range(len(G.gens))]
            if H.generated(final).order != H.n:
                continue
            w = IsoWitness(kind="group", images=final, source_gens=list(G.gens))
            if verify_witness(w, G, H):
                return w
            raise AssertionError("accepted assignment failed verification")
    return NotIsomorphic("exhausted")


# -- nilpotent algebra isomorphism ------------------------------------------------

def _monomial_basis(A: QuotientAlgebra, gens):
    """A presented on the given generators g_t: the words of a basis V of
    monomials, the inverse of V and the relations, or None if the g_t do
    not generate A.

    The basis monomials are kept in BFS order (word length, then generator
    order). Every product V_j·g_t is either a later basis monomial or a
    relation (j, t, coordinates of V_j·g_t in V). A generator that depends
    on the basis before it is skipped. One tagged echelon over the rows
    [V_j | e_j] decides independence and reads every coordinate in V.
    """
    from .gfq import TaggedEchelon

    F, d = A.field, A.dim
    basis = TaggedEchelon(F, d, d)
    tags = np.eye(d + 1, d, dtype=np.uint8)  # row d: no tag once the basis is full
    gens = [np.asarray(g, dtype=np.uint8) for g in gens]
    index, products = {}, []
    queue = [((t,), g) for t, g in enumerate(gens)]
    for w, v in queue:  # the queue grows while it is read
        if basis.add(np.concatenate([v, tags[len(index)]])):
            index[w] = len(index)
            queue.extend((w + (t,), A.mul(v, g)) for t, g in enumerate(gens))
        elif len(w) > 1:
            products.append((index[w[:-1]], w[-1], v))
    if basis.dim != d:
        return None
    coords = basis.solve(np.array([v for *_, v in products], dtype=np.uint8).reshape(-1, d))
    return list(index), basis.solve(np.eye(d, dtype=np.uint8)), [
        (j, t, c) for (j, t, _), c in zip(products, coords)]


def _basis_images(words, images, mul):
    """The images of the basis monomials under a map that sends generator t
    to images[t]: each is its prefix's image times one generator image."""
    out = {}
    for w in words:
        out[w] = images[w[0]] if len(w) == 1 else mul(out[w[:-1]], images[w[-1]])
    return list(out.values())


def _relations_hold(B: QuotientAlgebra, relations, U, imgs):
    """Indices of the candidates whose basis images U (N, d, d) and generator
    images imgs (N, m, d) satisfy every relation (j, t, c): c·U = U_j·imgs_t.
    Each relation is checked on the candidates that passed those before it."""
    F, d = B.field, B.dim
    live = np.arange(len(U))
    for j, t, c in relations:
        lhs = F.matmul(c[None, :], U[live].transpose(1, 0, 2).reshape(d, -1)).reshape(-1, d)
        live = live[(lhs == B.mul_batch(U[live, j], imgs[live, t])).all(axis=1)]
        if live.size == 0:
            break
    return live


def _live_relations(A: QuotientAlgebra, B: QuotientAlgebra, words, relations):
    """The relations that a candidate can fail. When A and B have the same
    nilpotency degree e, a relation whose monomial V_j·g_t has word length
    at least e holds for every map: its left side is 0 in A^e = 0 and its
    right side is a product of that many images, in B^e = 0."""
    e = A.nilpotency_degree()
    if e != B.nilpotency_degree():
        return relations
    return [(j, t, c) for j, t, c in relations if len(words[j]) + 1 < e]


def nilpotent_algebra_iso(A: QuotientAlgebra, B: QuotientAlgebra, cap: int = DEFAULT_CAPS.iso_cap):
    """Exhaustive isomorphism search between two nilpotent structure-constant
    algebras; the witness maps A's chosen generators to B elements.

    A candidate is a linear map that respects every relation of A's
    presentation: it then respects every product (notes/decisions.md, "The
    algebra search reads a presentation"), and every homomorphism passes.
    Only candidates whose generator images span B modulo B^2 are checked: a
    homomorphism is onto exactly then, and onto is bijective at equal
    dimension (notes/decisions.md, "The algebra search visits only onto
    maps"). So the first candidate that passes is the witness.
    """
    if A.field is not B.field:
        raise ValueError("algebras over different fields")
    if A.nilpotency_degree() is None or B.nilpotency_degree() is None:
        raise ValueError("inputs must be nilpotent")
    if A.dim != B.dim:
        return NotIsomorphic("dimension mismatch")
    if A.power_subspace().dim != B.power_subspace().dim:
        return NotIsomorphic("square-dimension prune")
    F, d = A.field, A.dim
    if d == 0:
        return IsoWitness(kind="algebra", images=[], source_gens=[])
    from .gfq import EchelonBuilder, _enumerate_coords, invertible

    m = d - A.power_subspace().dim  # generators of A modulo A^2
    if F.q ** (d * m) > cap:
        raise CapExceeded("iso_cap", f"{F.q}^{d * m} assignments exceed cap {cap}")
    # unit vectors spanning A modulo A^2, which generate the nilpotent A
    probe = A.power_subspace().builder()
    gens = [e for e in np.eye(d, dtype=np.uint8) if probe.add(e)]
    words, _, relations = _monomial_basis(A, gens)
    relations = _live_relations(A, B, words, relations)
    # B modulo B^2 in coordinates: the m columns off the pivots of B^2
    square = B.power_subspace()
    top = np.ones(d, dtype=bool)
    top[list(square.pivots)] = False

    for flat in _enumerate_coords(F.q, d * m, "iso_cap", chunk=1 << 12):
        mod_square = square.sift(flat.reshape(-1, d))[:, top].reshape(-1, m, m)
        imgs = flat.reshape(-1, m, d)[invertible(mod_square, F)]
        if not len(imgs):
            continue
        U = np.stack(_basis_images(words, imgs.transpose(1, 0, 2), B.mul_batch), axis=1)
        hits = _relations_hold(B, relations, U, imgs)
        if hits.size:
            ci = int(hits[0])
            if EchelonBuilder(F, d).add_block(U[ci]) != d:
                raise AssertionError("an onto homomorphism is not of full rank")
            w = IsoWitness(kind="algebra", images=[u.copy() for u in imgs[ci]],
                           source_gens=[g.copy() for g in gens])
            if not verify_witness(w, A, B):
                raise AssertionError("accepted assignment failed verification")
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
        # phi(x*s) == phi(x)*phi(s) for every x and generator s: then phi is
        # a homomorphism, since the generators generate G (notes/decisions.md,
        # "A group witness is checked on its generators")
        return all(np.array_equal(the_map[G.mul[:, s]], H.mul[the_map, the_map[s]])
                   for s in G.gens)

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
        presentation = _monomial_basis(A, w.source_gens)
        if presentation is None:
            return False  # claimed source generators do not generate A
        words, Vinv, _ = presentation
        images = np.array(w.images, dtype=np.uint8)
        # linear map on the standard basis: e_i -> coords_V(e_i) @ (basis images)
        M = F.matmul(Vinv, np.array(_basis_images(words, images, B.mul)))
        w.full_map = M
        # a generator the basis skipped has its stated image checked here
        if not np.array_equal(F.matmul(np.array(w.source_gens, dtype=np.uint8), M), images):
            return False
        if EchelonBuilder(F, d).add_block(M) != d:
            return False
        # all d² products at once: lhs[i, j] = M(e_i e_j) = A.sc[i, j] @ M,
        # and M(e_i)M(e_j) = sum_b M[j, b] R[i, b] with R[i] = M[i] @ B.sc,
        # one product over b whose rows come out indexed (j, i)
        lhs = F.matmul(A.sc.reshape(d * d, d), M).reshape(d, d, d)
        R = F.matmul(M, B.sc.reshape(d, d * d)).reshape(d, d, d)
        rhs = F.matmul(M, R.transpose(1, 0, 2).reshape(d, d * d)).reshape(d, d, d)
        return np.array_equal(lhs, rhs.transpose(1, 0, 2))

    raise ValueError(f"unknown witness kind {w.kind!r}")
