"""Cayley-table group engine.

Groups are immutable multiplication tables on element indices 0..n-1; all
subgroup operators, characteristic series, and section invariants work on
index sets inside a parent group. A subgroup is a trusted membership mask
plus the generators `FiniteGroup.generated` kept; no product route forms a
subgroup from an arbitrary element set, and none builds a group from an
arbitrary table: each builder of a `FiniteGroup` proves its table by
construction. Everything is deterministic: kept generators follow seed
order, coset representatives are minimal indices, conjugacy classes are
ordered by least representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caps import DEFAULT_CAPS
from .errors import CapExceeded

# entries per block of a pass over the table, so no pass allocates n x n
BLOCK = 1 << 16


def table_dtype(n: int):
    """The entry type of an order-n Cayley table: 2 bytes while every index fits."""
    return np.int16 if n <= np.iinfo(np.int16).max else np.int32


def _index_set(a, n: int) -> np.ndarray:
    """The distinct values of an index array a in [0, n), sorted: one mask of
    length n, O(n) (plain np.unique sorts, and its first call loads numpy.ma)."""
    mask = np.zeros(n, dtype=bool)
    mask[a] = True
    return np.flatnonzero(mask)


def _is_prime_power(n: int):
    """(p, e) with n = p^e, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            return (p, e) if n == 1 else None
        p += 1
    return (n, 1)


def _log_p(n: int, p: int) -> int:
    """The exact r with p^r = n."""
    r = 0
    while n > 1 and n % p == 0:
        n //= p
        r += 1
    assert n == 1, "not a power of p"
    return r


class FiniteGroup:
    """A finite group as an n x n multiplication table of element indices,
    stored as `table_dtype(n)`; the table is the only n x n array the group
    engine allocates: every other pass reads it in row blocks or through
    the generator columns.

    The one constructor trusts its caller, which has proved that mul is a
    group table with identity `ident`, that inv is its inverse map and that
    gens generate it. Three builders do: `words._table_group` proves a coset
    action regular, `Subgroup.as_group` restricts a group table to a closed
    subset and `quotient_group` multiplies the cosets of a normal subgroup
    through their representatives (notes/decisions.md, "Subgroup and
    quotient tables are proved by construction"). The checked constructor
    for an arbitrary table is `checked_group` in `tests/oracles.py`."""

    def __init__(self, mul, ident, inv, gens, presentation=None, elem_words=None):
        self.n = mul.shape[0]
        self.mul = mul
        self.mul.setflags(write=False)
        self.id = ident
        self.inv = inv
        self.inv.setflags(write=False)
        self.presentation = presentation
        self.elem_words = elem_words
        self._cache = {}
        self.gens = tuple(int(g) for g in gens)

    # -- element arithmetic ----------------------------------------------------

    def power(self, g: int, e: int) -> int:
        if e < 0:
            return self.power(int(self.inv[g]), -e)
        out, base = self.id, int(g)
        mul = self.mul
        while e:
            if e & 1:
                out = int(mul[out, base])
            base = int(mul[base, base])
            e >>= 1
        return out

    def word_image(self, word, images):
        """Evaluate a words-module word at the given generator images; an
        image may be an element or an array of candidates, and evaluation
        broadcasts over them."""
        out = self.id
        mul, inv = self.mul, self.inv
        for x in word:
            img = images[abs(x) - 1]
            out = mul[out, img if x > 0 else inv[img]]
        return out

    def pow_map(self, e: int) -> np.ndarray:
        """The array g -> g^e over all elements."""
        key = ("pow_map", e)
        if key not in self._cache:
            ar = np.arange(self.n, dtype=np.int32)
            if e == 0:
                out = np.full(self.n, self.id, dtype=np.int32)
            elif e == 1:
                out = ar.copy()
            elif e % 2 == 0:
                h = self.pow_map(e // 2)
                out = self.mul[h, h]
            else:
                out = self.mul[self.pow_map(e - 1), ar]
            out.setflags(write=False)
            self._cache[key] = out
        return self._cache[key]

    def element_orders(self) -> np.ndarray:
        if "orders" not in self._cache:
            n = self.n
            ar = np.arange(n, dtype=np.int32)
            orders = np.zeros(n, dtype=np.int64)
            cur = ar.copy()
            k = 1
            while (orders == 0).any():
                hit = (cur == self.id) & (orders == 0)
                orders[hit] = k
                cur = self.mul[cur, ar]
                k += 1
                assert k <= n + 1
            orders.setflags(write=False)
            self._cache["orders"] = orders
        return self._cache["orders"]

    def conj_perm(self, g: int) -> np.ndarray:
        """The permutation x -> g^-1 x g."""
        return self.mul[self.mul[int(self.inv[g])], g]

    # -- subgroup plumbing -------------------------------------------------------

    def generated(self, seed) -> "Subgroup":
        """The subgroup generated by the seed indices, walked in order; an
        element is kept as a generator only if it is not yet a member."""
        mul = self.mul
        seed = np.asarray(seed, dtype=np.int32)
        member = np.zeros(self.n, dtype=bool)
        member[self.id] = True
        gens, start = [], 0
        while (rest := np.flatnonzero(~member[seed[start:]])).size:
            start += int(rest[0])
            gens.append(int(seed[start]))
            # the members times the new generator, then new ones times all
            frontier, cols = np.flatnonzero(member), gens[-1:]
            while frontier.size:
                fresh = np.zeros(self.n, dtype=bool)
                fresh[mul[np.ix_(frontier, cols)]] = True
                fresh &= ~member
                member |= fresh
                frontier, cols = np.flatnonzero(fresh), gens
        return Subgroup(self, member, gens)

    def full_subgroup(self) -> "Subgroup":
        if "full" not in self._cache:
            self._cache["full"] = Subgroup(self, np.ones(self.n, dtype=bool))
        return self._cache["full"]

    def trivial_subgroup(self) -> "Subgroup":
        return self.generated([])

    def prime_power(self):
        return _is_prime_power(self.n)

    def require_p_group(self) -> tuple:
        pp = self.prime_power()
        if pp is None:
            raise ValueError(f"group of order {self.n} is not a p-group")
        return pp

    def label(self, i: int) -> str:
        """Element i as its printed defining word, or as its index when the
        group carries no words."""
        if self.elem_words is None or self.presentation is None:
            return str(i)
        from .words import print_word
        return print_word(self.elem_words[i], self.presentation.generators) or "1"

    def __repr__(self):
        return f"FiniteGroup(order={self.n})"


class Subgroup:
    """A subgroup of a parent FiniteGroup: a trusted membership mask, its
    sorted int32 index set, and generators."""

    __slots__ = ("parent", "elems", "_member", "_key", "_gens")

    def __init__(self, parent: FiniteGroup, member: np.ndarray, gens=None):
        self.parent = parent
        self._member = member
        self._member.setflags(write=False)
        self.elems = np.flatnonzero(member).astype(np.int32)
        self.elems.setflags(write=False)
        self._key = (id(parent), self.elems.tobytes())
        self._gens = gens

    @property
    def gens(self) -> list:
        """The kept generators, or the greedy walk of the sorted elements."""
        if self._gens is None:
            self._gens = self.parent.generated(self.elems).gens
        return self._gens

    @property
    def order(self) -> int:
        return int(self.elems.size)

    def contains(self, g: int) -> bool:
        return bool(self._member[g])

    def contains_set(self, other: "Subgroup") -> bool:
        return bool(self._member[other.elems].all())

    def is_normal(self) -> bool:
        G = self.parent
        for g in G.gens:
            if not self._member[G.conj_perm(g)[self.elems]].all():
                return False
        return True

    def as_group(self):
        """This subgroup as a standalone FiniteGroup plus the index embedding.
        The parent's table restricted to the closed set elems is a group
        table with the parent's identity and inverses, renumbered."""
        G, elems = self.parent, self.elems
        local = np.full(G.n, -1, dtype=np.int32)
        local[elems] = np.arange(self.order, dtype=np.int32)
        table = local[G.mul[np.ix_(elems, elems)]].astype(table_dtype(self.order))
        return FiniteGroup(table, int(local[G.id]), local[G.inv[elems]], local[self.gens]), elems

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subgroup(order={self.order} in {self.parent})"


# -- spec operations ----------------------------------------------------------

def subgroup_product(A: Subgroup, B: Subgroup) -> Subgroup:
    """The set product AB, built as ⟨A, B⟩; the order check asserts that the
    two agree, as they do when A or B is normal."""
    G = A.parent
    assert B.parent is G
    S = G.generated(A.gens + B.gens)
    assert S.order * _intersection_order(A, B) == A.order * B.order
    return S


def _intersection_order(A: Subgroup, B: Subgroup) -> int:
    return int((A._member & B._member).sum())


def subgroup_intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    assert A.parent is B.parent
    return Subgroup(A.parent, A._member & B._member)


def commutator_subgroup(A: Subgroup, B: Subgroup) -> Subgroup:
    """[A, B] for A ⊆ B, generated by [a, b] over a in A.gens and b in B.
    B normalizes that set, since [a,b]^c = [a,c]^-1 [a,bc]."""
    assert B.contains_set(A)
    G = A.parent
    mul, inv = G.mul, G.inv
    a = np.asarray(A.gens, dtype=np.int32)[:, None]
    b = B.elems[None, :]
    return G.generated(mul[mul[inv[a], inv[b]], mul[a, b]].ravel())


def center(G: FiniteGroup) -> Subgroup:
    """The centralizer of G.gens, which generate G."""
    if "center" not in G._cache:
        mul = G.mul
        central = np.ones(G.n, dtype=bool)
        for g in G.gens:
            central &= mul[:, g] == mul[g]
        G._cache["center"] = Subgroup(G, central)
    return G._cache["center"]


def centralizer(G: FiniteGroup, g: int) -> Subgroup:
    return Subgroup(G, G.mul[g] == G.mul[:, g])


def agemo(X, k: int) -> Subgroup:
    """℧_k: the subgroup generated by p^k-th powers (of a group or subgroup)."""
    G, elems = _unpack(X)
    p, _ = G.require_p_group()
    powers = G.pow_map(p**k)[elems]
    return G.generated(_index_set(powers, G.n))


def omega(X, k: int) -> Subgroup:
    """Ω_k: generated by the elements of order dividing p^k."""
    G, elems = _unpack(X)
    p, _ = G.require_p_group()
    pk = G.pow_map(p**k)[elems]
    return G.generated(elems[pk == G.id])


def omega_in(G: FiniteGroup, N: Subgroup, k: int) -> Subgroup:
    """Ω_k(G:N): generated by the g whose p^k-th power lies in N."""
    p, _ = G.require_p_group()
    if N.parent is not G:
        raise ValueError("N is not a subgroup of G")
    if not N.is_normal():
        raise ValueError("N must be normal in G")
    pk = G.pow_map(p**k)
    return G.generated(np.nonzero(N._member[pk])[0])


def _unpack(X):
    if isinstance(X, FiniteGroup):
        return X, np.arange(X.n, dtype=np.int32)
    return X.parent, X.elems


@dataclass(frozen=True)
class CharSeries:
    lower_central: list  # γ_1 = G down to the first trivial term
    derived: Subgroup
    center: Subgroup
    frattini: Subgroup
    nilpotency_class: int


def char_series(G: FiniteGroup) -> CharSeries:
    if "char_series" not in G._cache:
        p, _ = G.require_p_group()
        full = G.full_subgroup()
        lc = [full]
        while lc[-1].order > 1:
            lc.append(commutator_subgroup(lc[-1], full))
        derived = lc[1] if len(lc) > 1 else lc[0]
        frat = G.generated(_index_set(np.concatenate([G.pow_map(p), derived.elems]), G.n))
        G._cache["char_series"] = CharSeries(
            lower_central=lc,
            derived=derived,
            center=center(G),
            frattini=frat,
            nilpotency_class=len(lc) - 1,
        )
    return G._cache["char_series"]


def _check_normal_in(X: Subgroup, N: Subgroup):
    """Raise ValueError unless N is a subgroup of X normalized by X's generators."""
    G = X.parent
    if N.parent is not G or not X.contains_set(N):
        raise ValueError("subgroup is not contained in X")
    for x in X.gens:
        if not N._member[G.conj_perm(x)[N.elems]].all():
            raise ValueError("subgroup is not normal in X")


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
    Q = FiniteGroup(proj[G.mul[np.ix_(reps, reps)]].astype(table_dtype(m)), int(proj[G.id]),
                    proj[G.inv[reps]], _index_set(proj[X.gens], m))
    assert Q.n * N.order == X.order
    return Q, proj


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class. It carries no centralizer: a reader that needs one
    builds it with `centralizer(G, c.rep)`."""
    rep: int
    elems: np.ndarray
    length: int


def conjugacy_classes(G: FiniteGroup):
    """Classes in order of least representative: the orbits of conjugation by
    the generators, each element labelled with the least element of its orbit
    by min-label propagation."""
    if "classes" not in G._cache:
        n, mul = G.n, G.mul
        perms = [G.conj_perm(g) for g in G.gens]
        label = np.arange(n)
        while True:
            prev = label
            for perm in perms:
                label = np.minimum(label, label[perm])
            label = label[label]
            if np.array_equal(label, prev):
                break
        reps = np.flatnonzero(label == np.arange(n))
        order = np.argsort(label, kind="stable")
        lengths = np.bincount(label)[reps]
        # orbit-stabilizer: |class of z| * |C(z)| = n, |C(z)| counted in row blocks
        step = max(1, BLOCK // n)
        for i in range(0, reps.size, step):
            r = reps[i:i + step]
            cent = (mul[r] == mul[:, r].T).sum(axis=1)
            assert np.array_equal(lengths[i:i + step] * cent, np.full(r.size, n))
        out = [ConjClass(rep=g, elems=cls, length=len(cls))
               for g, cls in zip(reps.tolist(), np.split(order, np.cumsum(lengths)[:-1]))]
        G._cache["classes"] = out
    return G._cache["classes"]


def abelian_type(X, Y: Subgroup | None = None) -> tuple:
    """Invariant-factor type of an abelian p-group X or abelian section X/Y
    (Y normal in X; None means trivial), read without building X/Y: if X/Y
    has type (p^e_1, ..., p^e_r), then |{x in X : x^(p^k) in Y}| =
    |Y| p^(min(e_1, k) + ... + min(e_r, k)), so the step of that exponent
    from k - 1 to k counts the e_i >= k.
    """
    if isinstance(X, FiniteGroup):
        X = X.full_subgroup()
    G = X.parent
    if Y is None:
        Y = G.trivial_subgroup()
    _check_normal_in(X, Y)
    index = X.order // Y.order
    if index == 1:
        return ()
    if (pe := _is_prime_power(index)) is None:
        raise ValueError(f"section of order {index} is not a p-group")
    p, e = pe
    # with Y normal, X/Y is abelian iff [a, b] in Y for generators a, b of X
    mul, inv = G.mul, G.inv
    a = np.asarray(X.gens, dtype=np.int32)
    if not Y._member[mul[mul[inv[a][:, None], inv[a]], mul[a[:, None], a]]].all():
        raise ValueError("section is not abelian")
    logs = [0]
    while logs[-1] < e:
        hits = int(Y._member[G.pow_map(p ** len(logs))[X.elems]].sum())
        logs.append(_log_p(hits // Y.order, p))
    ge = [hi - lo for lo, hi in zip(logs, logs[1:])] + [0]  # ge[k - 1] = #{i : e_i >= k}
    return tuple(p**k for k in range(len(ge) - 1, 0, -1) for _ in range(ge[k - 1] - ge[k]))


def dimension_subgroups_lazard(G: FiniteGroup, n_max: int | None = None):
    """Jennings series by Lazard's product formula:
    D_n = ∏ ℧_j(γ_i) over i * p^j >= n.

    Returns [D_1, D_2, ...]; without n_max the list ends at the first trivial
    term.
    """
    p, _ = G.require_p_group()
    lc = char_series(G).lower_central
    out = []
    n = 1
    while True:
        seeds = [np.array([G.id], dtype=np.int32)]
        for i, gamma in enumerate(lc, start=1):
            if gamma.order == 1:
                break
            pj, j = 1, 0
            while i * pj < n:
                pj *= p
                j += 1
            seeds.append(G.pow_map(pj)[gamma.elems])
        Dn = G.generated(_index_set(np.concatenate(seeds), G.n))
        out.append(Dn)
        if n_max is not None and n >= n_max:
            break
        if n_max is None and Dn.order == 1:
            break
        n += 1
    return out


def jennings_ranks(G: FiniteGroup):
    """Ranks of the elementary abelian factors D_n/D_{n+1}."""
    p, _ = G.require_p_group()
    D = dimension_subgroups_lazard(G)
    if D[-1].order != 1:
        D = D + [G.trivial_subgroup()]
    ranks = [_log_p(a.order // b.order, p) for a, b in zip(D, D[1:])]
    while ranks and ranks[-1] == 0:
        ranks.pop()
    return ranks


def min_generators(X) -> int:
    """Rank of X/Frat(X) (minimal number of generators of a p-group)."""
    G, elems = _unpack(X)
    if elems.size == 1:
        return 0
    p, _ = G.require_p_group()
    S = X if isinstance(X, Subgroup) else G.full_subgroup()
    derived = commutator_subgroup(S, S)
    frat = G.generated(np.concatenate([G.pow_map(p)[elems], derived.elems]))
    return _log_p(elems.size // frat.order, p)


def exponent(G: FiniteGroup) -> int:
    return int(np.lcm.reduce(G.element_orders()))


def is_metacyclic(G: FiniteGroup):
    """(True, witness cyclic normal subgroup with cyclic quotient) or (False, None)."""
    cyclic = dict.fromkeys(G.generated([g]) for g in range(G.n))
    for S in sorted(cyclic, key=lambda S: (-S.order, S.elems.tolist())):
        if not S.is_normal():
            continue
        Q, _ = quotient_group(G, S)
        if exponent(Q) == Q.n:
            return True, S
    return False, None


def maximal_elem_abelian_classes(G: FiniteGroup, cap: int = DEFAULT_CAPS.elemab_cap) -> dict:
    """rank -> number of conjugacy classes of maximal elementary abelian subgroups.

    The search grows elementary abelian subgroups by one commuting element of
    order p at a time from Ω_1(Z(G)), which every maximal one E contains,
    since E·Ω_1(Z(G)) is elementary abelian. `cap` bounds the number of
    subgroups the search visits.
    """
    p, _ = G.require_p_group()
    mul = G.mul
    order_p = np.nonzero((G.pow_map(p) == G.id) & (np.arange(G.n) != G.id))[0].astype(np.int32)
    root = tuple(omega(center(G), 1).elems.tolist())
    # subgroup -> the elements added to Ω_1(Z(G)); commuting with the subgroup
    # means commuting with these
    level = {root: []}
    visited = {root}
    maximal = []
    while level:
        nxt = {}
        for key, added in sorted(level.items()):
            elems = np.array(key, dtype=np.int32)
            commuting = (mul[np.ix_(order_p, added)] == mul[np.ix_(added, order_p)].T).all(axis=1)
            ext = order_p[commuting]
            ext = ext[~np.isin(ext, elems)]
            if ext.size == 0:
                maximal.append(key)
                continue
            for y in ext.tolist():
                # extension of an elementary abelian set by a commuting order-p
                # element: the closure is the set product with <y>
                new = elems
                acc = [elems]
                for _ in range(p - 1):
                    new = mul[new, y]
                    acc.append(new)
                child = tuple(sorted(np.concatenate(acc).tolist()))
                if child not in visited:
                    if len(visited) >= cap:
                        raise CapExceeded("elemab_cap", f"{len(visited) + 1} elementary abelian "
                                          f"subgroups exceed the elemab cap {cap}")
                    visited.add(child)
                    nxt[child] = added + [y]
        level = nxt

    # conjugacy classes of the maximal ones
    classes = {}
    assigned = {}
    for key in sorted(maximal):
        if key in assigned:
            continue
        orbit = {key}
        frontier = [key]
        while frontier:
            cur = frontier.pop()
            arr = np.array(cur, dtype=np.int32)
            for g in G.gens:
                img = tuple(sorted(G.conj_perm(g)[arr].tolist()))
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        rank = _log_p(len(key), p)
        for s in orbit:
            assigned[s] = key
        classes[rank] = classes.get(rank, 0) + 1
    return dict(sorted(classes.items()))


def max_elem_abelian_direct_factor(G: FiniteGroup, cap: int = DEFAULT_CAPS.direct_factor_cap) -> int:
    """Rank of the largest elementary abelian direct factor of G.

    A central elementary abelian subgroup A splits off as a direct factor
    exactly when A ∩ Frat(G) = 1 (pull back a complement of its image in
    G/Frat(G)), so the answer is dim Ω_1(Z(G)) - dim(Ω_1(Z(G)) ∩ Frat(G)).
    """
    p, _ = G.require_p_group()
    if G.n > cap:
        raise CapExceeded("direct_factor_cap", f"|G| = {G.n} exceeds the direct-factor cap {cap}")
    Z = center(G)
    om = omega(Z, 1)
    frat = char_series(G).frattini
    return _log_p(om.order // _intersection_order(om, frat), p)
