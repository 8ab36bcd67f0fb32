"""Group presentations: a small word grammar and Todd-Coxeter coset enumeration
over a cyclic subgroup, lifted to the group's regular action.

Grammar (whitespace ignored):

    word   := term { '*' term }
    term   := factor [ '^' signed-integer ]
    factor := generator-name | '(' word ')' | '[' word ',' word ']'

The commutator bracket [x, y] expands to x^-1 * y^-1 * x * y before
enumeration. Words are stored fully expanded and freely reduced, as tuples of
signed 1-based generator numbers (-g means the inverse of generator g-1).
"""

from __future__ import annotations

import json

import numpy as np

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, SpecParseError

EXPONENT_CAP = 1 << 20

Word = tuple  # of signed ints


def word_concat(*parts) -> Word:
    """Concatenate words with free reduction."""
    stack = []
    for part in parts:
        for x in part:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
    return tuple(stack)


def word_inverse(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def word_power(w: Word, e: int) -> Word:
    if e < 0:
        w, e = word_inverse(w), -e
    return word_concat(*([w] * e))


def word_commutator(u: Word, v: Word) -> Word:
    return word_concat(word_inverse(u), word_inverse(v), u, v)


class _Parser:
    def __init__(self, text: str, gens):
        self.text = text
        self.pos = 0
        self.index = {name: i for i, name in enumerate(gens)}

    def error(self, message):
        raise SpecParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_word(self, closers=""):
        terms = []
        while True:
            c = self.peek()
            if c == "" or c in closers:
                break
            terms.append(self.parse_term())
            if self.peek() == "*":
                self.pos += 1
                if self.peek() == "" or self.peek() in closers:
                    self.error("dangling '*'")
            elif self.peek() not in ("",) and self.peek() not in closers:
                self.error("expected '*' between terms")
        return word_concat(*terms)

    def parse_term(self):
        base = self.parse_factor()
        if self.peek() == "^":
            self.pos += 1
            e = self.parse_int()
            if len(base) * abs(e) > EXPONENT_CAP:
                self.error(f"power too long (more than {EXPONENT_CAP} letters)")
            return word_power(base, e)
        return base

    def parse_factor(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            w = self.parse_word(closers=")")
            self.expect(")")
            return w
        if c == "[":
            self.pos += 1
            u = self.parse_word(closers=",")
            self.expect(",")
            v = self.parse_word(closers="]")
            self.expect("]")
            return word_commutator(u, v)
        if c.isalpha() or c == "_":
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.index:
                self.pos = start
                self.error(f"unknown generator {name!r}")
            return (self.index[name] + 1,)
        self.error("expected a generator, '(' or '['")

    def parse_int(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        # isdecimal, not isdigit: int() refuses digits such as '²'
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer exponent")
        # int() refuses literals of more than 4300 digits, leading zeros
        # included, so only the significant digits are converted
        magnitude = self.text[digits:self.pos].lstrip("0") or "0"
        if len(magnitude) > len(str(EXPONENT_CAP)) or int(magnitude) > EXPONENT_CAP:
            self.error(f"exponent overflow (|e| > {EXPONENT_CAP})")
        return int(self.text[start:digits] + magnitude)


def parse_word(text: str, gens) -> Word:
    """Parse text into a freely reduced word over the named generators."""
    p = _Parser(text, gens)
    try:
        w = p.parse_word()
    except RecursionError:
        p.error("word nested too deeply")
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return w


def print_word(w: Word, gens) -> str:
    """Inverse of parse_word on normal-form words (empty word prints as '')."""
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        g = abs(w[i]) - 1
        e = (j - i) if w[i] > 0 else -(j - i)
        parts.append(gens[g] if e == 1 else f"{gens[g]}^{e}")
        i = j
    return "*".join(parts)


class Presentation:
    """A finite presentation; relators are words set equal to the identity."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple, relators: tuple):
        self.generators = generators
        self.relators = relators  # of Words
        if len(set(self.generators)) != len(self.generators):
            raise SpecParseError("generator names must be unique")
        for g, name in enumerate(self.generators, start=1):
            # a name the grammar cannot read back could appear in no relator
            try:
                word = parse_word(name, self.generators)
            except SpecParseError:
                word = None
            if word != (g,):
                raise SpecParseError(f"generator name {name!r} is not an identifier")
        ngens = len(self.generators)
        for w in self.relators:
            for x in w:
                if not (1 <= abs(x) <= ngens):
                    raise ValueError(f"relator letter {x} out of range")

    def __eq__(self, other):
        return (isinstance(other, Presentation) and self.generators == other.generators
                and self.relators == other.relators)

    @staticmethod
    def parse(generators, relator_texts) -> "Presentation":
        gens = tuple(generators)
        return Presentation(gens, tuple(parse_word(t, gens) for t in relator_texts))

    def relator_strings(self):
        return [print_word(w, self.generators) for w in self.relators]

    def to_json(self) -> dict:
        return {"generators": list(self.generators), "relators": self.relator_strings()}

    @staticmethod
    def from_json(data: dict) -> "Presentation":
        if not isinstance(data, dict) or not all(
                isinstance(data.get(key), list) and all(isinstance(t, str) for t in data[key])
                for key in ("generators", "relators")):
            raise SpecParseError("presentation JSON needs string lists 'generators' and 'relators'")
        return Presentation.parse(data["generators"], data["relators"])

    @staticmethod
    def load(path) -> "Presentation":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as err:
            raise SpecParseError(f"bad presentation file: {err}") from None
        return Presentation.from_json(data)


# -- Todd-Coxeter -------------------------------------------------------------

def _columns(w: Word):
    # generator g (1-based) acts via column 2(g-1); its inverse via 2(g-1)+1
    return [2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in w]


def _coset_table(P: Presentation, coset_cap: int):
    """The regular action (ncols, n) int32 of every column on the n elements
    of the presented group, numbered as HLT coset enumeration of the trivial
    subgroup numbers its live cosets (notes/decisions.md, "Elements are
    numbered by the relator walk", and "Cosets of a cyclic subgroup,
    lifted").

    HLT enumerates the cosets of H = <h>, h the generator of the longest
    single-letter power relator h^±E (the first on ties; with none, H is
    trivial). An entry (d, e) of coset c in column x says t_c*g_x = h^e*t_d
    mod E, for the coset representatives t_c (t_0 = 1); a merge carries the
    offset k of t_a = h^k*t_b. By Reidemeister-Schreier |H| = N is the gcd of
    E, of every relator's label sum at every coset and of h's label at coset
    0 minus 1, and the m cosets lift to the regular action on the m*N
    elements h^k*t_c. `coset_cap` bounds the cosets of H defined and m*N."""
    from .groups import BLOCK

    ngens = len(P.generators)
    if ngens == 0:
        raise ValueError("empty generator list")
    if coset_cap < 1:
        raise ValueError("coset_cap must be >= 1")
    ncols = 2 * ngens
    relators = [(cols, [x ^ 1 for x in cols], len(cols) - 1)
                for w in P.relators if (cols := _columns(w))]
    # h: the longest relator that is one letter repeated, the first on ties
    hx, E = 0, 1
    for cols, _, last in relators:
        if last >= E and cols.count(cols[0]) > last:
            hx, E = cols[0] & ~1, last + 1
    H = f"<{P.generators[hx // 2]}>" if E > 1 else "the trivial subgroup"

    # an entry is (d, e) or None; t_c = h^off[c]*t_rep[c]
    table = [[None] * ncols]
    rep = [0]
    off = [0]
    queue = []
    if E > 1:
        table[0][hx], table[0][hx ^ 1] = (0, 1), (0, E - 1)

    def find(c):
        """(root, k) with t_c = h^k*t_root."""
        root, k = c, 0
        while rep[root] != root:
            k += off[root]
            root = rep[root]
        total = k = k % E
        while rep[c] != root:
            rep[c], off[c], c, k = root, k, rep[c], (k - off[c]) % E
        return root, total

    def define(a, x):
        if len(table) >= coset_cap:
            raise CapExceeded(
                "coset_cap", f"coset enumeration of {H} defined {len(table)} cosets, the coset "
                "cap (presentation possibly infinite or cap too small)")
        b = len(table)
        row = [None] * ncols
        row[x ^ 1] = (a, 0)
        table.append(row)
        rep.append(b)
        off.append(0)
        table[a][x] = (b, 0)
        return b

    def merge(a, b, k):
        # t_a = h^k*t_b; the larger root dies
        a, ka = find(a)
        b, kb = find(b)
        if a != b:
            k = (k + kb - ka) % E
            if a < b:
                a, b, k = b, a, -k % E
            rep[a], off[a] = b, k
            queue.append(a)

    def coincidence(a, b, k):
        merge(a, b, k)
        for y in queue:  # the queue grows while it is read
            for x, entry in enumerate(table[y]):
                if entry is None:
                    continue
                d, e = entry
                table[d][x ^ 1] = None
                mu, kmu = find(y)
                nu, knu = find(d)
                e += knu - kmu  # t_mu*g_x = h^e*t_nu
                if (f := table[mu][x]) is not None:
                    merge(nu, f[0], f[1] - e)
                elif (f := table[nu][x ^ 1]) is not None:
                    merge(mu, f[0], f[1] + e)
                else:
                    table[mu][x] = (nu, e % E)
                    table[nu][x ^ 1] = (mu, -e % E)
        queue.clear()

    # the scan of each relator from alpha is inlined: scan forward, then
    # back, and fill the gap with one deduction, a coincidence or a new
    # coset, summing labels on the way (a coset is live while it is its own
    # representative)
    alpha = 0
    while alpha < len(table):
        if rep[alpha] != alpha:
            alpha += 1
            continue
        for cols, icols, last in relators:
            f, i, sf = alpha, 0, 0
            b, j, sb = alpha, last, 0
            while True:
                while i <= j and (c := table[f][cols[i]]) is not None:
                    f, e = c
                    sf += e
                    i += 1
                if i > j:
                    if f != b:
                        coincidence(f, b, sb - sf)
                    break
                while j >= i and (c := table[b][icols[j]]) is not None:
                    b, e = c
                    sb += e
                    j -= 1
                if j < i:
                    coincidence(f, b, sb - sf)
                    break
                if j == i:
                    e = (sb - sf) % E
                    table[f][cols[i]] = (b, e)
                    table[b][icols[i]] = (f, -e % E)
                    break
                f = define(f, cols[i])
                i += 1
            if rep[alpha] != alpha:
                break
        if rep[alpha] == alpha:
            row = table[alpha]
            for x in range(ncols):
                if row[x] is None:
                    define(alpha, x)
        alpha += 1

    # the live cosets in creation order, each entry read through the live
    # coset it was merged into
    root = np.array(rep)
    k = np.array(off)
    while not np.array_equal(up := root[root], root):
        k += k[root]
        root = up
    live = np.flatnonzero(root == np.arange(len(rep)))
    m = live.size
    entries = [entry for c in live.tolist() for entry in table[c]]
    if None in entries:
        raise ValueError("incomplete coset table")
    d, e = np.array(entries).reshape(m, ncols, 2).T
    index = np.zeros(len(rep), dtype=np.int64)
    index[live] = np.arange(m)
    target, label = index[root[d]], e + k[d]

    # every forward prefix of every relator in declaration order, then every
    # column, as its target coset and label sum from each coset; a whole
    # relator's label sums give N
    T, L = list(target), list(label)  # rows index faster than a 2-D array
    to, by = [], []
    N = np.gcd(E, label[hx, 0] - 1)
    for cols, _, _ in relators:
        cur, s = np.arange(m), 0
        for x in cols:
            cur, s = T[x][cur], s + L[x][cur]
            to.append(cur)
            by.append(s)
        N = np.gcd.reduce(s, initial=N)
        del to[-1], by[-1]
    N = int(N)
    n = m * N
    if n > coset_cap:
        raise CapExceeded("coset_cap", f"a group of order {m}*{N} = {n} ({H} has order {N} "
                                       f"and index {m}) exceeds the coset cap {coset_cap}")
    to, by = np.array(to + T), np.array(by + L)

    # the regular action on the elements h^k*t_c, numbered k*m + c, and the
    # level-synchronous walk from the identity in which each element emits
    # its prefixes in that order; discovery order is HLT's creation order
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    first = np.full(n, n * len(to))  # the first position reaching an element
    order = [np.zeros(1, dtype=np.int64)]
    count = 1
    # a quarter block of emissions at a time: the last level mostly reaches
    # seen elements, and the walk stops once every element is seen
    step = max(1, (BLOCK >> 2) // len(to))
    while count < n and order[-1].size:
        layer, found = order[-1], []
        for i in range(0, layer.size, step):
            v = layer[i:i + step]
            c = v % m
            reached = ((v // m + by[:, c]) % N * m + to[:, c]).T.ravel()
            pos = np.flatnonzero(~seen[reached])
            new = reached[pos]
            np.minimum.at(first, new, pos)
            new = new[first[new] == pos]
            seen[new] = True
            found.append(new)
            count += new.size
            if count == n:
                break
        order.append(np.concatenate(found))
    order.append(np.flatnonzero(~seen))  # left for _table_group to refuse
    order = np.concatenate(order)
    index = np.empty(n, dtype=np.int32)
    index[order] = np.arange(n)
    c = order % m
    return np.ascontiguousarray(index[(order // m + label[:, c]) % N * m + target[:, c]])


def todd_coxeter(P: Presentation, coset_cap: int = DEFAULT_CAPS.coset_cap,
                 order_cap: int | None = None):
    """The group P presents: enumerate the cosets of a cyclic subgroup and
    lift them to the regular action (`_coset_table`), then prove it regular
    and build its table (`_table_group`). A group of order above `order_cap`
    (None: no cap) is rejected with ValueError before its n x n table is
    allocated.

    Deterministic: the elements are numbered as HLT enumeration of the
    trivial subgroup numbers its cosets, scanning relators in declaration
    order, a property of the finished action and not of the enumeration
    strategy, so the multiplication table is reproducible bit for bit.
    """
    return _table_group(P, _coset_table(P, coset_cap), order_cap)


def _table_group(P: Presentation, act, order_cap: int | None = None):
    """The group of a regular action, given as act[x] (an int32 array per
    generator column x) on n points, the cosets of the trivial subgroup,
    with the identity at 0.

    The action is proved regular before the table is built: each column pair
    is mutually inverse, every relator closes at every coset, the generators
    act transitively and each left generator map commutes with every column.
    So the table built from the BFS layers is a group table with identity 0,
    and its inverses are read off the element words (notes/decisions.md, "A
    presented group is proved by its construction"). A failed check raises
    ValueError."""
    from .groups import BLOCK, FiniteGroup, table_dtype

    ngens = len(P.generators)
    ncols, n = act.shape
    if order_cap is not None and n > order_cap:
        raise ValueError(f"group order {n} exceeds group-order cap {order_cap}")

    ar = np.arange(n)
    for x in range(ncols):
        if not np.array_equal(act[x ^ 1][act[x]], ar):
            raise ValueError("generator columns are not mutually inverse")
    # every relator traces to a cycle at every coset
    for w in P.relators:
        cur = ar
        for x in _columns(w):
            cur = act[x][cur]
        if not np.array_equal(cur, ar):
            raise ValueError("relator does not close")

    # spanning tree in BFS order gives each element a defining word; each
    # layer lists its new elements in (parent, column) order of discovery
    parent = np.zeros(n, dtype=np.int64)
    parent_col = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    layers = [np.zeros(1, dtype=np.int64)]
    while True:
        reached = act[:, layers[-1]].T.ravel()
        pos = np.flatnonzero(~seen[reached])
        pos = pos[np.sort(np.unique(reached[pos], return_index=True)[1])]
        if not pos.size:
            break
        layer = reached[pos].astype(np.int64)
        parent[layer] = layers[-1][pos // ncols]
        parent_col[layer] = pos % ncols
        seen[layer] = True
        layers.append(layer)
    if not seen.all():
        raise ValueError("generators do not act transitively")

    # left[y] is left multiplication by generator column y: v = p*g_x gives
    # g_y*v = (g_y*p)*g_x, one gather per group of a layer that column x
    # reached. It must commute with the action, or the action is not regular
    groups = [(x, kids) for layer in layers[1:] for x in range(ncols)
              if (kids := layer[parent_col[layer] == x]).size]
    left = np.empty((ncols, n), dtype=np.int32)
    left[:, 0] = act[:, 0]
    for x, kids in groups:
        left[:, kids] = act[x][left[:, parent[kids]]]
    for x in range(ncols):
        if not np.array_equal(left[:, act[x]], act[x][left]):
            raise ValueError("the action is not regular")

    # row v = p*g_x of the table is row p permuted by left[x], written in
    # blocks of rows so no temporary nears n x n; the inverse of v is g_x^-1
    # times the inverse of p
    mul = np.empty((n, n), dtype=table_dtype(n))
    mul[0] = ar
    inv = np.zeros(n, dtype=np.int32)
    words = [()] * n
    step = max(1, BLOCK // n)
    for x, kids in groups:
        parents = parent[kids]
        for i in range(0, kids.size, step):
            mul[kids[i:i + step]] = np.take(mul[parents[i:i + step]], left[x], axis=1)
        inv[kids] = left[x ^ 1][inv[parents]]
        letter = (x // 2 + 1) if x % 2 == 0 else -(x // 2 + 1)
        for v, p in zip(kids.tolist(), parents.tolist()):
            words[v] = words[p] + (letter,)

    gens = tuple(int(act[2 * g, 0]) for g in range(ngens))
    return FiniteGroup(mul, 0, inv, gens, presentation=P, elem_words=tuple(words))
