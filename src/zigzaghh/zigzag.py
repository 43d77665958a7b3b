"""Zigzag algebras and their bigraded Hochschild cohomology.

The zigzag algebra of a connected loop-free, multiedge-free graph has
basis: one idempotent e_i per vertex (degree 0), the doubled arrows
(degree 1), and one 2-cycle class c_i per vertex (degree 2).  Products
of total degree > 2 vanish, a a* = c at the source of a, and every
other composable arrow product is zero.  For the one-vertex graph this
is k[x]/(x^2) with x in degree 2; for the one-edge graph the two
2-cycle classes sit at different vertices and stay distinct.  Degree-k
elements carry bidegree (k, -k).  The table is associative by
construction, as `build_zigzag` shows, so nothing checks it at run time.

Hochschild cohomology is computed from the cochain complex relative to
the span of the idempotents: because every homogeneous element sits in
bidegree (k, -k), the (p, q) piece reduces to bimodule maps out of
exactly p+q tensor factors from the positive-degree part, with output
length = input length - q.  The differential is

    (df)(a_1,..,a_{n+1}) = a_1 f(a_2,..) + sum_j (-1)^j f(.., a_j a_{j+1}, ..)
                           + (-1)^{n+1} f(a_1,..,a_n) a_{n+1}.

Almost every product is zero, so the differential reads only the nonzero
ones, from an index of the multiplication table.

A (p, q) input word has p+q letters; with c of them cycle classes its
degree is p+q+c, so the output degree is p + c.  That must be at most
2, so C^{p,q} is empty for p >= 3, and below the words are walked depth
first within a budget of 2 - p cycle classes, closed by a table of the
last two letters that admit an output of degree p + c, kept per graph
for every field.  On a bipartite graph the word has p + q - c arrows,
an even count exactly when the output starts and ends at one vertex,
i.e. when p + c is even, so C^{p,q} = 0 for odd q.  The package asks
for HH^{2,q} only; C^{3,q} is empty, so every (2, q) cochain is a
cocycle and HH^{2,q} = dim C^{2,q} - rank d(C^{1,q}), the columns of the
image sent to the kernel as they are built, so no C^{1,q} table is kept.
The basis lists, multiplication table and product index are kept for
the last graph asked (`_algebra_tables`): each algebra owns copies of the
lists and its `table`, and shares the read-only `products` over every
field.  C^{2,q} is kept for the last graph asked too (`_c2`), and any
other cochain basis is walked when asked for.
The module reads only `exactla`, `quiver` and `reports` of the package.

The kernel gets a spanning subset of d(C^{1,q}), which has the
same span, so the same rank and witnesses.  C^{2,q} is the closed arrow
words y X, and y X -> c gives the word (X -> y*) of C^{1,q}, y* the
reverse of y: these are all the words with no cycle class, and each has
the two-term column e_{yX} + (-1)^q e_{Xy}.  The other words u c_v u' hold
one class; with c_v at position k, as c_v = sum of a a* over the arrows
a out of v, the column is -(-1)^k sum_a e_{u a a* u'}.  Lemma: modulo the
two-term columns, column(u c_v u') = (-1)^(q |u|) column(c_v u' u).  Proof:
write u = y u1; each term e_{y X} with X = u1 a a* u' is -(-1)^q e_{X y}
modulo the column of (X -> y*), and moving c_v to position k - 1 flips
the sign, so column(u c_v u') = (-1)^q column(u1 c_v u' y); induct on |u|.
So the relation columns sent are those of c_v u, one per closed arrow
walk u of length q at v: tr(A^(q+2)) + tr(A^q) columns for the adjacency
matrix A, against (q + 1) tr(A^q) relation columns in the full map.
`hochschild_dim` and `is_coboundary` read this one image, from `_image`.
"""

from __future__ import annotations

import functools
from typing import Iterator

from .exactla import Echelon, FieldSpec, Scalar, echelonize
from .quiver import Graph
from .reports import HHReport


class ZigzagAlgebra:
    """The zigzag algebra of a graph, as an explicit multiplication table."""

    def __init__(self, graph: Graph, field: FieldSpec, names: list[str], degrees: list[int],
                 src: list[int], tgt: list[int], table: dict[tuple[int, int], int],
                 e_index: dict[int, int], arrow_index: dict[tuple[int, int], int],
                 cycle_index: dict[int, int], products: tuple[dict, dict, dict]):
        self.graph = graph
        self.field = field
        self.names = names
        self.degrees = degrees
        self.src = src
        self.tgt = tgt
        self.table = table
        self.e_index = e_index
        self.arrow_index = arrow_index
        self.cycle_index = cycle_index
        self.products = products   # the nonzero products (`_table_index`): read, never mutated

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def positive(self) -> list[int]:
        return [i for i in range(self.dim) if self.degrees[i] > 0]


def _basis(g: Graph) -> list[tuple[str, int, int, int]]:
    """(name, degree, source, target) of each basis element, in index order."""
    n = g.vertex_count
    return ([("e%d" % v, 0, v, v) for v in range(1, n + 1)]
            + [letter for k, (i, j) in enumerate(g.edges)
               for letter in (("a%d" % (k + 1), 1, i, j), ("a%d*" % (k + 1), 1, j, i))]
            + [("c%d" % v, 2, v, v) for v in range(1, n + 1)])


def build_zigzag(g: Graph, fld: FieldSpec) -> ZigzagAlgebra:
    """Basis and multiplication table of the zigzag algebra of g.

    The table is associative, so it is not checked.  The only nonzero
    product of two positive elements is a a* = c, and a positive element
    times c, or c times a positive element, is zero: both bracketings of
    three positive elements are 0.  The idempotent rules only compare
    endpoints, and a a* = c_src(a) keeps the endpoints of the pair.  That
    holds on every graph `Graph` accepts (no loops, no multiple edges).

    The algebra copies all of `_algebra_tables` but `products`.
    """
    lists, dicts, products = _algebra_tables(g)
    return ZigzagAlgebra(g, fld, *map(list, lists), *map(dict, dicts), products)


@functools.lru_cache(maxsize=1)   # a batch asks the fields of one graph in turn
def _algebra_tables(g: Graph) -> tuple:
    """The field-free part of g's zigzag algebra: (names, degrees, src,
    tgt), (table, e_index, arrow_index, cycle_index) and the `_table_index`
    of the table."""
    basis = _basis(g)
    n = g.vertex_count
    lists = names, degrees, src, tgt = tuple(zip(*basis))
    e_index = {v: v - 1 for v in range(1, n + 1)}
    arrow_index = {(i, j): x for x, (_, d, i, j) in enumerate(basis) if d == 1}
    cycle_index = {v: len(basis) - n + v - 1 for v in range(1, n + 1)}

    table: dict[tuple[int, int], int] = {}
    for x in range(len(names)):
        table[(e_index[src[x]], x)] = x
        table[(x, e_index[tgt[x]])] = x
    for (i, j), a in arrow_index.items():
        table[(a, arrow_index[(j, i)])] = cycle_index[i]
    return lists, (table, e_index, arrow_index, cycle_index), _table_index(table, degrees)


# ---------------------------------------------------------------------------
# the reduced cochain complex
# ---------------------------------------------------------------------------

Word = tuple[int, ...]


def _table_index(table: dict[tuple[int, int], int], degrees: list[int]) -> tuple[dict, dict, dict]:
    """The nonzero products of `table` by the factor they hold fixed.

    left[z] lists (x, x z) and right[z] lists (x, z x) over positive x, and
    factors[m] the positive pairs (u, v) with u v = m, each in table order.
    """
    left, right, factors = {}, {}, {}
    for (u, v), m in sorted(table.items()):
        if degrees[u] > 0:
            left.setdefault(v, []).append((u, m))
        if degrees[v] > 0:
            right.setdefault(u, []).append((v, m))
            if degrees[u] > 0:
                factors.setdefault(m, []).append((u, v))
    return left, right, factors


@functools.cache
def _walk_tables(g: Graph, cycles: int) -> tuple[dict, dict, dict]:
    """(inner, close, ends) of `_words` within `cycles` classes, keyed by the
    frozen graph's value and kept for the process, like the doubles of
    `preproj`: every algebra of one graph, over any field, shares them."""
    basis = _basis(g)
    letters = [(i, s, t, d - 1) for i, (_, d, s, t) in enumerate(basis) if d > 0]
    inner = {(0, 0): [(i, t, d) for i, _, t, d in letters if d <= cycles]}
    for i, v, t, d in letters:
        for c in range(cycles + 1 - d):
            inner.setdefault((v, c), []).append((i, t, c + d))
    # the one output of degree 2 - cycles + c between two vertices
    ends = {(s, t, d - 2 + cycles): z for z, (_, d, s, t) in enumerate(basis)}
    return inner, {}, ends


def _words(alg: ZigzagAlgebra, n: int, cycles: int) -> Iterator[tuple[Word, int]]:
    """The composable length-n words (n >= 1) over the positive-degree basis
    with c <= `cycles` cycle classes whose ends admit an output of degree
    2 - cycles + c, in lex order, each with that output: the basis of
    C^{2-cycles,q}.

    One depth-first walk.  inner[v, c] lists (letter, target, classes spent)
    leaving v within the budget, c spent; vertex 0 is the empty prefix.
    close[v, s, c], filled as the walk reaches it, lists the last two
    letters, with the output, of the words from s whose prefix ends at v,
    so no prefix that cannot close is extended.  Lists are in index order.
    """
    inner, close, ends = _walk_tables(alg.graph, cycles)
    src = alg.src
    if n == 1:
        yield from (((i,), x) for i, t, c in inner[0, 0]
                    if (x := ends.get((src[i], t, c))) is not None)
        return
    # prefixes to extend, (letters, end, source, classes spent), the least on
    # top; the empty prefix takes its source from the letter after it
    stack = [((), 0, 0, 0)]
    while stack:
        w, v, s, c = stack.pop()
        if len(w) < n - 2:
            stack += [(w + (i,), t, s or src[i], b) for i, t, b in reversed(inner.get((v, c), ()))]
            continue
        pairs = close.get((v, s, c))
        if pairs is None:
            pairs = close[v, s, c] = [((i, e), x) for i, u, a in inner.get((v, c), ())
                                      for e, t, b in inner.get((u, a), ())
                                      if (x := ends.get((s or src[i], t, b))) is not None]
        yield from [(w + pair, x) for pair, x in pairs]


def _walk_basis(alg: ZigzagAlgebra, p: int, q: int) -> list[tuple[Word, int]]:
    """The basis of `cochain_basis`, in its order, walked anew."""
    n = p + q
    if n < 0 or p > 2 or q % 2 and alg.graph.is_bipartite():
        return []   # for p > 2 the output degree p + c exceeds 2 on every word
    if n == 0:
        return [((), z) for z in range(alg.dim) if alg.degrees[z] == p and alg.src[z] == alg.tgt[z]]
    return list(_words(alg, n, 2 - p))


# the last graph's only: a batch asks the fields of one graph in turn, and
# bases are large (D~4 at q = 8: 0.38 MB, Python 3.11)
@functools.lru_cache(maxsize=1)
def _c2_bases(g: Graph) -> dict[int, list[tuple[Word, int]]]:
    """q -> the basis of C^{2,q}, for each q `_c2` was asked."""
    return {}


def _c2(alg: ZigzagAlgebra, q: int) -> list[tuple[Word, int]]:
    """C^{2,q}, shared by every field and by HH^{2,q+2} as its relation
    words; callers must not mutate it."""
    bases = _c2_bases(alg.graph)
    basis = bases.get(q)
    if basis is None:
        basis = bases[q] = _walk_basis(alg, 2, q)
    return basis


def cochain_basis(alg: ZigzagAlgebra, p: int, q: int) -> list[tuple[Word, int]]:
    """Basis of the reduced (p, q) cochain space: (input word, output) pairs.

    A (p, q) cochain takes exactly p+q tensor factors from the positive
    part and outputs an element of length (input length) - q matching the
    word's endpoints.  For zero tensor factors the inputs are the
    idempotents, encoded as the empty word with the output carrying the
    vertex.  A word with c cycle classes has output degree p + c, so only
    the words with at most 2 - p of them are walked, and only those whose
    ends admit that output; on a bipartite graph none do for odd q.  The
    list is the caller's own.
    """
    return list(_c2(alg, q)) if p == 2 else _walk_basis(alg, p, q)


def _delta_elementary(alg: ZigzagAlgebra, w: Word, z: int,
                      target_index: dict[tuple[Word, int], int]) -> dict[int, int]:
    """Image of the elementary cochain (w -> z) under the differential.

    Only nonzero products contribute, so the terms are read from
    `alg.products`: x z and z x at the two ends, and each factorization
    u v of a letter of w.  The empty word (n = 0) follows the same rule.
    """
    col: dict[int, int] = {}
    get = target_index.get
    left, right, factors = alg.products
    n = len(w)
    for x, xz in left.get(z, ()):   # distinct words: no two terms meet
        i = get(((x,) + w, xz))
        if i is not None:
            col[i] = 1
    coeff = 1 if n % 2 else -1
    for x, zx in right.get(z, ()):
        i = get((w + (x,), zx))
        if i is not None:
            s = col.get(i, 0) + coeff
            if s:
                col[i] = s
            else:
                del col[i]
    if factors.keys().isdisjoint(w):   # only the cycle classes factor
        return col
    for k in range(n):
        coeff = 1 if k % 2 else -1
        for u, v in factors.get(w[k], ()):
            i = get((w[:k] + (u, v) + w[k + 1:], z))
            if i is not None:
                s = col.get(i, 0) + coeff
                if s:
                    col[i] = s
                else:
                    del col[i]
    return col


def _spanning_words(alg: ZigzagAlgebra, q: int,
                    basis: list[tuple[Word, int]]) -> Iterator[tuple[Word, int]]:
    """Words of C^{1,q} whose columns span d(C^{1,q}) in C^{2,q} = `basis`
    (q >= 0): (X -> y*) for each y X, then (c_v u -> c_v) for each closed
    arrow walk u at v, the basis of C^{2,q-2}, as the module docstring proves."""
    arrow, src, tgt = alg.arrow_index, alg.src, alg.tgt
    yield from ((w[1:], arrow[tgt[w[0]], src[w[0]]]) for w, _ in basis)
    yield from (((c,) + u, c) for u, c in _c2(alg, q - 2))


def _image(alg: ZigzagAlgebra, q: int, basis: list[tuple[Word, int]]) -> Echelon:
    """The echelon of d(C^{1,q}) in C^{2,q} = `basis`, from the columns of
    `_spanning_words`, each sent to the kernel as built (C^{1,q} = 0 for q < -1)."""
    if not basis or q < -1:
        return Echelon(alg.field, len(basis))
    index = {b: i for i, b in enumerate(basis)}
    return echelonize(alg.field, (_delta_elementary(alg, w, z, index)
                                  for w, z in _spanning_words(alg, q, basis)), len(basis))


def delta_columns(alg: ZigzagAlgebra, p: int, q: int) -> tuple[
        list[tuple[Word, int]], list[tuple[Word, int]], list[dict[int, int]]]:
    """(source basis, target basis, columns) of d: C^{p,q} -> C^{p+1,q}."""
    source = cochain_basis(alg, p, q)
    target = cochain_basis(alg, p + 1, q)
    tindex = {b: i for i, b in enumerate(target)}
    cols = [_delta_elementary(alg, w, z, tindex) if target else {} for (w, z) in source]
    return source, target, cols


def _only_p2(p: int):
    if p != 2:
        raise ValueError("the bar complex computes HH^{2,q} only, not p = %d" % p)


def hochschild_dim(alg: ZigzagAlgebra, p: int, q: int,
                   want_witnesses: bool = False) -> HHReport:
    """dim HH^{2,q} of the zigzag algebra via the reduced complex; p must be 2.

    C^{3,q} is empty, so HH^{2,q} = dim C^{2,q} - rank of the incoming
    image, eliminated once, by `_image`.  A witness is a basis word, in
    order, that the echelon of the incoming columns and of the words kept
    before it takes in with `add`.
    """
    _only_p2(p)
    basis = cochain_basis(alg, 2, q)
    image = _image(alg, q, basis)
    dimension = len(basis) - image.rank
    names = []
    for i in range(len(basis)) if want_witnesses and dimension else ():
        if image.add({i: 1}):
            w, z = basis[i]
            names.append("%s|%s" % (" ".join(alg.names[x] for x in w) or "1", alg.names[z]))
            if len(names) == dimension:
                break
    return HHReport(2, q, "zigzag", dimension, tuple(names) if want_witnesses else None)


# ---------------------------------------------------------------------------
# explicit cochains
# ---------------------------------------------------------------------------


class HochschildCochain:
    """A (2, q) cochain: linear map on composable positive-basis words.

    values maps an input word to the output expressed in the basis of the
    algebra; every (word, output) key must satisfy the endpoint and Adams
    constraints of the (p, q) cochain space, and p must be 2.  basis is
    that space as walked once, by `cochain_basis`, and index its positions.
    """

    def __init__(self, algebra: ZigzagAlgebra, p: int, q: int,
                 values: dict[Word, dict[int, Scalar]]):
        _only_p2(p)
        alg = self.algebra = algebra
        self.p = p
        self.q = q
        fld = alg.field
        self.basis = cochain_basis(alg, p, q)
        self.index = {b: i for i, b in enumerate(self.basis)}
        clean: dict[Word, dict[int, Scalar]] = {}
        for w, outs in values.items():
            w = tuple(w)
            for z, coeff in outs.items():
                c = fld.element(coeff)
                if fld.is_zero(c):
                    continue
                if (w, z) not in self.index:
                    raise ValueError("value (%r -> %s) violates the (p,q)=(%d,%d) constraints"
                                     % (w, alg.names[z], p, q))
                clean.setdefault(w, {})[z] = c
        self.values = clean

    def is_zero(self) -> bool:
        return not self.values

    def vector(self) -> dict[int, Scalar]:
        index = self.index
        return {index[(w, z)]: c for w, outs in self.values.items() for z, c in outs.items()}


def zero_cochain(alg: ZigzagAlgebra, p: int, q: int) -> HochschildCochain:
    return HochschildCochain(alg, p, q, {})


def is_cocycle(c: HochschildCochain) -> bool:
    """True: a cochain is a (2, q) one, and C^{3,q} is empty, so dc = 0."""
    return True


def is_coboundary(c: HochschildCochain) -> bool:
    """Exact membership of c in the image of the incoming differential: the
    echelon of `_image` does not take c's vector in."""
    return not _image(c.algebra, c.q, c.basis).add(c.vector())
