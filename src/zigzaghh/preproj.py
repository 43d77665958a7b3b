"""Degreewise pieces of the preprojective algebra and its trace space.

The preprojective algebra of a quiver Q is the doubled path algebra
modulo the single element r = sum over base arrows of (a a* - a* a).
Everything here is degreewise exact linear algebra: the degree-n piece
is span(length-n words) modulo span{x r_v y} where r_v = e_v r e_v and
|x| + |y| = n - 2: r_v inserted at every cut of every word xy of length
n - 2, or of every closed walk at i for the block e_i (...) e_i.  No
rewriting and no normal forms: quotients are rank computations over the
chosen field.

The trace space (algebra modulo commutators) is computed on necklaces,
i.e. cycles up to rotation (Ginzburg, Calabi-Yau algebras,
arXiv:math/0612139).  Modulo commutators every non-cyclic word vanishes
(w = [e_src(w), w]) and every cycle equals each of its rotations, so the
commutator quotient of the cycles is the span of the necklaces.  A
relation row x r_v y rotates into r_v (y x), so the relations are the
rows [r_v w] for the closed walks w of length n - 2, each at its source
v, taken from the same closed walk as the cycles.  A necklace is
represented by its lexicographically largest rotation c_max, and the
columns are sorted by representative.  In the full matrix (all cycles
against all relations and commutators) every other rotation c is an
earlier column than c_max, so c - c_max makes it a pivot; on the
representatives that matrix's row space projects onto the span of the
rows [r_v w].  Hence both matrices have the same free columns, and the
witness cycles do not depend on which one is eliminated.

Relation rows go to the kernel as built, not deduplicated: echelonize
drops zero entries and zero rows, and a repeated row costs one
union-find step or one reduction to zero.

The same machinery, fed the relation "sum of all 2-cycles at each
vertex", computes the quadratic dual of the zigzag algebra for an
arbitrary graph (no orientation needed).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

from .exactla import FieldSpec, echelonize, in_span, span_info
from .pathalg import Path, all_cycles, all_words
from .quiver import DoubledQuiver, Graph, Quiver, double, orient_by_edge_order

# relation term: (coefficient, (first letter, second letter)) at a vertex
RelationTable = dict[int, list[tuple[int, tuple[int, int]]]]


# Keyed by the frozen quiver's value and kept for the process, so equal
# quivers built apart share one double and with it its word tables.
@functools.cache
def doubled_of(q: Quiver) -> DoubledQuiver:
    return double(q)


@functools.cache
def doubled_of_graph(g: Graph) -> DoubledQuiver:
    return double(orient_by_edge_order(g))


def preprojective_relations(q: Quiver) -> RelationTable:
    """r_v = e_v (sum over base arrows of [a, a*]) e_v, as letter pairs."""
    rels: RelationTable = {v: [] for v in range(1, q.vertex_count + 1)}
    for k, (s, t) in enumerate(q.arrows):
        rels[s].append((1, (2 * k, 2 * k + 1)))
        rels[t].append((-1, (2 * k + 1, 2 * k)))
    return rels


def zigzag_dual_relations(qd: DoubledQuiver) -> RelationTable:
    """One relation per vertex: the sum of all 2-cycles there is zero."""
    rels: RelationTable = {v: [] for v in range(1, qd.vertex_count + 1)}
    for a in range(qd.arrow_count):
        rels[qd.arrow_source[a]].append((1, (a, qd.star(a))))
    return rels


@dataclass
class GradedQuotientPiece:
    """One graded piece of a degreewise quotient of the doubled path algebra."""

    degree: int
    field: FieldSpec
    ambient: list[Path]
    dimension: int
    representatives: list[Path]


@dataclass
class TracePiece:
    """Dimension of (algebra / commutators) in one degree, with witness cycles."""

    degree: int
    dimension: int
    witnesses: Optional[list[Path]] = None


def _relation_rows(qd, rels: RelationTable, shorter: list[Path],
                   index: dict[tuple[int, ...], int]):
    """The rows x r_v y for xy in shorter, yielded as built: v is the source of
    xy at the first cut and the target of the letter before the cut otherwise.
    The pairs of r_v are distinct, so each term has its own column."""
    tgt = qd.arrow_target
    for w in shorter:
        a = w.letters
        for k in range(len(a) + 1):
            v = tgt[a[k - 1]] if k else w.source
            yield {index[a[:k] + pair + a[k:]]: coeff for coeff, pair in rels[v]}


def _quotient_piece(qd, rels: RelationTable, n: int, fld: FieldSpec,
                    words: Callable[[int], list[Path]]) -> GradedQuotientPiece:
    """words(n) modulo the rows x r_v y with xy in words(n - 2).  Columns are
    keyed by letters, which fix a word of length >= 1, and rows start at n = 2."""
    ambient = words(n)
    index = {p.letters: k for k, p in enumerate(ambient)}
    rows = _relation_rows(qd, rels, words(n - 2) if n >= 2 else [], index)
    info = span_info(fld, rows, len(ambient))
    reps = [ambient[c] for c in info.free_coords]
    return GradedQuotientPiece(n, fld, ambient, info.quotient_dim, reps)


def lambda_piece(q: Quiver, n: int, fld: FieldSpec) -> GradedQuotientPiece:
    """The degree-n piece of the preprojective algebra of q."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    qd = doubled_of(q)
    return _quotient_piece(qd, preprojective_relations(q), n, fld, functools.partial(all_words, qd))


def koszul_dual_zigzag_piece(g: Graph, n: int, fld: FieldSpec) -> GradedQuotientPiece:
    """Degree-n piece of the quadratic dual of the zigzag algebra of g."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    qd = doubled_of_graph(g)
    return _quotient_piece(qd, zigzag_dual_relations(qd), n, fld, functools.partial(all_words, qd))


def cyclic_piece_dim(q: Quiver, n: int, i: int, fld: FieldSpec) -> int:
    """dim e_i Lambda^n e_i: the closed walks at i modulo the rows x r_v y inside them."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    qd = doubled_of(q)
    return _quotient_piece(qd, preprojective_relations(q), n, fld,
                           lambda m: [c for c in all_cycles(qd, m) if c.source == i]).dimension


def _necklace(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically largest rotation of a cyclic word."""
    if not letters:
        return letters
    top = max(letters)
    return max(letters[k:] + letters[:k] for k, a in enumerate(letters) if a == top)


def _necklace_space(qd, rels: RelationTable, n: int):
    """Degree-n necklaces and the relation rows [r_v w] among them.

    Columns are the necklaces in the order of their representatives,
    index maps a representative's letters to its column, and there is one
    row per closed walk w of length n - 2, at v = w.source.
    """
    necklaces = [c for c in all_cycles(qd, n) if c.letters == _necklace(c.letters)]
    index = {c.letters: k for k, c in enumerate(necklaces)}
    rows = []
    for w in all_cycles(qd, n - 2) if n >= 2 else ():
        row: dict[int, int] = {}
        for coeff, pair in rels[w.source]:
            col = index[_necklace(pair + w.letters)]
            row[col] = row.get(col, 0) + coeff
        rows.append(row)
    return necklaces, index, rows


def _trace_piece(qd, rels: RelationTable, n: int, fld: FieldSpec,
                 want_witnesses: bool = True) -> TracePiece:
    necklaces, _, rows = _necklace_space(qd, rels, n)
    info = span_info(fld, rows, len(necklaces))
    witnesses = [necklaces[c] for c in info.free_coords] if want_witnesses else None
    return TracePiece(n, info.quotient_dim, witnesses)


def trace_piece(q: Quiver, n: int, fld: FieldSpec, want_witnesses: bool = True) -> TracePiece:
    """Dimension of (Lambda / [Lambda, Lambda])^n for the preprojective algebra."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _trace_piece(doubled_of(q), preprojective_relations(q), n, fld, want_witnesses)


def trace_piece_general(kind: str, obj, n: int, fld: FieldSpec,
                        want_witnesses: bool = True) -> TracePiece:
    """Trace piece of a named degreewise quotient.

    kind "preprojective" takes a Quiver; kind "koszul-dual-zigzag" takes a
    Graph and uses the sum-of-2-cycles relation.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if kind == "preprojective":
        if not isinstance(obj, Quiver):
            raise ValueError("preprojective trace needs a Quiver")
        return trace_piece(obj, n, fld, want_witnesses)
    if kind == "koszul-dual-zigzag":
        if not isinstance(obj, Graph):
            raise ValueError("koszul-dual trace needs a Graph")
        qd = doubled_of_graph(obj)
        return _trace_piece(qd, zigzag_dual_relations(qd), n, fld, want_witnesses)
    raise ValueError("unknown quotient kind %r" % (kind,))


def cycle_class_in_trace_is_zero(q: Quiver, cycle: Path, fld: FieldSpec) -> bool:
    """Exact membership of a cycle in relations + commutators of its degree."""
    if not cycle.is_cycle():
        raise ValueError("not a cycle: %r" % (cycle,))
    qd = doubled_of(q)
    n = cycle.length
    if cycle not in all_cycles(qd, n):
        raise ValueError("cycle does not belong to this quiver")
    necklaces, index, rows = _necklace_space(qd, preprojective_relations(q), n)
    ech = echelonize(fld, rows, len(necklaces))
    return in_span(fld, ech, {index[_necklace(cycle.letters)]: 1})
