"""Degreewise pieces of the preprojective algebra and its trace space.

The preprojective algebra of a quiver Q is the doubled path algebra
modulo the single element r = sum over base arrows of (a a* - a* a).  It
is quadratic, Lambda = T(V) / (R) with V spanned by the doubled arrows
and R by the r_v = e_v r e_v, so it is built one degree at a time:

    Lambda_n = Lambda_{n-1} (x) V / (Lambda_{n-2} (x) R).

Each degree keeps a basis of normal words and the right-multiplication
map (basis element b of Lambda_{n-1}, arrow a) -> coordinates of b a in
Lambda_n.  The spanning columns of degree n are the words b a, which are
in lexicographic order because the degree-1 basis is the arrows by id.
The rows are c r_v = sum coeff (c l1) l2 for the basis elements c of
Lambda_{n-2} that end at v, with c l1 read from the previous map.  The
free columns of that elimination are the basis; a pivot column's normal
form is read off the kernel vectors at the free columns.  A word is a
free column exactly when it is not a combination of relations and larger
words, so every free column of the all-words quotient is a word b a with
b free, and the basis is the same set of words as that quotient's free
columns.

The trace space (algebra modulo commutators) is the closed part of the
basis, sum of e_i Lambda_n e_i, modulo the rows a b - b a for each arrow
a: i -> j and basis element b of e_j Lambda_{n-1} e_i.  They span the
commutators: Lambda is generated in degree 1 and [xy, z] = [x, yz] +
[y, zx], and an open word w is [e_src(w), w].  Witnesses are necklaces
(cycles up to rotation, each represented by its lexicographically
largest rotation), scanned from the largest down: a necklace is a
witness when its class lies outside the span of the classes of the
larger ones, the free-column rule of the necklace matrix (Ginzburg,
Calabi-Yau algebras, arXiv:math/0612139).

A double has one table per relation kind and field, and the F_p tables
read the Q one.  Its rows are integral, and a unimodular echelon (see
exactla) holds mod every p: an F_p table shares the words and coordinates
of each degree the Q table has already grown below its first degree that
is not, and of the Q trace echelons already built there, the unimodular
ones and the integral rows of the others, which it eliminates mod p.  It
never grows the Q table, so a process that asks only over F_p eliminates
only over F_p; every other degree and trace it eliminates itself.

The same builder, fed the relation "sum of all 2-cycles at each vertex",
computes the quadratic dual of the zigzag algebra for an arbitrary graph
(no orientation needed).
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from .exactla import QQ, Echelon, FieldSpec, echelonize, in_span
from .pathalg import Path, necklaces_descending, trivial_path
from .quiver import DoubledQuiver, Graph, Quiver, double, orient_by_edge_order

# relation term: (coefficient, (first letter, second letter)) at a vertex
RelationTable = dict[int, list[tuple[int, tuple[int, int]]]]

# coordinates over the basis of one degree: {basis index: nonzero scalar}, or
# in the kept tables, where a tuple costs half a dict, its (index, scalar) pairs
Coords = dict
Pairs = tuple


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


class GradedQuotientPiece(NamedTuple):
    """One graded piece of a degreewise quotient of the doubled path algebra.

    representatives are the normal words of that degree.
    """

    degree: int
    field: FieldSpec
    dimension: int
    representatives: list[Path]


class TracePiece(NamedTuple):
    """Dimension of (algebra / commutators) in one degree, with witness cycles."""

    degree: int
    dimension: int
    witnesses: Optional[list[Path]] = None


class _Table:
    """The normal-form table of one quadratic quotient over one field, grown on demand.

    basis[n] are the normal words of degree n, and times[n][b][a] the
    coordinates in degree n of basis[n-1][b] times the arrow a.  traces[n]
    is (closed basis count, echelon of the trace rows).  Over Q the degrees
    below `exact` were eliminated unimodularly (on an F_p table it stays 2),
    and torsion[n] keeps the trace rows of such a degree whose echelon is
    not, for the F_p tables, which read this one as `over_q`.
    """

    def __init__(self, qd: DoubledQuiver, rels: RelationTable, fld: FieldSpec,
                 over_q: Optional[_Table] = None):
        self.qd = qd
        self.rels = rels
        self.fld = fld
        self.over_q = over_q
        self.exact = 2
        self.torsion: dict[int, list[Coords]] = {}
        self.leaving: dict[int, list[int]] = {v: [] for v in range(1, qd.vertex_count + 1)}
        for a in range(qd.arrow_count):
            self.leaving[qd.arrow_source[a]].append(a)
        # no relation has one letter: degree 1 is every arrow by id
        self.basis: list[list[Path]] = [
            [trivial_path(v) for v in range(1, qd.vertex_count + 1)],
            [Path(qd.arrow_source[a], (a,), qd.arrow_target[a]) for a in range(qd.arrow_count)]]
        self.times: list[list[dict[int, Pairs]]] = [
            [], [{a: ((a, 1),) for a in self.leaving[e.source]} for e in self.basis[0]]]
        self.traces: dict[int, tuple[int, Echelon]] = {}

    def degree(self, n: int) -> list[Path]:
        while len(self.basis) <= n:
            self._grow()
        return self.basis[n]

    def spanning(self, n: int) -> list[Path]:
        """The columns of degree n >= 2: the words b a, b in the basis one
        degree down and a an arrow.  Built when asked for, not kept."""
        tgt = self.qd.arrow_target
        return [Path(b.source, b.letters + (a,), tgt[a])
                for b in self.degree(n - 1) for a in self.leaving[b.target]]

    def _grow(self):
        n = len(self.basis)
        q = self.over_q
        if q is not None and n < q.exact:   # the Q words and integral coordinates hold mod p
            self.basis.append(q.basis[n])
            self.times.append(q.times[n])
            return
        words = self.spanning(n)
        column: list[dict[int, int]] = []   # column[b][a]: the column of the word b a
        start = 0
        for b in self.basis[n - 1]:
            out = self.leaving[b.target]
            column.append({a: start + i for i, a in enumerate(out)})
            start += len(out)
        rows = []
        for c, step in zip(self.basis[n - 2], self.times[n - 1]):
            row: dict[int, int] = {}
            for coeff, (l1, l2) in self.rels[c.target]:
                for x, v in step[l1]:
                    k = column[x][l2]
                    row[k] = row.get(k, 0) + coeff * v
            rows.append(row)
        ech = echelonize(self.fld, rows, len(words))
        self.exact += self.exact == n and ech.unimodular
        free = ech.free_cols()
        normal: list[Coords] = [{} for _ in words]
        for k, f in enumerate(free):
            for c, v in ech.kernel_vector(f).items():
                normal[c][k] = v   # x_f = 1 puts the free column on itself
        self.basis.append([words[f] for f in free])
        pairs = [tuple(c.items()) for c in normal]
        self.times.append([{a: pairs[k] for a, k in cols.items()} for cols in column])

    def normal_form(self, letters: tuple[int, ...], stack: list) -> Coords:
        """Coordinates of a nonempty composable word, right-multiplied letter by letter.

        stack holds (letter, coordinates) for each prefix of the word read
        before.  It is cut back to the prefix this word shares with that one
        and extended letter by letter, so a stream of words in lexicographic
        order, ascending or descending, computes each prefix once and holds
        at most one coordinate map per letter.
        """
        k = 0
        for (a, _), b in zip(stack, letters):
            if a != b:
                break
            k += 1
        del stack[k:]
        p = self.fld.characteristic
        for n in range(k + 1, len(letters) + 1):
            last = letters[n - 1]
            if n == 1:
                hit = {last: 1}
            else:
                times = self.times[n]
                hit = {}
                for x, v in stack[-1][1].items():
                    for y, w in times[x][last]:
                        hit[y] = hit.get(y, 0) + v * w
                hit = {y: v % p for y, v in hit.items() if v % p} if p else \
                    {y: v for y, v in hit.items() if v}
            stack.append((last, hit))
        return stack[-1][1]

    def trace(self, n: int) -> tuple[int, Echelon]:
        hit = self.traces.get(n)
        if hit is not None:
            return hit
        basis = self.degree(n)
        q = self.over_q
        hit = q.traces.get(n) if q is not None and n < q.exact else None
        if hit is not None:
            closed, ech = hit
            if not ech.unimodular:
                ech = echelonize(self.fld, q.torsion[n], len(basis))
        else:
            closed = sum(1 for b in basis if b.source == b.target)
            rows: list[Coords] = []
            if n:
                src, tgt = self.qd.arrow_source, self.qd.arrow_target
                between: dict[tuple[int, int], list[int]] = {}
                for k, b in enumerate(self.basis[n - 1]):
                    between.setdefault((b.source, b.target), []).append(k)
                stack: list = []   # the words a b come in ascending order
                prev, times = self.basis[n - 1], self.times[n]
                for a in range(self.qd.arrow_count):
                    for k in between.get((tgt[a], src[a]), ()):
                        row = dict(self.normal_form((a,) + prev[k].letters, stack))
                        for y, w in times[k][a]:
                            row[y] = row.get(y, 0) - w
                        rows.append(row)
            ech = echelonize(self.fld, rows, len(basis))
            if n < self.exact and not ech.unimodular:
                self.torsion[n] = rows
        self.traces[n] = (closed, ech)
        return closed, ech

    def witnesses(self, n: int) -> list[Path]:
        """The necklaces whose class is outside the span of the larger necklaces' classes."""
        closed, ech = self.trace(n)
        dim = closed - ech.rank
        if not dim:   # no cycle is walked for an empty basis
            return []
        # add installs new rows and never edits one, so the copy shares them
        scan = Echelon(self.fld, ech.ncols)
        scan.pivot_row = dict(ech.pivot_row)
        found: list[Path] = []
        stack: list = []
        for c in necklaces_descending(self.qd, n):
            if scan.add(self.class_of(c, stack)):
                found.append(c)
                if len(found) == dim:
                    break
        found.reverse()
        return found

    def class_of(self, cycle: Path, stack: list) -> Coords:
        if not cycle.letters:
            return {cycle.source - 1: 1}
        return self.normal_form(cycle.letters, stack)


# Kept for the process, keyed by the double, which `double` shares among equal quivers,
# and by relation kind, since a graph's double may also be a quiver's.
@functools.cache
def _table(qd: DoubledQuiver, kind: str, fld: FieldSpec) -> _Table:
    rels = preprojective_relations(qd.base) if kind == "preprojective" else \
        zigzag_dual_relations(qd)
    return _Table(qd, rels, fld, None if fld == QQ else _table(qd, kind, QQ))


def _preprojective_table(q: Quiver, fld: FieldSpec) -> _Table:
    return _table(double(q), "preprojective", fld)


def _koszul_dual_table(g: Graph, fld: FieldSpec) -> _Table:
    return _table(doubled_of_graph(g), "koszul-dual-zigzag", fld)


def _piece(table: _Table, n: int) -> GradedQuotientPiece:
    if n < 0:
        raise ValueError("degree must be >= 0")
    basis = table.degree(n)
    return GradedQuotientPiece(n, table.fld, len(basis), list(basis))


def lambda_piece(q: Quiver, n: int, fld: FieldSpec) -> GradedQuotientPiece:
    """The degree-n piece of the preprojective algebra of q."""
    return _piece(_preprojective_table(q, fld), n)


def koszul_dual_zigzag_piece(g: Graph, n: int, fld: FieldSpec) -> GradedQuotientPiece:
    """Degree-n piece of the quadratic dual of the zigzag algebra of g."""
    return _piece(_koszul_dual_table(g, fld), n)


def cyclic_piece_dim(q: Quiver, n: int, i: int, fld: FieldSpec) -> int:
    """dim e_i Lambda^n e_i: the normal words of degree n that start and end at i."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return sum(1 for b in _preprojective_table(q, fld).degree(n) if b.source == b.target == i)


def _trace_of(table: _Table, n: int, want_witnesses: bool) -> TracePiece:
    if n < 0:
        raise ValueError("degree must be >= 0")
    closed, ech = table.trace(n)
    return TracePiece(n, closed - ech.rank, table.witnesses(n) if want_witnesses else None)


def trace_piece(q: Quiver, n: int, fld: FieldSpec, want_witnesses: bool = True) -> TracePiece:
    """Dimension of (Lambda / [Lambda, Lambda])^n for the preprojective algebra."""
    return _trace_of(_preprojective_table(q, fld), n, want_witnesses)


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
        return _trace_of(_koszul_dual_table(obj, fld), n, want_witnesses)
    raise ValueError("unknown quotient kind %r" % (kind,))


def _is_walk(qd: DoubledQuiver, p: Path) -> bool:
    """Whether p's letters are composable arrows of qd running from p.source to p.target."""
    at = p.source
    for a in p.letters:
        if not 0 <= a < qd.arrow_count or qd.arrow_source[a] != at:
            return False
        at = qd.arrow_target[a]
    return 1 <= p.source <= qd.vertex_count and at == p.target


def cycle_class_in_trace_is_zero(q: Quiver, cycle: Path, fld: FieldSpec) -> bool:
    """Exact membership of a cycle in relations + commutators of its degree."""
    if not cycle.is_cycle():
        raise ValueError("not a cycle: %r" % (cycle,))
    if not _is_walk(double(q), cycle):
        raise ValueError("cycle does not belong to this quiver")
    table = _preprojective_table(q, fld)
    _, ech = table.trace(cycle.length)
    return in_span(fld, ech, table.class_of(cycle, []))
