"""The 2-Ginzburg dg algebra of a quiver and its HH^{2,q} pipeline.

The dg algebra is the free path algebra on the double quiver plus one
loop t_i per vertex, bigraded with arrows in (0,1) and loops in (-1,2).
The differential kills arrows and sends t_i to e_i (sum of [a, a*]) e_i,
extended as a derivation with the sign (-1)^(degree of the prefix).

HH^{2,q} is the cokernel of a small three-term complex into the
length-(q+2) cycles.  Only columns that span its image are emitted; the
rank and the free coordinates (the witnesses) depend only on the row
space.  The maps pi x* - x* pi of the doubled arrows x are read off the
codomain, one per cycle w = pi x*, x the star of w's last letter.
Modulo them every cycle equals its rotations, so the one-loop word
u t_v u' has the column of t_v u' u, and one column r_v c per closed
walk c of length q at v spans them all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .exactla import ExactMatrix, FieldSpec, span_info
from .pathalg import (BigradedElement, Path, all_cycles, basis_of_bidegree, make_path,
                      path_name)
from .preproj import cycle_class_in_trace_is_zero, doubled_of, preprojective_relations
from .quiver import GinzburgQuiver, Quiver, ginzburg_extend
from .reports import HHReport


@functools.cache
def ginzburg_of(q: Quiver) -> GinzburgQuiver:
    return ginzburg_extend(doubled_of(q))


def _vertex_relations(qg: GinzburgQuiver) -> dict[int, list[tuple[int, tuple[int, int]]]]:
    # the doubled-arrow letter pairs share indices with the Ginzburg quiver
    return preprojective_relations(qg.doubled.base)


def relation_element(qg: GinzburgQuiver, v: int, fld: FieldSpec) -> BigradedElement:
    """d(t_v) = e_v (sum of [a, a*]) e_v as an explicit arrow word sum."""
    terms: dict[Path, int] = {}
    for coeff, (l1, l2) in _vertex_relations(qg)[v]:
        terms[make_path(qg, (l1, l2))] = coeff
    return BigradedElement(fld, qg, terms)


def differential(qg: GinzburgQuiver, w: Path, fld: FieldSpec) -> BigradedElement:
    """Derivation extension of d(loop) = vertex relation, d(arrow) = 0.

    Each loop occurrence is replaced by its relation with the Koszul sign
    of the prefix, i.e. (-1)^(number of loops before the occurrence).
    """
    out = BigradedElement.zero(fld, qg)
    rels = _vertex_relations(qg)
    loops_before = 0
    for pos, letter in enumerate(w.letters):
        if not qg.is_loop(letter):
            continue
        v = qg.arrow_source[letter]
        sign = -1 if loops_before % 2 else 1
        terms: dict[Path, int] = {}
        for coeff, (l1, l2) in rels[v]:
            word = w.letters[:pos] + (l1, l2) + w.letters[pos + 1:]
            terms[Path(w.source, word, w.target)] = sign * coeff
        out = out + BigradedElement(fld, qg, terms)
        loops_before += 1
    return out


def element_differential(x: BigradedElement) -> BigradedElement:
    """Linear extension of the word differential."""
    qg = x.quiver
    out = BigradedElement.zero(x.field, qg)
    for w, c in x.terms.items():
        out = out + differential(qg, w, x.field).scale(c)
    return out


@dataclass
class DgPiece:
    """One bidegree piece with the differential matrix into (p+1, q)."""

    bidegree: tuple[int, int]
    basis: list[Path]
    target_basis: list[Path]
    matrix: ExactMatrix  # rows: target basis, cols: basis


def dg_piece(qg: GinzburgQuiver, p: int, q: int, fld: FieldSpec) -> DgPiece:
    basis = basis_of_bidegree(qg, p, q)
    target = basis_of_bidegree(qg, p + 1, q) if p + 1 <= 0 else []
    index = {w: i for i, w in enumerate(target)}
    cols = []
    for w in basis:
        img = differential(qg, w, fld)
        cols.append({index[t]: c for t, c in img.terms.items()})
    return DgPiece((p, q), basis, target, ExactMatrix.from_columns(fld, cols, len(target)))


def h0_dim(q: Quiver, adams: int, fld: FieldSpec) -> int:
    """dim H^0(B^{*, adams}) = dim of arrow words modulo d(one-loop words)."""
    if adams < 0:
        return 0
    qg = ginzburg_of(q)
    piece = dg_piece(qg, -1, adams, fld)
    return len(piece.target_basis) - piece.matrix.rank()


@dataclass
class HH2Complex:
    """The three-term complex computing HH^{2,q} of the dg algebra."""

    q: int
    field: FieldSpec
    dom1: list[tuple[int, Path]]   # (doubled arrow x, path pi of length q+1): pi x* - x* pi
    dom2: list[Path]               # t_v c for the closed walks c of length q at v
    codomain: list[Path]           # length-(q+2) cycles in the double quiver
    cols1: list[dict]              # sparse columns {codomain index: coeff} of dom1
    cols2: list[dict]              # and of dom2: r_v c

    def combined_columns(self) -> list[dict]:
        return self.cols1 + self.cols2


def hh2_complex(q: Quiver, adams: int, fld: FieldSpec) -> HH2Complex:
    if adams < -2:
        raise ValueError("no complex below Adams degree -2")
    qg = ginzburg_of(q)
    qd = qg.doubled
    codomain = all_cycles(qd, adams + 2)
    # a cycle of positive length is fixed by its letters
    index = {w.letters: i for i, w in enumerate(codomain)}

    # one column per cycle w = pi x*, ordered by x and then by pi
    dom1: list[tuple[int, Path]] = []
    cols1: list[dict] = []
    for i in sorted(range(len(codomain) if adams + 2 > 0 else 0),
                    key=lambda i: qd.star(codomain[i].letters[-1])):
        w = codomain[i]
        partner = w.letters[-1]
        x = qd.star(partner)
        pi = Path(w.source, w.letters[:-1], qd.arrow_source[partner])
        dom1.append((x, pi))
        j = index[(partner,) + pi.letters]
        sign = 1 if x % 2 == 0 else -1
        cols1.append({i: sign, j: -sign} if i != j else {})

    rels = _vertex_relations(qg)
    dom2: list[Path] = []
    cols2: list[dict] = []
    for c in all_cycles(qd, adams) if adams >= 0 else ():
        v = c.source
        dom2.append(Path(v, (qg.loop_index[v],) + c.letters, v))
        cols2.append({index[pair + c.letters]: coeff for coeff, pair in rels[v]})

    return HH2Complex(adams, fld, dom1, dom2, codomain, cols1, cols2)


def hh2_dim(q: Quiver, adams: int, fld: FieldSpec, want_witnesses: bool = False) -> HHReport:
    """HH^{2,adams} of the dg algebra, as the cokernel of the small complex."""
    if adams < -2:
        return HHReport(2, adams, "ginzburg", 0, () if want_witnesses else None)
    qg = ginzburg_of(q)
    qd = qg.doubled
    cx = hh2_complex(q, adams, fld)
    cols = cx.combined_columns()
    info = span_info(fld, cols, len(cx.codomain))
    reps = None
    if want_witnesses:
        reps = tuple(path_name(qd, cx.codomain[i]) for i in info.free_coords)
    return HHReport(2, adams, "ginzburg", info.quotient_dim, reps)


# ---------------------------------------------------------------------------
# first-order deformation of the differential by a cycle
# ---------------------------------------------------------------------------


@dataclass
class DeformationCheck:
    cycle: str
    length: int
    nontrivial: bool
    squares_to_zero: bool


def first_order_deformation_check(q: Quiver, w_cycle: Path, fld: FieldSpec) -> DeformationCheck:
    """Deform d(t) by adding a cycle of length > 2, to first order.

    Checks (i) the cycle's class in the trace space is nonzero, so the
    deformation is not a coboundary, and (ii) the deformed differential
    still squares to zero to first order (the correction is an arrow word,
    which the differential kills).
    """
    qd = doubled_of(q)
    if not w_cycle.is_cycle():
        raise ValueError("deformation needs a cycle, got %s -> %s" % (w_cycle.source, w_cycle.target))
    if w_cycle.length <= 2:
        raise ValueError("deformation cycles must have length > 2")
    make_path(qd, w_cycle.letters)  # validates composability in this quiver

    nontrivial = not cycle_class_in_trace_is_zero(q, w_cycle, fld)

    qg = ginzburg_of(q)
    squares = True
    for v in range(1, qg.vertex_count + 1):
        r_v = relation_element(qg, v, fld)
        if not element_differential(r_v).is_zero():
            squares = False
    w_elem = BigradedElement.of_path(fld, qg, Path(w_cycle.source, w_cycle.letters, w_cycle.target))
    if not element_differential(w_elem).is_zero():
        squares = False

    return DeformationCheck(path_name(qd, w_cycle), w_cycle.length, nontrivial, squares)
