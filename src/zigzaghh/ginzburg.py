"""The 2-Ginzburg dg algebra of a quiver and its HH^{2,q} pipeline.

The dg algebra is the free path algebra on the double quiver plus one
loop t_i per vertex, bigraded with arrows in (0,1) and loops in (-1,2).
The differential kills arrows and sends t_i to e_i (sum of [a, a*]) e_i,
extended as a derivation with the sign (-1)^(degree of the prefix).

HH^{2,q} is computed from a small three-term complex: elementary
bimodule maps on the doubled arrows and diagonal one-loop words map into
length-(q+2) cycles, and the dimension is the cokernel of the assembled
matrix.  A mapping-cone resolution is kept alongside as a desk-scale
correctness witness, never as the production pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .exactla import ExactMatrix, FieldSpec, span_info
from .pathalg import (BigradedElement, Path, all_cycles, basis_of_bidegree, concat,
                      loop_count, make_path, path_name, paths_between)
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
    dom1: list[tuple[int, Path]]   # (doubled arrow, value path of length q+1)
    dom2: list[Path]               # diagonal one-loop words, q arrows
    codomain: list[Path]           # length-(q+2) cycles in the double quiver
    cols1: list[dict]              # sparse columns {codomain index: coeff} of dom1
    cols2: list[dict]              # and of dom2

    def combined_columns(self) -> list[dict]:
        return self.cols1 + self.cols2


def hh2_complex(q: Quiver, adams: int, fld: FieldSpec) -> HH2Complex:
    if adams < -2:
        raise ValueError("no complex below Adams degree -2")
    qg = ginzburg_of(q)
    qd = qg.doubled
    codomain = all_cycles(qd, adams + 2)
    index = {w: i for i, w in enumerate(codomain)}

    dom1: list[tuple[int, Path]] = []
    cols1: list[dict] = []
    for x in range(qd.arrow_count if adams + 1 >= 0 else 0):
        partner = qd.star(x)
        for pi in paths_between(qd, qd.arrow_source[x], qd.arrow_target[x], adams + 1):
            dom1.append((x, pi))
            first = Path(pi.source, pi.letters + (partner,), pi.source)
            second = Path(qd.arrow_source[partner], (partner,) + pi.letters, pi.target)
            col: dict[int, int] = {}
            sign = 1 if x % 2 == 0 else -1
            for w, s in ((first, sign), (second, -sign)):
                i = index[w]
                col[i] = col.get(i, 0) + s
            col = {i: v for i, v in col.items() if v}
            cols1.append(col)

    rels = _vertex_relations(qg)
    dom2: list[Path] = []
    cols2: list[dict] = []
    if adams >= 0:
        for w in basis_of_bidegree(qg, -1, adams + 2, closed=True):
            dom2.append(w)
            pos = next(k for k, a in enumerate(w.letters) if qg.is_loop(a))
            v = qg.arrow_source[w.letters[pos]]
            col = {}
            for coeff, (l1, l2) in rels[v]:
                word = Path(w.source, w.letters[:pos] + (l1, l2) + w.letters[pos + 1:], w.target)
                i = index[word]
                col[i] = col.get(i, 0) + coeff
            cols2.append({i: v2 for i, v2 in col.items() if v2})

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
# the mapping-cone resolution as a correctness witness
# ---------------------------------------------------------------------------


@dataclass
class ConeCheck:
    """Outcome of the desk-scale resolution check on a bidegree window."""

    quiver_name: Optional[str]
    p_window: tuple[int, int]
    q_max: int
    delta_squared_zero: bool
    theta_chain_map: bool
    cone_squared_zero: bool
    cohomology_matches: list[tuple[int, int, int, int]]  # (p, q, dim cone, dim B)
    window_complete: bool

    @property
    def ok(self) -> bool:
        return (self.delta_squared_zero and self.theta_chain_map
                and self.cone_squared_zero
                and all(a == b for (_, _, a, b) in self.cohomology_matches))


def _compose_columns(target_cols: list[dict], cols: list[dict], fld: FieldSpec) -> list[dict]:
    """Columns of g∘f when f's columns land in g's source basis."""
    out = []
    for col in cols:
        acc: dict[int, object] = {}
        for mid, c in col.items():
            for i, v in target_cols[mid].items():
                s = fld.add(acc.get(i, fld.zero()), fld.mul(fld.element(v), fld.element(c)))
                if fld.is_zero(s):
                    acc.pop(i, None)
                else:
                    acc[i] = s
        out.append(acc)
    return out


def _all_zero(cols: list[dict]) -> bool:
    return all(not c for c in cols)


def verify_cone_resolution(q: Quiver, p_window: tuple[int, int], q_max: int,
                           fld: FieldSpec) -> ConeCheck:
    """Check the cone of theta: B (x) kQbar_1 (x) B -> B (x) B resolves B.

    theta(a (x) x (x) b) = ax (x) b - a (x) xb; the bimodule differential
    carries the outer differentials of both B factors plus the split map
    that replaces a loop by all splittings of its relation.  On a finite
    bidegree window we verify the differentials square to zero, theta is
    a chain map, and the cone has the cohomology of B itself.
    """
    qg = ginzburg_of(q)
    rels = _vertex_relations(qg)

    def b_basis(p: int, adams: int) -> list[Path]:
        if p > 0:
            return []
        return basis_of_bidegree(qg, p, adams)

    results_by_q: dict[int, dict] = {}
    delta_sq = True
    chain_map = True
    cone_sq = True
    matches: list[tuple[int, int, int, int]] = []
    p_lo_req, p_hi_req = p_window

    for adams in range(0, q_max + 1):
        p_lo = -adams - 1  # everything vanishes below: each loop costs 2 Adams units
        p_range = list(range(p_lo, 2))

        # -- bases ------------------------------------------------------
        u_basis: dict[int, list[tuple[Path, int, Path]]] = {}
        v_basis: dict[int, list[tuple[Path, Path]]] = {}
        b_pieces: dict[int, list[Path]] = {}
        for p in p_range:
            b_pieces[p] = b_basis(p, adams)
            triples = []
            pairs = []
            for pa in range(p_lo, 1):
                for qa in range(0, adams + 1):
                    lefts = b_basis(pa, qa)
                    if not lefts:
                        continue
                    for x in range(qg.arrow_count):
                        px, qx = qg.bidegree(x)
                        pb = p - pa - px
                        qb = adams - qa - qx
                        if pb > 0 or qb < 0:
                            continue
                        rights = b_basis(pb, qb)
                        if not rights:
                            continue
                        for a in lefts:
                            if a.target != qg.arrow_source[x]:
                                continue
                            for b in rights:
                                if qg.arrow_target[x] == b.source:
                                    triples.append((a, x, b))
                    pb = p - pa
                    qb = adams - qa
                    if pb <= 0 and qb >= 0:
                        rights = b_basis(pb, qb)
                        for a in lefts:
                            for b in rights:
                                if a.target == b.source:
                                    pairs.append((a, b))
            u_basis[p] = triples
            v_basis[p] = pairs

        u_index = {p: {t: i for i, t in enumerate(u_basis[p])} for p in p_range}
        v_index = {p: {t: i for i, t in enumerate(v_basis[p])} for p in p_range}
        b_index = {p: {w: i for i, w in enumerate(b_pieces[p])} for p in p_range}

        def d_word(w: Path) -> list[tuple[Path, int]]:
            img = differential(qg, w, fld)
            return [(t, c) for t, c in img.terms.items()]

        def delta_u_column(p: int, a: Path, x: int, b: Path) -> dict:
            col: dict[int, object] = {}
            tgt = u_index.get(p + 1, {})

            def put(trip, coeff):
                i = tgt.get(trip)
                if i is None:
                    return
                s = fld.add(col.get(i, fld.zero()), fld.element(coeff))
                if fld.is_zero(s):
                    col.pop(i, None)
                else:
                    col[i] = s

            for t, c in d_word(a):
                put((t, x, b), c)
            sa = -1 if loop_count(qg, a) % 2 else 1
            if qg.is_loop(x):
                v = qg.arrow_source[x]
                for coeff, (l1, l2) in rels[v]:
                    left = concat(a, make_path(qg, (l1,)))
                    right = concat(make_path(qg, (l2,)), b)
                    put((a, l1, right), sa * coeff)
                    put((left, l2, b), sa * coeff)
            sx = -1 if qg.is_loop(x) else 1
            for t, c in d_word(b):
                put((a, x, t), sa * sx * c)
            return col

        def theta_column(p: int, a: Path, x: int, b: Path) -> dict:
            col: dict[int, object] = {}
            tgt = v_index.get(p, {})
            xpath = make_path(qg, (x,))
            for pair, coeff in (((concat(a, xpath), b), 1), ((a, concat(xpath, b)), -1)):
                i = tgt.get(pair)
                if i is None:
                    continue
                s = fld.add(col.get(i, fld.zero()), fld.element(coeff))
                if fld.is_zero(s):
                    col.pop(i, None)
                else:
                    col[i] = s
            return col

        def dv_column(p: int, a: Path, b: Path) -> dict:
            col: dict[int, object] = {}
            tgt = v_index.get(p + 1, {})

            def put(pair, coeff):
                i = tgt.get(pair)
                if i is None:
                    return
                s = fld.add(col.get(i, fld.zero()), fld.element(coeff))
                if fld.is_zero(s):
                    col.pop(i, None)
                else:
                    col[i] = s

            for t, c in d_word(a):
                put((t, b), c)
            sa = -1 if loop_count(qg, a) % 2 else 1
            for t, c in d_word(b):
                put((a, t), sa * c)
            return col

        def db_column(p: int, w: Path) -> dict:
            tgt = b_index.get(p + 1, {})
            col = {}
            for t, c in d_word(w):
                i = tgt.get(t)
                if i is not None:
                    col[i] = fld.element(c)
            return col

        delta_cols = {p: [delta_u_column(p, *t) for t in u_basis[p]] for p in p_range[:-1]}
        theta_cols = {p: [theta_column(p, *t) for t in u_basis[p]] for p in p_range}
        dv_cols = {p: [dv_column(p, *t) for t in v_basis[p]] for p in p_range[:-1]}
        db_cols = {p: [db_column(p, w) for w in b_pieces[p]] for p in p_range[:-1]}

        for p in p_range[:-2]:
            if not _all_zero(_compose_columns(delta_cols[p + 1], delta_cols[p], fld)):
                delta_sq = False
            lhs = _compose_columns(theta_cols[p + 1], delta_cols[p], fld)
            rhs = _compose_columns(dv_cols[p], theta_cols[p], fld)
            for cl, cr in zip(lhs, rhs):
                diff = dict(cl)
                for i, v in cr.items():
                    s = fld.sub(diff.get(i, fld.zero()), fld.element(v))
                    if fld.is_zero(s):
                        diff.pop(i, None)
                    else:
                        diff[i] = s
                if diff:
                    chain_map = False

        # -- cone: C^p = U^{p+1} + V^p, D(u, v) = (-delta u, theta u + dv v)
        cone_dims = {p: len(u_basis.get(p + 1, [])) + len(v_basis[p]) for p in p_range[:-1]}
        cone_cols: dict[int, list[dict]] = {}
        for p in p_range[:-2]:
            nu_next = len(u_basis.get(p + 2, []))
            cols = []
            for j, t in enumerate(u_basis[p + 1]):
                col: dict[int, object] = {}
                for i, v in delta_cols[p + 1][j].items():
                    col[i] = fld.neg(fld.element(v))
                for i, v in theta_cols[p + 1][j].items():
                    s = fld.add(col.get(nu_next + i, fld.zero()), fld.element(v))
                    if fld.is_zero(s):
                        col.pop(nu_next + i, None)
                    else:
                        col[nu_next + i] = s
                cols.append(col)
            for j, t in enumerate(v_basis[p]):
                cols.append({nu_next + i: v for i, v in dv_cols[p][j].items()})
            cone_cols[p] = cols

        for p in p_range[:-3]:
            if not _all_zero(_compose_columns(cone_cols[p + 1], cone_cols[p], fld)):
                cone_sq = False

        for p in range(max(p_lo_req, p_lo + 1), min(p_hi_req, 0) + 1):
            rank_out = span_info(fld, cone_cols[p], cone_dims[p + 1]).rank if p in cone_cols else 0
            rank_in = span_info(fld, cone_cols[p - 1], cone_dims[p]).rank if p - 1 in cone_cols else 0
            h_cone = cone_dims[p] - rank_out - rank_in
            rank_out_b = span_info(fld, db_cols[p], len(b_pieces[p + 1])).rank if p in db_cols else 0
            rank_in_b = span_info(fld, db_cols[p - 1], len(b_pieces[p])).rank if p - 1 in db_cols else 0
            h_b = len(b_pieces[p]) - rank_out_b - rank_in_b
            matches.append((p, adams, h_cone, h_b))

    window_complete = p_lo_req <= -(q_max // 2) and p_hi_req >= 0
    return ConeCheck(q.name, p_window, q_max, delta_sq, chain_map, cone_sq,
                     matches, window_complete)


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
