"""The mapping-cone resolution of the 2-Ginzburg dg algebra, as a test witness.

A desk-scale correctness check of the dg differential used by the tests
only, never by a pipeline: on a finite bidegree window the cone of
theta: B (x) kQbar_1 (x) B -> B (x) B must square to zero and have the
cohomology of B itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from zigzaghh.exactla import FieldSpec, span_info
from zigzaghh.pathalg import Path, basis_of_bidegree, loop_count, make_path
from zigzaghh.quiver import Quiver

from dg import concat, differential, ginzburg_of, vertex_relations


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
    rels = vertex_relations(qg)

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
                    s = fld.add(diff.get(i, fld.zero()), fld.neg(fld.element(v)))
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
