"""The 2-Ginzburg dg algebra of a quiver and its HH^{2,q} pipeline.

The dg algebra is the free path algebra on the double quiver plus one
loop t_i per vertex, bigraded with arrows in (0,1) and loops in (-1,2).
The differential kills arrows and sends t_i to e_i (sum of [a, a*]) e_i,
so H^0 is the preprojective algebra (Ginzburg, Calabi-Yau algebras,
arXiv:math/0612139).  The package builds no dg element: `h0_dim` reads
Lambda, and the small complex below is assembled from closed walks.

HH^{2,q} is the cokernel of a small three-term complex into the
length-(q+2) cycles.  Only columns that span its image are emitted; the
rank and the free coordinates (the witnesses) depend only on the row
space.  The maps pi x* - x* pi of the doubled arrows x are read off the
codomain, one per cycle w = pi x*, x the star of w's last letter.
Modulo them every cycle equals its rotations, so the one-loop word
u t_v u' has the column of t_v u' u, and one column r_v c per closed
walk c of length q at v spans them all.  A rotation column has at most
two terms, so the elimination reads it only for its ratio, in the
weighted union-find of `exactla.echelonize`; the relation columns are
most of what reaches the sparse core.  `hh2_dim` assembles only the
codomain and these columns, and `hh2_complex` adds the domain paths to
the same assembly.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .exactla import FieldSpec, span_info
from .pathalg import Path, all_cycles, path_name
from .preproj import doubled_of, lambda_piece, preprojective_relations
from .quiver import GinzburgQuiver, Quiver, ginzburg_extend
from .reports import HHReport


@functools.cache
def ginzburg_of(q: Quiver) -> GinzburgQuiver:
    return ginzburg_extend(doubled_of(q))


def _vertex_relations(qg: GinzburgQuiver) -> dict[int, list[tuple[int, tuple[int, int]]]]:
    # the doubled-arrow letter pairs share indices with the Ginzburg quiver
    return preprojective_relations(qg.doubled.base)


def h0_dim(q: Quiver, adams: int, fld: FieldSpec) -> int:
    """dim H^0 of the dg algebra in Adams degree `adams`: H^0 is Lambda."""
    return lambda_piece(q, adams, fld).dimension if adams >= 0 else 0


class HH2Complex(NamedTuple):
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


def _assemble(q: Quiver, adams: int) -> tuple[list[Path], list[int], list[Path], list[dict]]:
    """The one assembly of the small complex in Adams degree adams >= -2.

    Returns the codomain cycles; the codomain indices of the cycles w = pi x*
    whose maps give the first columns, in column order; the closed walks c
    whose relation columns r_v c follow; and all the columns.
    """
    qg = ginzburg_of(q)
    qd = qg.doubled
    codomain = all_cycles(qd, adams + 2)
    # a cycle of positive length is fixed by its letters
    index = {w.letters: i for i, w in enumerate(codomain)}

    # one column per cycle w = pi x*, ordered by x and then by w: the cycles
    # come out of buckets keyed by their last letter, the star of x
    ending: list[list[int]] = [[] for _ in range(qd.arrow_count)]
    if adams + 2 > 0:
        for i, w in enumerate(codomain):
            ending[w.letters[-1]].append(i)
    rotated: list[int] = []
    cols: list[dict] = []
    for x in range(qd.arrow_count):
        bucket = ending[qd.star(x)]
        sign = 1 if x % 2 == 0 else -1
        for i in bucket:
            letters = codomain[i].letters
            j = index[letters[-1:] + letters[:-1]]
            cols.append({i: sign, j: -sign} if i != j else {})
        rotated += bucket

    rels = _vertex_relations(qg)
    walks = all_cycles(qd, adams) if adams >= 0 else []
    for c in walks:
        cols.append({index[pair + c.letters]: coeff for coeff, pair in rels[c.source]})
    return codomain, rotated, walks, cols


def hh2_complex(q: Quiver, adams: int, fld: FieldSpec) -> HH2Complex:
    if adams < -2:
        raise ValueError("no complex below Adams degree -2")
    qg = ginzburg_of(q)
    qd = qg.doubled
    codomain, rotated, walks, cols = _assemble(q, adams)
    dom1: list[tuple[int, Path]] = []
    for i in rotated:
        w = codomain[i]
        partner = w.letters[-1]
        dom1.append((qd.star(partner), Path(w.source, w.letters[:-1], qd.arrow_source[partner])))
    dom2 = [Path(c.source, (qg.loop_index[c.source],) + c.letters, c.source) for c in walks]
    k = len(rotated)
    return HH2Complex(adams, fld, dom1, dom2, codomain, cols[:k], cols[k:])


def hh2_dim(q: Quiver, adams: int, fld: FieldSpec, want_witnesses: bool = False) -> HHReport:
    """HH^{2,adams} of the dg algebra, as the cokernel of the small complex.

    Only the codomain and the columns are assembled; the domain paths of
    `hh2_complex` are never built.
    """
    if adams < -2:
        return HHReport(2, adams, "ginzburg", 0, () if want_witnesses else None)
    codomain, _, _, cols = _assemble(q, adams)
    info = span_info(fld, cols, len(codomain))
    reps = None
    if want_witnesses:
        qd = ginzburg_of(q).doubled
        reps = tuple(path_name(qd, codomain[i]) for i in info.free_coords)
    return HHReport(2, adams, "ginzburg", info.quotient_dim, reps)
