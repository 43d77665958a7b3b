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
walk c of length q at v spans them all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
