"""The 2-Ginzburg dg algebra of a quiver and its HH^{2,q} pipeline.

The dg algebra is the free path algebra on the double quiver plus one
loop t_i per vertex, bigraded with arrows in (0,1) and loops in (-1,2).
The differential kills arrows and sends t_i to e_i (sum of [a, a*]) e_i,
so H^0 is the preprojective algebra (Ginzburg, Calabi-Yau algebras,
arXiv:math/0612139).  The package builds no dg element: `h0_dim` reads
Lambda, and the small complex below is assembled from closed walks.

HH^{2,q} is the cokernel of a small three-term complex into the
length-(q+2) cycles.  Its dimension and its witnesses, the free
coordinates, depend only on the column space and the coordinate order.
The maps pi x* - x* pi of the doubled arrows x are the rotation columns
e_w - e_{rot w}, so they are eliminated in closed form: the coordinates
are the necklaces (`pathalg.all_necklaces`, ascending), and every cycle
is read as its necklace.  A necklace is the largest cycle of its
rotation class, and every other cycle is a pivot of a rotation column,
so the free necklaces are the free cycles of the full complex.  Modulo
rotations the loop of a one-loop word u t_v u' can go first, so one
column r_v c per closed walk c of length q at v spans the rest, each
term read as its necklace and the coefficients summed: `hh2_complex`.
A term x x^1 c of r_v c (x^1 the partner of x, sign + for a base arrow)
is the rotation of its necklace at a position where x is followed by
x^1, so one scan of each necklace over one period finds its terms, and c
is looked up by its letters among the closed walks: no rotation is built.
The full complex, rotation columns and domain paths included, is kept
in `tests/oracle.py` as the reference.

The columns are integral and take no field, so every field reads one
assembly: `hh2_complex` is kept for the process, keyed by the quiver's
value, like `pathalg.all_cycles`, and its lists are shared, not copied.
A Q elimination whose echelon is unimodular (see exactla) has the same
pivots mod every p, so it records its rank and free coordinates for the
quiver, and an F_p `hh2_dim` at a recorded cell eliminates nothing.  At
any other cell F_p eliminates the columns mod p, and it never starts a Q
elimination, so a process asked only over F_p does no Q work.
"""

from __future__ import annotations

import functools

from .exactla import FieldSpec, echelonize
from .pathalg import Path, all_cycles, all_necklaces, path_name
from .preproj import lambda_piece
from .quiver import Quiver, double
from .reports import HHReport


def h0_dim(q: Quiver, adams: int, fld: FieldSpec) -> int:
    """dim H^0 of the dg algebra in Adams degree `adams`: H^0 is Lambda."""
    return lambda_piece(q, adams, fld).dimension if adams >= 0 else 0


@functools.cache
def hh2_complex(q: Quiver, adams: int) -> tuple[list[Path], list[dict]]:
    """The small complex in Adams degree adams >= -2, rotation columns
    eliminated: the necklaces of length adams + 2, ascending, and one column
    r_v c per closed walk c of length adams, sparse {necklace index: coeff}.
    Kept for the process: callers must not mutate the lists."""
    if adams < -2:
        raise ValueError("no complex below Adams degree -2")
    qd = double(q)
    necklaces = all_necklaces(qd, adams + 2)
    cycles = all_cycles(qd, adams) if adams >= 0 else []
    index = {c.letters or c.source: j for j, c in enumerate(cycles)}   # e_v has no letters
    cols: list[dict] = [{} for _ in cycles]
    for i, w in enumerate(necklaces):
        twice, first = w.letters * 2, None
        for k, x in enumerate(w.letters):
            if twice[k + 1] != x ^ 1:
                continue
            c = twice[k + 2:k + adams + 2]   # the rotation at k is the term x x^1 c of r_v c
            if first is None:
                first = x, c
            elif first == (x, c):
                break   # a period after the first pair: the later rotations repeat
            col = cols[index[c or qd.arrow_source[x]]]
            col[i] = col.get(i, 0) + (-1 if x & 1 else 1)
    return necklaces, cols


@functools.cache
def _certified(q: Quiver) -> dict[int, tuple[int, list[int]]]:
    """Adams degree -> (rank, free coordinates) of each cell of q whose Q
    echelon was unimodular; empty until a Q `hh2_dim` fills it."""
    return {}


def hh2_dim(q: Quiver, adams: int, fld: FieldSpec, want_witnesses: bool = False) -> HHReport:
    """HH^{2,adams} of the dg algebra, as the cokernel of `hh2_complex`."""
    if adams < -2:
        return HHReport(2, adams, "ginzburg", 0, () if want_witnesses else None)
    necklaces, cols = hh2_complex(q, adams)
    certified = _certified(q)
    profile = certified.get(adams)
    if profile is None:
        ech = echelonize(fld, cols, len(necklaces))
        profile = ech.rank, ech.free_cols()
        if ech.unimodular:   # never over F_p
            certified[adams] = profile
    rank, free = profile
    reps = tuple(path_name(double(q), necklaces[i]) for i in free) if want_witnesses else None
    return HHReport(2, adams, "ginzburg", len(necklaces) - rank, reps)
