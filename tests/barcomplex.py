"""The reduced bar complex of a zigzag algebra in every bidegree, for tests.

The package computes HH^{2,q} only.  The d^2 = 0 checks, the low-degree
values against the unreduced oracle and the coboundaries built from
1-cochains read the general-p complex from here: the columns of
`zigzag.delta_columns`, eliminated by `exactla.echelonize`.
"""

from __future__ import annotations

from zigzaghh.exactla import echelonize
from zigzaghh.zigzag import ZigzagAlgebra, delta_columns


def reduced_hh_dim(alg: ZigzagAlgebra, p: int, q: int) -> int:
    """dim HH^{p,q} = dim C^{p,q} - rank d_p - rank d_{p-1} of the reduced complex."""
    source, target, out = delta_columns(alg, p, q)
    rank_out = echelonize(alg.field, out, len(target)).rank
    rank_in = echelonize(alg.field, delta_columns(alg, p - 1, q)[2], len(source)).rank if p else 0
    return len(source) - rank_out - rank_in


def differential(alg: ZigzagAlgebra, p: int, q: int, values: dict) -> dict:
    """d of the (p, q) cochain `values`, {word: {output: coefficient}}, as the
    values of a (p + 1, q) cochain, zero coefficients dropped."""
    fld = alg.field
    source, target, cols = delta_columns(alg, p, q)
    index = {b: i for i, b in enumerate(source)}
    acc: dict[int, object] = {}
    for w, outs in values.items():
        for z, coeff in outs.items():
            for i, v in cols[index[w, z]].items():
                acc[i] = fld.add(acc.get(i, fld.zero()),
                                 fld.mul(fld.element(v), fld.element(coeff)))
    out: dict = {}
    for i, v in acc.items():
        if not fld.is_zero(v):
            w, z = target[i]
            out.setdefault(w, {})[z] = v
    return out
