"""Explicit arithmetic in the 2-Ginzburg dg algebra, as a test reference.

The package computes HH^{2,q} from closed walks and H^0 from the
preprojective algebra, and builds no dg element.  The tests check those
shortcuts against the algebra itself: bigraded linear combinations of
words, their products and commutators, and the differential that kills
arrows and sends the loop t_v to r_v = e_v (sum of [a, a*]) e_v, extended
as a derivation with the Koszul sign of the prefix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from zigzaghh.exactla import ExactMatrix, FieldSpec, Scalar
from zigzaghh.pathalg import (Path, basis_of_bidegree, loop_count, make_path, path_name,
                              trivial_path)
from zigzaghh.preproj import preprojective_relations
from zigzaghh.quiver import GinzburgQuiver, Quiver, double


def path_from_names(q, names: list[str]) -> Path:
    """Build a path from arrow names like ["a4", "a1*", "a1", "a4*"]."""
    index = {name: k for k, name in enumerate(q.arrow_names)}
    return make_path(q, [index[n] for n in names])


def concat(p: Path, r: Path) -> Optional[Path]:
    """Concatenation pr, or None when target(p) != source(r)."""
    if p.target != r.source:
        return None
    return Path(p.source, p.letters + r.letters, r.target)


def path_bidegree(q, p: Path) -> tuple[int, int]:
    """(cohomological, Adams) degree: arrows count (0,1), loops (-1,2)."""
    loops = loop_count(q, p)
    return (-loops, p.length + loops)


class BigradedElement:
    """Formal linear combination of paths of one quiver over a FieldSpec."""

    __slots__ = ("field", "quiver", "terms")

    def __init__(self, fld: FieldSpec, quiver, terms: Optional[dict[Path, Scalar]] = None):
        self.field = fld
        self.quiver = quiver
        self.terms: dict[Path, Scalar] = {}
        if terms:
            for path, coeff in terms.items():
                c = fld.element(coeff)
                if not fld.is_zero(c):
                    self.terms[path] = c

    @classmethod
    def zero(cls, fld: FieldSpec, quiver) -> "BigradedElement":
        return cls(fld, quiver)

    @classmethod
    def of_path(cls, fld: FieldSpec, quiver, path: Path, coeff=1) -> "BigradedElement":
        return cls(fld, quiver, {path: coeff})

    @classmethod
    def idempotent(cls, fld: FieldSpec, quiver, v: int) -> "BigradedElement":
        return cls(fld, quiver, {trivial_path(v): 1})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def bidegree(self) -> Optional[tuple[int, int]]:
        """Common bidegree of all terms, or None if mixed / zero."""
        degs = {path_bidegree(self.quiver, p) for p in self.terms}
        if len(degs) == 1:
            return next(iter(degs))
        return None

    def _check(self, other: "BigradedElement"):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.quiver is not other.quiver:
            raise ValueError("elements of different quivers")

    def __add__(self, other: "BigradedElement") -> "BigradedElement":
        self._check(other)
        f = self.field
        terms = dict(self.terms)
        for path, c in other.terms.items():
            s = f.add(terms.get(path, f.zero()), c)
            if f.is_zero(s):
                terms.pop(path, None)
            else:
                terms[path] = s
        out = BigradedElement(f, self.quiver)
        out.terms = terms
        return out

    def __neg__(self) -> "BigradedElement":
        f = self.field
        out = BigradedElement(f, self.quiver)
        out.terms = {p: f.neg(c) for p, c in self.terms.items()}
        return out

    def __sub__(self, other: "BigradedElement") -> "BigradedElement":
        return self + (-other)

    def scale(self, coeff) -> "BigradedElement":
        f = self.field
        c = f.element(coeff)
        out = BigradedElement(f, self.quiver)
        if not f.is_zero(c):
            out.terms = {p: f.mul(v, c) for p, v in self.terms.items()}
        return out

    def __mul__(self, other: "BigradedElement") -> "BigradedElement":
        self._check(other)
        f = self.field
        terms: dict[Path, Scalar] = {}
        for p, cp in self.terms.items():
            for r, cr in other.terms.items():
                if p.target != r.source:
                    continue
                key = Path(p.source, p.letters + r.letters, r.target)
                s = f.add(terms.get(key, f.zero()), f.mul(cp, cr))
                if f.is_zero(s):
                    terms.pop(key, None)
                else:
                    terms[key] = s
        out = BigradedElement(f, self.quiver)
        out.terms = terms
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, BigradedElement) and self.field == other.field
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p in sorted(self.terms, key=lambda x: (x.length, x.letters, x.source)):
            bits.append("%s*%s" % (self.terms[p], path_name(self.quiver, p)))
        return " + ".join(bits)


def multiply(a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """Bilinear extension of concatenation; non-composable products vanish."""
    return a * b


def commutator(a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """ab - ba (both arguments sit in cohomological degree 0 where used)."""
    return a * b - b * a


@functools.cache
def ginzburg_of(q: Quiver) -> GinzburgQuiver:
    """The Ginzburg quiver of q, one per quiver, on its cached double."""
    return GinzburgQuiver(double(q))


def vertex_relations(qg: GinzburgQuiver) -> dict[int, list[tuple[int, tuple[int, int]]]]:
    """d(t_v) = r_v as letter pairs; the doubled arrows share indices with qg."""
    return preprojective_relations(qg.doubled.base)


def differential(qg: GinzburgQuiver, w: Path, fld: FieldSpec) -> BigradedElement:
    """Derivation extension of d(loop) = vertex relation, d(arrow) = 0.

    Each loop occurrence is replaced by its relation with the Koszul sign
    of the prefix, i.e. (-1)^(number of loops before the occurrence).
    """
    out = BigradedElement.zero(fld, qg)
    rels = vertex_relations(qg)
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
    rows: list[dict] = [{} for _ in target]
    for j, w in enumerate(basis):
        for t, c in differential(qg, w, fld).terms.items():
            rows[index[t]][j] = c
    return DgPiece((p, q), basis, target, ExactMatrix(fld, len(target), len(basis), rows))
