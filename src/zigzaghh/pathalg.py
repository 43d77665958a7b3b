"""Words in doubled / Ginzburg quivers and bigraded linear combinations.

Composition convention, used consistently everywhere: paths compose left
to right, so pq means "traverse p, then q" and requires target(p) =
source(q); e_i a e_j is a path from i to j.  Words are ordered
lexicographically by their arrow-id sequences, which fixes every basis
ordering in the package.

Enumeration is driven by constraints: one depth-first walk extends a
word only by letters its budget still allows (any letter for `all_words`;
loop and other letters counted apart for `basis_of_bidegree`, which so
builds no word of another bidegree; for `all_cycles`, a last letter only
back to the first letter's source, so no open word is built either) and
emits the words already in that order, with no sort.  Cycles come only
from the closed walk (`all_cycles`); no code filters a word table for
them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .exactla import FieldSpec, Scalar
from .quiver import two_coloring


class Path(NamedTuple):
    """A path: base vertex for length 0, else a composable arrow-id word."""

    source: int
    letters: tuple[int, ...]
    target: int

    @property
    def length(self) -> int:
        return len(self.letters)

    def is_cycle(self) -> bool:
        return self.source == self.target


def trivial_path(v: int) -> Path:
    return Path(v, (), v)


def make_path(q, letters) -> Path:
    """Build a path from arrow indices, checking composability."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("use trivial_path(v) for length-0 paths")
    src = q.arrow_source
    tgt = q.arrow_target
    for a, b in zip(letters, letters[1:]):
        if tgt[a] != src[b]:
            raise ValueError("non-composable letters %r" % (letters,))
    return Path(src[letters[0]], letters, tgt[letters[-1]])


def path_from_names(q, names: list[str]) -> Path:
    """Build a path from arrow names like ["a4", "a1*", "a1", "a4*"]."""
    index = {name: k for k, name in enumerate(q.arrow_names)}
    return make_path(q, [index[n] for n in names])


def concat(p: Path, r: Path) -> Optional[Path]:
    """Concatenation pr, or None when target(p) != source(r)."""
    if p.target != r.source:
        return None
    return Path(p.source, p.letters + r.letters, r.target)


def path_name(q, p: Path) -> str:
    if not p.letters:
        return "e%d" % p.source
    return " ".join(q.arrow_names[a] for a in p.letters)


def loop_count(q, p: Path) -> int:
    return sum(1 for a in p.letters if q.is_loop(a))


def arrow_count(q, p: Path) -> int:
    return p.length - loop_count(q, p)


def path_bidegree(q, p: Path) -> tuple[int, int]:
    """(cohomological, Adams) degree: arrows count (0,1), loops (-1,2)."""
    loops = loop_count(q, p)
    return (-loops, p.length + loops)


# ---------------------------------------------------------------------------
# enumeration (deterministic: lexicographic in arrow ids)
# ---------------------------------------------------------------------------

def _words(q, n: int, loops: Optional[int] = None, closed: bool = False) -> list[Path]:
    """Length-n words in lexicographic letter order, from one depth-first walk.

    With `loops` given, only the words with exactly that many loop letters:
    a loop is tried only while loops remain, any other letter only while
    arrows remain.  Loops carry the largest arrow ids (see GinzburgQuiver),
    so trying the other letters first keeps the order.  With `closed`, only
    the cycles: the last letter must return to the first letter's source.
    """
    if n == 0:
        return [trivial_path(v) for v in range(1, q.vertex_count + 1)]
    src = q.arrow_source
    tgt = q.arrow_target
    # steps[v] = (non-loop letters, loop letters) leaving v; steps[0] holds
    # every letter, for the first position.  ends[v, s] splits the letters
    # from v back to s alike; ends[0, 0], the letters from a vertex back to
    # itself, close a one-letter walk.
    steps = {v: ([], []) for v in range(q.vertex_count + 1)}
    ends: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for k in range(q.arrow_count):
        kind = loops is not None and q.is_loop(k)
        steps[src[k]][kind].append(k)
        steps[0][kind].append(k)
        ends.setdefault((src[k], tgt[k]), ([], []))[kind].append(k)
        if src[k] == tgt[k]:
            ends.setdefault((0, 0), ([], []))[kind].append(k)
    out: list[Path] = []
    word = [0] * n
    last = n - 1 if closed else n
    nothing = ([], [])

    def extend(pos: int, at: int, arrows_left: int, loops_left: int):
        if pos == n:
            out.append(Path(src[word[0]], tuple(word), at))
            return
        if pos == last:
            arrow_steps, loop_steps = ends.get((at, src[word[0]] if pos else 0), nothing)
        else:
            arrow_steps, loop_steps = steps[at]
        if arrows_left:
            for k in arrow_steps:
                word[pos] = k
                extend(pos + 1, tgt[k], arrows_left - 1, loops_left)
        if loops_left:
            for k in loop_steps:
                word[pos] = k
                extend(pos + 1, tgt[k], arrows_left, loops_left - 1)

    loops = loops or 0
    extend(0, 0, n - loops, loops)
    return out


def all_words(q, n: int) -> list[Path]:
    """All length-n words in the quiver, in lexicographic letter order."""
    cache = q._cache
    hit = cache.get(n)
    if hit is None:
        hit = cache[n] = _words(q, n)
    return hit


def words_by_endpoints(q, n: int) -> dict[tuple[int, int], list[Path]]:
    cache = q._cache
    key = ("by_st", n)
    hit = cache.get(key)
    if hit is not None:
        return hit
    table: dict[tuple[int, int], list[Path]] = {}
    for p in all_words(q, n):
        table.setdefault((p.source, p.target), []).append(p)
    cache[key] = table
    return table


def paths_between(qd, i: int, j: int, n: int) -> list[Path]:
    """All length-n doubled-quiver paths from i to j, in lexicographic order."""
    if n < 0:
        raise ValueError("length must be >= 0")
    return words_by_endpoints(qd, n).get((i, j), [])


def all_cycles(q, n: int) -> list[Path]:
    """All length-n cycles, in global lexicographic letter order.

    A 2-colored quiver has no cycle of odd length, and the walk for one
    would visit every open word of length n - 1 to keep none, so it is
    not walked.
    """
    cache = q._cache
    key = ("closed", n)
    hit = cache.get(key)
    if hit is None:
        colored = n % 2 and two_coloring(q.vertex_count, zip(q.arrow_source, q.arrow_target))
        hit = cache[key] = [] if colored else _words(q, n, closed=True)
    return hit


def basis_of_bidegree(qg, p: int, q: int) -> list[Path]:
    """All Ginzburg words of bidegree (p, q): -p loops and q+2p arrows."""
    if p > 0:
        raise ValueError("Ginzburg words live in non-positive cohomological degree")
    loops = -p
    arrows = q + 2 * p
    if arrows < 0:
        return []
    n = loops + arrows
    cache = qg._cache
    key = ("bideg", p, q)
    hit = cache.get(key)
    if hit is not None:
        return hit
    out = _words(qg, n, loops)
    cache[key] = out
    return out


# ---------------------------------------------------------------------------
# bigraded linear combinations
# ---------------------------------------------------------------------------

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
