"""Words in doubled / Ginzburg quivers.

Composition convention, used consistently everywhere: paths compose left
to right, so pq means "traverse p, then q" and requires target(p) =
source(q); e_i a e_j is a path from i to j.  Words are ordered
lexicographically by their arrow-id sequences, which fixes every basis
ordering in the package.

One depth-first walk emits the words already in that order, with no
sort: every word of a length for `all_words`, and for `all_cycles` only
the closed ones, since the last letter must return to the first letter's
source, so no open word is built.  Cycles come only from that closed
walk; no code filters a word table for them.  In its necklace mode the
walk keeps only the prefixes that can still grow into a necklace, a
cycle that is its own largest rotation, so `all_necklaces` builds one
cycle per rotation class and skips most prefixes (on the double of E~8
at length 12: 761 of 8,838 cycles, after 3,065 of 15,502 prefixes).
The walk builds each word when it reaches it.  Necklaces are walked one way, from the largest
down: `necklaces_descending` reads them uncached, for a scan that stops
early, and `all_necklaces` is that walk reversed.  The tables are
`functools.cache` memos keyed by (quiver, length), kept for the process;
equal quivers share them, as `quiver.double` gives them one double.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

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


def path_name(q, p: Path) -> str:
    if not p.letters:
        return "e%d" % p.source
    return " ".join(q.arrow_names[a] for a in p.letters)


def loop_count(q, p: Path) -> int:
    return sum(1 for a in p.letters if q.is_loop(a))


# ---------------------------------------------------------------------------
# enumeration (deterministic: lexicographic in arrow ids)
# ---------------------------------------------------------------------------

def _walk(q, n: int, mode: str = "open") -> Iterator[Path]:
    """Length-n words from one depth-first walk that builds each word when
    it reaches it: every word ("open") or the cycles ("closed", the last
    letter returns to the first letter's source) in lexicographic letter
    order, or the necklaces ("necklace", cycles that are their own largest
    rotation) in reverse order, every position trying its letters from the
    largest down.  A necklace prefix grows only while it passes the FKM
    prenecklace test for the largest rotation (Ruskey, Savage and Wang,
    Generating necklaces, J. Algorithms 1992): with period p, the letter at
    position t is at most word[t - p], an equal one keeps p and a smaller
    one makes it t + 1; a word of n letters is a necklace iff p divides n.
    A closed walk's letters only narrow the alphabet, so none is pruned.
    """
    necklace, closed = mode == "necklace", mode != "open"
    if n == 0:
        vertices = range(1, q.vertex_count + 1)
        for v in reversed(vertices) if necklace else vertices:
            yield trivial_path(v)
        return
    src = q.arrow_source
    tgt = q.arrow_target
    # steps[v] lists the letters leaving v, and steps[0] every letter, for
    # the first position.  ends[v, s] lists the letters from v back to s.
    steps: dict[int, list[int]] = {v: [] for v in range(q.vertex_count + 1)}
    ends: dict[tuple[int, int], list[int]] = {}
    for k in reversed(range(q.arrow_count)) if necklace else range(q.arrow_count):
        steps[src[k]].append(k)
        steps[0].append(k)
        ends.setdefault((src[k], tgt[k]), []).append(k)
    last = n - 1
    if not last:
        for k in steps[0]:
            if not closed or src[k] == tgt[k]:
                yield Path(src[k], (k,), tgt[k])
        return
    if necklace:
        # capped[v, b]: the letters leaving v that are at most b
        capped = {(v, b): [k for k in ks if k <= b]
                  for v, ks in steps.items() if v for b in range(q.arrow_count)}
        # period[t] is the period of the prenecklace word[:t + 1]
        period = [1] * n
    # stack[pos] holds the letters still to try at position pos < last; the
    # last position is walked in place
    word = [0] * n
    stack = [iter(steps[0])]
    while stack:
        for k in stack[-1]:
            pos = len(stack)
            word[pos - 1] = k
            at = tgt[k]
            if necklace:
                if pos > 1:
                    p = period[pos - 2]
                    period[pos - 1] = p if k == word[pos - 1 - p] else pos
                p = period[pos - 1]
                top = word[pos - p]   # the largest letter allowed at pos
            if pos < last:
                stack.append(iter(capped[at, top] if necklace else steps[at]))
                break
            s = src[word[0]]
            for e in ends.get((at, s), ()) if closed else steps[at]:
                if necklace and (e > top or e == top and n % p):
                    continue
                word[last] = e
                yield Path(s, tuple(word), tgt[e])
        else:
            stack.pop()


@functools.cache
def all_words(q, n: int) -> list[Path]:
    """All length-n words in the quiver, in lexicographic letter order."""
    return list(_walk(q, n))


@functools.cache
def words_by_endpoints(q, n: int) -> dict[tuple[int, int], list[Path]]:
    table: dict[tuple[int, int], list[Path]] = {}
    for p in all_words(q, n):
        table.setdefault((p.source, p.target), []).append(p)
    return table


def paths_between(qd, i: int, j: int, n: int) -> list[Path]:
    """All length-n doubled-quiver paths from i to j, in lexicographic order."""
    if n < 0:
        raise ValueError("length must be >= 0")
    return words_by_endpoints(qd, n).get((i, j), [])


@functools.cache
def all_cycles(q, n: int) -> list[Path]:
    """All length-n cycles, in global lexicographic letter order.

    A 2-colored quiver has no cycle of odd length, and the walk for one
    would visit every open word of length n - 1 to keep none, so it is
    not walked.
    """
    return [] if _odd_on_two_colored(q, n) else list(_walk(q, n, "closed"))


@functools.cache
def all_necklaces(q, n: int) -> list[Path]:
    """The length-n cycles that are their own largest rotation, one per
    rotation class, in global lexicographic letter order.

    They are the cycles of all_cycles(q, n) that no rotation exceeds,
    walked without the others: `necklaces_descending`, reversed.
    """
    return list(necklaces_descending(q, n))[::-1]


def necklaces_descending(q, n: int) -> Iterator[Path]:
    """all_necklaces(q, n) in reverse order, each necklace walked only when read.

    Nothing is cached, so a scan that stops early walks only the
    prenecklaces it passed.
    """
    if _odd_on_two_colored(q, n):
        return iter(())
    return _walk(q, n, "necklace")


def _odd_on_two_colored(q, n: int) -> bool:
    return bool(n % 2 and two_coloring(q.vertex_count, zip(q.arrow_source, q.arrow_target)))


def basis_of_bidegree(qg, p: int, q: int) -> list[Path]:
    """All Ginzburg words of bidegree (p, q): -p loops and q+2p arrows, in
    lexicographic order, as a filter of the lexicographic word list."""
    if p > 0:
        raise ValueError("Ginzburg words live in non-positive cohomological degree")
    arrows = q + 2 * p
    if arrows < 0:
        return []
    return [w for w in all_words(qg, arrows - p) if loop_count(qg, w) == -p]
