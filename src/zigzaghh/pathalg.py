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
walk; no code filters a word table for them.
"""

from __future__ import annotations

from typing import NamedTuple

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

def _words(q, n: int, closed: bool = False) -> list[Path]:
    """Length-n words in lexicographic letter order, from one depth-first walk.

    With `closed`, only the cycles: the last letter must return to the
    first letter's source.
    """
    if n == 0:
        return [trivial_path(v) for v in range(1, q.vertex_count + 1)]
    src = q.arrow_source
    tgt = q.arrow_target
    # steps[v] lists the letters leaving v, and steps[0] every letter, for
    # the first position.  ends[v, s] lists the letters from v back to s;
    # ends[0, 0], the letters from a vertex back to itself, close a
    # one-letter walk.
    steps: dict[int, list[int]] = {v: [] for v in range(q.vertex_count + 1)}
    ends: dict[tuple[int, int], list[int]] = {}
    for k in range(q.arrow_count):
        steps[src[k]].append(k)
        steps[0].append(k)
        ends.setdefault((src[k], tgt[k]), []).append(k)
        if src[k] == tgt[k]:
            ends.setdefault((0, 0), []).append(k)
    out: list[Path] = []
    word = [0] * n
    last = n - 1 if closed else n

    def extend(pos: int, at: int):
        if pos == n:
            out.append(Path(src[word[0]], tuple(word), at))
            return
        letters = ends.get((at, src[word[0]] if pos else 0), ()) if pos == last else steps[at]
        for k in letters:
            word[pos] = k
            extend(pos + 1, tgt[k])

    extend(0, 0)
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
    """All Ginzburg words of bidegree (p, q): -p loops and q+2p arrows, in
    lexicographic order, as a filter of the lexicographic word list."""
    if p > 0:
        raise ValueError("Ginzburg words live in non-positive cohomological degree")
    arrows = q + 2 * p
    if arrows < 0:
        return []
    return [w for w in all_words(qg, arrows - p) if loop_count(qg, w) == -p]
