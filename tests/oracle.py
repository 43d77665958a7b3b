"""Slow, independent brute-force computations used only by the tests.

These pin expected values before the main pipelines are trusted.  They
deliberately share no code with the optimized modules beyond the field
and path types: paths are enumerated by a separate breadth-first
routine, matrices are plain row dicts over Fractions / residues, and
elimination is the textbook algorithm with no fraction-free tricks.
The exceptions are `oracle_quotient_representatives`, the word-table
quotient that the table of Lambda replaced, which keeps the package's
word walk and kernel, and the full Ginzburg complex at the end, which
reads the package's closed walks.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from zigzaghh.exactla import FieldSpec, span_info
from zigzaghh.pathalg import Path, all_cycles, all_words
from zigzaghh.preproj import preprojective_relations
from zigzaghh.quiver import Quiver
from zigzaghh.zigzag import ZigzagAlgebra

from dg import ginzburg_of


class OracleInfeasible(RuntimeError):
    """The request is too large for a brute-force computation."""


def _row_reduce_rank(fld: FieldSpec, rows: list[dict[int, object]]) -> int:
    return len(_row_reduce_rows(fld, rows))


def _row_reduce_rows(fld: FieldSpec, rows: list[dict[int, object]]) -> list[dict]:
    """Textbook elimination: repeatedly normalize a pivot and clear below.

    Returns the normalized pivot rows, which span the rows, in the order
    found: each pivot is the smallest column left in any row, so column c
    is a pivot exactly when it is not in the span of the columns before
    it.  Only the rows that lead with that column hold it, so the rows
    wait by leading column, and the shortest of them is the pivot.
    """
    p = fld.characteristic
    waiting: dict[int, list[dict]] = {}   # leading column -> its rows

    def put(r):
        r = {c: v % p if p else v for c, v in r.items() if (v % p if p else v)}
        if r:
            waiting.setdefault(min(r), []).append(r)

    for r in rows:
        put(r if p else {c: Fraction(v) for c, v in r.items()})
    echelon = []
    while waiting:
        lead = min(waiting)
        pivot, *below = sorted(waiting.pop(lead), key=len)
        inv = pow(pivot[lead], p - 2, p) if p else 1 / pivot[lead]
        pivot = {c: v * inv % p if p else v * inv for c, v in pivot.items()}
        echelon.append(pivot)
        for r in below:
            f, out = r[lead], dict(r)
            for c, v in pivot.items():
                out[c] = out.get(c, 0) - f * v
            put(out)
    return echelon


def oracle_times(m, x: list) -> list:
    """The ExactMatrix m times the dense vector x."""
    return [m.field.element(sum(v * x[j] for j, v in row.items())) for row in m.rows]


def _doubled_arrows(q: Quiver) -> list[tuple[int, int]]:
    arrows = []
    for s, t in q.arrows:
        arrows.append((s, t))
        arrows.append((t, s))
    return arrows


def _walks(arrows: list[tuple[int, int]], vertex_count: int, n: int) -> list[tuple[tuple[int, ...], int, int]]:
    """All length-n composable arrow-index words, as (word, source, target)."""
    if n == 0:
        return [((), v, v) for v in range(1, vertex_count + 1)]
    level = [((k,), s, t) for k, (s, t) in enumerate(arrows)]
    for _ in range(n - 1):
        nxt = []
        for word, s, t in level:
            for k, (s2, t2) in enumerate(arrows):
                if s2 == t:
                    nxt.append((word + (k,), s, t2))
        level = nxt
    return level


def oracle_basis_of_bidegree(qg, p: int, q: int) -> list[Path]:
    """Ginzburg words of bidegree (p, q) by filtering every word of length q + p.

    Keep the words with exactly -p loop letters, as the package does, but
    over `_walks`, which shares no code with the package's enumeration and
    is lexicographic in arrow ids like it.
    """
    loops = -p
    arrows = q + 2 * p
    if arrows < 0:
        return []
    arrow_list = list(zip(qg.arrow_source, qg.arrow_target))
    return [Path(s, word, t) for word, s, t in _walks(arrow_list, qg.vertex_count, loops + arrows)
            if sum(1 for k in word if qg.is_loop(k)) == loops]


@functools.lru_cache(maxsize=2)
def _graded_walks(letters: tuple[tuple[int, int, int, int], ...], vertex_count: int,
                  n: int) -> list[tuple[tuple[int, ...], int, int, int]]:
    """(word, source, target, degree) of every composable length-n word.

    letters are (basis index, source, target, degree) in index order.
    Breadth first: length n extends each word of length n - 1, the last
    table is kept, so callers that go one length at a time walk each
    length once.
    """
    if n == 0:
        return [((), v, v, 0) for v in range(1, vertex_count + 1)]
    if n == 1:
        return [((i,), s, t, d) for i, s, t, d in letters]
    leaving: dict[int, list[tuple[int, int, int]]] = {}
    for i, s, t, d in letters:
        leaving.setdefault(s, []).append((i, t, d))
    return [(w + (i,), s, t2, dw + d)
            for w, s, t, dw in _graded_walks(letters, vertex_count, n - 1)
            for i, t2, d in leaving.get(t, [])]


def oracle_cochain_basis(alg: ZigzagAlgebra, p: int, q: int) -> list[tuple[tuple[int, ...], int]]:
    """Reduced (p, q) zigzag cochain basis by filtering every word of length p + q.

    The definition the budgeted walk replaced: every composable word of
    positive basis letters (lexicographic in basis index), paired with
    each basis element of degree (word degree - q) in 0..2 that runs
    between the word's endpoints.  Zero letters means the idempotent
    inputs, one per vertex.
    """
    n = p + q
    if n < 0:
        return []
    letters = tuple((i, alg.src[i], alg.tgt[i], alg.degrees[i])
                    for i in range(alg.dim) if alg.degrees[i] > 0)
    outputs: dict[tuple[int, int, int], list[int]] = {}   # keyed by word degree
    for z in range(alg.dim):
        outputs.setdefault((alg.degrees[z] + q, alg.src[z], alg.tgt[z]), []).append(z)
    out = []
    for word, s, t, word_deg in _graded_walks(letters, alg.graph.vertex_count, n):
        if q <= word_deg <= q + 2:
            out += [(word, z) for z in outputs.get((word_deg, s, t), [])]
    return out


def transport(alg: ZigzagAlgebra, qd, cycle: Path) -> tuple[tuple[int, ...], int]:
    """T(cycle): the elementary (2, q) zigzag cochain of a cycle of length
    q + 2 in the double quiver qd, as its (input word, output) basis pair.

    It maps the cycle's zigzag arrows, each matched to a letter of qd by its
    endpoints (the graph has no multiple edges), to the cycle class at the
    cycle's source, with coefficient 1.  C^{2,q} has exactly these basis
    elements, and C^{3,q} = 0, so T(cycle) is a cocycle.
    """
    if not cycle.is_cycle():
        raise ValueError("not a cycle: %r" % (cycle,))
    word, at = [], cycle.source
    for a in cycle.letters:
        if qd.arrow_source[a] != at:
            raise ValueError("not a walk: %r" % (cycle,))
        at = qd.arrow_target[a]
        word.append(alg.arrow_index[qd.arrow_source[a], at])
    return tuple(word), alg.cycle_index[cycle.source]


def oracle_check_stasheff(alg: ZigzagAlgebra, products: dict, max_arity: int):
    """Stasheff defects of m_2 = `alg.table` plus the higher `products`, word by word.

    The evaluator the table-driven check replaced: every composable word
    of each arity (over the full basis at arity 3, over positive letters
    above it) gets the sum over r + s + t = n of
    (-1)^(r + s t) m_{r+1+t}(id^r (x) m_s (x) id^t).  Returns the
    violations, as (arity, word names, {output name: coefficient}) in walk
    order, and the arities whose identity involves an absent m_k above the
    highest specified one.
    """
    fld = alg.field

    def apply(k, word):
        if k == 2:
            z = alg.table.get(word)
            return {z: fld.one()} if z is not None else {}
        return products.get(k, {}).get(word, {})

    top = max(products, default=2)
    violations, conditional = [], []
    for n in range(2, max_arity + 1):
        if any(k >= 3 and k not in products and k > top
               for s in range(2, n) for k in (s, n + 1 - s)):
            conditional.append(n)
        letters = tuple((i, alg.src[i], alg.tgt[i], alg.degrees[i]) for i in range(alg.dim)
                        if n == 3 or alg.degrees[i] > 0)
        for word, _, _, _ in _graded_walks(letters, alg.graph.vertex_count, n):
            defect = {}
            for r in range(n):
                for s in range(2, n - r + 1):
                    t = n - r - s
                    if r + 1 + t < 2:
                        continue
                    for z, cz in apply(s, word[r:r + s]).items():
                        for y, cy in apply(r + 1 + t, word[:r] + (z,) + word[r + s:]).items():
                            val = fld.mul(cz, cy)
                            if (r + s * t) % 2:
                                val = fld.neg(val)
                            defect[y] = fld.add(defect.get(y, fld.zero()), val)
            named = {alg.names[y]: v for y, v in sorted(defect.items()) if not fld.is_zero(v)}
            if named:
                violations.append((n, tuple(alg.names[i] for i in word), named))
    return violations, conditional


def oracle_lambda_dim(q: Quiver, n: int, fld: FieldSpec) -> int:
    """dim of the degree-n preprojective piece, straight from the definition."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    arrows = _doubled_arrows(q)
    words = _walks(arrows, q.vertex_count, n)
    if len(words) > 200000:
        raise OracleInfeasible("too many words: %d" % len(words))
    index = {w: i for i, (w, _, _) in enumerate(words)}
    rows = []
    # relation at v: sum over base arrows from v of (a, a*) minus (a*, a) into v
    rel: dict[int, list[tuple[int, tuple[int, int]]]] = {v: [] for v in range(1, q.vertex_count + 1)}
    for k, (s, t) in enumerate(q.arrows):
        rel[s].append((1, (2 * k, 2 * k + 1)))
        rel[t].append((-1, (2 * k + 1, 2 * k)))
    for la in range(max(n - 1, 0)):
        lb = n - 2 - la
        if lb < 0:
            continue
        for worda, sa, ta in _walks(arrows, q.vertex_count, la):
            for wordb, sb, tb in _walks(arrows, q.vertex_count, lb):
                if sb != ta:
                    continue
                row: dict[int, object] = {}
                for coeff, (l1, l2) in rel[ta]:
                    col = index.get(worda + (l1, l2) + wordb)
                    if col is not None:
                        row[col] = row.get(col, 0) + coeff
                if row:
                    rows.append(row)
    return len(words) - _row_reduce_rank(fld, rows)


def oracle_trace_dim(q: Quiver, n: int, fld: FieldSpec) -> int:
    """dim of (Lambda/[Lambda,Lambda])^n from the full, uncompressed matrix."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    arrows = _doubled_arrows(q)
    words = _walks(arrows, q.vertex_count, n)
    if len(words) > 20000:
        raise OracleInfeasible("too many words: %d" % len(words))
    index = {w: i for i, (w, _, _) in enumerate(words)}
    rows = []
    rel: dict[int, list[tuple[int, tuple[int, int]]]] = {v: [] for v in range(1, q.vertex_count + 1)}
    for k, (s, t) in enumerate(q.arrows):
        rel[s].append((1, (2 * k, 2 * k + 1)))
        rel[t].append((-1, (2 * k + 1, 2 * k)))
    for la in range(max(n - 1, 0)):
        lb = n - 2 - la
        if lb < 0:
            continue
        for worda, sa, ta in _walks(arrows, q.vertex_count, la):
            for wordb, sb, tb in _walks(arrows, q.vertex_count, lb):
                if sb != ta:
                    continue
                row: dict[int, object] = {}
                for coeff, (l1, l2) in rel[ta]:
                    col = index.get(worda + (l1, l2) + wordb)
                    if col is not None:
                        row[col] = row.get(col, 0) + coeff
                if row:
                    rows.append(row)
    # all commutators [u, v] with |u| + |v| = n, including length-0 factors
    for lu in range(0, n + 1):
        lv = n - lu
        for wordu, su, tu in _walks(arrows, q.vertex_count, lu):
            for wordv, sv, tv in _walks(arrows, q.vertex_count, lv):
                row = {}
                if tu == sv:
                    col = index[wordu + wordv]
                    row[col] = row.get(col, 0) + 1
                if tv == su:
                    col = index[wordv + wordu]
                    row[col] = row.get(col, 0) - 1
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return len(words) - _row_reduce_rank(fld, rows)


def oracle_delta_columns(alg: ZigzagAlgebra, source, target, letters) -> list[dict[int, int]]:
    """Columns of the Hochschild differential on the elementary cochains `source`.

    The letter-scanning rule: for (w -> z), x z in front of w and z x behind
    it for every letter x, and w[k] replaced by (u, v) for every pair of
    letters with u v = w[k], each with the sign of the alternating sum, as
    `alg.table` says.  Terms that are not in `target` drop out.
    """
    letters = list(letters)
    tindex = {b: i for i, b in enumerate(target)}
    splits: dict[int, list[tuple[int, int]]] = {}
    for u in letters:
        for v in letters:
            uv = alg.table.get((u, v))
            if uv is not None:
                splits.setdefault(uv, []).append((u, v))
    cols = []
    for w, z in source:
        col: dict[int, int] = {}

        def put(word, out, coeff):
            if out is None:
                return
            i = tindex.get((word, out))
            if i is None:
                return
            s = col.get(i, 0) + coeff
            if s:
                col[i] = s
            else:
                col.pop(i, None)

        m = len(w)
        last_sign = -1 if (m + 1) % 2 else 1
        for x in letters:
            put((x,) + w, alg.table.get((x, z)), 1)
            put(w + (x,), alg.table.get((z, x)), last_sign)
        for k in range(m):
            sign = -1 if (k + 1) % 2 else 1
            for u, v in splits.get(w[k], ()):
                put(w[:k] + (u, v) + w[k + 1:], z, sign)
        cols.append(col)
    return cols


def oracle_hh_unreduced(alg: ZigzagAlgebra, p: int, q: int) -> int:
    """HH^{p,q} from the full cochain complex over the ground field.

    Tensor powers are over the field itself (no bimodule reduction, no
    composability): maps from all basis words of length p+q with output
    length = input length - q, differentiated by the usual rule.
    """
    n = p + q
    if n < 0:
        return 0
    dim = alg.dim
    if dim ** (n + 1) > 4 * 10 ** 5:
        raise OracleInfeasible("unreduced complex too large: %d^%d words" % (dim, n + 1))

    def basis(tensor_power: int):
        out = []
        words = [()]
        for _ in range(tensor_power):
            words = [w + (i,) for w in words for i in range(dim)]
        for w in words:
            want = sum(alg.degrees[i] for i in w) - q
            for z in range(dim):
                if alg.degrees[z] == want:
                    out.append((w, z))
        return out

    def delta_cols(tensor_power: int):
        source = basis(tensor_power)
        target = basis(tensor_power + 1)
        return source, target, oracle_delta_columns(alg, source, target, range(dim))

    source, target, out_cols = delta_cols(n)
    rank_out = _row_reduce_rank(alg.field, [c for c in out_cols if c])
    rank_in = 0
    if n >= 1 and p >= 1:
        _, _, in_cols = delta_cols(n - 1)
        rank_in = _row_reduce_rank(alg.field, [c for c in in_cols if c])
    return len(source) - rank_out - rank_in


# ---------------------------------------------------------------------------
# The word-table quotients that the package's normal-form table of Lambda
# replaced, kept as references for it; they read no table of Lambda.  Every
# word of length n modulo r_v inserted at every cut of the words of length
# n - 2 uses the package's walk and kernel.  The necklaces of length n
# modulo the rows [r_v w] for the closed walks w of length n - 2 come from
# `_walks` and the textbook elimination, so the trace witnesses and the
# Ginzburg pipeline, which eliminates the same rows, are checked against a
# construction that shares no code with them.
# ---------------------------------------------------------------------------

def oracle_relation_rows(qd, rels, shorter: list[Path], index: dict[tuple[int, ...], int]):
    """The rows x r_v y for xy in shorter, yielded as built: v is the source of
    xy at the first cut and the target of the letter before the cut otherwise.
    The pairs of r_v are distinct, so each term has its own column."""
    tgt = qd.arrow_target
    for w in shorter:
        a = w.letters
        for k in range(len(a) + 1):
            v = tgt[a[k - 1]] if k else w.source
            yield {index[a[:k] + pair + a[k:]]: coeff for coeff, pair in rels[v]}


def oracle_quotient_representatives(qd, rels, n: int, fld: FieldSpec) -> list[Path]:
    """The free columns of all words of length n modulo the rows x r_v y."""
    ambient = all_words(qd, n)
    index = {p.letters: k for k, p in enumerate(ambient)}
    rows = oracle_relation_rows(qd, rels, all_words(qd, n - 2) if n >= 2 else [], index)
    return [ambient[c] for c in span_info(fld, rows, len(ambient)).free_coords]


def oracle_necklace(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically largest rotation of a cyclic word."""
    if not letters:
        return letters
    return max(letters[k:] + letters[:k] for k in range(len(letters)))


def oracle_necklace_space(qd, rels, n: int):
    """Degree-n necklaces and the relation rows [r_v w] among them.

    Built from `_walks`, not from the package's walk: the columns are the
    closed walks of length n that are their own largest rotation
    (`oracle_necklace`), in lexicographic order, index maps a
    representative's letters to its column, and there is one row per
    closed walk w of length n - 2, at v = its source, each term read on
    the necklace of its rotation class.
    """
    arrows = list(zip(qd.arrow_source, qd.arrow_target))
    necklaces = [Path(s, word, t) for word, s, t in _walks(arrows, qd.vertex_count, n)
                 if s == t and word == oracle_necklace(word)]
    index = {c.letters: k for k, c in enumerate(necklaces)}
    rows = []
    for word, s, t in _walks(arrows, qd.vertex_count, n - 2) if n >= 2 else ():
        if s != t:
            continue
        row: dict[int, int] = {}
        for coeff, pair in rels[s]:
            col = index[oracle_necklace(pair + word)]
            row[col] = row.get(col, 0) + coeff
        rows.append(row)
    return necklaces, index, rows


def oracle_trace_witnesses(qd, rels, n: int, fld: FieldSpec) -> list[Path]:
    """The free necklaces of the necklace matrix, by the textbook pivot rule:
    a basis of the degree-n trace."""
    necklaces, _, rows = oracle_necklace_space(qd, rels, n)
    pivots = {min(r) for r in _row_reduce_rows(fld, rows)}
    return [c for k, c in enumerate(necklaces) if k not in pivots]


def oracle_class_is_zero(qd, rels, vector: dict[Path, int], fld: FieldSpec) -> bool:
    """Membership of a combination of equal-length cycles in relations + commutators.

    Projects the vector onto necklaces, which is exact modulo commutators,
    and tests it against the necklace relation rows by textbook rank.
    """
    (n,) = {c.length for c in vector}
    necklaces, index, rows = oracle_necklace_space(qd, rels, n)
    image: dict[int, int] = {}
    for c, x in vector.items():
        k = index[oracle_necklace(c.letters)]
        image[k] = image.get(k, 0) + x
    return _row_reduce_rank(fld, rows + [image]) == _row_reduce_rank(fld, rows)


# ---------------------------------------------------------------------------
# The full small complex of the 2-Ginzburg dg algebra, which the package's
# necklace elimination replaced, kept as its reference: every length-(q+2)
# cycle is a codomain coordinate, and the rotation columns pi x* - x* pi
# come before the relation columns r_v c.
# ---------------------------------------------------------------------------

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


def oracle_hh2_complex(q: Quiver, adams: int, fld: FieldSpec) -> HH2Complex:
    """The complex in Adams degree adams >= -2, one rotation column per cycle
    w = pi x* (x the star of w's last letter), ordered by x and then by w."""
    if adams < -2:
        raise ValueError("no complex below Adams degree -2")
    qg = ginzburg_of(q)
    qd = qg.doubled
    codomain = all_cycles(qd, adams + 2)
    # a cycle of positive length is fixed by its letters
    index = {w.letters: i for i, w in enumerate(codomain)}
    dom1: list[tuple[int, Path]] = []
    cols1: list[dict] = []
    for x in range(qd.arrow_count if adams + 2 > 0 else 0):
        partner = qd.star(x)
        sign = 1 if x % 2 == 0 else -1
        for i, w in enumerate(codomain):
            if w.letters[-1] != partner:
                continue
            j = index[w.letters[-1:] + w.letters[:-1]]
            dom1.append((x, Path(w.source, w.letters[:-1], qd.arrow_source[partner])))
            cols1.append({i: sign, j: -sign} if i != j else {})
    rels = preprojective_relations(q)
    walks = all_cycles(qd, adams) if adams >= 0 else []
    dom2 = [Path(c.source, (qg.loop_index[c.source],) + c.letters, c.source) for c in walks]
    cols2 = [{index[pair + c.letters]: coeff for coeff, pair in rels[c.source]} for c in walks]
    return HH2Complex(adams, fld, dom1, dom2, codomain, cols1, cols2)
