"""The trace pieces of preprojective algebras over Q against their closed form.

This check shares no code with the pipelines: the expected dimensions come
from the adjacency matrix C of the graph alone.  For a connected non-Dynkin
graph and n >= 1 (Crawley-Boevey, Etingof and Ginzburg, *Noncommutative
geometry and quiver algebras*; Etingof and Eu, *Koszulity and the Hilbert
series of preprojective algebras*)

    dim (Lambda/[Lambda,Lambda])_n = (1/n) sum_{k|n} phi(n/k) tr S_k + [t^(n-2)] Z(t),

with S_0 = 2I, S_1 = C and S_k = C S_(k-1) - S_(k-2): the first term is
[t^n] sum_r (phi(r)/r) (-log det(I - C t^r + t^(2r) I)), the cyclic Euler
characteristic of the Koszul resolution, and t^2 Z(t) is HH_2, the centre by
2-Calabi-Yau duality.  Z(t) = 1 for a wild graph; for an extended Dynkin graph
it is the Hilbert series of the Kleinian invariants k[x, y]^G.  HH^{2,q} is
the trace piece in degree q + 2, so the closed form also checks the Ginzburg
small complex, and on the extended Dynkin trees the bar complex.

Over F_p the wild graphs below gain exactly one class over the closed form in
a few degrees, which are pinned as measured data for both the trace and the
Ginzburg pipelines, each asked over Q first so that F_p reads what Q built.
"""

from fractions import Fraction
from math import gcd

import pytest

from zigzaghh.exactla import GF, QQ
from zigzaghh.ginzburg import hh2_dim
from zigzaghh.preproj import trace_piece
from zigzaghh.quiver import Graph, orient_by_edge_order, parse_label
from zigzaghh.zigzag import build_zigzag, hochschild_dim

from memos import fresh


def _star(name, *arms):
    """The tree with arms of the given lengths at the hub 1."""
    edges, v = [], 1
    for length in arms:
        prev = 1
        for _ in range(length):
            v += 1
            edges.append((prev, v))
            prev = v
    return Graph(v, tuple(edges), name=name)


def _kleinian(label):
    """(a, b, c) with Z(t) = (1 + t^a) / ((1 - t^b)(1 - t^c)) for an extended Dynkin label."""
    n = int(label[2:])
    return {"A~": (n + 1, 2, n + 1), "D~": (2 * n - 2, 4, 2 * n - 4),
            "E~": {6: (12, 6, 8), 7: (18, 8, 12), 8: (30, 12, 20)}.get(n)}[label[:2]]


def _centre(label, top):
    """[t^0..t^top] of Z(t): 1 for a wild graph."""
    if label is None:
        return [1] + [0] * top
    a, b, c = _kleinian(label)
    z = [0] * (top + 1)
    for i in range(0, top + 1, b):   # 1 / ((1 - t^b)(1 - t^c))
        for j in range(i, top + 1, c):
            z[j] += 1
    return [z[d] + (z[d - a] if d >= a else 0) for d in range(top + 1)]


def _closed_form(graph, kleinian, top):
    """dim (Lambda/[Lambda,Lambda])_n for n = 1..top."""
    m = graph.vertex_count
    c = [[0] * m for _ in range(m)]
    for s, t in graph.edges:
        c[s - 1][t - 1] = c[t - 1][s - 1] = 1
    s = [[[2 * (i == j) for j in range(m)] for i in range(m)], c]
    while len(s) <= top:
        s.append([[sum(c[i][k] * s[-1][k][j] for k in range(m)) - s[-2][i][j]
                   for j in range(m)] for i in range(m)])
    traces = [sum(sk[i][i] for i in range(m)) for sk in s]
    phi = [0] + [sum(1 for k in range(1, r + 1) if gcd(k, r) == 1) for r in range(1, top + 1)]
    z = _centre(kleinian, top)
    dims = []
    for n in range(1, top + 1):
        cyclic = Fraction(sum(phi[n // k] * traces[k] for k in range(1, n + 1) if n % k == 0), n)
        assert cyclic.denominator == 1, (graph.name, n)
        dims.append(int(cyclic) + (z[n - 2] if n >= 2 else 0))
    return dims


EXTENDED = [(label, 14 if label == "E~8" else 12)
            for label in ("A~2", "A~3", "D~4", "D~5", "E~6", "E~7", "E~8")]
WILD = [(_star("K1,5", 1, 1, 1, 1, 1), 10), (_star("T2,3,7", 1, 2, 6), 12),
        (Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)), name="C5+chord"), 8)]


@pytest.mark.parametrize("label, top", EXTENDED)
def test_extended_dynkin_trace_pieces_match_the_closed_form(label, top):
    g = parse_label(label)
    quiv = orient_by_edge_order(g)
    want = _closed_form(g, label, top)
    got = [trace_piece(quiv, n, QQ, want_witnesses=False).dimension for n in range(1, top + 1)]
    assert got == want, (label, got, want)
    ginzburg_top = 12 if label == "E~8" else 10
    got = [hh2_dim(quiv, n - 2, QQ).dimension for n in range(1, ginzburg_top + 1)]
    assert got == want[:ginzburg_top], (label, got, want)
    if g.is_tree():
        alg = build_zigzag(g, QQ)
        assert [hochschild_dim(alg, 2, n - 2).dimension for n in range(1, 11)] == want[:10]


@pytest.mark.parametrize("graph, top", WILD, ids=[g.name for g, _ in WILD])
def test_wild_trace_pieces_match_the_closed_form(graph, top):
    quiv = orient_by_edge_order(graph)
    want = _closed_form(graph, None, top)
    got = [trace_piece(quiv, n, QQ, want_witnesses=False).dimension for n in range(1, top + 1)]
    assert got == want, (graph.name, got, want)
    got = [hh2_dim(quiv, n - 2, QQ).dimension for n in range(1, min(top, 10) + 1)]
    assert got == want[:10], (graph.name, got, want)


# characteristic -> the degrees n where the measured dimension is the closed
# form plus one; everywhere else up to the graph's top degree it is the closed form
EXTRA_CLASS = {"K1,5": {2: (4, 8), 3: (6,), 5: (10,)},
               "T2,3,7": {2: (4, 8), 3: (6,), 5: (10,)},
               "C5+chord": {2: (4, 8), 3: (6,), 5: ()}}


@pytest.mark.parametrize("graph, top", WILD, ids=[g.name for g, _ in WILD])
def test_wild_bad_characteristics_add_one_class(graph, top):
    quiv = fresh(orient_by_edge_order(graph))   # nothing built yet: Q goes first
    want = _closed_form(graph, None, top)
    for p in (0, 2, 3, 5):
        fld = GF(p) if p else QQ
        extra = EXTRA_CLASS[graph.name].get(p, ())
        expected = [want[n - 1] + (n in extra) for n in range(1, top + 1)]
        trace = [trace_piece(quiv, n, fld, want_witnesses=False).dimension
                 for n in range(1, top + 1)]
        ginzburg = [hh2_dim(quiv, n - 2, fld).dimension for n in range(1, top + 1)]
        assert trace == expected, (graph.name, p, trace, expected)
        assert ginzburg == expected, (graph.name, p, ginzburg, expected)
