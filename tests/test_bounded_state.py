"""A warm process keeps the tables of the last graph only.

Every table that outlives a call hangs off one state per pipeline module,
bounded to the last graph or quiver asked (`memos.STATES`), and the
orientations and doubles are bounded the same way.  A seeded sweep of
random trees, with D~4 asked first and again at the end, runs the three
pipelines over Q, F2 and F3 in one process: after each graph every bounded
memo holds at most one entry, each state holds that graph, and every answer,
witnesses included, is the one computed with every state cleared.
"""

import random

from zigzaghh import ginzburg, preproj, zigzag
from zigzaghh.exactla import GF, QQ
from zigzaghh.ginzburg import hh2_dim
from zigzaghh.preproj import trace_piece
from zigzaghh.quiver import Graph, orient_bipartite, parse_label
from zigzaghh.zigzag import build_zigzag, hochschild_dim

from memos import BOUNDED, kept

FIELDS = (QQ, GF(2), GF(3))
QS = range(1, 5)


def _random_tree(rng: random.Random, k: int) -> Graph:
    n = rng.randint(5, 8)
    return Graph(n, tuple((rng.randint(1, v - 1), v) for v in range(2, n + 1)),
                 name="sweep-tree-%d" % k)


def _answers(g: Graph) -> list:
    """Every answer of the three pipelines on g at QS over FIELDS, witnesses included."""
    q = orient_bipartite(g)
    out = []
    for fld in FIELDS:
        out += [hh2_dim(q, adams, fld, want_witnesses=True) for adams in QS]
        out += [trace_piece(q, adams + 2, fld, want_witnesses=True) for adams in QS]
        alg = build_zigzag(g, fld)
        out += [hochschild_dim(alg, 2, adams, want_witnesses=True) for adams in QS]
    return out


def _clear():
    for memo in BOUNDED.values():
        memo.cache_clear()


def test_a_sweep_keeps_the_last_graph_only():
    _clear()   # what earlier tests kept is not part of the sweep
    rng = random.Random(4711)
    graphs = ([parse_label("D~4")] + [_random_tree(rng, k) for k in range(40)]
              + [parse_label("D~4")])
    swept = []
    for g in graphs:
        swept.append(_answers(g))
        q = orient_bipartite(g)
        assert all(memo.cache_info().currsize <= 1 for memo in BOUNDED.values()), g.name
        assert kept(ginzburg._cells, q) == set(QS), g.name
        assert kept(preproj._tables, q) == {("preprojective", fld) for fld in FIELDS}, g.name
        assert "algebra" in kept(zigzag._tables, g), g.name
    assert swept[0] == swept[-1]
    assert any(r.dimension for r in swept[0])
    for g, got in zip(graphs, swept):
        _clear()
        assert _answers(g) == got, g.name
