"""Adversarial cross-pipeline checks beyond the catalog instances."""

import random

from zigzaghh.exactla import GF, QQ
from zigzaghh.ginzburg import hh2_dim
from zigzaghh.preproj import trace_piece, trace_piece_general
from zigzaghh.quiver import Graph, catalog, orient_bipartite, orient_by_edge_order
from zigzaghh.zigzag import build_zigzag, hochschild_dim


def _random_tree(rng, n):
    edges = []
    for v in range(2, n + 1):
        edges.append((rng.randint(1, v - 1), v))
    return Graph(n, tuple(edges), name="random-tree-%d" % n)


def _random_orientation(rng, g):
    arrows = tuple((i, j) if rng.random() < 0.5 else (j, i) for (i, j) in g.edges)
    from zigzaghh.quiver import Quiver
    return Quiver(g.vertex_count, arrows, name=g.name)


def test_random_trees_three_pipelines_agree():
    rng = random.Random(2024)
    fields = [QQ, GF(2), GF(3), GF(5)]
    for _ in range(6):
        n = rng.randint(2, 7)
        g = _random_tree(rng, n)
        quiv = orient_bipartite(g)
        fld = rng.choice(fields)
        alg = build_zigzag(g, fld)
        for adams in range(0, 5):
            gz = hh2_dim(quiv, adams, fld).dimension
            tr = trace_piece(quiv, adams + 2, fld, want_witnesses=False).dimension
            assert gz == tr, (g.edges, fld.characteristic, adams)
            if 1 <= adams <= 2:
                z = hochschild_dim(alg, 2, adams).dimension
                assert z == gz, (g.edges, fld.characteristic, adams)


def test_three_pipelines_agree_deep():
    # the degrees `hh2 --method all` reached only with the budgeted bar complex
    for family, n in (("D", 5), ("D~", 4), ("E~", 6)):
        g = catalog(family, n)
        quiv = orient_bipartite(g)
        for fld in (QQ, GF(2)):
            alg = build_zigzag(g, fld)
            for q in range(4, 9):
                z = hochschild_dim(alg, 2, q).dimension
                gz = hh2_dim(quiv, q, fld).dimension
                tr = trace_piece(quiv, q + 2, fld).dimension
                assert z == gz == tr, (family, n, fld.characteristic, q, z, gz, tr)


def test_random_nontrees_ginzburg_equals_trace():
    # a random tree plus 1-3 extra edges: mostly odd cycles, so most of
    # these take the edge-order orientation, as the CLI does
    rng = random.Random(4711)
    odd = 0
    for _ in range(8):
        n = rng.randint(4, 7)
        tree = _random_tree(rng, n)
        missing = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                   if (i, j) not in tree.edges]
        g = Graph(n, tree.edges + tuple(rng.sample(missing, rng.randint(1, 3))),
                  name="random-nontree-%d" % n)
        assert not g.is_tree()
        if g.is_bipartite():
            quiv = orient_bipartite(g)
        else:
            quiv = orient_by_edge_order(g)
            odd += 1
        for fld in (QQ, GF(2), GF(3)):
            for adams in range(0, 5):
                gz = hh2_dim(quiv, adams, fld).dimension
                tr = trace_piece(quiv, adams + 2, fld, want_witnesses=False).dimension
                assert gz == tr, (g.edges, fld.characteristic, adams)
    assert odd >= 5


def test_random_orientations_do_not_change_dimensions():
    rng = random.Random(77)
    for _ in range(4):
        g = _random_tree(rng, rng.randint(3, 6))
        ref = orient_bipartite(g)
        other = _random_orientation(rng, g)
        for adams in range(0, 4):
            assert (hh2_dim(ref, adams, QQ).dimension
                    == hh2_dim(other, adams, QQ).dimension), (g.edges, adams)
            assert (trace_piece(ref, adams + 2, QQ).dimension
                    == trace_piece(other, adams + 2, QQ).dimension)


def test_triangle_mixed_orientation_pipelines_agree():
    # the dg-algebra / trace equality holds for any quiver, including
    # orientations with a vertex that both emits and receives
    tri = catalog("A~", 2)
    quiv = orient_by_edge_order(tri)
    sources = {s for s, _ in quiv.arrows}
    targets = {t for _, t in quiv.arrows}
    assert sources & targets  # genuinely mixed
    for fld in (QQ, GF(2), GF(3)):
        for adams in range(0, 5):
            gz = hh2_dim(quiv, adams, fld).dimension
            tr = trace_piece(quiv, adams + 2, fld, want_witnesses=False).dimension
            assert gz == tr, (fld.characteristic, adams)


def test_extended_a_family_never_vanishes():
    # cycle graphs carry nonzero classes over every field within the bound
    for label, n in (("A~", 2), ("A~", 3)):
        g = catalog(label, n)
        quiv = orient_bipartite(g) if g.is_bipartite() else orient_by_edge_order(g)
        for fld in (QQ, GF(2), GF(7)):
            dims = [hh2_dim(quiv, adams, fld).dimension for adams in range(1, 7)]
            assert any(d > 0 for d in dims), (label, n, fld.characteristic)


def test_square_three_pipelines_on_bipartite_cycle():
    # extended A3 is bipartite, so the sink/source orientation exists and
    # the two dg-side pipelines agree on it
    g = catalog("A~", 3)
    quiv = orient_bipartite(g)
    for adams in range(0, 5):
        gz = hh2_dim(quiv, adams, QQ).dimension
        tr = trace_piece(quiv, adams + 2, QQ, want_witnesses=False).dimension
        assert gz == tr


def test_triangle_bar_complex_and_dual_trace_regressions():
    # off trees the bar complex of the zigzag algebra and the trace of the
    # quadratic dual are different objects; both values are pinned (the
    # bar-complex value was confirmed by an independent elimination)
    tri = catalog("A~", 2)
    alg = build_zigzag(tri, QQ)
    assert [hochschild_dim(alg, 2, q).dimension for q in (1, 2, 3)] == [2, 0, 0]
    assert [trace_piece_general("koszul-dual-zigzag", tri, q + 2, QQ).dimension
            for q in (1, 2, 3)] == [2, 1, 0]


_GRID = ("A5", "D5", "E6", "E8", "D~4", "D~6", "E~6")   # the crosscheck grid's catalog graphs


def _three_pipelines(g, fld, qs):
    """Dimensions and witnesses of every pipeline over fld: the bar complex
    without witnesses too, the one call that reads a Q record."""
    from zigzaghh.quiver import parse_label

    g = parse_label(g) if isinstance(g, str) else g
    quiv, alg = orient_bipartite(g), build_zigzag(g, fld)
    return [(hh2_dim(quiv, q, fld, want_witnesses=True),
             trace_piece(quiv, q + 2, fld),
             hochschild_dim(alg, 2, q),
             hochschild_dim(alg, 2, q, want_witnesses=True)) for q in qs]


def test_one_process_answers_as_a_fresh_one_per_field():
    # Q, then F2, then F3 in one process (the F_p passes read the Q records)
    # give the dimensions and witnesses of a process that asks one field
    from memos import fresh
    from zigzaghh.quiver import parse_label

    for label in _GRID:
        g = fresh(parse_label(label))
        qs = range(0, 7)
        one = [_three_pipelines(g, fld, qs) for fld in (QQ, GF(2), GF(3))]
        for fld, got in zip((QQ, GF(2), GF(3)), one):
            assert got == _three_pipelines(fresh(g), fld, qs), (label, fld)
        for rows in one:
            assert all(a.dimension == b.dimension == c.dimension == d.dimension
                       for a, b, c, d in rows), label


def test_dynkin_torsion_lies_in_the_bad_characteristics():
    # every p whose F_p dimension differs from the Q one is bad for the
    # graph (item 1's table); measured: a Ginzburg cell's Q residual is
    # nonempty exactly where some p in 2, 3, 5, 7 differs
    from memos import fresh, recorded_cells
    from zigzaghh.quiver import bad_characteristics

    primes = (2, 3, 5, 7)
    for family, n in (("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)):
        name = "%s%d" % (family, n)
        quiv = fresh(orient_bipartite(catalog(family, n)))
        moved = set()
        for q in range(0, 9):
            qq = hh2_dim(quiv, q, QQ).dimension
            assert trace_piece(quiv, q + 2, QQ, want_witnesses=False).dimension == qq
            differ = {p for p in primes if hh2_dim(quiv, q, GF(p)).dimension != qq}
            assert differ == {p for p in primes if trace_piece(
                quiv, q + 2, GF(p), want_witnesses=False).dimension != qq}, (name, q)
            assert differ <= bad_characteristics(name), (name, q, differ)
            assert bool(recorded_cells(quiv)[q].residual) == bool(differ), (name, q)
            moved |= differ
        assert moved == {2, 3, 5} & bad_characteristics(name), name


def test_d5_tilde_at_q6_sends_rows_to_s_that_reduce_into_e(monkeypatch):
    # pinned: two-term columns by -2 go to the residual S, but reduced
    # against E over Z they vanish, so the residual is empty and the cell is
    # certified; it has no torsion (F2, F3, F5 and F7 give the Q dimension)
    from memos import fresh, recorded_cells
    from zigzaghh import exactla

    sent, real = [], exactla._reduce

    def spy(r, pivot_row, p, full=False):
        out = real(r, pivot_row, p, full)
        if full:
            sent.append((r, out[0]))
        return out

    monkeypatch.setattr(exactla, "_reduce", spy)
    quiv = fresh(orient_bipartite(catalog("D~", 5)))
    dims = [hh2_dim(quiv, 6, fld).dimension for fld in (QQ, GF(2), GF(3), GF(5), GF(7))]
    assert dims == [2] * 5
    assert sent and all(reduced == {} and any(v not in (1, -1) for v in r.values())
                        for r, reduced in sent)
    assert recorded_cells(quiv)[6].residual == []
