"""Graph catalog, orientations, doubling, Ginzburg extension."""

import pytest

from zigzaghh.quiver import (GinzburgQuiver, Graph, NonBipartiteError, bad_characteristics,
                             catalog, double, orient_bipartite, orient_by_edge_order,
                             parse_graph_document, parse_label)


def test_catalog_a1_is_a_point():
    g = catalog("A", 1)
    assert g.vertex_count == 1 and g.edges == ()


def test_catalog_d4_star():
    g = catalog("D", 4)
    assert g.vertex_count == 4 and len(g.edges) == 3
    adj = g.adjacency()
    assert len(adj[4]) == 3  # hub carries the highest index
    assert all(len(adj[v]) == 1 for v in (1, 2, 3))


def test_catalog_extended_d4_star():
    g = catalog("D~", 4)
    assert g.vertex_count == 5 and len(g.edges) == 4
    adj = g.adjacency()
    assert len(adj[5]) == 4
    assert all(len(adj[v]) == 1 for v in (1, 2, 3, 4))


def test_catalog_edge_counts():
    # every family member except the extended-A cycles is a tree
    for label in ("A5", "D6", "E6", "E7", "E8", "D~4", "D~5", "E~6", "E~7", "E~8"):
        g = parse_label(label)
        assert len(g.edges) == g.vertex_count - 1
    for label in ("A~2", "A~3", "A~5"):
        g = parse_label(label)
        assert len(g.edges) == g.vertex_count


def test_catalog_vertex_counts():
    assert parse_label("E~6").vertex_count == 7
    assert parse_label("E~7").vertex_count == 8
    assert parse_label("E~8").vertex_count == 9
    assert parse_label("D~5").vertex_count == 6


def test_catalog_invalid():
    with pytest.raises(ValueError):
        catalog("E", 9)
    with pytest.raises(ValueError):
        catalog("D", 3)
    with pytest.raises(ValueError):
        catalog("A~", 1)  # would need a multiple edge
    with pytest.raises(ValueError):
        parse_label("F4")


def test_graph_rejects_loops_multiedges_disconnected():
    with pytest.raises(ValueError):
        Graph(2, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(2, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        Graph(3, ((1, 2),))


def test_labels_and_orientations_are_interned():
    # equal inputs give one object, so every memo keyed by a graph or a
    # quiver finds its key by identity
    g = parse_label("E~8")
    assert g is parse_label("E~8") and g == catalog("E~", 8)
    assert orient_bipartite(g) is orient_bipartite(parse_label("E~8"))
    assert orient_by_edge_order(g) is orient_by_edge_order(parse_label("E~8"))
    # keyed by value: a graph built apart finds the same quivers
    apart = Graph(g.vertex_count, g.edges, name=g.name)
    assert apart is not g
    assert orient_bipartite(apart) is orient_bipartite(g)
    assert orient_by_edge_order(apart) is orient_by_edge_order(g)
    assert double(orient_bipartite(apart)) is double(orient_bipartite(g))


def test_orient_bipartite_a2():
    q = orient_bipartite(catalog("A", 2))
    assert q.arrows == ((1, 2),)


def test_orient_bipartite_d4_sink_source():
    q = orient_bipartite(catalog("D", 4))
    # leaves share the color of vertex 1, so every arrow points at the hub
    assert all(t == 4 for (_, t) in q.arrows)
    sources = {s for s, _ in q.arrows}
    targets = {t for _, t in q.arrows}
    assert sources.isdisjoint(targets)


def test_orient_bipartite_rejects_triangle():
    tri = Graph(3, ((1, 2), (2, 3), (1, 3)), name="triangle")
    with pytest.raises(NonBipartiteError):
        orient_bipartite(tri)
    # the fallback orientation still produces a quiver for the other pipelines
    q = orient_by_edge_order(tri)
    assert len(q.arrows) == 3


def test_two_coloring_components_and_loops():
    # one routine colors graphs and quivers: several components, each rooted
    # at its least vertex, and a loop or odd cycle anywhere refuses
    from zigzaghh.quiver import two_coloring
    assert two_coloring(5, [(4, 5), (1, 2), (2, 3)]) == [-1, 0, 1, 0, 0, 1]
    assert two_coloring(3, []) == [-1, 0, 0, 0]
    assert two_coloring(4, [(1, 2), (3, 3)]) is None
    assert two_coloring(5, [(1, 2), (3, 4), (4, 5), (3, 5)]) is None
    qg = GinzburgQuiver(double(orient_bipartite(catalog("D", 4))))
    assert two_coloring(qg.vertex_count, zip(qg.arrow_source, qg.arrow_target)) is None
    for label in ("A1", "A2", "D4", "E~8", "A~3", "A~2", "A~4"):
        g = parse_label(label)
        colors = g.two_coloring()
        if label in ("A~2", "A~4"):   # odd cycles
            assert colors is None
            continue
        assert colors[1] == 0 and all(colors[i] != colors[j] for i, j in g.edges)


def test_double_a2():
    qd = double(orient_bipartite(catalog("A", 2)))
    assert qd.arrow_count == 2
    assert qd.arrow_source == [1, 2] and qd.arrow_target == [2, 1]
    assert qd.star(0) == 1 and qd.star(1) == 0


def test_double_no_arrows():
    qd = double(orient_bipartite(catalog("A", 1)))
    assert qd.arrow_count == 0


def test_double_d4():
    qd = double(orient_bipartite(catalog("D", 4)))
    assert qd.arrow_count == 6
    for k in range(6):
        assert qd.star(qd.star(k)) == k
        assert qd.arrow_source[qd.star(k)] == qd.arrow_target[k]


def test_ginzburg_extension_a1_a2():
    qg1 = GinzburgQuiver(double(orient_bipartite(catalog("A", 1))))
    assert qg1.arrow_count == 1 and qg1.is_loop(0)
    qg2 = GinzburgQuiver(double(orient_bipartite(catalog("A", 2))))
    assert qg2.arrow_count == 4
    assert [qg2.arrow_names[k] for k in range(4)] == ["a1", "a1*", "t1", "t2"]
    assert qg2.bidegree(0) == (0, 1) and qg2.bidegree(2) == (-1, 2)


def test_ginzburg_extension_extended_d4():
    qg = GinzburgQuiver(double(orient_bipartite(catalog("D~", 4))))
    assert qg.arrow_count == 8 + 5
    assert sum(qg.is_loop(k) for k in range(qg.arrow_count)) == 5
    for v in range(1, 6):
        k = qg.loop_index[v]
        assert qg.arrow_source[k] == v == qg.arrow_target[k]


def test_bad_characteristics_table():
    assert bad_characteristics("A7") == frozenset()
    assert bad_characteristics("D5") == {2}
    assert bad_characteristics("E6") == {2, 3}
    assert bad_characteristics("E7") == {2, 3}
    assert bad_characteristics("E8") == {2, 3, 5}
    assert bad_characteristics("D~4") == frozenset()


def test_parse_graph_document_json_and_text(tmp_path):
    g1 = parse_graph_document('{"vertices": 3, "edges": [[1, 2], [2, 3]]}')
    assert g1.vertex_count == 3 and g1.edges == ((1, 2), (2, 3))
    g2 = parse_graph_document("vertices: 3\nedges: [[1, 2], [2, 3]]\n")
    assert g2.edges == g1.edges
    with pytest.raises(ValueError):
        parse_graph_document("vertices: 3")
    with pytest.raises(ValueError):
        parse_graph_document("just nonsense")
    for bad in ('{"vertices": 3, "edges": [1, 2]}', '{"vertices": "3", "edges": []}',
                '{"vertices": 2, "edges": [[1, 2, 3]]}', '{"vertices": 2, "edges": [[1, 2.0]]}'):
        with pytest.raises(ValueError):
            parse_graph_document(bad)
