"""Preprojective pieces, trace spaces, and the quadratic-dual variant.

Regression dimensions here were produced by the brute-force module in
tests/test_oracle.py (or by hand for the smallest cases) before being
frozen.
"""

import pytest

from zigzaghh import preproj
from zigzaghh.exactla import GF, QQ
from zigzaghh.preproj import (_table, cycle_class_in_trace_is_zero,
                              cyclic_piece_dim, koszul_dual_zigzag_piece, lambda_piece,
                              trace_piece, trace_piece_general)
from zigzaghh.quiver import Graph, Quiver, catalog, double, orient_bipartite, orient_by_edge_order

from dg import BigradedElement, commutator, path_from_names
from memos import asked, eliminations, fresh, kept, walk_spy
from oracle import oracle_class_is_zero, oracle_quotient_representatives, oracle_trace_witnesses


def _q(label):
    return orient_bipartite(
        catalog(label[0] + ("~" if "~" in label else ""), int(label.strip("ADE~"))))


def test_lambda_a1():
    q = _q("A1")
    assert [lambda_piece(q, n, QQ).dimension for n in range(4)] == [1, 0, 0, 0]


def test_lambda_a2():
    q = _q("A2")
    assert [lambda_piece(q, n, QQ).dimension for n in range(4)] == [2, 2, 0, 0]


def test_lambda_a3_regression():
    q = _q("A3")
    assert [lambda_piece(q, n, QQ).dimension for n in range(6)] == [3, 4, 3, 0, 0, 0]


def test_lambda_d4_regression_and_finiteness():
    q = _q("D4")
    dims = [lambda_piece(q, n, QQ).dimension for n in range(8)]
    assert dims == [4, 6, 8, 6, 4, 0, 0, 0]
    assert sum(dims) == 28


def test_lambda_representatives_project_to_basis():
    q = _q("A3")
    piece = lambda_piece(q, 2, QQ)
    assert len(piece.representatives) == piece.dimension
    # the three r_v are the relation rows in degree 2, with disjoint supports
    assert len(_table(q, "preprojective", QQ).spanning(2)) - piece.dimension == 3


def test_cyclic_piece_degree_zero():
    q = _q("D4")
    for v in range(1, 5):
        assert cyclic_piece_dim(q, 0, v, QQ) == 1


def test_cyclic_piece_a2_degree_two():
    assert cyclic_piece_dim(_q("A2"), 2, 1, QQ) == 0


def test_cyclic_piece_extended_d4_nontrivial():
    q = _q("D~4")
    # the bottom-leaf block and the hub block in degree 4 are both nonzero
    assert cyclic_piece_dim(q, 4, 4, QQ) >= 1
    assert cyclic_piece_dim(q, 4, 5, QQ) >= 1


def test_trace_degree_zero_counts_vertices():
    for label in ("A2", "D4", "D~4"):
        q = _q(label)
        assert trace_piece(q, 0, QQ).dimension == q.vertex_count


def test_trace_a2_vanishes_in_higher_degrees():
    q = _q("A2")
    for n in range(2, 6):
        assert trace_piece(q, n, QQ).dimension == 0


def test_trace_extended_d4_matches_bottom_leaf_block():
    q = _q("D~4")
    for n in (4, 6, 8):
        assert trace_piece(q, n, QQ).dimension == cyclic_piece_dim(q, n, 4, QQ)


def test_trace_witnesses_are_cycles_of_right_length():
    q = _q("D~4")
    tr = trace_piece(q, 4, QQ)
    assert tr.dimension == 2
    assert len(tr.witnesses) == 2
    for w in tr.witnesses:
        assert w.is_cycle() and w.length == 4


def test_koszul_dual_matches_preprojective_on_trees():
    for label in ("A2", "A3", "D4"):
        g = catalog(label[0], int(label[1]))
        q = orient_bipartite(g)
        for n in range(6):
            assert (koszul_dual_zigzag_piece(g, n, QQ).dimension
                    == lambda_piece(q, n, QQ).dimension)


def test_koszul_dual_a1():
    g = catalog("A", 1)
    assert [koszul_dual_zigzag_piece(g, n, QQ).dimension for n in range(4)] == [1, 0, 0, 0]


def test_koszul_dual_triangle_has_nonzero_high_traces():
    tri = Graph(3, ((1, 2), (2, 3), (1, 3)), name="triangle")
    nonzero = [n for n in range(3, 9)
               if trace_piece_general("koszul-dual-zigzag", tri, n, QQ).dimension > 0]
    assert nonzero  # not intrinsically formal territory: classes persist


def test_trace_general_dispatch():
    q = _q("A2")
    assert trace_piece_general("preprojective", q, 3, QQ).dimension == 0
    g = catalog("D~", 4)
    qd4 = _q("D~4")
    for n in range(6):
        assert (trace_piece_general("koszul-dual-zigzag", g, n, QQ).dimension
                == trace_piece(qd4, n, QQ).dimension)
    with pytest.raises(ValueError):
        trace_piece_general("mystery", q, 1, QQ)
    with pytest.raises(ValueError):
        trace_piece_general("preprojective", g, 1, QQ)


def test_orientation_independence_on_trees():
    g = catalog("A", 3)
    bip = orient_bipartite(g)           # sink/source orientation
    lin = orient_by_edge_order(g)       # 1->2->3, not sink/source
    assert bip.arrows != lin.arrows
    for n in range(6):
        assert lambda_piece(bip, n, QQ).dimension == lambda_piece(lin, n, QQ).dimension
        assert trace_piece(bip, n, QQ).dimension == trace_piece(lin, n, QQ).dimension
    for n in range(6):
        assert (lambda_piece(bip, n, GF(2)).dimension
                == lambda_piece(lin, n, GF(2)).dimension)


def test_zero_piece_kills_all_later_ones():
    # generated in degree 1, so one zero piece ends the algebra; checked
    # one degree past the three-in-a-row rule used by the CLI flag
    q = _q("D4")
    dims = [lambda_piece(q, n, QQ).dimension for n in range(9)]
    first_zero = dims.index(0)
    assert all(d == 0 for d in dims[first_zero:])


def test_relation_sign_flip_invariance():
    # replacing r by -r flips every relation row, so all ranks agree; the
    # reversed quiver realizes the flip composition-side
    g = catalog("D", 4)
    q = orient_bipartite(g)
    rev = Quiver(q.vertex_count, tuple((t, s) for s, t in q.arrows), name=q.name)
    for n in range(6):
        assert lambda_piece(q, n, QQ).dimension == lambda_piece(rev, n, QQ).dimension
        assert trace_piece(q, n, QQ).dimension == trace_piece(rev, n, QQ).dimension


def test_bad_characteristic_sensitivity_d4():
    q = _q("D4")
    over_f2 = [trace_piece(q, n, GF(2)).dimension for n in range(3, 9)]
    assert any(d > 0 for d in over_f2)
    for fld in (QQ, GF(7)):
        assert all(trace_piece(q, n, fld).dimension == 0 for n in range(3, 9))


def test_sum_of_cyclic_blocks_bounds_trace():
    for label, fld in (("D4", QQ), ("D~4", QQ), ("D4", GF(2))):
        q = _q(label)
        for n in range(0, 6):
            total = sum(cyclic_piece_dim(q, n, i, fld) for i in range(1, q.vertex_count + 1))
            assert total >= trace_piece(q, n, fld).dimension


def test_cyclic_commutator_identity_random_sample():
    # [x_1..x_p, x_{p+1}..x_{p+q}] telescopes into single-arrow-by-rotation
    # commutators, as elements of the free doubled path algebra
    import random

    from zigzaghh.pathalg import all_cycles, make_path

    rng = random.Random(17)
    qd = double(_q("D4"))
    pool = [c for n in (2, 4, 6) for c in all_cycles(qd, n)]
    for _ in range(25):
        cyc = rng.choice(pool)
        p = rng.randint(1, cyc.length - 1)

        def elem(letters):
            return BigradedElement.of_path(QQ, qd, make_path(qd, letters))

        lhs = commutator(elem(cyc.letters[:p]), elem(cyc.letters[p:]))
        rhs = BigradedElement.zero(QQ, qd)
        for i in range(p):
            rotated = cyc.letters[i + 1:] + cyc.letters[:i]
            rhs = rhs + commutator(elem(cyc.letters[i:i + 1]), elem(rotated))
        assert lhs == rhs


def test_cycle_class_membership():
    q = _q("D~4")
    qd_path = path_from_names
    qd = double(q)
    w = qd_path(qd, ["a4", "a1*", "a1", "a4*"])
    assert not cycle_class_in_trace_is_zero(q, w, QQ)
    q4 = _q("D4")
    qd4 = double(q4)
    w4 = qd_path(qd4, ["a1", "a2*", "a2", "a1*"])
    assert cycle_class_in_trace_is_zero(q4, w4, QQ)
    with pytest.raises(ValueError):
        cycle_class_in_trace_is_zero(q4, qd_path(qd4, ["a1"]), QQ)


def _class_is_zero(q, vector, fld):
    """Membership of a combination of equal-length cycles in relations +
    commutators, by the necklace elimination of tests/oracle.py."""
    from zigzaghh.preproj import preprojective_relations

    return oracle_class_is_zero(double(q), preprojective_relations(q), vector, fld)


def test_trace_witnesses_have_nonzero_classes():
    for label in ("D4", "E6", "D~4", "A~3"):
        q = _q(label)
        for fld in (QQ, GF(2), GF(3)):
            for n in range(9):
                for w in trace_piece(q, n, fld).witnesses:
                    assert not cycle_class_in_trace_is_zero(q, w, fld), (label, fld, n, w)


def test_rotations_of_a_cycle_share_its_class():
    import random

    from zigzaghh.pathalg import all_cycles, make_path

    rng = random.Random(29)
    for label in ("D4", "D~4", "A~3", "E6"):
        q = _q(label)
        qd = double(q)
        for fld in (QQ, GF(2), GF(3)):
            for n in (4, 5, 6):
                cycles = all_cycles(qd, n)
                for c in rng.sample(cycles, min(8, len(cycles))):
                    zero = cycle_class_in_trace_is_zero(q, c, fld)
                    for k in range(1, n):
                        r = make_path(qd, c.letters[k:] + c.letters[:k])
                        assert cycle_class_in_trace_is_zero(q, r, fld) == zero
                        if r != c:
                            assert _class_is_zero(q, {c: 1, r: -1}, fld)


def test_trace_reads_only_closed_walks(monkeypatch):
    # the witness necklaces come from the necklace walk and everything else
    # from the table of Lambda; an open word walk would mean a second way of
    # making cycles
    from zigzaghh.pathalg import make_path

    walks = walk_spy(monkeypatch)
    q = fresh(_q("E~6"))
    trace_piece(q, 10, GF(2))
    cycle_class_in_trace_is_zero(q, make_path(double(q), (0, 1) * 3), GF(2))
    assert walks == []   # over F2, E~6 has no trace in degree 10, so no witness is scanned
    # the two tables built are these: the F2 table, and the Q one it would
    # read, which an F2-only job never grows past the arrows
    assert kept(preproj._tables, q) == {("preprojective", GF(2)), ("preprojective", QQ)}
    assert len(_table(q, "preprojective", QQ).basis) == 2


def test_witness_scan_stops_at_the_dimension(monkeypatch):
    # the scan walks the necklaces from the largest down and stops at the
    # last witness: E~8 over Q in degree 12 has one, found among 122 of its
    # 761 necklaces, and the partial walk is not cached
    from zigzaghh import pathalg, preproj

    read = []

    def counted(qd, n):
        for c in pathalg.necklaces_descending(qd, n):
            read.append(c)
            yield c

    monkeypatch.setattr(preproj, "necklaces_descending", counted)
    q = fresh(_q("E~8"))
    qd = double(q)
    before = asked()
    walks = walk_spy(monkeypatch)
    tr = trace_piece(q, 12, QQ)
    assert tr.dimension == len(tr.witnesses) == 1
    assert len(read) == 122 and read[-1] == tr.witnesses[0]
    assert walks == [(qd, 12, "necklace")]   # the witness scan walks no word or cycle table
    assert asked()["ginzburg"] == before["ginzburg"] and asked()["zigzag"] == before["zigzag"]
    assert kept(preproj._tables, q) == {("preprojective", QQ)}   # the one table built
    assert len(pathalg.all_necklaces(qd, 12)) == 761
    assert len(pathalg.all_cycles(qd, 12)) == 8838


def test_witness_scan_holds_one_normal_form_per_letter():
    # the necklaces come in descending order, so the scan keeps the normal
    # forms of the current necklace's prefixes on a stack, not a memo of
    # every prefix read: D~4 over Q in degree 18 reads 15,157 necklaces for 4
    # witnesses (Python 3.11: a memo of every prefix peaked near 13.8 MB, the
    # stack peaks near 0.01 MB)
    import tracemalloc

    q = orient_bipartite(catalog("D~", 4))
    assert trace_piece(q, 18, QQ, want_witnesses=False).dimension == 4
    tracemalloc.start()
    try:
        tr = trace_piece(q, 18, QQ)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tr.witnesses) == 4
    assert peak < 2 ** 20, peak


def test_relation_times_closed_walk_has_zero_class():
    # r_v w for every closed walk w at v, and every rotation x r_v y of it
    from zigzaghh.pathalg import Path, words_by_endpoints
    from zigzaghh.preproj import preprojective_relations

    for label in ("D4", "D~4", "A~3"):
        q = _q(label)
        qd = double(q)
        rels = preprojective_relations(q)
        for fld in (QQ, GF(2)):
            for n in (2, 4, 6):
                for (v, j), walks in words_by_endpoints(qd, n - 2).items():
                    if v != j:
                        continue
                    for w in walks:
                        for k in range(n - 1):
                            x, y = w.letters[k:], w.letters[:k]
                            vector = {}
                            for coeff, pair in rels[v]:
                                word = x + pair + y
                                src = qd.arrow_source[word[0]]
                                cyc = Path(src, word, src)
                                vector[cyc] = vector.get(cyc, 0) + coeff
                            assert _class_is_zero(q, vector, fld), (label, fld, v, w, k)


def _pieces(label, char, orientation):
    from zigzaghh.exactla import FieldSpec
    from zigzaghh.pathalg import path_name
    from zigzaghh.preproj import doubled_of_graph
    from zigzaghh.quiver import parse_label

    g = parse_label(label)
    q = orientation(g)
    fld = FieldSpec(char)
    qd, gd = double(q), doubled_of_graph(g)
    cell = {"lambda": [], "koszul-dual": [], "cyclic": []}
    for n in range(9):
        for kind, piece, quiver in (("lambda", lambda_piece(q, n, fld), qd),
                                    ("koszul-dual", koszul_dual_zigzag_piece(g, n, fld), gd)):
            cell[kind].append({"dim": piece.dimension,
                               "reps": [path_name(quiver, r) for r in piece.representatives]})
        cell["cyclic"].append([cyclic_piece_dim(q, n, i, fld)
                               for i in range(1, q.vertex_count + 1)])
    return cell


@pytest.mark.parametrize("label,char,orientation", [("D~4", 0, orient_bipartite),
                                                    ("E6", 2, orient_bipartite),
                                                    ("A~2", 3, orient_by_edge_order)])
def test_quotient_pieces_pinned(label, char, orientation):
    # recorded before the relation rows became r_v inserted into the shorter
    # words: the rows span the same space in another order, and the free
    # columns (the representatives) depend only on that space
    import json
    import pathlib

    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "preproj-pieces.json")
                        .read_text())
    assert _pieces(label, char, orientation) == golden["%s-char%d" % (label, char)]


def test_quotient_pieces_build_no_endpoint_table(monkeypatch):
    # the relation rows come from the shorter words themselves, so no word
    # is walked, and no table of words keyed by their endpoints is built;
    # D~4's edge order is its sink/source orientation, so one state holds all
    walks = walk_spy(monkeypatch)
    g = fresh(catalog("D~", 4))
    q = orient_bipartite(g)
    assert orient_by_edge_order(g) == q
    for n in range(7):
        lambda_piece(q, n, QQ)
        koszul_dual_zigzag_piece(g, n, GF(3))
        cyclic_piece_dim(q, n, 5, GF(2))
    assert walks == []
    # the Q and F2 preprojective tables, the F3 Koszul-dual one and the Q one it would read
    assert kept(preproj._tables, q) == {("preprojective", QQ), ("preprojective", GF(2)),
                                        ("koszul-dual-zigzag", GF(3)),
                                        ("koszul-dual-zigzag", QQ)}


@pytest.mark.parametrize("koszul_first", [False, True])
def test_relation_kinds_on_one_double_stay_apart(koszul_first):
    # the triangle's edge-order orientation is the quiver whose double is the
    # graph's, so its preprojective and Koszul-dual tables sit on one double;
    # built interleaved, in either order, each reads its own relations
    from zigzaghh.preproj import doubled_of_graph, preprojective_relations, zigzag_dual_relations

    g = fresh(catalog("A~", 2))
    q = orient_by_edge_order(g)
    qd, fld = double(q), GF(3)
    assert doubled_of_graph(g) is qd
    jobs = [("preprojective", lambda n: lambda_piece(q, n, fld),
             lambda n: trace_piece(q, n, fld, want_witnesses=False)),
            ("koszul-dual", lambda n: koszul_dual_zigzag_piece(g, n, fld),
             lambda n: trace_piece_general("koszul-dual-zigzag", g, n, fld, want_witnesses=False))]
    got: dict = {kind: [] for kind, _, _ in jobs}
    for n in range(7):
        for kind, piece, trace in jobs[::-1] if koszul_first else jobs:
            got[kind].append((piece(n).representatives, trace(n).dimension))
    for kind, rels in (("preprojective", preprojective_relations(q)),
                       ("koszul-dual", zigzag_dual_relations(qd))):
        assert got[kind] == [(oracle_quotient_representatives(qd, rels, n, fld),
                              len(oracle_trace_witnesses(qd, rels, n, fld))) for n in range(7)]
    assert got["preprojective"] != got["koszul-dual"]


_ORACLE_CELLS = [(label, fld) for label in ("D4", "E6", "D~4", "A~3", "E~6")
                 for fld in (QQ, GF(2), GF(3))]


@pytest.mark.parametrize("label,fld", _ORACLE_CELLS)
def test_trace_witnesses_are_the_free_necklaces(label, fld):
    # the greedy scan from the largest necklace down keeps exactly the free
    # columns of the necklace matrix
    from zigzaghh.preproj import preprojective_relations

    q = _q(label)
    qd, rels = double(q), preprojective_relations(q)
    for n in range(9):
        tr = trace_piece(q, n, fld)
        assert tr.witnesses == oracle_trace_witnesses(qd, rels, n, fld), (n, tr)
        assert tr.dimension == len(tr.witnesses)


@pytest.mark.parametrize("label,fld", _ORACLE_CELLS)
def test_quotient_representatives_are_the_all_words_free_columns(label, fld):
    from zigzaghh.preproj import (doubled_of_graph, preprojective_relations,
                                  zigzag_dual_relations)
    from zigzaghh.quiver import parse_label

    g = parse_label(label)
    q = _q(label)
    qd, gd = double(q), doubled_of_graph(g)
    for n in range(9):
        piece = lambda_piece(q, n, fld)
        assert piece.representatives == oracle_quotient_representatives(
            qd, preprojective_relations(q), n, fld)
        if n >= 2:   # the spanning words are b a, b normal one degree down
            prev = lambda_piece(q, n - 1, fld).representatives
            assert [p.letters for p in _table(q, "preprojective", fld).spanning(n)] == [
                b.letters + (a,) for b in prev for a in range(qd.arrow_count)
                if qd.arrow_source[a] == b.target]
        assert (koszul_dual_zigzag_piece(g, n, fld).representatives
                == oracle_quotient_representatives(gd, zigzag_dual_relations(gd), n, fld))


def test_fp_traces_read_the_q_table_at_certified_degrees(monkeypatch):
    # every Lambda degree of E~6 to 8 is eliminated unimodularly over Q, so the
    # F2 and F3 tables share its words and coordinates and run no Lambda
    # elimination; each trace echelon over Q has a record, so the F_p one
    # shares E's rows and eliminates only the residual S mod p, empty where
    # the Q echelon is unimodular, and it answers as a table that never saw Q
    from zigzaghh import preproj

    q = fresh(_q("E~6"))
    over_q = preproj._table(q, "preprojective", QQ)
    for n in range(9):
        trace_piece(q, n, QQ)
    assert over_q.exact > 8
    seen = eliminations(monkeypatch, preproj)
    want = {}
    for fld in (GF(2), GF(3)):
        for n in range(9):
            want[fld, n] = trace_piece(q, n, fld)
        assert all(preproj._table(q, "preprojective", fld).basis[n] is over_q.basis[n]
                   for n in range(2, 9))
    residual = {n: over_q.trace(n)[1].record().residual for n in range(9)}
    torsion = [n for n in range(9) if not over_q.trace(n)[1].unimodular]
    assert torsion == [n for n in range(9) if residual[n]] and torsion
    assert seen == [(fld, residual[n]) for fld in (GF(2), GF(3)) for n in range(9)]
    for fld in (GF(2), GF(3)):
        table = preproj._table(q, "preprojective", fld)
        for n in range(9):   # E's rows are shared: only S's pivots are not
            rows = over_q.trace(n)[1].pivot_row
            fp = table.trace(n)[1].pivot_row
            assert len(rows) - sum(fp.get(c) is r for c, r in rows.items()) <= len(residual[n])
    alone = fresh(q)
    assert {(fld, n): trace_piece(alone, n, fld) for fld in (GF(2), GF(3))
            for n in range(9)} == want


def test_fp_tables_read_only_what_q_has_grown(monkeypatch):
    # an F_p table never grows the Q table, so a job asked only over F2
    # eliminates only over F2; a field asked after Q reads the degrees Q has
    # grown, and a field that grew its own degrees reads the Q degrees grown
    # after them
    import sys

    from zigzaghh import preproj

    q = fresh(_q("E~6"))
    ref = fresh(q)
    want = {(n, f): trace_piece(ref, n, f) for n in range(11) for f in (GF(2), GF(3))}
    calls = []
    real = preproj.echelonize

    def spy(fld, rows, ncols):
        calls.append((sys._getframe(1).f_code.co_name, fld))
        return real(fld, rows, ncols)

    monkeypatch.setattr(preproj, "echelonize", spy)
    for n in range(9):
        trace_piece(q, n, GF(2))
    over_q = preproj._table(q, "preprojective", QQ)
    assert {f for _, f in calls} == {GF(2)} and len(over_q.basis) == 2 and not over_q.traces
    for n in range(5):
        trace_piece(q, n, QQ)
    lambda_piece(q, 10, QQ)
    del calls[:]
    for n in range(11):
        assert trace_piece(q, n, GF(3)) == want[n, GF(3)], n
    assert calls and all(c == ("trace", GF(3)) for c in calls)
    f2 = preproj._table(q, "preprojective", GF(2))
    assert f2.basis[8] is not over_q.basis[8]
    assert trace_piece(q, 10, GF(2)) == want[10, GF(2)]
    assert f2.basis[10] is over_q.basis[10]


@pytest.mark.parametrize("fp_first", [True, False])
def test_an_uncertified_degree_falls_back_to_elimination_mod_p(fp_first):
    # no catalog relation reaches this path: with the last term of the
    # relation at the centre of D~4 taken 6 times, Q eliminates unimodularly
    # to degree 3 but not in degree 4, so F2 and F3 tables asked after Q read
    # the Q table below 4 and grow their own degrees from there; asked
    # before Q they grow every degree themselves
    from zigzaghh.preproj import _Table, preprojective_relations

    q = _q("D~4")
    qd = double(q)
    rels = preprojective_relations(q)
    centre = max(rels, key=lambda v: len(rels[v]))
    coeff, pair = rels[centre][-1]
    rels[centre][-1] = (6 * coeff, pair)
    over_q = _Table(qd, rels, QQ)
    tables = [_Table(qd, rels, fld, over_q) for fld in (GF(2), GF(3))]
    for table in tables + [over_q] if fp_first else [over_q] + tables:
        for n in range(8):
            table.degree(n)
            table.witnesses(n)
    assert over_q.exact == 4
    for table in tables:
        assert (table.basis[3] is over_q.basis[3]) != fp_first
        assert table.basis[4] is not over_q.basis[4]
        assert any(table.basis[n] != over_q.basis[n] for n in range(5, 8))
        for n in range(8):
            assert table.basis[n] == oracle_quotient_representatives(qd, rels, n, table.fld), n
            assert table.witnesses(n) == oracle_trace_witnesses(qd, rels, n, table.fld), n


@pytest.mark.parametrize("label,fld,n", [("D~4", GF(2), 4), ("E6", GF(3), 6),
                                         ("E8", GF(2), 8), ("E8", GF(3), 6),
                                         ("E8", GF(5), 10)])
def test_torsion_cells_eliminate_the_integral_trace_rows_mod_p(label, fld, n):
    # the Q echelon of these trace rows is not unimodular: the field
    # eliminates the integral rows itself, and finds the classes that vanish
    # over Q, whether it is asked before Q or after
    import random

    from zigzaghh import preproj
    from zigzaghh.pathalg import all_cycles
    from zigzaghh.preproj import preprojective_relations

    from oracle import oracle_trace_dim

    base = _q(label)
    qd, rels = double(base), preprojective_relations(base)
    dim = oracle_trace_dim(base, n, fld)
    want = {f: oracle_trace_witnesses(qd, rels, n, f) for f in (fld, QQ)}
    cycles = want[fld] + random.Random(n).sample(all_cycles(qd, n), 3)
    zero = {(c, f): _class_is_zero(base, {c: 1}, f) for c in cycles for f in (fld, QQ)}
    for order in ((fld, QQ), (QQ, fld)):
        q = fresh(base)
        got = {f: trace_piece(q, n, f) for f in order}
        assert not preproj._table(q, "preprojective", QQ).trace(n)[1].unimodular
        assert got[fld].dimension == dim > got[QQ].dimension
        for f, tr in got.items():
            assert tr.witnesses == want[f] and tr.dimension == len(tr.witnesses)
        assert {(c, f): cycle_class_in_trace_is_zero(q, c, f)
                for c in cycles for f in order} == zero
