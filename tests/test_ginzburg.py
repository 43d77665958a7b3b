"""The dg algebra differential, the HH^{2,q} complex, and the cone witness."""

import random

import pytest

from zigzaghh import ginzburg, pathalg
from zigzaghh.exactla import GF, QQ, echelonize, in_span, span_info
from zigzaghh.ginzburg import h0_dim, hh2_complex, hh2_dim
from zigzaghh.pathalg import Path, all_words, loop_count, make_path, path_name, paths_between
from zigzaghh.preproj import (cycle_class_in_trace_is_zero, lambda_piece,
                              preprojective_relations, trace_piece)
from zigzaghh.quiver import Graph, Quiver, catalog, double, orient_bipartite, orient_by_edge_order

from cone import verify_cone_resolution
from dg import (BigradedElement, dg_piece, differential, element_differential, ginzburg_of,
                path_from_names)
from memos import built_since, fresh, memo_sizes
from oracle import (oracle_basis_of_bidegree, oracle_hh2_complex, oracle_necklace,
                    oracle_necklace_space, oracle_times)


def _q(family, n):
    return orient_bipartite(catalog(family, n))


def test_differential_kills_arrows():
    q = _q("A", 2)
    qg = ginzburg_of(q)
    for k in range(2):  # the doubled arrows
        assert differential(qg, make_path(qg, [k]), QQ).is_zero()


def test_differential_of_loops_a2():
    # with arrows oriented 1 -> 2: d(t1) = a a*, d(t2) = -a* a
    q = _q("A", 2)
    qg = ginzburg_of(q)
    d1 = differential(qg, make_path(qg, [qg.loop_index[1]]), QQ)
    d2 = differential(qg, make_path(qg, [qg.loop_index[2]]), QQ)
    assert d1.terms == {Path(1, (0, 1), 1): QQ.element(1)}
    assert d2.terms == {Path(2, (1, 0), 2): QQ.element(-1)}


def test_differential_leibniz_sign_on_double_loop():
    q = _q("A", 2)
    qg = ginzburg_of(q)
    t1 = make_path(qg, [qg.loop_index[1]])
    t1t1 = make_path(qg, [qg.loop_index[1], qg.loop_index[1]])
    d_t1 = differential(qg, t1, QQ)
    t1_elem = BigradedElement.of_path(QQ, qg, t1)
    expected = d_t1 * t1_elem - t1_elem * d_t1
    assert differential(qg, t1t1, QQ) == expected


def test_d_squared_zero_on_all_words():
    for family, n in (("A", 2), ("D", 4)):
        qg = ginzburg_of(_q(family, n))
        for length in range(5):
            for w in all_words(qg, length):
                assert element_differential(differential(qg, w, QQ)).is_zero()


def test_differential_bidegree():
    qg = ginzburg_of(_q("D", 4))
    for w in all_words(qg, 3):
        img = differential(qg, w, QQ)
        if img.is_zero():
            continue
        p, adams = img.bidegree
        assert (p, adams) == (1 + (-loop_count(qg, w)), w.length + loop_count(qg, w))


def test_dg_piece_matrix_squares_to_zero():
    qg = ginzburg_of(_q("A", 3))
    for adams in range(5):
        for p in range(-2, 0):
            piece = dg_piece(qg, p, adams, QQ)
            nxt = dg_piece(qg, p + 1, adams, QQ)
            for col in range(piece.matrix.ncols):
                v = [piece.matrix.rows[i].get(col, 0) for i in range(piece.matrix.nrows)]
                assert all(x == 0 for x in oracle_times(nxt.matrix, v))


def test_h0_equals_lambda():
    # arrow words modulo d of the one-loop words, from the dg algebra itself
    for family, n in (("A", 1), ("A", 2), ("D", 4)):
        q = _q(family, n)
        qg = ginzburg_of(q)
        for adams in range(6):
            for fld in (QQ, GF(3)):
                piece = dg_piece(qg, -1, adams, fld)
                h0 = len(piece.target_basis) - piece.matrix.rank()
                assert h0 == h0_dim(q, adams, fld) == lambda_piece(q, adams, fld).dimension
        assert h0_dim(q, -1, QQ) == 0


def test_equal_quivers_share_double_ginzburg_and_word_tables():
    # built apart, equal by value: warm batch callers rely on this reuse (the
    # orientation is interned, so the two are built with `Quiver` itself)
    q = _q("D~", 5)
    q1, q2 = (Quiver(q.vertex_count, q.arrows, name=q.name) for _ in range(2))
    assert q1 == q2 and q1 is not q2
    assert double(q1) is double(q2)
    assert ginzburg_of(q1) is ginzburg_of(q2)
    assert ginzburg_of(q1).doubled is double(q1)
    assert all_words(double(q1), 3) is all_words(double(q2), 3)
    assert all_words(ginzburg_of(q1), 2) is all_words(ginzburg_of(q2), 2)
    assert hh2_complex(q1, 4) is hh2_complex(q2, 4)


def test_hh2_builds_no_ginzburg_word_table(monkeypatch):
    # the codomain necklaces and the relation columns' closed walks both come
    # from the doubled quiver's closed walk, and each relation column is
    # r_v c read on necklaces, so no Ginzburg word, no open path table and
    # no table of the other cycles of length q + 2 is built
    walks = []
    walk = pathalg._walk

    def spy(quiver, n, mode="open"):
        walks.append((quiver, n, mode))
        return walk(quiver, n, mode)

    monkeypatch.setattr(pathalg, "_walk", spy)
    q = fresh(_q("E~", 6))
    before = memo_sizes()
    hh2_dim(q, 8, GF(2))
    assert walks == [(double(q), 10, "necklace"), (double(q), 8, "closed")]
    assert built_since(before) == {"all_words": 0, "words_by_endpoints": 0, "all_cycles": 1,
                                   "all_necklaces": 1, "lambda": 0, "hh2_complex": 1,
                                   "certified": 1, "parse_label": 0, "orient_bipartite": 0,
                                   "orient_by_edge_order": 0}
    assert ginzburg._certified(q) == {}   # F2 records nothing


def _echelonize_fields(monkeypatch) -> list:
    """The field of each later elimination hh2_dim runs."""
    seen = []

    def spy(fld, rows, ncols):
        seen.append(fld)
        return echelonize(fld, rows, ncols)

    monkeypatch.setattr(ginzburg, "echelonize", spy)
    return seen


def test_fp_reads_the_certified_q_record(monkeypatch):
    # a unimodular Q echelon has the same pivots mod every p (exactla), so Q
    # records its rank and free coordinates, and F_p eliminates only at the
    # cells the certificate refuses, over the one assembly of each cell
    seen = _echelonize_fields(monkeypatch)
    q = fresh(_q("D~", 6))
    fields = (GF(2), GF(3), GF(5))
    before = memo_sizes()
    qq = [hh2_dim(q, adams, QQ, want_witnesses=True) for adams in range(-2, 9)]
    record = ginzburg._certified(q)
    refused = [adams for adams in range(-2, 9) if adams not in record]
    assert refused == [2, 6] and seen == [QQ] * 11
    for adams, (rank, free) in record.items():
        necklaces, cols = hh2_complex(q, adams)
        ech = echelonize(QQ, cols, len(necklaces))
        assert ech.unimodular and (rank, free) == (ech.rank, ech.free_cols())
    seen.clear()
    for fld in fields:
        fp = [hh2_dim(q, adams, fld, want_witnesses=True) for adams in range(-2, 9)]
        assert all(fp[adams + 2] == qq[adams + 2] for adams in record), fld
    assert seen == [fld for fld in fields for _ in refused]
    built = built_since(before)
    assert built["hh2_complex"] == 11 and built["certified"] == 1, built


def test_fp_only_jobs_run_no_q_elimination(monkeypatch):
    seen = _echelonize_fields(monkeypatch)
    q = fresh(_q("E", 8))
    for fld in (GF(2), GF(3), GF(5)):
        for adams in range(-2, 9):
            hh2_dim(q, adams, fld, want_witnesses=True)
    assert len(seen) == 33 and QQ not in seen
    assert ginzburg._certified(q) == {}


_ORDER_GRID = [_q(family, n) for family, n in (("A", 5), ("D", 5), ("D", 6), ("E", 6), ("E", 7),
                                               ("E", 8), ("D~", 4), ("D~", 5), ("D~", 6),
                                               ("E~", 6), ("E~", 7))]


@pytest.mark.parametrize("quiv", _ORDER_GRID, ids=lambda quiv: quiv.name)
def test_fp_answers_do_not_depend_on_the_order(quiv):
    # each fresh quiver is a process with nothing built: F_p alone, Q first,
    # and F_p first with Q between two F_p passes give the same F_p reports
    fields = (GF(2), GF(3), GF(5))
    cells = [(fld, adams) for fld in fields for adams in range(-2, 9)]

    def fp(q):
        return [hh2_dim(q, adams, fld, want_witnesses=True) for fld, adams in cells]

    def qq(q):
        return [hh2_dim(q, adams, QQ, want_witnesses=True) for adams in range(-2, 9)]

    alone = fp(fresh(quiv))
    q_first = fresh(quiv)
    q_answers = qq(q_first)
    assert fp(q_first) == alone
    fp_first = fresh(quiv)
    assert fp(fp_first) == alone
    assert qq(fp_first) == q_answers
    assert fp(fp_first) == alone
    assert ginzburg._certified(q_first) == ginzburg._certified(fp_first)


@pytest.mark.parametrize("family, n, adams, dims", [("D~", 4, 2, (2, 3, 2, 2)),
                                                    ("D~", 6, 4, (0, 0, 0, 0)),
                                                    ("D~", 5, 4, (1, 1, 1, 1)),
                                                    ("D~", 5, 6, (2, 2, 2, 2)),
                                                    ("E", 7, 8, (0, 0, 0, 0))])
def test_refused_cells_eliminate_mod_p(family, n, adams, dims):
    # D~4 at q = 2 has 2-torsion, so the certificate must refuse it; D~5 at
    # q = 6 has none, yet the certificate refuses it too (measured: its F2,
    # F3 and F5 dimensions are the Q ones), and F_p eliminates it itself,
    # whichever field is asked first.  D~6 and D~5 at q = 4 and E7 at q = 8
    # were refused until the long rows that turn short went to the
    # union-find: now Q certifies them, in either order.
    certified = (family, n, adams) in {("D~", 6, 4), ("D~", 5, 4), ("E", 7, 8)}
    fields = (QQ, GF(2), GF(3), GF(5))
    for order in (fields, fields[::-1]):
        q = fresh(_q(family, n))
        got = {fld: hh2_dim(q, adams, fld).dimension for fld in order}
        assert tuple(got[fld] for fld in fields) == dims, order
        assert (adams in ginzburg._certified(q)) == certified, order


def _random_nontree(seed: int, n: int) -> Graph:
    rng = random.Random(seed)
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    missing = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in edges]
    return Graph(n, tuple(edges + rng.sample(missing, 2)), name="random-nontree-%d" % seed)


@pytest.mark.parametrize("quiv", [_q("D", 4), _q("E", 6), _q("D~", 4), _q("A~", 3),
                                  orient_by_edge_order(catalog("A~", 2)),
                                  orient_by_edge_order(_random_nontree(918, 6))],
                         ids=lambda quiv: quiv.name)
def test_hh2_complex_spans_the_full_complex(quiv):
    # dom1 is the arrow-by-arrow complex of paths pi from s(x) to t(x), and
    # the relation columns span what every closed one-loop word u t_v u'
    # gives, with the loop anywhere: so rank and witnesses cannot move
    qg = ginzburg_of(quiv)
    qd = qg.doubled
    rels = preprojective_relations(quiv)
    for adams in range(-2, 7):
        cx = oracle_hh2_complex(quiv, adams, QQ)
        index = {w.letters: i for i, w in enumerate(cx.codomain)}
        dom1, cols1 = [], []
        for x in range(qd.arrow_count if adams + 1 >= 0 else 0):
            partner = qd.star(x)
            sign = 1 if x % 2 == 0 else -1
            for pi in paths_between(qd, qd.arrow_source[x], qd.arrow_target[x], adams + 1):
                dom1.append((x, pi))
                col: dict[int, int] = {}
                for word, s in ((pi.letters + (partner,), sign), ((partner,) + pi.letters, -sign)):
                    col[index[word]] = col.get(index[word], 0) + s
                cols1.append({i: c for i, c in col.items() if c})
        assert cx.dom1 == dom1 and cx.cols1 == cols1, (quiv.name, adams)

        full = []
        for w in oracle_basis_of_bidegree(qg, -1, adams + 2):
            if w.source != w.target:
                continue
            pos = next(k for k, a in enumerate(w.letters) if qg.is_loop(a))
            col = {}
            for coeff, pair in rels[qg.arrow_source[w.letters[pos]]]:
                i = index[w.letters[:pos] + pair + w.letters[pos + 1:]]
                col[i] = col.get(i, 0) + coeff
            full.append(col)
        assert len(cx.dom2) <= len(full)
        for fld in (QQ, GF(2), GF(3)):
            cx = oracle_hh2_complex(quiv, adams, fld)
            small = cx.combined_columns()
            ech = echelonize(fld, small, len(cx.codomain))
            assert all(in_span(fld, ech, col) for col in full), (quiv.name, fld, adams)
            assert (span_info(fld, small, len(cx.codomain)).free_coords
                    == span_info(fld, cx.cols1 + full, len(cx.codomain)).free_coords)


@pytest.mark.parametrize("quiv", [_q("A", 5), _q("D", 5), _q("E", 6), _q("D~", 4), _q("E~", 6),
                                  orient_by_edge_order(catalog("A~", 3)),
                                  orient_by_edge_order(_random_nontree(4077, 6)),
                                  Quiver(2, ((1, 1), (1, 2)), name="loop-and-edge")],
                         ids=lambda quiv: quiv.name)
def test_hh2_dim_eliminates_the_complex_columns(monkeypatch, quiv):
    # the rotation columns eliminated in closed form: hh2_dim eliminates the
    # relation columns of the full complex read on necklaces, over one
    # coordinate per rotation class, and its dimension and witnesses are the
    # free columns of the full complex from the oracle.  At a loop a, the
    # terms a a* c and a* a c of r_v c can share a necklace.  Each field asks
    # a fresh quiver, so no F_p call reads a Q record and every call is spied.
    seen = []

    def spy(fld, rows, ncols):
        rows = list(rows)
        seen.append((rows, ncols))
        return echelonize(fld, rows, ncols)

    monkeypatch.setattr(ginzburg, "echelonize", spy)

    def rotation_class(w):   # a trivial path is its own class
        return oracle_necklace(w.letters) if w.letters else (w.source,)

    for fld in (QQ, GF(2), GF(3)):
        quiv = fresh(quiv)
        qd = double(quiv)
        for adams in range(-2, 9):
            rep = hh2_dim(quiv, adams, fld, want_witnesses=True)
            cx = oracle_hh2_complex(quiv, adams, fld)
            (cols, ambient), = seen
            seen.clear()
            classes = sorted({rotation_class(w) for w in cx.codomain})
            column = {c: k for k, c in enumerate(classes)}
            assert ambient == len(classes), (fld, adams)
            projected = []
            for col in cx.cols2:
                image: dict[int, int] = {}
                for i, x in col.items():
                    k = column[rotation_class(cx.codomain[i])]
                    image[k] = image.get(k, 0) + x
                projected.append(image)
            assert cols == projected, (fld, adams)
            necklaces, ours = hh2_complex(quiv, adams)
            assert [rotation_class(w) for w in necklaces] == classes, (fld, adams)
            assert ours == cols, (fld, adams)
            full = span_info(fld, cx.combined_columns(), len(cx.codomain))
            assert rep.dimension == full.quotient_dim, (fld, adams)
            assert rep.representatives == tuple(path_name(qd, cx.codomain[i])
                                                for i in full.free_coords), (fld, adams)


def test_hh2_complex_a2_q0_dimensions():
    cx = oracle_hh2_complex(_q("A", 2), 0, QQ)
    assert len(cx.dom1) == 2
    assert len(cx.dom2) == 2
    assert len(cx.codomain) == 2


def test_hh2_complex_a1_qminus2():
    cx = oracle_hh2_complex(_q("A", 1), -2, QQ)
    assert len(cx.dom1) == 0 and len(cx.dom2) == 0
    assert len(cx.codomain) == 1  # the idempotent


def test_hh2_complex_d4_odd_q_empty_codomain():
    cx = oracle_hh2_complex(_q("D", 4), 1, QQ)
    assert len(cx.codomain) == 0  # trees have no odd cycles


def test_hh2_dim_small_values():
    assert hh2_dim(_q("A", 2), 0, QQ).dimension == 0
    assert hh2_dim(_q("A", 1), -2, QQ).dimension == 1
    assert hh2_dim(_q("A", 1), -5, QQ).dimension == 0
    rep = hh2_dim(_q("D~", 4), 2, QQ)
    assert rep.dimension >= 1 and rep.method == "ginzburg"


def test_hh2_matches_trace_spot_checks():
    for family, n, fld in (("A", 3, QQ), ("D", 4, GF(2)), ("D~", 4, QQ)):
        q = _q(family, n)
        for adams in range(-2, 5):
            got = hh2_dim(q, adams, fld).dimension
            want = trace_piece(q, adams + 2, fld).dimension if adams + 2 >= 0 else 0
            assert got == want, (family, n, adams)


def test_hh2_image_lands_in_commutator_span():
    # each boundary column is a sum of commutators, so it must die in the
    # trace: its image on necklaces lies in the span of the relation rows
    q = _q("D", 4)
    qd = double(q)
    adams = 2
    cx = oracle_hh2_complex(q, adams, QQ)
    necklaces, index, rows = oracle_necklace_space(qd, preprojective_relations(q), adams + 2)
    ech = echelonize(QQ, rows, len(necklaces))
    for col in cx.combined_columns():
        image: dict[int, int] = {}
        for c, x in col.items():
            k = index[oracle_necklace(cx.codomain[c].letters)]
            image[k] = image.get(k, 0) + x
        assert in_span(QQ, ech, image)


def test_hh2_witnesses_are_cycle_names():
    rep = hh2_dim(_q("D~", 4), 2, QQ, want_witnesses=True)
    assert rep.representatives is not None
    assert len(rep.representatives) == rep.dimension
    for name in rep.representatives:
        assert len(name.split()) == 4


def test_cone_resolution_a1_a2():
    for family, n in (("A", 1), ("A", 2)):
        check = verify_cone_resolution(_q(family, n), (-2, 0), 4, QQ)
        assert check.delta_squared_zero
        assert check.theta_chain_map
        assert check.cone_squared_zero
        assert all(a == b for (_, _, a, b) in check.cohomology_matches)
        assert check.ok and check.window_complete


def test_cone_h0_values_match_lambda():
    check = verify_cone_resolution(_q("A", 2), (-2, 0), 4, QQ)
    q = _q("A", 2)
    by_pq = {(p, adams): (a, b) for (p, adams, a, b) in check.cohomology_matches}
    for adams in range(5):
        a, b = by_pq[(0, adams)]
        assert a == b == lambda_piece(q, adams, QQ).dimension


def test_cone_randomized_delta_squared_on_d4():
    # spot-check on a larger quiver: delta^2 kills random window elements
    check = verify_cone_resolution(_q("D", 4), (-2, 0), 3, QQ)
    assert check.delta_squared_zero and check.cone_squared_zero


# Deforming d(t_v) by a cycle w of length > 2 squares to zero to first order
# by construction, since d kills the arrow word w (test_d_squared_zero_on_all_words
# checks d^2 = 0); the deformation is nontrivial exactly when w's trace class is
# nonzero.


def test_first_order_deformation_extended_d4():
    q = _q("D~", 4)
    qd = double(q)
    w = path_from_names(qd, ["a4", "a1*", "a1", "a4*"])
    assert not cycle_class_in_trace_is_zero(q, w, QQ)


def test_first_order_deformation_rejects_short_cycles():
    # Lambda_2 of A2 is 0, so a 2-cycle deforms nothing; a path that is not
    # a cycle is refused
    q = _q("A", 2)
    qd = double(q)
    assert cycle_class_in_trace_is_zero(q, path_from_names(qd, ["a1", "a1*"]), QQ)
    with pytest.raises(ValueError):
        cycle_class_in_trace_is_zero(q, path_from_names(qd, ["a1"]), QQ)


def test_first_order_deformation_trivial_on_d4_over_q():
    q = _q("D", 4)
    qd = double(q)
    candidates = [w for w in all_words(qd, 4) if w.is_cycle()]
    rng = random.Random(3)
    for w in rng.sample(candidates, 5):
        assert cycle_class_in_trace_is_zero(q, w, QQ)
