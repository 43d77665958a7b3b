"""Zigzag algebras and their reduced Hochschild complex."""

import ast
from fractions import Fraction
import pathlib
import random
import tracemalloc

import pytest

from zigzaghh import zigzag
from zigzaghh.exactla import GF, QQ, ExactMatrix, echelonize
from zigzaghh.ginzburg import hh2_dim
from zigzaghh.preproj import trace_piece
from zigzaghh.quiver import Graph, catalog, double, orient_bipartite, parse_label
from zigzaghh.zigzag import (HochschildCochain, _words, build_zigzag, cochain_basis,
                             delta_columns, hochschild_dim, is_coboundary, is_cocycle,
                             zero_cochain)

from barcomplex import differential
from memos import fresh


def _letters(alg):
    """The positive basis as the oracle's walk letters."""
    return tuple((i, alg.src[i], alg.tgt[i], alg.degrees[i]) for i in alg.positive)


def _calls(monkeypatch, name):
    """The arguments after the algebra of each later call of zigzag.<name>."""
    real, seen = getattr(zigzag, name), []

    def spy(alg, *args):
        seen.append(args)
        return real(alg, *args)

    monkeypatch.setattr(zigzag, name, spy)
    return seen


def test_zigzag_reads_only_exactla_quiver_and_reports():
    # the bar complex shares no code with the Ginzburg and trace pipelines:
    # its package imports are pinned, so no later change borrows from them
    imports = set()
    for node in ast.walk(ast.parse(pathlib.Path(zigzag.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["zigzaghh" if node.level else "", node.module]))
            names = ([module + "." + a.name for a in node.names] if module == "zigzaghh"
                     else [module])
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        imports |= {m.split(".")[1] for m in names if m.startswith("zigzaghh.")}
    assert imports == {"exactla", "quiver", "reports"}


def test_build_a1_is_dual_numbers_in_degree_two():
    alg = build_zigzag(catalog("A", 1), QQ)
    assert alg.dim == 2
    assert sorted(alg.degrees) == [0, 2]
    x = alg.cycle_index[1]
    assert alg.table.get((x, x)) is None  # x^2 = 0


def test_a1_degree_profile_settles_the_grading_choice():
    # with x in degree 2 the profile is (1, 0, 1) and dim Z^0 = dim Z^2;
    # placing x in degree 1 would give (1, 1, 0), breaking that symmetry
    alg = build_zigzag(catalog("A", 1), QQ)
    profile = [alg.degrees.count(k) for k in (0, 1, 2)]
    assert profile == [1, 0, 1]
    assert profile[0] == profile[2]
    degree_one_profile = [1, 1, 0]
    assert degree_one_profile[0] != degree_one_profile[2]


def test_build_a2_has_distinct_two_cycles():
    alg = build_zigzag(catalog("A", 2), QQ)
    assert alg.dim == 6
    a = alg.arrow_index[(1, 2)]
    astar = alg.arrow_index[(2, 1)]
    assert alg.table.get((a, astar)) == alg.cycle_index[1]
    assert alg.table.get((astar, a)) == alg.cycle_index[2]
    assert alg.cycle_index[1] != alg.cycle_index[2]
    # length-3 products die
    assert alg.table.get((alg.table[a, astar], a)) is None


def test_build_d4_dimension_and_relations():
    alg = build_zigzag(catalog("D", 4), QQ)
    assert alg.dim == 4 + 6 + 4
    hub = 4
    a1 = alg.arrow_index[(1, hub)]
    b1 = alg.arrow_index[(hub, 1)]
    a2 = alg.arrow_index[(2, hub)]
    b2 = alg.arrow_index[(hub, 2)]
    # both 2-cycles based at the hub are the same class
    assert alg.table.get((b1, a1)) == alg.table.get((b2, a2)) == alg.cycle_index[hub]
    # mixed length-2 paths through the hub vanish
    assert alg.table.get((a1, b2)) is None


def test_degree_dims_match_graph_counts():
    for label, n in (("A", 4), ("D", 5), ("E", 6)):
        g = catalog(label, n)
        alg = build_zigzag(g, QQ)
        assert alg.degrees.count(0) == g.vertex_count
        assert alg.degrees.count(1) == 2 * len(g.edges)
        assert alg.degrees.count(2) == g.vertex_count


def test_positive_part_closed_under_multiplication():
    alg = build_zigzag(catalog("D", 4), QQ)
    for i in alg.positive:
        for j in alg.positive:
            k = alg.table.get((i, j))
            if k is not None:
                assert alg.degrees[k] > 0


def test_frobenius_pairing_nondegenerate():
    # (a, b) -> coefficient of the 2-cycle class in ab pairs the basis perfectly
    for label, n in (("A", 2), ("D", 4), ("D~", 4)):
        alg = build_zigzag(catalog(label, n), QQ)
        cycles = set(alg.cycle_index.values())
        rows = []
        for i in range(alg.dim):
            row = {}
            for j in range(alg.dim):
                if alg.table.get((i, j)) in cycles:
                    row[j] = 1
            rows.append(row)
        m = ExactMatrix(QQ, alg.dim, alg.dim, rows)
        assert m.rank() == alg.dim


def test_cochain_basis_empty_when_target_degree_out_of_range():
    alg = build_zigzag(catalog("A", 1), QQ)
    assert cochain_basis(alg, 2, 1) == []
    assert hochschild_dim(alg, 2, 1).dimension == 0


def test_delta_columns_match_the_letter_scanning_rule():
    # the columns read from the table index equal, column for column, the
    # rule that tries every positive letter at both ends and every pair of
    # positive letters for each factorization; trees and non-trees
    from oracle import oracle_delta_columns
    labels = ("A1", "A2", "A3", "D4", "D5", "E6", "D~4", "E~6", "A~2", "A~3")
    complexes = 0
    for label in labels:
        for fld in (QQ, GF(2)):
            alg = build_zigzag(parse_label(label), fld)
            for p in range(3):
                for q in range(-2, 6):
                    source, target, cols = delta_columns(alg, p, q)
                    assert cols == oracle_delta_columns(alg, source, target, alg.positive), \
                        (label, fld.characteristic, p, q)
                    complexes += fld is QQ
    assert complexes >= 200


def test_word_walk_counts_the_cycle_classes():
    # the depth-first walk yields, in order, the oracle's breadth-first
    # words with c <= budget cycle classes whose ends admit an output of
    # degree 2 - budget + c, each with that output
    from oracle import _graded_walks
    for label in ("A1", "D4", "E~6", "A~2"):
        alg = build_zigzag(parse_label(label), QQ)
        outputs = {(alg.src[z], alg.tgt[z], alg.degrees[z]): z for z in range(alg.dim)}
        for n in range(1, 6):
            for budget in range(3):
                want = [(w, outputs[s, t, 2 - budget + d - n]) for w, s, t, d in
                        _graded_walks(_letters(alg), alg.graph.vertex_count, n)
                        if d - n <= budget and (s, t, 2 - budget + d - n) in outputs]
                assert list(_words(alg, n, budget)) == want, (label, n, budget)


def test_hh2_walks_only_the_budgeted_word_tables(monkeypatch):
    # C^{2,6} is the closed arrow words of length 8, C^{1,6} the words of
    # length 7 with at most one cycle class whose ends admit an output, and
    # C^{3,6} is empty: the incoming columns are read off C^{2,6} and the
    # closed walks of length 6, so HH^{2,6} walks exactly those two word
    # tables and never C^{1,6}, which, asked for, has each word with one
    # output; both come from the budgeted walk (no closed-walk list: the
    # module cannot reach `pathalg` or `preproj`, as the import pin shows)
    from oracle import _graded_walks
    walked = _calls(monkeypatch, "_words")
    g = fresh(catalog("E~", 6))   # no C^{2,q} of it is kept yet
    alg = build_zigzag(g, QQ)
    hochschild_dim(alg, 2, 6)
    assert walked == [(8, 0), (6, 0)]
    basis = cochain_basis(alg, 1, 6)
    assert walked[2:] == [(7, 1)]
    assert len({w for w, _ in basis}) == len(basis) < sum(
        1 for *_, d in _graded_walks(_letters(alg), g.vertex_count, 7) if d <= 8)


def test_every_field_reads_one_c2_walk_per_graph_and_q(monkeypatch):
    # C^{2,q} is kept for the graph: HH^{2,q} over Q, F2 and F3 walks it once,
    # HH^{2,q+2} reads it again as its relation words, and odd q on a tree
    # walks nothing; each answer is the one of a graph nothing was kept for
    walked = _calls(monkeypatch, "_words")
    g = fresh(catalog("E~", 6))
    fields = (QQ, GF(2), GF(3))
    misses = zigzag._c2_bases.cache_info().misses
    reports = {fld: [hochschild_dim(build_zigzag(g, fld), 2, q, want_witnesses=True)
                     for q in range(4, 9)] for fld in fields}
    assert walked == [(6, 0), (4, 0), (8, 0), (10, 0)]
    assert zigzag._c2_bases.cache_info().misses == misses + 1
    for fld in fields:
        alone = build_zigzag(fresh(g), fld)
        assert [hochschild_dim(alone, 2, q, want_witnesses=True)
                for q in range(4, 9)] == reports[fld], fld
        assert [r.dimension for r in reports[fld]] == [
            hh2_dim(orient_bipartite(g), q, fld).dimension for q in range(4, 9)], fld
    assert any(r.dimension for r in reports[QQ])


def test_c2_bases_are_kept_for_the_last_graph_only(monkeypatch):
    # a sweep over many graphs keeps one graph's bases: asking another graph
    # drops them, and asking the first one again walks it anew
    walked = _calls(monkeypatch, "_words")
    first, other = (build_zigzag(fresh(catalog("D~", 4)), QQ) for _ in range(2))
    want = hochschild_dim(first, 2, 4)
    assert hochschild_dim(other, 2, 4) == want
    assert hochschild_dim(first, 2, 4) == want
    assert walked == [(6, 0), (4, 0)] * 3


def test_cochain_basis_returns_the_callers_own_list():
    # the kept C^{2,q} is copied out: mutating a returned basis changes no
    # later basis, dimension or witness
    alg = build_zigzag(fresh(catalog("D~", 4)), QQ)
    want = [hochschild_dim(alg, 2, q, want_witnesses=True) for q in (2, 4)]
    bases = [cochain_basis(alg, 2, q) for q in (0, 2, 4)]
    copies = [list(b) for b in bases]
    for b in bases:
        b.reverse()
        b.pop()
    assert [cochain_basis(alg, 2, q) for q in (0, 2, 4)] == copies
    assert [hochschild_dim(alg, 2, q, want_witnesses=True) for q in (2, 4)] == want


@pytest.mark.parametrize("fld", [QQ, GF(2)], ids=["Q", "F2"])
def test_an_algebra_owns_its_table_and_lists(fld):
    # the field-free part is kept for the last graph asked, but each algebra
    # gets its own copies: corrupting one algebra's table, lists and indexes
    # leaves a later algebra of the graph, and its HH^{2,q}, as those of a
    # graph nothing was kept for
    g = fresh(catalog("D~", 4))
    alone = build_zigzag(fresh(g), fld)
    want = [hochschild_dim(alone, 2, q, want_witnesses=True) for q in range(6)]
    bad = build_zigzag(g, fld)
    a, astar = bad.arrow_index[(1, 5)], bad.arrow_index[(5, 1)]
    bad.table[(a, astar)] = bad.cycle_index[5]
    del bad.table[(astar, a)]
    bad.degrees[a] = 0
    bad.src.reverse()
    bad.names.append("x")
    bad.arrow_index.clear()
    again = build_zigzag(g, fld)
    for name in ("names", "degrees", "src", "tgt", "table", "e_index", "arrow_index",
                 "cycle_index", "products"):
        assert getattr(again, name) == getattr(alone, name), name
    assert [hochschild_dim(again, 2, q, want_witnesses=True) for q in range(6)] == want
    assert any(r.dimension for r in want)


def test_the_table_index_is_built_once_per_graph(monkeypatch):
    # every algebra of one graph, asked over each field in turn, shares one
    # `products`, and owns its table; another graph builds its own
    built = []
    real = zigzag._table_index

    def spy(table, degrees):
        built.append(len(table))
        return real(table, degrees)

    monkeypatch.setattr(zigzag, "_table_index", spy)
    g = fresh(catalog("E~", 6))
    algs = [build_zigzag(g, fld) for fld in (QQ, GF(2), GF(3)) for _ in range(2)]
    assert len(built) == 1
    assert all(alg.products is algs[0].products for alg in algs)
    assert len({id(alg.table) for alg in algs}) == len(algs)
    assert build_zigzag(fresh(g), QQ).products == algs[0].products
    assert len(built) == 2


@pytest.mark.parametrize("label", ["D~4", "E~6"])
def test_hh2_streams_the_incoming_columns(label):
    # HH^{2,8} walks C^{2,8}, reads its two-term columns off it, walks the
    # closed walks of length 8 once for its relation columns, and sends each
    # column to the kernel as it is built: the kernel keeps only its long
    # rows, and no basis or column list outlives the call (Python 3.11:
    # about 0.8 MB peak and 0.01-0.02 MB kept for either graph; keeping all
    # of C^{1,8} and its columns peaks near 4.9 / 4.6 MB and keeps 1.9 / 1.7 MB).
    # Two walks first fill what the process keeps of the graph: its walk
    # tables, and C^{2,8} and C^{2,6}, the bases the call reads (C^{2,6} as
    # its relation words; about 0.14 / 0.12 MB).
    alg = build_zigzag(parse_label(label), QQ)
    cochain_basis(alg, 2, 8)
    cochain_basis(alg, 2, 6)
    tracemalloc.start()
    try:
        dim = hochschild_dim(alg, 2, 8).dimension
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dim == hh2_dim(orient_bipartite(parse_label(label)), 8, QQ).dimension
    assert peak < 2.5 * 2 ** 20, peak
    assert kept < 0.1 * 2 ** 20, kept


def _closed_walks(g, n):
    """tr(A^n) for the adjacency matrix A of g, by counting walks per start."""
    nbrs = {v: [] for v in range(1, g.vertex_count + 1)}
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    total = 0
    for s in nbrs:
        at = {s: 1}
        for _ in range(n):
            nxt = {}
            for v, c in at.items():
                for u in nbrs[v]:
                    nxt[u] = nxt.get(u, 0) + c
            at = nxt
        total += at.get(s, 0)
    return total


def test_the_sent_columns_span_the_image_of_the_full_differential():
    # modulo the two-term columns (X -> y*), the column of u c_v u' is +- that
    # of c_v u' u (the lemma of the module docstring): the columns HH^{2,q}
    # sends, the oracle's full d: C^{1,q} -> C^{2,q} and the two together have
    # one rank; A~2 and A~4 have odd cycles, so odd q is not empty there
    from oracle import oracle_cochain_basis, oracle_delta_columns
    rng = random.Random(2207)
    graphs = [parse_label(label) for label in ("A~2", "A~4", "D~4", "E~6", "D4", "A5")]
    graphs += [Graph(7, tuple((rng.randint(1, v - 1), v) for v in range(2, 8)),
                     name="random-tree-%d" % k) for k in range(2)]
    nonzero = 0
    for g in graphs:
        for fld in (QQ, GF(2), GF(3)):
            alg = build_zigzag(g, fld)
            for q in range(-1, 7):
                target = cochain_basis(alg, 2, q)
                if not target:
                    continue
                index = {b: i for i, b in enumerate(target)}
                full = oracle_delta_columns(alg, oracle_cochain_basis(alg, 1, q), target,
                                            alg.positive)
                sent = [zigzag._delta_elementary(alg, w, z, index)
                        for w, z in zigzag._spanning_words(alg, q, target)]
                assert len(sent) == _closed_walks(g, q + 2) + _closed_walks(g, q) <= len(full)
                ranks = [echelonize(fld, cols, len(target)).rank for cols in (full, sent, full + sent)]
                assert ranks[0] == ranks[1] == ranks[2], (g.name, fld.characteristic, q, ranks)
                nonzero += 1
    assert nonzero >= 100


@pytest.mark.parametrize("label, q, columns",
                         [("D~4", 8, 2560), ("E~6", 8, 2568), ("D4", 10, 1944), ("A~2", 5, 156)])
def test_hh2_sends_one_relation_column_per_closed_walk(monkeypatch, label, q, columns):
    # the two-term columns, one per word of C^{2,q}, and one relation column
    # c_v u per closed walk u of length q: tr(A^(q+2)) + tr(A^q), against
    # 6,656, 6,696, 6,804 and 306 columns in the full map; C^{3,q} is empty,
    # so this is the one elimination
    real = zigzag.echelonize
    calls = []

    def spy(fld, rows, ncols):
        rows = list(rows)
        calls.append(len(rows))
        return real(fld, rows, ncols)

    monkeypatch.setattr(zigzag, "echelonize", spy)
    g = parse_label(label)
    hochschild_dim(build_zigzag(g, QQ), 2, q)
    assert calls == [columns], calls
    assert columns == _closed_walks(g, q + 2) + _closed_walks(g, q)


@pytest.mark.parametrize("label, p, q", [(label, p, q) for label in ("D~4", "E~6")
                                         for p in (0, 2, 3) for q in (2, 4)]
                         + [("E8", 2, 6), ("E6", 3, 4)])
def test_trace_witnesses_transport_to_independent_bar_classes(label, p, q):
    # T sends each trace witness, a cycle of length q + 2, to the elementary
    # cochain of its zigzag arrows with output c at its source: the witnesses
    # give dim HH^{2,q} classes independent modulo the oracle's full im d,
    # by textbook elimination, so the bar complex and the trace pipeline
    # agree on classes, not only on their count
    from oracle import _row_reduce_rank, oracle_cochain_basis, oracle_delta_columns, transport
    fld = GF(p) if p else QQ
    g = parse_label(label)
    quiv = orient_bipartite(g)
    alg = build_zigzag(g, fld)
    witnesses = trace_piece(quiv, q + 2, fld, want_witnesses=True).witnesses
    target = cochain_basis(alg, 2, q)
    index = {b: i for i, b in enumerate(target)}
    classes = [{index[transport(alg, double(quiv), w)]: 1} for w in witnesses]
    image = oracle_delta_columns(alg, oracle_cochain_basis(alg, 1, q), target, alg.positive)
    dim = hochschild_dim(alg, 2, q).dimension
    assert len(classes) == dim == hh2_dim(quiv, q, fld).dimension
    assert _row_reduce_rank(fld, image + classes) == _row_reduce_rank(fld, image) + dim


@pytest.mark.parametrize("label, p, q", [(label, p, q) for label in ("D~4", "E~6")
                                         for p in (0, 2, 3) for q in (2, 4)])
def test_ginzburg_witnesses_transport_to_independent_bar_classes(label, p, q):
    # the same check for the Ginzburg witnesses, necklaces named by their
    # arrows; Q is asked first, so an F_p cell the certificate accepts reads
    # its free necklaces off the Q record
    from dg import path_from_names
    from oracle import _row_reduce_rank, oracle_cochain_basis, oracle_delta_columns, transport
    fld = GF(p) if p else QQ
    g = parse_label(label)
    quiv = orient_bipartite(g)
    alg = build_zigzag(g, fld)
    hh2_dim(quiv, q, QQ)
    rep = hh2_dim(quiv, q, fld, want_witnesses=True)
    witnesses = [path_from_names(double(quiv), name.split()) for name in rep.representatives]
    target = cochain_basis(alg, 2, q)
    index = {b: i for i, b in enumerate(target)}
    classes = [{index[transport(alg, double(quiv), w)]: 1} for w in witnesses]
    image = oracle_delta_columns(alg, oracle_cochain_basis(alg, 1, q), target, alg.positive)
    dim = hochschild_dim(alg, 2, q).dimension
    assert len(classes) == dim == rep.dimension
    assert _row_reduce_rank(fld, image + classes) == _row_reduce_rank(fld, image) + dim


def test_hochschild_dim_a2_vanishing():
    alg = build_zigzag(catalog("A", 2), QQ)
    for q in (1, 2, 3):
        assert hochschild_dim(alg, 2, q).dimension == 0


def test_hochschild_dim_extended_d4():
    alg = build_zigzag(catalog("D~", 4), QQ)
    rep = hochschild_dim(alg, 2, 2)
    assert rep.method == "zigzag"
    q = orient_bipartite(catalog("D~", 4))
    assert rep.dimension == trace_piece(q, 4, QQ).dimension == 2


def test_witness_scan_keeps_kernel_vectors_sparse():
    # at q = 8 on D~4 every one of the 2048 cochains of C^{2,8} is a cocycle:
    # the kernel as dense vectors would peak above 40 MB, the sparse vectors
    # scanned one at a time stay under 7 MB (Python 3.11)
    tracemalloc.start()
    try:
        rep = hochschild_dim(build_zigzag(catalog("D~", 4), QQ), 2, 8, want_witnesses=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.dimension == len(rep.representatives) == 2
    assert peak < 10 * 2 ** 20, peak


def test_witness_scan_eliminates_the_incoming_columns_once(monkeypatch):
    # C^{3,8} is empty, so every word of C^{2,8} is a cocycle: the incoming
    # columns are the one elimination, and the scan adds each basis word to
    # that echelon instead of eliminating again
    from zigzaghh import exactla, zigzag

    real = exactla.echelonize
    calls = []

    def spy(fld, rows, ncols):
        rows = list(rows)
        calls.append(len(rows))
        return real(fld, rows, ncols)

    monkeypatch.setattr(exactla, "echelonize", spy)
    monkeypatch.setattr(zigzag, "echelonize", spy)
    rep = hochschild_dim(build_zigzag(catalog("D~", 4), QQ), 2, 8, want_witnesses=True)
    assert len(rep.representatives) == 2
    assert len(calls) == 1, calls


def test_hochschild_chain_against_other_pipelines():
    # the three-pipeline equality on every catalog tree with <= 6 vertices,
    # over four fields, up to the bar-complex feasibility bound
    cases = ([("A", k) for k in range(1, 7)]
             + [("D", 4), ("D", 5), ("D", 6), ("E", 6)])
    fields = [QQ, GF(2), GF(3), GF(5)]
    for family, n in cases:
        g = catalog(family, n)
        quiv = orient_bipartite(g)
        q_max = 3 if g.vertex_count <= 5 else 2
        for fld in fields:
            alg = build_zigzag(g, fld)
            for q in range(1, q_max + 1):
                z = hochschild_dim(alg, 2, q).dimension
                gz = hh2_dim(quiv, q, fld).dimension
                tr = trace_piece(quiv, q + 2, fld).dimension
                assert z == gz == tr, (family, n, fld.characteristic, q, z, gz, tr)


def test_delta_squared_zero_random_cochains():
    alg = build_zigzag(catalog("A", 2), QQ)
    rng = random.Random(23)
    for q in (0, 1, 2):
        for p in (0, 1, 2):
            basis = cochain_basis(alg, p, q)
            if not basis:
                continue
            for _ in range(12):
                values = {}
                for (w, z) in rng.sample(basis, min(3, len(basis))):
                    values.setdefault(w, {})[z] = rng.randint(-4, 4)
                assert not differential(alg, p + 1, q, differential(alg, p, q, values))


def test_delta_matrices_compose_to_zero():
    alg = build_zigzag(catalog("D", 4), GF(2))
    for q in (1, 2):
        _, _, cols1 = delta_columns(alg, 1, q)
        _, _, cols2 = delta_columns(alg, 2, q)
        for col in cols1:
            image = {}
            for i, v in col.items():
                for j, w in cols2[i].items():
                    image[j] = image.get(j, 0) + v * w
            assert all(x % 2 == 0 for x in image.values())


def test_center_0cochain_is_closed():
    # the identity element (sum of idempotents) is central, so the
    # corresponding 0-cochain is a cocycle
    alg = build_zigzag(catalog("A", 2), QQ)
    values = {(): {alg.e_index[1]: 1, alg.e_index[2]: 1}}
    assert not differential(alg, 0, 0, values)
    assert differential(alg, 0, 0, {(): {alg.e_index[1]: 1}})


def test_zero_cochain_is_cocycle_and_coboundary():
    alg = build_zigzag(catalog("A", 2), QQ)
    z = zero_cochain(alg, 2, 1)
    assert is_cocycle(z) and is_coboundary(z)


def test_delta_of_cochain_is_coboundary():
    # C^{1,q} is empty on a tree at odd q, so the cells are trees at q = 2
    # and the odd cycle A~2 at q = 1
    rng = random.Random(7)
    for label, q in (("A3", 2), ("D~4", 2), ("A~2", 1)):
        alg = build_zigzag(parse_label(label), QQ)
        basis = cochain_basis(alg, 1, q)
        assert basis, (label, q)
        nonzero = 0
        for _ in range(8):
            values = {}
            for (w, z) in rng.sample(basis, min(4, len(basis))):
                values.setdefault(w, {})[z] = rng.randint(-3, 3)
            dc = differential(alg, 1, q, values)
            nonzero += bool(dc)
            d = HochschildCochain(alg, 2, q, dc)
            assert is_cocycle(d) and is_coboundary(d)
        assert nonzero, (label, q)


def test_is_coboundary_is_membership_in_the_oracle_full_image():
    # is_coboundary eliminates only the spanning columns of d(C^{1,q}); its
    # verdict is membership in the oracle's full image (textbook rank with and
    # without the cochain) on elementary cochains, random two-term ones,
    # (y X -> c) + s (X y -> c) for both signs s, and four random cochains of
    # 3 to 6 terms per cell; A~2 and A~4 have odd cycles.  Without the random
    # ones the grid gives 252 True and 89 False verdicts (seed 2323)
    from oracle import _row_reduce_rank, _row_reduce_rows, oracle_cochain_basis, \
        oracle_delta_columns
    rng = random.Random(2323)
    tree = Graph(7, tuple((rng.randint(1, v - 1), v) for v in range(2, 8)), name="random-tree")
    verdicts = []
    for g in [parse_label(label) for label in ("A~2", "A~4", "D4", "D~4", "E~6")] + [tree]:
        algs = [build_zigzag(g, fld) for fld in (QQ, GF(2), GF(3))]   # one basis, int columns
        for q in range(-1, 7):
            target = oracle_cochain_basis(algs[0], 2, q)
            if not target:
                continue
            full = oracle_delta_columns(algs[0], oracle_cochain_basis(algs[0], 1, q), target,
                                        algs[0].positive)
            index = {b: i for i, b in enumerate(target)}
            for alg in algs:
                fld = alg.field
                image = _row_reduce_rows(fld, full)
                i, j = rng.randrange(len(target)), rng.randrange(len(target))
                cochains = [{i: 1}] + ([{i: 1, j: rng.choice((1, -1, 2))}] if i != j else [])
                # y X turned into X y, with the class at its new source
                w, z = rng.choice(target)
                turned = index[w[1:] + w[:1], alg.cycle_index[alg.tgt[w[0]]]]
                cochains += [{index[w, z]: 1, turned: s} for s in (1, -1)]
                cochains += [{k: rng.choice((1, -1, 2, 3))
                              for k in rng.sample(range(len(target)),
                                                  min(len(target), rng.randint(3, 6)))}
                             for _ in range(4)]
                for vec in cochains:
                    values = {}
                    for k, c in vec.items():
                        values.setdefault(target[k][0], {})[target[k][1]] = c
                    got = is_coboundary(HochschildCochain(alg, 2, q, values))
                    want = _row_reduce_rank(fld, image + [vec]) == len(image)
                    assert got == want, (g.name, fld.characteristic, q, vec)
                    verdicts.append(got)
    assert verdicts.count(True) >= 200 and verdicts.count(False) >= 200, \
        (verdicts.count(True), verdicts.count(False))


def test_is_coboundary_walks_no_c1(monkeypatch):
    # neither the default ainfty-check job nor is_coboundary on a (2, 8)
    # cochain asks for C^{1,q} or the full map, or walks words within the
    # budget of one cycle class, the walk of C^{1,q}
    from zigzaghh.cli import main
    walked, bases = _calls(monkeypatch, "_words"), _calls(monkeypatch, "cochain_basis")
    full = _calls(monkeypatch, "delta_columns")
    assert main(["ainfty-check"]) == 0
    alg = build_zigzag(fresh(parse_label("D~4")), QQ)   # walks C^{2,8} and C^{2,6}
    (w, z), *_ = cochain_basis(alg, 2, 8)
    assert is_coboundary(HochschildCochain(alg, 2, 8, {w: {z: 1}}))
    assert walked and all(cycles == 0 for _, cycles in walked), walked
    assert bases and all(p != 1 for p, _ in bases) and not full, (bases, full)


def test_a_cochain_and_its_coboundary_verdict_walk_its_space_once(monkeypatch):
    # the cochain keeps the basis it validated against, and its vector and the
    # coboundary test read that basis rather than walking C^{2,q} again
    from zigzaghh.ainfty import class_of, extended_d4_m4
    candidate = extended_d4_m4(QQ)
    bases = _calls(monkeypatch, "cochain_basis")
    assert not is_coboundary(class_of(candidate, 4))
    assert bases == [(2, 2)]


def test_hh2_and_the_cocycle_verdict_walk_no_c3(monkeypatch):
    # C^{3,q} is empty: HH^{2,q}, with or without witnesses, is dim C^{2,q}
    # less the rank of the incoming image, and every (2, q) cochain is a
    # cocycle, so neither asks for the (3, q) space
    alg = build_zigzag(catalog("D~", 4), QQ)
    bases = _calls(monkeypatch, "cochain_basis")
    assert hochschild_dim(alg, 2, 8).dimension == 2
    assert len(hochschild_dim(alg, 2, 8, want_witnesses=True).representatives) == 2
    (w, z), *_ = cochain_basis(alg, 2, 8)
    assert is_cocycle(HochschildCochain(alg, 2, 8, {w: {z: 1}}))
    assert bases and {p for p, _ in bases} == {2}, bases


@pytest.mark.parametrize("ask", [lambda alg: hochschild_dim(alg, 1, 1),
                                 lambda alg: hochschild_dim(alg, 3, 0),
                                 lambda alg: HochschildCochain(alg, 1, 1, {}),
                                 lambda alg: zero_cochain(alg, 0, 0)],
                         ids=["hochschild_dim-1", "hochschild_dim-3", "HochschildCochain-1",
                              "zero_cochain-0"])
def test_the_bar_complex_refuses_every_p_but_2(ask):
    with pytest.raises(ValueError, match="HH\\^\\{2,q\\} only"):
        ask(build_zigzag(catalog("A", 2), QQ))


def test_cochain_validation_rejects_bad_values():
    alg = build_zigzag(catalog("A", 2), QQ)
    a = alg.arrow_index[(1, 2)]
    with pytest.raises(ValueError):
        # output degree wrong for the Adams constraint
        HochschildCochain(alg, 2, 1, {(a, a): {alg.e_index[1]: 1}})


def test_cochain_coefficients_over_fp_read_fractions():
    # 1/2 over F3 is 2, not int(1/2) = 0, so the value is kept
    alg = build_zigzag(catalog("A", 2), GF(3))
    w, z = cochain_basis(alg, 2, 0)[0]
    c = HochschildCochain(alg, 2, 0, {w: {z: Fraction(1, 2)}})
    assert c.values == {w: {z: 2}} and not c.is_zero()
    with pytest.raises(ValueError, match="mod 3"):
        HochschildCochain(alg, 2, 0, {w: {z: Fraction(1, 3)}})


def test_reduced_equals_unreduced_spot():
    from oracle import oracle_hh_unreduced
    alg = build_zigzag(catalog("A", 2), QQ)
    assert hochschild_dim(alg, 2, 1).dimension == oracle_hh_unreduced(alg, 2, 1)
