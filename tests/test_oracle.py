"""Brute-force oracles, and agreement between oracles and the pipelines."""

import importlib.util
import itertools
import random

import pytest

from zigzaghh.exactla import GF, QQ
from zigzaghh.ginzburg import hh2_complex
from zigzaghh.pathalg import (Path, all_cycles, all_necklaces, basis_of_bidegree,
                              necklaces_descending)
from zigzaghh.preproj import lambda_piece, preprojective_relations, trace_piece
from zigzaghh.quiver import (DoubledQuiver, Graph, Quiver, catalog, double, orient_bipartite,
                             orient_by_edge_order, two_coloring)
from zigzaghh.zigzag import build_zigzag, cochain_basis, hochschild_dim

from dg import ginzburg_of
from memos import asked, walk_spy
from barcomplex import reduced_hh_dim
from oracle import (OracleInfeasible, _walks, oracle_basis_of_bidegree, oracle_cochain_basis,
                    oracle_hh_unreduced, oracle_lambda_dim, oracle_necklace, oracle_trace_dim)


def _q(family, n):
    return orient_bipartite(catalog(family, n))


def test_oracle_is_not_part_of_the_package():
    assert importlib.util.find_spec("zigzaghh.oracle") is None


def test_oracle_lambda_hand_values():
    assert oracle_lambda_dim(_q("A", 2), 2, QQ) == 0
    assert oracle_lambda_dim(_q("A", 1), 1, QQ) == 0
    assert [oracle_lambda_dim(_q("A", 3), n, QQ) for n in range(5)] == [3, 4, 3, 0, 0]


def test_oracle_matches_pipeline_on_small_quivers():
    for family, n in (("A", 1), ("A", 2), ("A", 3), ("D", 4)):
        q = _q(family, n)
        for deg in range(7):
            for fld in (QQ, GF(2)):
                assert (oracle_lambda_dim(q, deg, fld)
                        == lambda_piece(q, deg, fld).dimension), (family, n, deg, fld)


def test_oracle_trace_matches_cyclic_block_shortcut():
    # the production trace works on necklaces; the oracle carries every
    # word and every commutator
    for family, n, fld in (("A", 2, QQ), ("A", 3, QQ), ("D", 4, GF(2))):
        q = _q(family, n)
        for deg in range(6):
            assert (oracle_trace_dim(q, deg, fld)
                    == trace_piece(q, deg, fld).dimension), (family, n, deg)
    quivers = [_q("D~", 4), _q("A~", 3), _q("E", 6),
               orient_by_edge_order(catalog("A~", 2))]  # the triangle is not bipartite
    for q in quivers:
        for fld in (QQ, GF(2), GF(3)):
            for deg in range(7):
                assert (oracle_trace_dim(q, deg, fld)
                        == trace_piece(q, deg, fld).dimension), (q.name, fld, deg)


def test_oracle_basis_of_bidegree_matches_budgeted_walk():
    # lists equal in order too: the order fixes every Ginzburg basis and
    # matrix; the package filters its own word walk by loop count
    quivers = [_q("A", 1), _q("D", 4), _q("E", 6), _q("D~", 4), _q("A~", 3),
               orient_by_edge_order(catalog("A~", 2)), _q("E~", 6)]
    for quiv in quivers:
        qg = ginzburg_of(quiv)
        for p in range(-3, 1):
            for q in range(9):  # covers n == 0, arrows == 0 and arrows < 0
                words = oracle_basis_of_bidegree(qg, p, q)
                assert basis_of_bidegree(qg, p, q) == words, (quiv.name, p, q)


def test_all_cycles_is_the_oracle_walk_filtered_to_cycles():
    # in order too: the order fixes the necklace columns and the relation rows
    quivers = [_q("D", 4), _q("E", 6), _q("D~", 4), _q("A~", 3),
               orient_by_edge_order(catalog("A~", 2))]
    for quiv in quivers:
        qd = double(quiv)
        arrows = list(zip(qd.arrow_source, qd.arrow_target))
        for n in range(9):
            want = [Path(s, word, t) for word, s, t in _walks(arrows, qd.vertex_count, n)
                    if s == t]
            assert all_cycles(qd, n) == want, (quiv.name, n)


def _random_nontree(seed: int, n: int) -> Graph:
    rng = random.Random(seed)
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    missing = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in edges]
    return Graph(n, tuple(edges + rng.sample(missing, 2)), name="random-nontree-%d" % seed)


_NECKLACE_QUIVERS = (
    [_q(f, n) for f, n in (("A", 1), ("A", 2), ("A", 5), ("D", 4), ("D", 5), ("E", 6), ("E", 7),
                           ("E", 8), ("A~", 3), ("A~", 5), ("D~", 4), ("D~", 5), ("D~", 6),
                           ("E~", 6), ("E~", 7), ("E~", 8), ("D~", 8))]
    + [orient_by_edge_order(catalog("A~", n)) for n in (2, 4)]   # odd cycles
    + [orient_by_edge_order(_random_nontree(seed, 5)) for seed in (3, 71, 902)]
    + [Quiver(2, ((1, 1), (1, 2)), name="loop-and-edge")])   # a loop: odd lengths too


@pytest.mark.parametrize("quiv", _NECKLACE_QUIVERS, ids=lambda quiv: quiv.name)
def test_necklaces_are_the_cycles_that_are_their_largest_rotation(quiv, monkeypatch):
    # the pruned walk emits exactly the cycles the oracle calls necklaces,
    # in order and in reverse; nothing is kept, so each call walks once,
    # and an odd length on a 2-colored quiver walks nothing
    qd = DoubledQuiver(quiv)
    walks = walk_spy(monkeypatch)
    before = asked()
    for n in range(11):
        cycles = all_cycles(qd, n)
        want = [c for c in cycles if c.letters == oracle_necklace(c.letters)]
        assert all_necklaces(qd, n) == want, (quiv.name, n)
        assert list(necklaces_descending(qd, n)) == want[::-1], (quiv.name, n)
    two_colored = two_coloring(quiv.vertex_count, quiv.arrows) is not None
    assert walks == [(qd, n, mode) for n in range(11) if not (n % 2 and two_colored)
                     for mode in ("closed", "necklace", "necklace")]
    assert asked() == before


@pytest.mark.parametrize("quiv", _NECKLACE_QUIVERS, ids=lambda quiv: quiv.name)
def test_hh2_complex_columns_read_each_term_on_its_oracle_necklace(quiv):
    # hh2_complex scans each necklace for the terms x x^1 c that land on it;
    # term by term from the closed walks c, each read on the oracle's
    # necklace and summed, the columns are the same, zero sums included
    qd = double(quiv)
    rels = preprojective_relations(quiv)
    for adams in range(-2, 9):
        necklaces, cols = hh2_complex(quiv, adams)
        assert necklaces == all_necklaces(qd, adams + 2), (quiv.name, adams)
        index = {w.letters: i for i, w in enumerate(necklaces)}
        want = []
        for c in all_cycles(qd, adams) if adams >= 0 else ():
            col: dict[int, int] = {}
            for coeff, pair in rels[c.source]:
                i = index[oracle_necklace(pair + c.letters)]
                col[i] = col.get(i, 0) + coeff
            want.append(col)
        assert cols == want, (quiv.name, adams)


def test_necklaces_descending_is_the_oracle_necklaces_reversed_and_lazy(monkeypatch):
    # the witness scan reads the necklaces from the largest down and stops
    # early: the oracle's necklaces in reverse, never kept, walked once per
    # call and built only as far as they are read
    quivers = [_q("D", 4), _q("E", 6), _q("D~", 4), _q("A~", 3),
               orient_by_edge_order(catalog("A~", 2))]
    walks = walk_spy(monkeypatch)
    before = asked()
    for quiv in quivers:
        qd = DoubledQuiver(quiv)
        arrows = list(zip(qd.arrow_source, qd.arrow_target))
        two_colored = two_coloring(quiv.vertex_count, quiv.arrows) is not None
        walks.clear()
        for n in range(9):
            want = [Path(s, word, t) for word, s, t in _walks(arrows, qd.vertex_count, n)
                    if s == t and word == oracle_necklace(word)]
            assert list(necklaces_descending(qd, n)) == want[::-1], (quiv.name, n)
        assert walks == [(qd, n, "necklace") for n in range(9) if not (n % 2 and two_colored)]
    qd = DoubledQuiver(_q("D~", 4))
    top = list(itertools.islice(necklaces_descending(qd, 40), 5))   # of about 4^40 / 40
    assert all(c.source == c.target and len(c.letters) == 40 for c in top)
    assert all(c.letters == oracle_necklace(c.letters) for c in top)
    assert top[0].letters[0] == qd.arrow_count - 1
    assert [c.letters for c in top] == sorted({c.letters for c in top}, reverse=True)
    assert asked() == before


def test_oracle_cochain_basis_matches_budgeted_walk():
    # lists equal in order too: the order fixes every zigzag matrix and witness;
    # p 3 and 4 check that the walk skips spaces the definition leaves empty
    # (lengths in increasing order, so the oracle walks each length once);
    # D~4 and A~3 go to q = 8, the depth of the deep bar-complex runs; A~2 and
    # A~4 are odd cycles, not bipartite, so their odd q are walked, not skipped
    for family, n, top in (("D", 4, 6), ("E", 6, 6), ("D~", 4, 8), ("E~", 6, 6), ("A~", 3, 8),
                           ("A~", 2, 6), ("A~", 4, 6)):
        algs = [build_zigzag(catalog(family, n), fld) for fld in (QQ, GF(2))]
        for length in range(11):
            for p in range(5):
                q = length - p
                if 0 <= q <= top:
                    want = oracle_cochain_basis(algs[0], p, q)
                    for alg in algs:
                        assert cochain_basis(alg, p, q) == want, (family, n, p, q)


def test_oracle_unreduced_hh_z_a1():
    alg = build_zigzag(catalog("A", 1), QQ)
    assert oracle_hh_unreduced(alg, 2, 1) == 0
    assert oracle_hh_unreduced(alg, 2, 1) == hochschild_dim(alg, 2, 1).dimension


def test_oracle_unreduced_matches_reduced_on_z_a2():
    alg = build_zigzag(catalog("A", 2), QQ)
    for (p, q) in ((0, 0), (1, 1)):
        assert oracle_hh_unreduced(alg, p, q) == reduced_hh_dim(alg, p, q), (p, q)
    for (p, q) in ((2, 1), (2, 2)):
        assert (oracle_hh_unreduced(alg, p, q)
                == hochschild_dim(alg, p, q).dimension == reduced_hh_dim(alg, p, q)), (p, q)


def test_oracle_refuses_infeasible_sizes():
    alg = build_zigzag(catalog("D", 4), QQ)  # dim 14: 14^7 words is far too many
    with pytest.raises(OracleInfeasible):
        oracle_hh_unreduced(alg, 4, 2)
