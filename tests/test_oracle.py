"""Brute-force oracles, and agreement between oracles and the pipelines."""

import importlib.util
import itertools

import pytest

from zigzaghh.exactla import GF, QQ
from zigzaghh.ginzburg import ginzburg_of
from zigzaghh.pathalg import Path, all_cycles, basis_of_bidegree, cycles_descending
from zigzaghh.preproj import doubled_of, lambda_piece, trace_piece
from zigzaghh.quiver import catalog, double, orient_bipartite, orient_by_edge_order
from zigzaghh.zigzag import build_zigzag, cochain_basis, hochschild_dim

from oracle import (OracleInfeasible, _walks, oracle_basis_of_bidegree, oracle_cochain_basis,
                    oracle_hh_unreduced, oracle_lambda_dim, oracle_trace_dim)


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
        qd = doubled_of(quiv)
        arrows = list(zip(qd.arrow_source, qd.arrow_target))
        for n in range(9):
            want = [Path(s, word, t) for word, s, t in _walks(arrows, qd.vertex_count, n)
                    if s == t]
            assert all_cycles(qd, n) == want, (quiv.name, n)


def test_cycles_descending_is_the_oracle_walk_reversed_and_lazy():
    # the witness scan reads the cycles from the largest down and stops
    # early: the oracle's cycles in reverse, never cached, and built only
    # as far as they are read
    quivers = [_q("D", 4), _q("E", 6), _q("D~", 4), _q("A~", 3),
               orient_by_edge_order(catalog("A~", 2))]
    for quiv in quivers:
        qd = double(quiv)   # a fresh double, with nothing cached
        arrows = list(zip(qd.arrow_source, qd.arrow_target))
        for n in range(9):
            want = [Path(s, word, t) for word, s, t in _walks(arrows, qd.vertex_count, n)
                    if s == t]
            assert list(cycles_descending(qd, n)) == want[::-1], (quiv.name, n)
        assert qd._cache == {}
    qd = double(_q("D~", 4))
    top = list(itertools.islice(cycles_descending(qd, 40), 5))   # of about 4^40
    assert all(c.source == c.target and len(c.letters) == 40 for c in top)
    assert top[0].letters[0] == qd.arrow_count - 1
    assert [c.letters for c in top] == sorted({c.letters for c in top}, reverse=True)


def test_oracle_cochain_basis_matches_budgeted_walk():
    # lists equal in order too: the order fixes every zigzag matrix and witness;
    # p 3 and 4 check that the walk skips spaces the definition leaves empty
    # (lengths in increasing order, so the oracle walks each length once)
    for family, n in (("D", 4), ("E", 6), ("D~", 4), ("E~", 6), ("A~", 3)):
        algs = [build_zigzag(catalog(family, n), fld) for fld in (QQ, GF(2))]
        for length in range(11):
            for p in range(5):
                q = length - p
                if 0 <= q <= 6:
                    want = oracle_cochain_basis(algs[0], p, q)
                    for alg in algs:
                        assert cochain_basis(alg, p, q) == want, (family, n, p, q)


def test_oracle_unreduced_hh_z_a1():
    alg = build_zigzag(catalog("A", 1), QQ)
    assert oracle_hh_unreduced(alg, 2, 1) == 0
    assert oracle_hh_unreduced(alg, 2, 1) == hochschild_dim(alg, 2, 1).dimension


def test_oracle_unreduced_matches_reduced_on_z_a2():
    alg = build_zigzag(catalog("A", 2), QQ)
    for (p, q) in ((0, 0), (1, 1), (2, 1), (2, 2)):
        assert (oracle_hh_unreduced(alg, p, q)
                == hochschild_dim(alg, p, q).dimension), (p, q)


def test_oracle_refuses_infeasible_sizes():
    alg = build_zigzag(catalog("D", 4), QQ)  # dim 14: 14^7 words is far too many
    with pytest.raises(OracleInfeasible):
        oracle_hh_unreduced(alg, 4, 2)
