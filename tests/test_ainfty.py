"""Stasheff checking and the explicit extended-D4 deformation."""

import random

import pytest

from zigzaghh.ainfty import AInftyCandidate, check_stasheff, class_of, extended_d4_m4
from zigzaghh.exactla import GF, QQ
from zigzaghh.quiver import Graph, catalog, parse_label
from zigzaghh.zigzag import (HochschildCochain, build_zigzag, cochain_basis, is_coboundary,
                             is_cocycle)

from barcomplex import differential
from oracle import _graded_walks, oracle_check_stasheff

TRIANGLE = Graph(3, ((1, 2), (2, 3), (1, 3)), name="triangle")


def _seeded_graphs(seed: int, count: int) -> list[Graph]:
    """Random trees and, in every other slot, random non-trees on 3..7 vertices."""
    rng = random.Random(seed)
    graphs = []
    for k in range(count):
        n = rng.randint(3, 7)
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
        if k % 2:
            missing = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                       if (i, j) not in edges]
            edges += rng.sample(missing, rng.randint(1, min(3, len(missing))))
        graphs.append(Graph(n, tuple(edges), name="random-%d-%d" % (seed, k)))
    return graphs


def test_m2_only_passes_all_arities():
    # arity 3 is associativity of the product table over the full basis, so
    # this is the check of the table: catalog trees and cycles, the triangle,
    # and seeded random trees and non-trees, odd cycles among them
    labels = ("A1", "A2", "A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8",
              "A~2", "A~3", "D~4", "D~5", "D~6", "E~6", "E~7", "E~8")
    seeded = _seeded_graphs(31, 8)
    assert any(len(g.edges) == g.vertex_count - 1 for g in seeded)
    assert any(not g.is_bipartite() for g in seeded)   # odd cycles
    for fld in (QQ, GF(2), GF(3)):
        for g in [parse_label(label) for label in labels] + [TRIANGLE] + seeded:
            report = check_stasheff(AInftyCandidate(build_zigzag(g, fld), {}), 5)
            assert report.passed, (g.name, fld)
            assert report.conditional_arities == [4, 5]


def _stasheff_candidates(rng):
    """(candidate, arity) pairs: the extended-D4 m_4 at several scales, m_2
    alone, and random m_3, m_4, m_5 on top of corrupted positive products.

    A corrupted product mostly keeps the endpoints, so that higher products
    feed into it and arities 4 to 6 fail; the rest may leave junctions that
    do not compose, which the check skips.  Most
    random higher-product entries are on positive words.  Only the
    triangle has odd closed walks, so only it carries m_3 and m_5 on
    positive words, and it is checked to arity 6 over two fields.
    """
    graphs = [catalog("A", 2), catalog("A", 3), TRIANGLE]
    for fld in (QQ, GF(2), GF(3), GF(5)):
        for scale in (1, -1, 3, 0):
            yield extended_d4_m4(fld, scale), 5
        for g in graphs:
            yield AInftyCandidate(build_zigzag(g, fld), {}), 5
        for _ in range(43):
            g = rng.choice(graphs)
            alg = build_zigzag(g, fld)
            pos = alg.positive
            for _ in range(rng.randint(1, 3)):
                i = rng.choice(pos)
                j = rng.choice([j for j in pos if alg.src[j] == alg.tgt[i]])
                if rng.random() < 0.2:
                    alg.table.pop((i, j), None)
                    continue
                ends = [z for z in pos if (alg.src[z], alg.tgt[z]) == (alg.src[i], alg.tgt[j])]
                alg.table[(i, j)] = rng.choice(ends if ends and rng.random() < 0.8 else pos)
            letters = tuple((i, alg.src[i], alg.tgt[i], alg.degrees[i]) for i in range(alg.dim))
            products = {}
            for k in rng.sample((3, 4, 5), rng.randint(1, 3)):
                positive = rng.random() < 0.8
                entries = [(w, z) for w, s, t, d in _graded_walks(letters, g.vertex_count, k)
                           if not positive or all(alg.degrees[i] for i in w)
                           for z in range(alg.dim)
                           if alg.degrees[z] == d + 2 - k and (alg.src[z], alg.tgt[z]) == (s, t)]
                for w, z in rng.sample(entries, min(3, len(entries))):
                    products.setdefault(k, {}).setdefault(w, {})[z] = rng.choice((-2, -1, 1, 3))
            yield AInftyCandidate(alg, products), 6 if g is TRIANGLE and fld in (QQ, GF(5)) else 5


def test_check_stasheff_matches_word_walking_oracle():
    failing = set()
    count = 0
    for cand, arity in _stasheff_candidates(random.Random(12)):
        report = check_stasheff(cand, arity)
        got = [(v.arity, v.word, v.defect) for v in report.violations]
        assert (got, report.conditional_arities) == oracle_check_stasheff(
            cand.algebra, cand.products, arity)
        failing |= {v.arity for v in report.violations}
        count += 1
    assert count >= 200
    assert failing == {3, 4, 5, 6}


def test_corrupted_table_fails_at_arity_three():
    alg = build_zigzag(catalog("A", 2), QQ)
    a = alg.arrow_index[(1, 2)]
    astar = alg.arrow_index[(2, 1)]
    # break a a* = c1 into c2's slot by mutating a copy of the table
    alg.table[(a, astar)] = alg.cycle_index[2]
    cand = AInftyCandidate(alg, {})
    report = check_stasheff(cand, 3)
    assert not report.passed
    assert all(v.arity == 3 for v in report.violations)
    assert report.violations[0].word  # witness triple recorded


def test_extended_d4_m4_values():
    cand = extended_d4_m4()
    alg = cand.algebra
    hub = 5
    a4 = alg.arrow_index[(4, hub)]
    a4s = alg.arrow_index[(hub, 4)]
    a1 = alg.arrow_index[(1, hub)]
    a1s = alg.arrow_index[(hub, 1)]
    table = cand.products[4]
    # the four cyclic rotations of the defining cycle, nothing else
    assert set(table) == {(a4, a1s, a1, a4s), (a1s, a1, a4s, a4),
                          (a1, a4s, a4, a1s), (a4s, a4, a1s, a1)}
    assert table[(a4, a1s, a1, a4s)] == {alg.cycle_index[4]: QQ.element(1)}
    assert table[(a1, a4s, a4, a1s)] == {alg.cycle_index[1]: QQ.element(1)}
    # the two hub-based rotations carry the Koszul sign
    assert table[(a1s, a1, a4s, a4)] == {alg.cycle_index[hub]: QQ.element(-1)}
    assert table[(a4s, a4, a1s, a1)] == {alg.cycle_index[hub]: QQ.element(-1)}


def test_extended_d4_m4_stasheff_exact_up_to_five():
    report = check_stasheff(extended_d4_m4(), 5)
    assert report.passed
    assert report.conditional_arities == []


def test_extended_d4_m4_stasheff_conditional_above_five():
    report = check_stasheff(extended_d4_m4(), 7)
    assert report.passed
    assert report.conditional_arities == [6, 7]


def test_class_of_extended_d4_m4_is_nontrivial():
    cand = extended_d4_m4()
    c = class_of(cand, 4)
    assert (c.p, c.q) == (2, 2)
    assert is_cocycle(c)
    assert not is_coboundary(c)


def test_scalar_rescaling_keeps_verdicts():
    for scale in (2, 7, -1):
        c = class_of(extended_d4_m4(scale=scale), 4)
        assert is_cocycle(c) and not is_coboundary(c)
    c5 = class_of(extended_d4_m4(GF(5), scale=3), 4)
    assert is_cocycle(c5) and not is_coboundary(c5)


def test_class_of_zero_candidate_is_coboundary():
    alg = build_zigzag(catalog("D~", 4), QQ)
    cand = AInftyCandidate(alg, {4: {}})
    c = class_of(cand, 4)
    assert c.is_zero() and is_coboundary(c)


def test_class_of_rejects_non_lowest():
    # odd-length cycles need a non-bipartite graph, hence the triangle
    alg = build_zigzag(TRIANGLE, QQ)
    a12 = alg.arrow_index[(1, 2)]
    a23 = alg.arrow_index[(2, 3)]
    a31 = alg.arrow_index[(3, 1)]
    m3 = {(a12, a23, a31): {alg.cycle_index[1]: 1}}
    cand = AInftyCandidate(alg, {3: m3})
    with pytest.raises(ValueError):
        class_of(cand, 4)
    assert class_of(cand, 3).p == 2


def test_coboundary_built_m3_detected():
    # on the tree A3 the odd-Adams spaces vanish outright, so the only
    # coboundary-built m_3 is zero; the triangle carries honest ones
    a3 = build_zigzag(catalog("A", 3), QQ)
    assert cochain_basis(a3, 1, 1) == [] and cochain_basis(a3, 2, 1) == []
    d0 = HochschildCochain(a3, 2, 1, differential(a3, 1, 1, {}))
    assert is_cocycle(d0) and is_coboundary(d0)

    alg = build_zigzag(TRIANGLE, QQ)
    basis = cochain_basis(alg, 1, 1)
    assert basis
    rng = random.Random(41)
    built_nonzero = False
    for _ in range(20):
        values = {}
        for (w, z) in rng.sample(basis, min(4, len(basis))):
            values.setdefault(w, {})[z] = rng.randint(1, 3)
        d = HochschildCochain(alg, 2, 1, differential(alg, 1, 1, values))
        if d.is_zero():
            continue
        built_nonzero = True
        cand = AInftyCandidate(alg, {3: d.values})
        c = class_of(cand, 3)
        assert is_cocycle(c) and is_coboundary(c)
    assert built_nonzero


def test_candidate_validation():
    alg = build_zigzag(catalog("D~", 4), QQ)
    hub = 5
    a4 = alg.arrow_index[(4, hub)]
    with pytest.raises(ValueError):
        AInftyCandidate(alg, {2: {}})  # arity below 3
    with pytest.raises(ValueError):
        AInftyCandidate(alg, {3: {(a4,): {a4: 1}}})  # arity/word length mismatch
    with pytest.raises(ValueError):
        AInftyCandidate(alg, {4: {(a4, a4, a4, a4): {a4: 1}}})  # not composable
    with pytest.raises(ValueError):
        # wrong output degree for m_3 on three arrows
        a1 = alg.arrow_index[(1, hub)]
        a1s = alg.arrow_index[(hub, 1)]
        AInftyCandidate(alg, {3: {(a4, a1s, a1): {a1: 1}}})


def test_check_stasheff_arity_floor():
    with pytest.raises(ValueError):
        check_stasheff(extended_d4_m4(), 1)


def test_bidegree_arithmetic_of_the_example():
    # cycle length 4 = q + 2 with q = 2, and arity 4 = p + q with p = 2
    c = class_of(extended_d4_m4(), 4)
    word = next(iter(c.values))
    assert len(word) == c.p + c.q
    out = next(iter(c.values[word]))
    assert c.algebra.degrees[out] == len(word) - c.q
