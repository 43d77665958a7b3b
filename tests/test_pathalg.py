"""Path words, bigraded elements, enumeration."""

import random

import pytest

from zigzaghh.exactla import GF, QQ
from zigzaghh.pathalg import (Path, all_words, basis_of_bidegree, make_path, path_name,
                              paths_between, trivial_path)
from zigzaghh.quiver import GinzburgQuiver, catalog, double, orient_bipartite

from dg import (BigradedElement, commutator, concat, multiply, path_bidegree,
                path_from_names)


def _a2_doubled():
    return double(orient_bipartite(catalog("A", 2)))


def _a2_ginzburg():
    return GinzburgQuiver(_a2_doubled())


def test_unit_law():
    qd = _a2_doubled()
    e1 = BigradedElement.idempotent(QQ, qd, 1)
    alpha = BigradedElement.of_path(QQ, qd, make_path(qd, [0]))
    assert multiply(e1, alpha) == alpha
    assert multiply(alpha, e1).is_zero()  # alpha ends at 2


def test_non_composable_product_vanishes():
    qd = _a2_doubled()
    alpha = BigradedElement.of_path(QQ, qd, make_path(qd, [0]))
    assert multiply(alpha, alpha).is_zero()


def test_two_cycle_product():
    qd = _a2_doubled()
    alpha = BigradedElement.of_path(QQ, qd, make_path(qd, [0]))
    star = BigradedElement.of_path(QQ, qd, make_path(qd, [1]))
    cycle = multiply(alpha, star)
    assert list(cycle.terms) == [Path(1, (0, 1), 1)]


def test_commutator_of_arrow_pair():
    qd = _a2_doubled()
    alpha = BigradedElement.of_path(QQ, qd, make_path(qd, [0]))
    star = BigradedElement.of_path(QQ, qd, make_path(qd, [1]))
    c = commutator(alpha, star)
    assert c.terms == {Path(1, (0, 1), 1): QQ.element(1), Path(2, (1, 0), 2): QQ.element(-1)}


def test_commutator_with_idempotent_on_cycle():
    qd = _a2_doubled()
    e1 = BigradedElement.idempotent(QQ, qd, 1)
    cyc = BigradedElement.of_path(QQ, qd, make_path(qd, [0, 1]))
    assert commutator(e1, cyc).is_zero()


def test_commutator_antisymmetry_random():
    qd = double(orient_bipartite(catalog("D", 4)))
    rng = random.Random(5)
    words = all_words(qd, 2) + all_words(qd, 1) + all_words(qd, 0)
    for _ in range(30):
        u = BigradedElement.of_path(QQ, qd, rng.choice(words), rng.randint(-3, 3) or 1)
        v = BigradedElement.of_path(QQ, qd, rng.choice(words), rng.randint(-3, 3) or 1)
        assert (commutator(u, v) + commutator(v, u)).is_zero()


def test_basis_of_bidegree_small():
    qg = _a2_ginzburg()
    assert [p.letters for p in basis_of_bidegree(qg, 0, 1)] == [(0,), (1,)]
    assert [p.letters for p in basis_of_bidegree(qg, -1, 2)] == [(2,), (3,)]
    qg1 = GinzburgQuiver(double(orient_bipartite(catalog("A", 1))))
    assert len(basis_of_bidegree(qg1, -1, 2)) == 1
    assert basis_of_bidegree(qg1, -2, 1) == []  # q + 2p < 0


def test_basis_of_bidegree_rejects_positive_p():
    with pytest.raises(ValueError):
        basis_of_bidegree(_a2_ginzburg(), 1, 1)


def test_paths_between_a2():
    qd = _a2_doubled()
    assert [p.letters for p in paths_between(qd, 1, 1, 2)] == [(0, 1)]
    assert paths_between(qd, 1, 2, 2) == []  # parity obstruction on a tree


def test_paths_between_d4_center():
    qd = double(orient_bipartite(catalog("D", 4)))
    through = paths_between(qd, 4, 4, 2)
    assert len(through) == 3  # one 2-cycle through each leaf


def test_path_name_roundtrip():
    qd = double(orient_bipartite(catalog("D~", 4)))
    p = path_from_names(qd, ["a4", "a1*", "a1", "a4*"])
    assert p.source == 4 and p.target == 4
    assert path_name(qd, p) == "a4 a1* a1 a4*"
    assert path_name(qd, trivial_path(3)) == "e3"


def test_make_path_rejects_non_composable():
    qd = _a2_doubled()
    with pytest.raises(ValueError):
        make_path(qd, [0, 0])


def test_multiplication_associative_exhaustive():
    qg = _a2_ginzburg()
    words = [trivial_path(v) for v in (1, 2)] + all_words(qg, 1) + all_words(qg, 2)
    elems = [BigradedElement.of_path(QQ, qg, w) for w in words]
    for a in elems:
        for b in elems:
            for c in elems:
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_bidegree_additivity():
    qg = GinzburgQuiver(double(orient_bipartite(catalog("D", 4))))
    rng = random.Random(9)
    pool = all_words(qg, 1) + all_words(qg, 2) + all_words(qg, 3)
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        ab = concat(a, b)
        if ab is None:
            continue
        pa, qa = path_bidegree(qg, a)
        pb, qb = path_bidegree(qg, b)
        assert path_bidegree(qg, ab) == (pa + pb, qa + qb)


def test_word_count_matches_paths_between():
    qg = GinzburgQuiver(double(orient_bipartite(catalog("A", 3))))
    qd = qg.doubled
    for n in range(5):
        total = sum(len(paths_between(qd, i, j, n))
                    for i in range(1, 4) for j in range(1, 4))
        assert len(basis_of_bidegree(qg, 0, n)) == total


def test_field_mismatch_raises():
    qd = _a2_doubled()
    a = BigradedElement.of_path(QQ, qd, make_path(qd, [0]))
    b = BigradedElement.of_path(GF(5), qd, make_path(qd, [1]))
    with pytest.raises(ValueError):
        multiply(a, b)
    with pytest.raises(ValueError):
        commutator(a, b)
