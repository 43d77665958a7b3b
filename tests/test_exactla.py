"""Exact linear algebra: pinned examples and randomized invariants."""

import random
import time
from fractions import Fraction

import pytest

from zigzaghh.exactla import GF, QQ, ExactMatrix, FieldSpec, span_info


def test_fieldspec_validation():
    FieldSpec(0)
    FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(-2)


def test_fieldspec_small_characteristics_match_trial_division():
    def is_prime(n):
        return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    for n in range(1, 3000):
        if is_prime(n):
            assert FieldSpec(n).characteristic == n
        else:
            with pytest.raises(ValueError):
                FieldSpec(n)


def test_fieldspec_large_prime_is_quick():
    start = time.perf_counter()
    fld = FieldSpec(2 ** 61 - 1)
    assert time.perf_counter() - start < 0.5
    assert fld.mul(fld.inv(3), 3) == 1


def test_fieldspec_rejects_strong_pseudoprimes():
    # each is a strong pseudoprime to every prime base up to some bound < 41
    for n in (2047, 1373653, 3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError):
            FieldSpec(n)


def test_fieldspec_refuses_characteristics_beyond_the_primality_bound():
    with pytest.raises(ValueError, match="too large"):
        FieldSpec(3317044064679887385961981)


def test_scalar_canonical_forms():
    assert QQ.element(Fraction(2, 4)) == Fraction(1, 2)
    assert GF(5).element(12) == 2
    assert GF(5).inv(2) == 3
    assert QQ.inv(Fraction(3, 2)) == Fraction(2, 3)


def test_rank_identity_and_zero():
    assert ExactMatrix.identity(QQ, 2).rank() == 2
    assert ExactMatrix.zero(QQ, 3, 5).rank() == 0


def test_rank_mod_2_collapse():
    m = ExactMatrix.from_dense(GF(2), [[2, 4], [1, 2]])
    assert m.rank() == 1


def test_kernel_identity_empty():
    assert ExactMatrix.identity(QQ, 3).kernel_basis() == []


def test_kernel_one_row_rational():
    m = ExactMatrix.from_dense(QQ, [[1, 1]])
    (v,) = m.kernel_basis()
    assert all(x == 0 for x in m.mul_vector(v))
    assert any(x != 0 for x in v)


def test_kernel_one_row_mod5():
    m = ExactMatrix.from_dense(GF(5), [[1, 2, 3]])
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in m.mul_vector(v))


def test_cokernel_identity_and_zero_map():
    assert ExactMatrix.identity(QQ, 3).cokernel_dim() == 0
    assert ExactMatrix.zero(QQ, 4, 2).cokernel_dim() == 4


def test_cokernel_a2_boundary_system():
    # hand elimination: the 2x4 system with columns aa*, -a*a, and
    # aa* - a*a twice spans the whole 2-dimensional cycle space
    m = ExactMatrix.from_dense(QQ, [[1, 1, 1, 0], [-1, -1, 0, -1]])
    assert m.cokernel_dim() == 0


def test_solve_identity():
    m = ExactMatrix.identity(QQ, 3)
    assert m.solve([1, 2, 3]) == [1, 2, 3]


def test_solve_zero_matrix_inconsistent():
    m = ExactMatrix.zero(QQ, 2, 2)
    assert m.solve([1, 0]) is None


def test_solve_underdetermined():
    m = ExactMatrix.from_dense(QQ, [[1, 1]])
    x = m.solve([2])
    assert x is not None and x[0] + x[1] == 2


def test_solve_dimension_mismatch():
    m = ExactMatrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        m.solve([1, 2, 3])


def _random_int_matrix(rng, nrows, ncols, density=0.5, lo=-4, hi=4):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def test_rank_plus_kernel_equals_cols():
    rng = random.Random(12)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_int_matrix(rng, nrows, ncols)
        for fld in (QQ, GF(2), GF(5)):
            m = ExactMatrix.from_dense(fld, rows)
            assert m.rank() + len(m.kernel_basis()) == ncols


def test_rank_rational_at_least_rank_mod_p():
    rng = random.Random(34)
    for _ in range(40):
        rows = _random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rq = ExactMatrix.from_dense(QQ, rows).rank()
        for p in (2, 3, 7):
            assert rq >= ExactMatrix.from_dense(GF(p), rows).rank()


def test_solve_is_exact_or_certified_absent():
    rng = random.Random(56)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_int_matrix(rng, nrows, ncols)
        b = [rng.randint(-3, 3) for _ in range(nrows)]
        for fld in (QQ, GF(3)):
            m = ExactMatrix.from_dense(fld, rows)
            x = m.solve(b)
            if x is None:
                # membership answer certified by an augmented-rank comparison
                aug = [row + [bv] for row, bv in zip(rows, b)]
                assert ExactMatrix.from_dense(fld, aug).rank() == m.rank() + 1
            else:
                assert m.mul_vector(x) == [fld.element(v) for v in b]


def test_rank_invariant_under_permutations():
    rng = random.Random(78)
    for _ in range(25):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        rows = _random_int_matrix(rng, nrows, ncols)
        m = ExactMatrix.from_dense(QQ, rows)
        rperm = rng.sample(range(nrows), nrows)
        cperm = rng.sample(range(ncols), ncols)
        shuffled = [[rows[i][j] for j in cperm] for i in rperm]
        assert ExactMatrix.from_dense(QQ, shuffled).rank() == m.rank()


def test_span_info_free_coords_are_quotient_basis():
    vectors = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    info = span_info(QQ, vectors, 4)
    assert info.rank == 2
    assert info.quotient_dim == 2
    assert info.pivot_coords == [0, 1]
    assert info.free_coords == [2, 3]


def test_image_profile_gives_cokernel_representatives():
    # columns span a plane in k^3 hitting coordinates 0 and 1 first
    m = ExactMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 2]])
    info = m.image_profile()
    assert info.rank == 2
    assert info.quotient_dim == m.cokernel_dim() == 1
    assert info.pivot_coords == [0, 1]
    assert info.free_coords == [2]


def test_kernel_vectors_exact_over_many_fields():
    rows = [[2, -1, 3], [4, -2, 6]]
    for fld in (QQ, GF(5), GF(7)):
        m = ExactMatrix.from_dense(fld, rows)
        for v in m.kernel_basis():
            assert all(fld.is_zero(x) for x in m.mul_vector(v))
