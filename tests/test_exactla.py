"""Exact linear algebra: pinned examples and randomized invariants."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from zigzaghh.exactla import GF, QQ, Echelon, ExactMatrix, FieldSpec, echelonize, in_span, span_info

from oracle import _row_reduce_rank, oracle_times


def _dense(fld, dense):
    """The ExactMatrix of a dense list of rows, zero entries dropped."""
    rows = [{j: e for j, v in enumerate(r) if not fld.is_zero(e := fld.element(v))} for r in dense]
    return ExactMatrix(fld, len(dense), len(dense[0]), rows)


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
    assert fld.mul(pow(3, -1, fld.characteristic), 3) == 1


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
    assert GF(5).mul(2, 3) == 1
    assert QQ.mul(Fraction(3, 2), Fraction(2, 3)) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fp_element_of_a_fraction_is_its_residue(p):
    # n/d is n times the inverse of d mod p, not int(n/d); no residue when p | d
    for n in range(-7, 8):
        for d in range(1, 13):
            f = Fraction(n, d)
            if f.denominator % p:
                x = GF(p).element(f)
                assert 0 <= x < p and x * d % p == n % p, (n, d)
            else:
                with pytest.raises(ValueError, match="mod %d" % p):
                    GF(p).element(f)
    assert GF(3).element(Fraction(1, 2)) == 2 and GF(5).element(Fraction(-1, 2)) == 2


def test_fp_element_reads_any_other_value_as_a_fraction():
    # a float is its exact fraction, not int(value): 0.5 is 1/2, so 2 mod 3
    # and no residue mod 2; bool and Decimal are read the same way
    from decimal import Decimal
    assert GF(3).element(0.5) == 2 and GF(5).element(-2.0) == 3
    assert GF(7).element(Decimal("0.25")) == 2 and GF(3).element(True) == 1
    assert QQ.element(0.5) == Fraction(1, 2)
    with pytest.raises(ValueError, match="mod 2"):
        GF(2).element(0.5)
    with pytest.raises(ValueError, match="mod 5"):
        GF(5).element(Decimal("0.2"))   # the float 0.2 is not 1/5


def test_rank_identity_and_zero():
    assert ExactMatrix(QQ, 2, 2, [{i: 1} for i in range(2)]).rank() == 2
    assert ExactMatrix(QQ, 3, 5).rank() == 0


def test_rank_mod_2_collapse():
    m = _dense(GF(2), [[2, 4], [1, 2]])
    assert m.rank() == 1


def test_kernel_identity_empty():
    assert ExactMatrix(QQ, 3, 3, [{i: 1} for i in range(3)]).kernel_basis() == []


def test_kernel_one_row_rational():
    m = _dense(QQ, [[1, 1]])
    (v,) = m.kernel_basis()
    assert all(x == 0 for x in oracle_times(m, v))
    assert any(x != 0 for x in v)


def test_kernel_one_row_mod5():
    m = _dense(GF(5), [[1, 2, 3]])
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in oracle_times(m, v))


def test_cokernel_identity_and_zero_map():
    eye, zero = ExactMatrix(QQ, 3, 3, [{i: 1} for i in range(3)]), ExactMatrix(QQ, 4, 2)
    assert eye.nrows - eye.rank() == 0
    assert zero.nrows - zero.rank() == 4


def test_cokernel_a2_boundary_system():
    # hand elimination: the 2x4 system with columns aa*, -a*a, and
    # aa* - a*a twice spans the whole 2-dimensional cycle space
    m = _dense(QQ, [[1, 1, 1, 0], [-1, -1, 0, -1]])
    assert m.nrows - m.rank() == 0


def test_solve_identity():
    m = ExactMatrix(QQ, 3, 3, [{i: 1} for i in range(3)])
    assert m.solve([1, 2, 3]) == [1, 2, 3]


def test_solve_zero_matrix_inconsistent():
    m = ExactMatrix(QQ, 2, 2)
    assert m.solve([1, 0]) is None


def test_solve_underdetermined():
    m = _dense(QQ, [[1, 1]])
    x = m.solve([2])
    assert x is not None and x[0] + x[1] == 2


def test_solve_dimension_mismatch():
    m = ExactMatrix(QQ, 2, 2, [{i: 1} for i in range(2)])
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
            m = _dense(fld, rows)
            assert m.rank() + len(m.kernel_basis()) == ncols


def test_rank_rational_at_least_rank_mod_p():
    rng = random.Random(34)
    for _ in range(40):
        rows = _random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rq = _dense(QQ, rows).rank()
        for p in (2, 3, 7):
            assert rq >= _dense(GF(p), rows).rank()


def test_solve_is_exact_or_certified_absent():
    rng = random.Random(56)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_int_matrix(rng, nrows, ncols)
        b = [rng.randint(-3, 3) for _ in range(nrows)]
        for fld in (QQ, GF(3)):
            m = _dense(fld, rows)
            x = m.solve(b)
            if x is None:
                # membership answer certified by an augmented-rank comparison
                aug = [row + [bv] for row, bv in zip(rows, b)]
                assert _dense(fld, aug).rank() == m.rank() + 1
            else:
                assert oracle_times(m, x) == [fld.element(v) for v in b]


def test_rank_invariant_under_permutations():
    rng = random.Random(78)
    for _ in range(25):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        rows = _random_int_matrix(rng, nrows, ncols)
        m = _dense(QQ, rows)
        rperm = rng.sample(range(nrows), nrows)
        cperm = rng.sample(range(ncols), ncols)
        shuffled = [[rows[i][j] for j in cperm] for i in rperm]
        assert _dense(QQ, shuffled).rank() == m.rank()


def test_span_info_free_coords_are_quotient_basis():
    vectors = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    info = span_info(QQ, vectors, 4)
    assert info.rank == 2
    assert info.quotient_dim == 2
    assert info.pivot_coords == [0, 1]
    assert info.free_coords == [2, 3]


def test_image_profile_gives_cokernel_representatives():
    # columns span a plane in k^3 hitting coordinates 0 and 1 first
    m = _dense(QQ, [[1, 0], [1, 1], [0, 2]])
    info = m.image_profile()
    assert info.rank == 2
    assert info.quotient_dim == m.nrows - m.rank() == 1
    assert info.pivot_coords == [0, 1]
    assert info.free_coords == [2]


def test_kernel_vectors_exact_over_many_fields():
    rows = [[2, -1, 3], [4, -2, 6]]
    for fld in (QQ, GF(5), GF(7)):
        m = _dense(fld, rows)
        for v in m.kernel_basis():
            assert all(fld.is_zero(x) for x in oracle_times(m, v))


def test_kernel_vectors_are_sparse_null_vectors_at_the_free_columns():
    rng = random.Random(90)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        rows = _random_int_matrix(rng, nrows, ncols, density=0.4)
        for fld in (QQ, GF(2), GF(7)):
            m = _dense(fld, rows)
            ech = echelonize(fld, m.rows, ncols)
            free = ech.free_cols()
            vectors = list(ech.kernel_vectors())
            assert len(vectors) == len(free)
            for f, x in zip(free, vectors):
                assert all(not fld.is_zero(v) for v in x.values())   # zeros are not stored
                assert {c for c in free if c in x} == {f} and x[f] == 1
                assert all(c <= f for c in x)   # pivots right of f stay zero
                dense = [x.get(c, fld.zero()) for c in range(ncols)]
                assert all(fld.is_zero(v) for v in oracle_times(m, dense))
            assert m.kernel_basis() == [[x.get(c, fld.zero()) for c in range(ncols)]
                                        for x in vectors]


def _fraction_kernel_vector(ech, f):
    """The back-substitution at free column f with every coordinate a Fraction."""
    x = {f: Fraction(1)}
    for c, row in zip(reversed(ech.pivot_cols), reversed(ech.rows)):
        if c < f:
            s = sum(v * x[col] for col, v in row.items() if col in x)
            if s:
                x[c] = -s / row[c]
    return x


def test_kernel_vector_over_q_keeps_ints_where_pivots_divide():
    rng = random.Random(314)
    kinds = set()
    for _ in range(80):
        ncols = rng.randint(2, 9)
        rows = _random_int_matrix(rng, rng.randint(1, 7), ncols, density=0.6)
        ech = echelonize(QQ, _dense(QQ, rows).rows, ncols)
        for f in ech.free_cols():
            x = ech.kernel_vector(f)
            assert type(x[f]) is int and x[f] == 1
            assert x == _fraction_kernel_vector(ech, f)
            for v in x.values():
                kinds.add(type(v))
                assert type(v) is int or v.denominator > 1
    assert kinds == {int, Fraction}


def test_kernel_vector_reads_rows_added_after_it_ran():
    for fld in (QQ, GF(5)):
        ech = echelonize(fld, [{0: 1, 2: -1}], 3)
        assert ech.kernel_vector(2) == {2: 1, 0: 1}
        assert ech.add({1: 1, 2: 1})
        assert ech.kernel_vector(2) == {2: 1, 0: 1, 1: fld.neg(fld.one())}


# ---------------------------------------------------------------------------
# matrices dominated by one- and two-term rows, against the textbook oracle
# ---------------------------------------------------------------------------

def _entry(rng, kind):
    if kind == "int":
        return rng.choice([-3, -2, -1, 1, 2, 3])
    if kind == "fraction":
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
    return rng.randint(0, 12)   # residues, some of them zero mod p


def _short_heavy_rows(rng, kind, ncols):
    """Mostly one- and two-term rows, plus zero rows, duplicates, a few long
    rows, and a closed chain whose weights multiply to -1."""
    rows = []
    for _ in range(rng.randint(ncols // 2, ncols + 4)):
        roll = rng.random()
        if roll < 0.05:
            rows.append({})
        elif roll < 0.1:
            rows.append({rng.randrange(ncols): 0})
        elif roll < 0.2:
            rows.append({rng.randrange(ncols): _entry(rng, kind)})
        elif roll < 0.75:
            i, j = rng.sample(range(ncols), 2)
            rows.append({i: _entry(rng, kind), j: _entry(rng, kind)})
        elif roll < 0.85 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            cols = rng.sample(range(ncols), rng.randint(3, min(6, ncols)))
            rows.append({c: _entry(rng, kind) for c in cols})
    # e_c1 - e_c2, ..., e_c(k-1) - e_ck, e_ck + e_c1: zero over Q and F_p, p odd
    chain = rng.sample(range(ncols), rng.randint(2, min(5, ncols)))
    rows += [{a: 1, b: -1} for a, b in zip(chain, chain[1:])]
    rows.append({chain[-1]: 1, chain[0]: 1})
    rng.shuffle(rows)
    return rows


def _reference_pivots(fld, rows, ncols):
    # leading columns are the smallest, so c is a pivot exactly when
    # column c is not in the span of the columns before it
    ranks = [_row_reduce_rank(fld, [{j: v for j, v in r.items() if j < c} for r in rows])
             for c in range(ncols + 1)]
    return [c for c in range(ncols) if ranks[c + 1] > ranks[c]]


_SHORT_HEAVY_CASES = [(QQ, "int"), (QQ, "fraction"), (GF(2), "residue"),
                      (GF(3), "residue"), (GF(5), "residue")]


@pytest.mark.parametrize("fld,kind", _SHORT_HEAVY_CASES)
def test_short_row_echelon_matches_textbook_pivots(fld, kind):
    rng = random.Random(9000 + fld.characteristic * 10 + len(kind))
    for _ in range(40):
        ncols = rng.randint(4, 24)
        rows = _short_heavy_rows(rng, kind, ncols)
        ech = echelonize(fld, rows, ncols)
        assert ech.pivot_cols == _reference_pivots(fld, rows, ncols)
        # a valid echelon of the same space: each row leads with its pivot
        assert all(min(r) == c for r, c in zip(ech.rows, ech.pivot_cols))
        assert all(type(v) is int for r in ech.rows for v in r.values())
        for r in rows:
            assert in_span(fld, ech, r)
        # an echelon of a prefix grown by add is an echelon of the same space:
        # add reports exactly the rows that raise the rank, and the rows stay
        # in pivot order, so kernel_vector still gives null vectors
        k = len(rows) // 2
        grown = echelonize(fld, rows[:k], ncols)
        for i in range(k, len(rows)):
            raised = _row_reduce_rank(fld, rows[:i + 1]) > _row_reduce_rank(fld, rows[:i])
            assert grown.add(rows[i]) == raised
        assert grown.pivot_cols == ech.pivot_cols
        assert all(min(r) == c for r, c in zip(grown.rows, grown.pivot_cols))
        for x in grown.kernel_vectors():
            for r in rows:
                assert fld.is_zero(sum(fld.element(v) * x.get(c, 0) for c, v in r.items()))


def test_inconsistent_cycle_depends_on_the_field():
    # e0 = e1 = e2 = -e0: zero over Q and F3, a live line over F2
    rows = [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: 1}]
    assert echelonize(QQ, rows, 3).pivot_cols == [0, 1, 2]
    assert echelonize(GF(3), rows, 3).pivot_cols == [0, 1, 2]
    ech = echelonize(GF(2), rows, 3)
    assert ech.pivot_cols == [0, 1]
    assert not in_span(GF(2), ech, {2: 1})


@pytest.mark.parametrize("fld,kind", _SHORT_HEAVY_CASES)
def test_short_row_matrices_kernel_solve_and_membership(fld, kind):
    rng = random.Random(7000 + fld.characteristic * 10 + len(kind))
    for _ in range(25):
        ncols = rng.randint(4, 16)
        rows = _short_heavy_rows(rng, kind, ncols)
        m = ExactMatrix(fld, len(rows), ncols, rows)
        rank = _row_reduce_rank(fld, rows)
        assert m.rank() == rank
        kernel = m.kernel_basis()
        assert len(kernel) == ncols - rank
        assert _row_reduce_rank(fld, [dict(enumerate(v)) for v in kernel]) == len(kernel)
        for v in kernel:
            assert all(fld.is_zero(x) for x in oracle_times(m, v))
        x0 = [fld.element(rng.randint(-2, 2)) for _ in range(ncols)]
        b = oracle_times(m, x0)
        x = m.solve(b)
        assert x is not None and oracle_times(m, x) == b
        b = [fld.element(rng.randint(-2, 2)) for _ in range(len(rows))]
        aug = [{**r, ncols: bv} for r, bv in zip(rows, b)]
        solvable = _row_reduce_rank(fld, aug) == rank
        x = m.solve(b)
        assert (x is not None) == solvable
        if x is not None:
            assert oracle_times(m, x) == b
        ech = echelonize(fld, rows, ncols)
        v = {c: _entry(rng, kind) for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        assert in_span(fld, ech, v) == (_row_reduce_rank(fld, rows + [v]) == rank)


def _short_pair(rng, kind, i, j):
    """A short row over Q: a zero beside a nonzero entry, or two entries
    whose ratio is an integer, or is not."""
    roll = rng.random()
    if kind == "int":
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        whole, broken = a * rng.choice([-3, -2, 2, 3]), a * rng.choice([2, 3]) + 1
    else:
        a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([2, 3, 5]))
        whole, broken = a * rng.choice([-3, -2, 2, 3]), a * Fraction(rng.choice([-2, 2, 5]), 3)
    if roll < 0.25:
        return {i: 0, j: a}
    if roll < 0.6:
        return {i: a, j: whole}
    return {i: a, j: broken}


def test_short_rows_over_q_are_read_for_their_ratio():
    # pinned: unscaled short rows give the same echelon rows as scaled ones
    f = Fraction
    for rows, want in (([{0: 0, 1: 5}], [{1: 1}]),
                       ([{0: 2, 1: 6}], [{0: 1, 1: 3}]),
                       ([{0: 2, 1: 3}], [{0: 2, 1: 3}]),
                       ([{0: f(1, 2), 1: f(3, 2)}], [{0: 1, 1: 3}]),
                       ([{0: f(2, 3), 1: f(1, 2)}], [{0: 4, 1: 3}]),
                       ([{0: f(-3, 5), 1: 0, 2: f(6, 5)}], [{0: 1, 2: -2}])):
        ech = echelonize(QQ, rows, 3)
        assert ech.rows == want
        assert all(type(v) is int for r in ech.rows for v in r.values())
    x = echelonize(QQ, [{0: 2, 1: 6}], 2).kernel_vector(1)
    assert x == {1: 1, 0: -3} and type(x[0]) is int
    assert echelonize(QQ, [{0: 2, 1: 3}], 2).kernel_vector(1) == {1: 1, 0: Fraction(-3, 2)}


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_short_rows_over_q_give_integral_coprime_rows(kind):
    # zeros among a row's keys, whole and broken ratios, long rows between
    # them: every echelon row is integral, leads with its pivot and has
    # content 1, and the kernel keeps ints wherever the pivots divide
    rng = random.Random(2718 + len(kind))
    kinds = set()
    for _ in range(60):
        ncols = rng.randint(3, 16)
        rows = [_short_pair(rng, kind, *rng.sample(range(ncols), 2))
                for _ in range(rng.randint(2, ncols + 2))]
        for _ in range(rng.randint(0, 2)):
            cols = rng.sample(range(ncols), 3)
            rows.append({c: _entry(rng, kind) for c in cols})
        rng.shuffle(rows)
        ech = echelonize(QQ, rows, ncols)
        assert ech.pivot_cols == _reference_pivots(QQ, rows, ncols)
        for c, r in zip(ech.pivot_cols, ech.rows):
            assert all(type(v) is int and v for v in r.values())
            assert min(r) == c and gcd(*r.values()) == 1
        assert all(in_span(QQ, ech, r) for r in rows)
        for f in ech.free_cols():
            x = ech.kernel_vector(f)
            assert x == _fraction_kernel_vector(ech, f)
            for v in x.values():
                kinds.add(type(v))
                assert type(v) is int or v.denominator > 1
            for r in rows:
                assert sum(v * x.get(c, 0) for c, v in r.items()) == 0
    assert kinds == {int, Fraction}


@pytest.mark.parametrize("fld", [QQ, GF(3)])
def test_long_two_term_chain_is_quick(fld):
    # rows in chain order make the deepest union-find path before any
    # compression; find must not recurse along it
    n = 5000
    rows = [{i: 1, i + 1: -1} for i in range(n - 1)]
    start = time.perf_counter()
    ech = echelonize(fld, rows, n)
    assert time.perf_counter() - start < 1.0
    assert ech.pivot_cols == list(range(n - 1))
    assert in_span(fld, ech, {0: 1, n - 1: -1})
    assert not in_span(fld, ech, {0: 1})


def _small_integer_rows(rng, ncols):
    """One-term, two-term and long rows; in half of the sets every entry is
    +-1, in the others a quarter of the entries are +-2."""
    entries = [1, -1] if rng.random() < 0.5 else [1, -1, 1, -1, 1, -1, 2, -2]
    rows = []
    for _ in range(rng.randint(ncols // 2, ncols)):
        size = min(ncols, rng.choice([1, 2, 2, 3, 4, rng.randint(3, ncols)]))
        rows.append({c: rng.choice(entries) for c in rng.sample(range(ncols), size)})
    return rows


def _certificate_is_sound(rows, ncols) -> bool:
    """Whether the Q echelon of integral rows is certified; when it is,
    check that it is the echelon mod 2, 3, 5 and 7."""
    ech = echelonize(QQ, rows, ncols)
    if not ech.unimodular:
        return False
    assert all(r[c] in (1, -1) for c, r in ech.pivot_row.items())
    kernel = list(ech.kernel_vectors())
    assert all(type(v) is int for x in kernel for v in x.values())
    for p in (2, 3, 5, 7):
        fp = echelonize(GF(p), rows, ncols)
        assert not fp.unimodular
        assert fp.pivot_cols == ech.pivot_cols, (p, rows)
        assert [{c: v % p for c, v in x.items() if v % p} for x in kernel] == \
            list(fp.kernel_vectors()), (p, rows)
    return True


def test_a_unimodular_echelon_over_q_is_the_echelon_mod_every_p():
    # a certified echelon spans the input's Z-lattice, so mod p it has the
    # F_p pivots, and its kernel vectors, integral, reduce to the F_p ones
    rng = random.Random(2505)
    outcomes = set()
    for _ in range(300):
        ncols = rng.randint(3, 12)
        outcomes.add(_certificate_is_sound(_small_integer_rows(rng, ncols), ncols))
    assert outcomes == {True, False}


def _cascading_rows(rng, entries, ncols):
    """Short rows, and long rows that turn short only once earlier rows are
    settled: each new row is a short row plus a multiple of the row before
    it, so it projects short only after that one has gone in, and the
    shuffle puts many a row ahead of the row it waits for."""
    rows = []
    for _ in range(rng.randint(1, 3)):
        prev = None
        for _ in range(rng.randint(2, 6)):
            row = {c: rng.choice(entries) for c in rng.sample(range(ncols), rng.choice([1, 2, 2]))}
            if prev is not None:
                k = rng.choice(entries)
                for c, v in prev.items():
                    row[c] = row.get(c, 0) + k * v
            rows.append(row)
            prev = row
    rows += _small_integer_rows(rng, ncols)[:rng.randint(0, 3)]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3)])
def test_long_rows_that_turn_short_after_later_merges(monkeypatch, fld):
    # the fixpoint settles them in the union-find, on later passes too: the
    # echelon has the textbook pivots and the kernel it implies, and a
    # certified Q echelon is still the echelon mod every p
    added = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda ech, v: added.append(v) or add(ech, v))
    rng = random.Random(3030 + fld.characteristic)
    entries = [1, -1] if fld.characteristic else [1, -1, 1, -1, 1, -1, 2, -2]
    settled = certified = 0
    for _ in range(150):
        ncols = rng.randint(4, 14)
        rows = _cascading_rows(rng, entries, ncols)
        added.clear()
        ech = echelonize(fld, rows, ncols)
        settled += len(added) < sum(1 for r in rows if sum(1 for v in r.values()
                                                           if not fld.is_zero(v)) > 2)
        assert ech.pivot_cols == _reference_pivots(fld, rows, ncols), rows
        assert all(min(r) == c for r, c in zip(ech.rows, ech.pivot_cols))
        kernel = list(ech.kernel_vectors())
        assert len(kernel) == ncols - _row_reduce_rank(fld, rows)
        for x in kernel:
            for r in rows:
                assert fld.is_zero(sum(fld.element(v) * x.get(c, 0) for c, v in r.items()))
        if fld == QQ:
            certified += _certificate_is_sound(rows, ncols)
    assert settled > 100
    assert fld != QQ or 0 < certified < 150


def test_a_projected_short_row_with_a_non_unit_entry_stays_in_the_core(monkeypatch):
    # e0 = e3, so the long rows project to e1 + 2 e2 and e4 - e5: over Q the
    # first goes to the core, where its pivot is 1 and the echelon stays
    # certified, while the union-find would have merged with weight -2; the
    # second, all +-1, goes to the union-find, and over F3 both do
    added = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda ech, v: added.append(dict(v)) or add(ech, v))
    rows = [{0: 1, 1: 1, 2: 2, 3: -1}, {0: 1, 3: -1}, {0: -1, 3: 1, 4: 1, 5: -1}]
    ech = echelonize(QQ, rows, 6)
    assert added == [{1: 1, 2: 2}]
    assert ech.unimodular and ech.pivot_cols == [0, 1, 4]
    assert ech.pivot_row[1] == {1: 1, 2: 2} and ech.pivot_row[4] == {4: 1, 5: -1}
    assert _certificate_is_sound(rows, 6)
    added.clear()
    assert echelonize(GF(3), rows, 6).pivot_cols == [0, 1, 4] and added == []


@pytest.mark.parametrize("rows", [
    [{0: 2, 1: 2, 2: 2}],                          # a content divided out on input
    [{0: 2}],                                      # a one-term kill by 2
    [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}],    # an odd 2-term cycle closes to 2 e_2
    [{0: 1, 1: 1, 2: 1}, {0: 1, 1: -1, 3: 1}],     # a long row reduces to pivot -2
    [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 3}],      # a content 2 divided out in _reduce
])
def test_non_unimodular_steps_leave_the_echelon_uncertified(rows):
    ncols = 1 + max(c for r in rows for c in r)
    assert not echelonize(QQ, rows, ncols).unimodular
    # each of these loses rank or moves a pivot mod 2
    assert echelonize(GF(2), rows, ncols).pivot_cols != echelonize(QQ, rows, ncols).pivot_cols


def test_unit_steps_keep_the_echelon_certified_until_add_takes_a_non_unit_step():
    # e0 = e1 = -e2 and e3 = 0; the long rows project to e4 and -e2 - e4 + e5
    rows = [{0: 1, 1: -1}, {1: -1, 2: -1}, {3: -1}, {0: 1, 2: 1, 4: 1}, {1: 1, 3: 1, 4: -1, 5: 1}]
    ech = echelonize(QQ, rows, 6)
    assert ech.unimodular and ech.pivot_cols == [0, 1, 2, 3, 4]
    assert not ech.add({0: 1, 2: 1, 4: 1})
    assert ech.unimodular
    # e2 + e4 + e5 reduces to -2 e5: in the span mod 2, not over Q
    assert ech.add({2: 1, 4: 1, 5: 1})
    assert not ech.unimodular
