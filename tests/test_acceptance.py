"""Acceptance suite: one test and one printed pass/fail line per criterion.

All equalities are exact (integer dimensions over exact fields); there
are no tolerances anywhere.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import json

from zigzaghh.ainfty import class_of, extended_d4_m4
from zigzaghh.cli import main as cli_main
from zigzaghh.exactla import GF, QQ
from zigzaghh.ginzburg import hh2_dim
from zigzaghh.pathalg import all_cycles, basis_of_bidegree, make_path
from zigzaghh.preproj import cyclic_piece_dim, lambda_piece, trace_piece
from zigzaghh.quiver import catalog, double, orient_bipartite
from zigzaghh.zigzag import build_zigzag, delta_columns, hochschild_dim

from barcomplex import reduced_hh_dim
from cone import verify_cone_resolution
from dg import BigradedElement, commutator, differential, element_differential, ginzburg_of
from oracle import oracle_hh_unreduced, oracle_lambda_dim

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]


def _quiver(family, n):
    return orient_bipartite(catalog(family, n))


def _field_name(fld):
    return "Q" if fld.characteristic == 0 else "F%d" % fld.characteristic


def _report(num, ok, detail):
    print("ACCEPTANCE %d: %s -- %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_central_isomorphism():
    """ginzburg HH^{2,q} equals the degree-(q+2) trace, everywhere."""
    quivers = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]
    checked = 0
    for family, n in quivers:
        q = _quiver(family, n)
        for fld in FIELDS:
            for adams in range(0, 9):
                left = hh2_dim(q, adams, fld).dimension
                right = trace_piece(q, adams + 2, fld, want_witnesses=False).dimension
                assert left == right, (
                    "%s%d over %s at q=%d: ginzburg %d != trace %d"
                    % (family, n, _field_name(fld), adams, left, right))
                checked += 1
    _report(1, True, "%d (quiver, field, q) triples, exact equality" % checked)


def test_criterion_2_koszul_duality_dimension_match():
    """zigzag bar-complex dims equal the other two pipelines on small trees."""
    checked = 0
    for family, n in (("A", 2), ("A", 3), ("D", 4)):
        g = catalog(family, n)
        quiv = _quiver(family, n)
        for fld in (QQ, GF(2)):
            alg = build_zigzag(g, fld)
            for adams in (1, 2, 3):
                z = hochschild_dim(alg, 2, adams).dimension
                gz = hh2_dim(quiv, adams, fld).dimension
                tr = trace_piece(quiv, adams + 2, fld, want_witnesses=False).dimension
                assert z == gz == tr, (
                    "%s%d over %s at q=%d: zigzag %d, ginzburg %d, trace %d"
                    % (family, n, _field_name(fld), adams, z, gz, tr))
                checked += 1
    _report(2, True, "%d zigzag/ginzburg/trace agreements" % checked)


def test_criterion_3_good_characteristic_vanishing():
    """ADE graphs up to 6 vertices: HH^{2,q} = 0 for 1 <= q <= 8, good fields."""
    ade = [("A", k) for k in range(1, 7)] + [("D", 4), ("D", 5), ("D", 6), ("E", 6)]
    checked = 0
    for family, n in ade:
        g = catalog(family, n)
        quiv = _quiver(family, n)
        zig_qmax = 3 if g.vertex_count <= 5 else 2
        for fld in (QQ, GF(7)):
            alg = build_zigzag(g, fld)
            for adams in range(1, 9):
                assert hh2_dim(quiv, adams, fld).dimension == 0, (family, n, adams)
                assert trace_piece(quiv, adams + 2, fld, want_witnesses=False).dimension == 0
                checked += 2
                if adams <= zig_qmax:
                    assert hochschild_dim(alg, 2, adams).dimension == 0, (family, n, adams)
                    checked += 1
    _report(3, True, "%d vanishing checks over Q and F7" % checked)


def test_criterion_4_bad_characteristic_nonvanishing():
    """D4/F2 and E6/F2, F3 each have a nonzero HH^{2,q} with 0 < q <= 12."""
    # first witness Adams degrees, pinned on the first run
    expected_witness = {("D", 4, 2): 2, ("E", 6, 2): 2, ("E", 6, 3): 4}
    for (family, n, p), want_q in expected_witness.items():
        quiv = _quiver(family, n)
        fld = GF(p)
        witness = None
        for adams in range(1, 13):
            if hh2_dim(quiv, adams, fld).dimension > 0:
                witness = adams
                break
        assert witness is not None, "%s%d over F%d has no witness q <= 12" % (family, n, p)
        assert witness == want_q, (
            "%s%d over F%d: witness q=%d, regression value %d"
            % (family, n, p, witness, want_q))
    _report(4, True, "witness q: D4/F2 -> 2, E6/F2 -> 2, E6/F3 -> 4")


def test_criterion_5_extended_d4():
    """Extended D4: nonzero HH^{2,q} at even q, matching the bottom-leaf block.

    The leaf-block identification holds away from characteristic 2, and
    needs that hypothesis: over F2 the two sides genuinely differ
    (3 vs 2 at q = 2).
    """
    quiv = _quiver("D~", 4)
    bottom_leaf = 4
    for fld in FIELDS:
        nonzero_even = []
        for adams in (2, 4, 6, 8):
            dim = hh2_dim(quiv, adams, fld).dimension
            if dim > 0:
                nonzero_even.append(adams)
            if fld.characteristic != 2:
                block = cyclic_piece_dim(quiv, adams + 2, bottom_leaf, fld)
                assert dim == block, (
                    "over %s at q=%d: HH %d != leaf block %d"
                    % (_field_name(fld), adams, dim, block))
        assert len(nonzero_even) >= 2, "too few nonzero even q over %s" % _field_name(fld)
    f2_dim = hh2_dim(quiv, 2, GF(2)).dimension
    f2_block = cyclic_piece_dim(quiv, 4, bottom_leaf, GF(2))
    assert (f2_dim, f2_block) == (3, 2)  # the char-2 hypothesis is necessary
    _report(5, True, "nonzero at >= 2 even q <= 8 on all fields; "
                     "block equality on every char != 2 field")


def test_criterion_6_paper_deformation():
    """The explicit m_4 is a cocycle and not a coboundary; scaling invariant."""
    from zigzaghh.zigzag import is_coboundary, is_cocycle
    for scale in (1, 7, -2):
        c = class_of(extended_d4_m4(QQ, scale=scale), 4)
        assert is_cocycle(c), "scale %d: not a cocycle" % scale
        assert not is_coboundary(c), "scale %d: a coboundary" % scale
    _report(6, True, "cocycle and non-coboundary in C^{2,2}, scales 1, 7, -2")


def test_criterion_7_structural_suites():
    """d^2 = 0, delta^2 = 0, the cone witness, and the cyclic identity."""
    # d^2 = 0 on every word of Adams degree <= 10
    words_checked = 0
    for family, n in (("A", 2), ("D", 4)):
        qg = ginzburg_of(_quiver(family, n))
        for adams in range(0, 11):
            for p in range(-(adams // 2), 1):
                for w in basis_of_bidegree(qg, p, adams):
                    assert element_differential(differential(qg, w, QQ)).is_zero(), w
                    words_checked += 1

    # delta^2 = 0 for assembled Hochschild differentials
    compositions = 0
    for label, fam_n in (("A2", ("A", 2)), ("D4", ("D", 4)), ("D~4", ("D~", 4))):
        alg = build_zigzag(catalog(*fam_n), QQ)
        for adams in range(0, 4):
            for p in range(0, 3):
                _, _, cols1 = delta_columns(alg, p, adams)
                _, _, cols2 = delta_columns(alg, p + 1, adams)
                for col in cols1:
                    image = {}
                    for i, v in col.items():
                        for j, w in cols2[i].items():
                            image[j] = image.get(j, 0) + v * w
                    assert not any(image.values())
                    compositions += 1

    # cone resolution witness on A1 and A2
    for family in ("A",):
        for n in (1, 2):
            check = verify_cone_resolution(_quiver(family, n), (-2, 0), 4, QQ)
            assert check.ok, "cone check failed on %s%d" % (family, n)

    # cyclic commutator identity, exhaustively for cycles of length <= 6
    identities = 0
    for family, n in (("A", 2), ("D", 4)):
        qd = double(_quiver(family, n))
        for length in (2, 3, 4, 5, 6):
            for cyc in all_cycles(qd, length):
                for split in range(1, length):
                    def elem(letters):
                        return BigradedElement.of_path(QQ, qd, make_path(qd, letters))
                    lhs = commutator(elem(cyc.letters[:split]), elem(cyc.letters[split:]))
                    rhs = BigradedElement.zero(QQ, qd)
                    for i in range(split):
                        rotated = cyc.letters[i + 1:] + cyc.letters[:i]
                        rhs = rhs + commutator(elem(cyc.letters[i:i + 1]), elem(rotated))
                    assert lhs == rhs
                    identities += 1
    _report(7, True, "d^2=0 on %d words; %d delta-compositions zero; cone ok on A1, A2; "
                     "%d cyclic identities" % (words_checked, compositions, identities))


def test_criterion_8_oracle_equivalence():
    """Brute-force oracles agree with the optimized pipelines."""
    alg = build_zigzag(catalog("A", 2), QQ)
    for (p, q) in ((0, 0), (1, 1), (2, 1), (2, 2)):
        reduced = (hochschild_dim(alg, p, q).dimension if p == 2
                   else reduced_hh_dim(alg, p, q))
        unreduced = oracle_hh_unreduced(alg, p, q)
        assert reduced == unreduced, "(%d,%d): reduced %d, unreduced %d" % (p, q, reduced, unreduced)
    lam_checked = 0
    for family, n in (("A", 1), ("A", 2), ("A", 3), ("D", 4)):
        quiv = _quiver(family, n)
        for deg in range(0, 7):
            assert (lambda_piece(quiv, deg, QQ).dimension
                    == oracle_lambda_dim(quiv, deg, QQ))
            lam_checked += 1
    _report(8, True, "reduced==unreduced on Z(A2) at 4 bidegrees; "
                     "%d lambda dims match the oracle" % lam_checked)


def test_criterion_9_cli_determinism(capsys):
    """Identical jobs produce byte-identical JSON."""
    jobs = [
        ["preproj", "--graph", "D4", "--char", "2", "--max", "5", "--out", "json"],
        ["hh2", "--graph", "D~4", "--char", "0", "--q", "1..3", "--out", "json"],
        ["classify", "--graph", "A3", "--char", "0", "--max", "4", "--out", "json"],
        ["ainfty-check", "--out", "json"],
    ]
    for argv in jobs:
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        second = capsys.readouterr().out
        assert first == second, "non-deterministic output for %r" % (argv,)
        json.loads(first)  # and it is valid JSON
    _report(9, True, "four CLI jobs, byte-identical JSON on repeat runs")
