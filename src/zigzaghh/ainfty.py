"""Partial A-infinity structures on zigzag algebras and Stasheff checking.

A candidate is a graded algebra together with finitely many higher
multiplications m_n (n >= 3) of cohomological degree 2 - n, given on
composable positive-basis words; m_1 = 0 and m_2 is the algebra product.
check_stasheff evaluates, for each total arity n,

    sum over r + s + t = n of (-1)^(r + s t) m_{r+1+t}(id^r (x) m_s (x) id^t)

on every basis word and reports exact violations.  Multiplications absent
from the candidate evaluate as zero; arities whose identity involves an
absent m_k above the highest specified product are flagged as conditional
(the check is then relative to those products really being zero).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .exactla import FieldSpec, Scalar
from .quiver import catalog
from .zigzag import HochschildCochain, Word, ZigzagAlgebra, build_zigzag


class AInftyCandidate:
    """A zigzag algebra with finitely many higher multiplications."""

    def __init__(self, algebra: ZigzagAlgebra,
                 products: dict[int, dict[Word, dict[int, Scalar]]]):
        alg = self.algebra = algebra
        fld = alg.field
        clean: dict[int, dict[Word, dict[int, Scalar]]] = {}
        for n, table in products.items():
            if n < 3:
                raise ValueError("higher multiplications start at arity 3")
            for w, outs in table.items():
                w = tuple(w)
                if len(w) != n:
                    raise ValueError("m_%d value keyed by a length-%d word" % (n, len(w)))
                for a, b in zip(w, w[1:]):
                    if alg.tgt[a] != alg.src[b]:
                        raise ValueError("m_%d input word %r is not composable" % (n, w))
                want_deg = sum(alg.degrees[i] for i in w) + 2 - n
                for z, coeff in outs.items():
                    c = fld.element(coeff)
                    if fld.is_zero(c):
                        continue
                    if alg.degrees[z] != want_deg:
                        raise ValueError(
                            "m_%d output %s has degree %d, expected %d"
                            % (n, alg.names[z], alg.degrees[z], want_deg))
                    if alg.src[z] != alg.src[w[0]] or alg.tgt[z] != alg.tgt[w[-1]]:
                        raise ValueError("m_%d output %s does not match the word endpoints"
                                         % (n, alg.names[z]))
                    clean.setdefault(n, {}).setdefault(w, {})[z] = c
        self.products = clean

    def lowest_arity(self) -> int | None:
        present = sorted(n for n, t in self.products.items() if t)
        return present[0] if present else None

    def max_specified(self) -> int:
        return max(self.products.keys(), default=2)


class StasheffViolation(NamedTuple):
    arity: int
    word: tuple[str, ...]
    defect: dict[str, Scalar]


class StasheffReport:
    """Exact pass/fail per arity, with witnesses for every violation."""

    def __init__(self, max_arity: int, violations: Optional[list[StasheffViolation]] = None,
                 conditional_arities: Optional[list[int]] = None):
        self.max_arity = max_arity
        self.violations = [] if violations is None else violations
        self.conditional_arities = [] if conditional_arities is None else conditional_arities

    @property
    def passed(self) -> bool:
        return not self.violations


def check_stasheff(candidate: AInftyCandidate, max_arity: int) -> StasheffReport:
    """Evaluate the Stasheff identities exactly on every basis word.

    Arity 3 is pure associativity of the product and is evaluated over
    the full basis, idempotents included (on positive words alone every
    triple product is killed by the degree-2 truncation, so defects only
    show against the idempotents).  Higher arities involve the higher
    multiplications, which live on the positive part, and are evaluated
    there.

    A term m_u(id^r (x) m_s (x) id^t) is nonzero on a word w only when
    w = y[:r] + x + y[r+1:] with m_u(y) nonzero and y[r] an output of
    m_s(x), so each identity is summed over pairs of table entries and no
    other word is visited.  Such a w that does not compose, or holds an
    idempotent above arity 3, is not a word of the check and is skipped.
    """
    if max_arity < 2:
        raise ValueError("need max_arity >= 2")
    alg = candidate.algebra
    fld = alg.field
    tables = {2: {pair: {z: fld.one()} for pair, z in alg.table.items()},
              **candidate.products}
    by_output: dict[int, dict[int, list[tuple[Word, Scalar]]]] = {s: {} for s in tables}
    for s, table in tables.items():
        for x, outs in table.items():
            for z, c in outs.items():
                by_output[s].setdefault(z, []).append((x, c))
    report = StasheffReport(max_arity, conditional_arities=list(
        range(max(4, candidate.max_specified() + 2), max_arity + 1)))

    for n in range(3, max_arity + 1):
        defects: dict[Word, dict[int, Scalar]] = {}
        for s, inner in by_output.items():
            for y, outs in tables.get(n + 1 - s, {}).items():
                for r, z in enumerate(y):
                    odd = (r + s * (len(y) - 1 - r)) % 2
                    for x, cz in inner.get(z, ()):
                        w = y[:r] + x + y[r + 1:]
                        if any(alg.tgt[a] != alg.src[b] for a, b in zip(w, w[1:])) \
                                or (n > 3 and not all(alg.degrees[i] for i in w)):
                            continue
                        c = fld.neg(cz) if odd else cz
                        defect = defects.setdefault(w, {})
                        for v, cy in outs.items():
                            defect[v] = fld.add(defect.get(v, fld.zero()), fld.mul(c, cy))
        for w, defect in sorted(defects.items()):
            nonzero = {alg.names[v]: c for v, c in sorted(defect.items()) if not fld.is_zero(c)}
            if nonzero:
                report.violations.append(
                    StasheffViolation(n, tuple(alg.names[i] for i in w), nonzero))
    return report


def class_of(candidate: AInftyCandidate, n: int) -> HochschildCochain:
    """Repackage the lowest higher product m_n as a (2, n-2) cochain.

    Feeding the result to the zigzag cocycle / coboundary tests decides
    first-order (non)triviality of the deformation.
    """
    lowest = candidate.lowest_arity()
    if lowest is not None and lowest < n:
        raise ValueError("m_%d is not the lowest nonzero higher product (m_%d is)" % (n, lowest))
    table = candidate.products.get(n, {})
    values = {w: dict(outs) for w, outs in table.items()}
    return HochschildCochain(candidate.algebra, 2, n - 2, values)


def extended_d4_m4(fld: FieldSpec = FieldSpec(0), scale: Scalar = 1) -> AInftyCandidate:
    """The explicit m_4 deformation of the zigzag algebra of extended D4.

    The defining length-4 cycle runs bottom leaf -> hub -> leaf 1 -> hub
    -> bottom leaf; m_4 sends each of its four cyclic rotations to the
    2-cycle class at the rotation's base vertex and kills every other
    basis word.  Consecutive rotations carry opposite signs: rotating a
    degree-1 letter past the other three is a Koszul sign of (-1)^3, and
    with the differential convention pinned in the zigzag module the
    unsigned sum of the four values would be a coboundary (each value on
    its own, and this alternating sum, are not).
    """
    g = catalog("D~", 4)
    alg = build_zigzag(g, fld)
    hub = 5
    a4 = alg.arrow_index[(4, hub)]
    a4s = alg.arrow_index[(hub, 4)]
    a1 = alg.arrow_index[(1, hub)]
    a1s = alg.arrow_index[(hub, 1)]
    cyc = alg.cycle_index
    minus = fld.neg(fld.element(scale))
    table: dict[Word, dict[int, Scalar]] = {
        (a4, a1s, a1, a4s): {cyc[4]: scale},
        (a1s, a1, a4s, a4): {cyc[hub]: minus},
        (a1, a4s, a4, a1s): {cyc[1]: scale},
        (a4s, a4, a1s, a1): {cyc[hub]: minus},
    }
    return AInftyCandidate(alg, {4: table})
