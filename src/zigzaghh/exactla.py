"""Exact linear algebra over Q and prime fields F_p.

Every rank, kernel, cokernel and membership question in this package is
answered here with exact arithmetic: arbitrary-precision rationals in
characteristic 0, reduced residues mod p otherwise.  Matrices are kept
sparse (one dict per row).  Elimination is structured (LaMacchia and
Odlyzko, *Solving large sparse linear systems over finite fields*, 1990).
A weighted union-find over the columns settles the rows with one or two
terms, keeping e_c = w_c e_root modulo them, the root being the largest
column of its component; a one-term row, or a cycle whose weights
disagree, sets a whole component to zero.  It reads a row only for which
entries are nonzero and their ratio, so it never scales one integral.
The longer rows are projected onto the live roots to a fixpoint: each
projection that has become short goes to the union-find at once, and the
rest are projected again until a pass sends none (Ginzburg columns of E~8
at q = 10: 509 of 639 are short after one pass).  Over Q only entries
+-1 go, as a merge by 2 would cost the certificate below, which the core
keeps: e_i + 2 e_j has pivot 1 there.  What is left, normalized, reaches
the sparse core, whose elimination over Q is fraction-free (a
cross-multiplication, then a gcd division), so rows stay integral and
coefficients tame.  Pivot columns are always taken in increasing column
order, and the pivot set of an echelon depends only on the row space,
which makes ranks, kernels and quotient representatives reproducible.

Over Q an echelon also carries a certificate, `unimodular`: every pivot
entry installed is +-1, no row had a content divided out or a denominator
cleared (on input or in `_reduce`), and every union-find merge
coefficient, one-term kill and cycle-closing sum is +-1.  Then each
echelon row is an integral combination of the input rows with a unit
pivot, so for integral input the echelon spans the same Z-lattice.  For
every prime p its rows reduced mod p are therefore independent and lie in
the span of the input rows reduced mod p, whose rank is at most the rank
over Q: they are an echelon of those rows with the same pivot columns,
and the kernel vectors, integral, reduce mod p to the F_p kernel vectors.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .reports import Frozen

Scalar = Union[int, Fraction]


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n below _PRIME_TEST_BOUND."""
    if n < 2:
        return False
    if n >= _PRIME_TEST_BOUND:
        raise ValueError("characteristic %d is too large: primality is only decided below %d"
                         % (n, _PRIME_TEST_BOUND))
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec(Frozen):
    """Coefficient field: characteristic 0 means Q, a prime p means F_p."""

    __slots__ = ("characteristic",)
    characteristic: int

    def __init__(self, characteristic: int = 0):
        c = characteristic
        if c < 0 or (c != 0 and not _is_prime(c)):
            raise ValueError("characteristic must be 0 or a prime, got %r" % (c,))
        super().__init__(c)

    def element(self, value) -> Scalar:
        """Coerce a value to a canonical field element, read as a Fraction unless
        an int (a float exactly); over F_p, n/d is n / d mod p, ValueError if p | d."""
        p = self.characteristic
        if p == 0:
            return value if isinstance(value, Fraction) else Fraction(value)
        if type(value) is int:   # skips the ABC instance check below
            return value % p
        if not isinstance(value, Fraction):
            value = Fraction(value)
        if value.denominator % p == 0:
            raise ValueError("%s has no value mod %d" % (value, p))
        return value.numerator * pow(value.denominator, -1, p) % p

    def zero(self) -> Scalar:
        return self.element(0)

    def one(self) -> Scalar:
        return self.element(1)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a: Scalar) -> Scalar:
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def is_zero(self, a: Scalar) -> bool:
        return a == 0 if self.characteristic == 0 else a % self.characteristic == 0


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)


# ---------------------------------------------------------------------------
# sparse echelon core
#
# Rows are dicts {column: nonzero entry}.  Over F_p entries are residues;
# over Q they are ints (rows that reach the core get scaled integral on
# input, and normalized by their gcd after each elimination step).  Incoming rows are reduced
# against the installed pivots and then claim their leading column, so
# each pivot is the first nonzero available in column order; the pivot
# profile is the rank profile of the row space and does not depend on
# the input ordering, nor on which rows the union-find settled.
# ---------------------------------------------------------------------------


class Echelon:
    """Result of forward elimination: the echelon rows by their pivot column."""

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self.pivot_row: dict[int, dict[int, int]] = {}   # pivot column -> its row
        self._index: Optional[dict[int, list[int]]] = None   # see _users
        self.unimodular = field.characteristic == 0   # the certificate above, Q only

    @property
    def rank(self) -> int:
        return len(self.pivot_row)

    @property
    def pivot_cols(self) -> list[int]:
        return sorted(self.pivot_row)

    @property
    def rows(self) -> list[dict[int, int]]:
        """The echelon rows in pivot order."""
        return [self.pivot_row[c] for c in self.pivot_cols]

    def free_cols(self) -> list[int]:
        return [c for c in range(self.ncols) if c not in self.pivot_row]

    def kernel_vector(self, f: int) -> dict[int, Scalar]:
        """The null vector at free column f, sparse: x_f = 1, 0 at the other free columns.

        The one back-substitution of the package: x_c is read off the row
        of pivot c once every coordinate right of c is known.  Only a row
        that holds f, or a coordinate already filled in, can give a nonzero
        x_c, so rows are reached through an index from each column to the
        pivots of the rows that hold it, highest pivot first from a heap;
        no other row is visited.  Over Q a coordinate is an int wherever
        it is integral, a Fraction only where a pivot does not divide.
        """
        p = self.field.characteristic
        users = self._users()
        x: dict[int, Scalar] = {f: 1}
        queued = set(users.get(f, ()))
        todo = [-c for c in queued]   # a max-heap of pivots
        heapify(todo)
        while todo:
            c = -heappop(todo)
            row = self.pivot_row[c]
            s = 0
            for col, v in row.items():
                if col in x:   # never the pivot itself: x holds only columns right of it
                    s += v * x[col]
            if p:
                s %= p
                if not s:
                    continue
                x[c] = -s * pow(row[c], p - 2, p) % p
            elif not s:
                continue
            elif type(s) is int and s % row[c] == 0:
                x[c] = -s // row[c]
            else:
                v = Fraction(-s, row[c])
                x[c] = v.numerator if v.denominator == 1 else v
            for d in users.get(c, ()):
                if d not in queued:
                    queued.add(d)
                    heappush(todo, -d)
        return x

    def _users(self) -> dict[int, list[int]]:
        """column -> the pivots of the rows that hold it off their pivot, built on first use."""
        if self._index is None:
            self._index = {}
            for c, row in self.pivot_row.items():
                for col in row:
                    if col != c:
                        self._index.setdefault(col, []).append(c)
        return self._index

    def kernel_vectors(self) -> Iterator[dict[int, Scalar]]:
        """kernel_vector(f) for each free column f in order, each built only when asked for."""
        return (self.kernel_vector(f) for f in self.free_cols())

    def add(self, vector: dict) -> bool:
        """Reduce vector against the rows and install any residue under its
        pivot; False when vector already lies in the row space."""
        p = self.field.characteristic
        r = _normalized(vector, p)
        for c in r:   # normalizing scales every entry alike
            self.unimodular &= r[c] == vector[c]
            break
        r, divided = _reduce(r, self.pivot_row, p)
        if not r:
            return False
        c = min(r)
        self.unimodular &= not divided and r[c] in (1, -1)
        self.pivot_row[c] = r
        self._index = None   # rebuilt by the next kernel_vector
        return True


def _scale_integral(row: dict) -> dict[int, int]:
    """Clear denominators and divide by the content, keeping exactness."""
    if not row:
        return {}
    # `type(v) is int` skips the ABC instance check isinstance(v, Fraction)
    # pays for every int entry
    if all(type(v) is int for v in row.values()):
        out = row
    else:
        lcm = 1
        for v in row.values():
            if isinstance(v, Fraction):
                d = v.denominator
                lcm = lcm * d // gcd(lcm, d)
        out = {c: int(v * lcm) for c, v in row.items()}
    g = gcd(*out.values())
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return {c: v for c, v in out.items() if v}


def _normalized(row: dict, p: int) -> dict[int, int]:
    """A row in the kernel's representation: integral over Q, residues mod p."""
    if p == 0:
        return _scale_integral(row)
    return {c: v % p for c, v in row.items() if v % p}


def _reduce(r: dict[int, int], pivot_row: dict[int, dict[int, int]],
            p: int) -> tuple[dict[int, int], bool]:
    """Eliminate r against the echelon rows until its leading column is free.

    Returns the reduced row, empty when r lies in the echelon's row space,
    and whether a content was divided out on the way (never over F_p).
    """
    divided = False
    while r:
        c = min(r)
        pr = pivot_row.get(c)
        if pr is None:
            break
        if p == 0:
            a, b = pr[c], r[c]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            new = {}
            for col, v in r.items():
                new[col] = v * ma
            for col, v in pr.items():
                w = new.get(col, 0) - v * mb
                if w:
                    new[col] = w
                elif col in new:
                    del new[col]
            g2 = 0
            for v in new.values():
                g2 = gcd(g2, v)
            if g2 > 1:
                new = {col: v // g2 for col, v in new.items()}
                divided = True
            r = new
        else:
            f = (r[c] * pow(pr[c], p - 2, p)) % p
            new = dict(r)
            for col, v in pr.items():
                w = (new.get(col, 0) - f * v) % p
                if w:
                    new[col] = w
                elif col in new:
                    del new[col]
            r = new
    return r, divided


def echelonize(field: FieldSpec, rows: Iterable[dict], ncols: int) -> Echelon:
    """Reduce a spanning set of row vectors to (sparse) row echelon form.

    Short rows go to the union-find; the longer ones are projected onto its
    live roots until no pass sends it a short one (over Q, all +-1: a
    non-unit merge would cost the certificate that `_reduce` keeps), and
    the rest reach `_reduce`.  The echelon holds e_c - w_c e_root for each
    non-root c of a live component, e_c for each c of a zero component, and
    the reduced long rows, each under its pivot column.
    """
    p = field.characteristic
    # e_c = weight[c] * e_parent[c] modulo the short rows; a root, the largest
    # column of its component, has no parent entry, so every short-row
    # echelon row e_c - w e_root leads with c.  Over Q a weight is an int
    # wherever it is integral.
    parent: dict[int, int] = {}
    weight: dict[int, Scalar] = {}
    dead: set[int] = set()   # roots of components the short rows set to zero

    def find(c):
        """(root, w) with e_c = w * e_root modulo the short rows, c not a root."""
        up = parent[c]
        nxt = parent.get(up)
        if nxt is None:
            return up, weight[c]
        path = [c]
        while nxt is not None:
            path.append(up)
            up, nxt = nxt, parent.get(nxt)
        w = 1
        for node in reversed(path):
            w = weight[node] * w
            if p:
                w %= p
            elif type(w) is Fraction and w.denominator == 1:
                w = w.numerator
            weight[node] = w
            parent[node] = up
        return up, w

    ech = Echelon(field, ncols)
    unit = ech.unimodular   # see the certificate in the module docstring

    def settle(rows) -> list:
        """Read the short rows into the union-find; return the long ones' terms."""
        nonlocal unit
        longer = []
        for row in rows:   # over Q a row with no zero is read in place
            terms = ([(c, v % p) for c, v in row.items() if v % p] if p else row.items()
                     if 0 not in row.values() else [(c, v) for c, v in row.items() if v])
            if len(terms) == 2:
                (i, a), (j, b) = terms
                if i in parent:
                    i, w = find(i)
                    a *= w
                if j in parent:
                    j, w = find(j)
                    b *= w
                # a e_i + b e_j = 0 with i and j roots
                if i == j:
                    if (a + b) % p if p else a + b:
                        unit = unit and a + b in (1, -1)
                        dead.add(i)
                    continue
                unit = unit and a in (1, -1) and b in (1, -1)
                if i > j:
                    i, j, a, b = j, i, b, a
                if p:
                    w = -b * pow(a, p - 2, p) % p
                elif type(a) is int and type(b) is int and b % a == 0:
                    w = -b // a
                else:
                    w = Fraction(-b, a)
                    if w.denominator == 1:
                        w = w.numerator
                parent[i], weight[i] = j, w
                if i in dead:
                    dead.add(j)
            elif len(terms) > 2:
                longer.append(terms)
            elif terms:
                (c, v), = terms
                unit = unit and v in (1, -1)
                dead.add(find(c)[0] if c in parent else c)
        return longer

    long_rows = settle(rows)
    while True:
        settled, rest = len(parent) + len(dead), []
        for r in long_rows:
            proj: dict[int, Scalar] = {}
            for c, v in r:
                if c in parent:
                    c, w = find(c)
                    v *= w
                if c not in dead:
                    proj[c] = proj.get(c, 0) + v
            if len(proj) < len(r):   # two terms met on a root, or one died: drop zeros
                proj = {c: v for c, v in proj.items() if (v % p if p else v)}
            if len(proj) > 2 or not p and any(v not in (1, -1) for v in proj.values()):
                rest.append(proj)
            elif proj:
                settle((proj,))   # at once, so the next projection sees it
        if len(parent) + len(dead) == settled:
            break
        long_rows = [r.items() for r in rest]
    ech.unimodular &= unit
    for r in rest:
        ech.add(r)

    pivot_row = ech.pivot_row
    for c, root in parent.items():
        if root in parent:
            root, w = find(c)
        else:
            w = weight[c]
        if root in dead:
            pivot_row[c] = {c: 1}
        elif p:
            pivot_row[c] = {c: 1, root: -w % p}
        elif type(w) is int:
            pivot_row[c] = {c: 1, root: -w}
        else:
            pivot_row[c] = {c: w.denominator, root: -w.numerator}
    for c in dead:
        if c not in parent:
            pivot_row[c] = {c: 1}
    return ech


class SpanInfo(NamedTuple):
    """Rank and pivot profile of a spanning set inside a coordinate space."""

    ambient_dim: int
    rank: int
    pivot_coords: list[int]
    free_coords: list[int]

    @property
    def quotient_dim(self) -> int:
        return self.ambient_dim - self.rank


def span_info(fld: FieldSpec, vectors: Iterable[dict], ambient_dim: int) -> SpanInfo:
    """Echelon profile of span(vectors) in a space of the given dimension.

    The free coordinates are the canonical quotient representatives: the
    standard basis vectors at those coordinates project to a basis of
    ambient/span.
    """
    ech = echelonize(fld, vectors, ambient_dim)
    return SpanInfo(ambient_dim, ech.rank, ech.pivot_cols, ech.free_cols())


def in_span(fld: FieldSpec, ech: Echelon, vector: dict) -> bool:
    """Exact membership of a vector in an echelonized row space."""
    p = fld.characteristic
    return not _reduce(_normalized(vector, p), ech.pivot_row, p)[0]


class ExactMatrix:
    """A rows x cols matrix over a FieldSpec, stored as sparse row dicts."""

    def __init__(self, fld: FieldSpec, nrows: int, ncols: int,
                 rows: Optional[list[dict]] = None):
        self.field = fld
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict[int, Scalar]] = [dict() for _ in range(nrows)] if rows is None else rows
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    # -- the four operations -------------------------------------------

    def rank(self) -> int:
        return echelonize(self.field, self.rows, self.ncols).rank

    def kernel_basis(self) -> list[list[Scalar]]:
        """Canonical basis of the right null space (one vector per free column)."""
        zero = self.field.zero()
        return [[x.get(c, zero) for c in range(self.ncols)]
                for x in echelonize(self.field, self.rows, self.ncols).kernel_vectors()]

    def solve(self, b: list) -> Optional[list[Scalar]]:
        """Some x with Mx = b, or None when b is outside the column space."""
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch: len(b)=%d, nrows=%d" % (len(b), self.nrows))
        f = self.field
        bcol = self.ncols  # augmented column index
        # echelonize drops the zero entries of b
        aug = [{**row, bcol: f.element(bv)} for row, bv in zip(self.rows, b)]
        ech = echelonize(f, aug, self.ncols + 1)
        if bcol in ech.pivot_row:
            return None  # an echelon row is supported on b alone: inconsistent
        # the null vector at b's column solves M(-x) = b, free variables zero
        x = ech.kernel_vector(bcol)
        return [f.neg(x[c]) if c in x else f.zero() for c in range(self.ncols)]

    def image_profile(self) -> SpanInfo:
        """Pivot profile of the column space inside the target coordinates.

        The free coordinates index standard basis vectors of the target
        that project to a basis of the cokernel.
        """
        cols: list[dict] = [dict() for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return span_info(self.field, cols, self.nrows)
