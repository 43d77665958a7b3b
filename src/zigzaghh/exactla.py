"""Exact linear algebra over Q and prime fields F_p.

Every rank, kernel, cokernel and membership question in this package is
answered here exactly: integers and rationals over Q, residues mod p
otherwise, in sparse rows (one dict each).  Elimination is structured
(LaMacchia and Odlyzko, *Solving large sparse linear systems over finite
fields*, 1990).  A weighted union-find over the columns settles the rows
with one or two terms, keeping e_c = w_c e_root modulo them, the root
being the largest column of its component; a one-term row, or a cycle
whose weights disagree, sets a whole component to zero.  The longer rows
are projected onto the live roots to a fixpoint: each projection that has
become short goes to the union-find at once (Ginzburg columns of E~8 at
q = 10: 509 of 639 are short after one pass).  What is left reaches the
sparse core, fraction-free over Q (a cross-multiplication, then a gcd
division).  Pivots are taken in increasing column order, so the pivot set
depends only on the row space, and ranks, kernels and quotient
representatives are reproducible.

Over Q the steps split in two.  The unit part E takes the union-find
merges, kills and cycle closings by +-1 (e_i + 2 e_j goes to the core,
where its pivot is 1), and the core rows that reduce against +-1 pivots,
dividing out no content, to a pivot +-1.  Every other step sends its row,
integral as it stood, to the residual S, reduced against E's pivots (all
+-1, so over Z) before it is eliminated.  Unit steps are unimodular, so
for integral rows E and S span the input's Z-lattice; E's rows stay
independent mod every p, and S holds none of their pivots.  So over Q and
every F_p the rank is |E| + rank(S), and the free columns are E's less
S's pivots: the `record` (|E|, E's free columns, S) answers every field by
eliminating S alone.  `unimodular`, the certificate, says S is empty.  A
row that holds a Fraction leaves no record.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .reports import Frozen

Scalar = Union[int, "Fraction"]   # fractions is imported where a value leaves Z


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
        if p and type(value) is int:   # skips the ABC instance check below
            return value % p
        from fractions import Fraction
        if p == 0:
            return value if isinstance(value, Fraction) else Fraction(value)
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
# sparse echelon core: a row {column: nonzero entry} is reduced against the
# pivots, then claims its leading column, so the pivots are the rank profile
# of the row space, whatever the input order or the rows the union-find settled
# ---------------------------------------------------------------------------


class Record(NamedTuple):
    """What a Q elimination of integral rows leaves every field (module docstring)."""

    rank: int                      # |E|
    free: list[int]                # E's free columns
    residual: list[dict[int, int]]   # S, reduced against E

    def profile(self, fld: FieldSpec) -> tuple[int, list[int]]:
        """Rank and free columns of the recorded rows over fld, S eliminated alone."""
        if not self.residual:
            return self.rank, self.free
        s = echelonize(fld, self.residual, self.rank + len(self.free)).pivot_row
        return self.rank + len(s), [c for c in self.free if c not in s]


class Echelon:
    """Result of forward elimination: the echelon rows by their pivot column."""

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self.pivot_row: dict[int, dict[int, int]] = {}   # pivot column -> its row
        self._index: Optional[dict[int, list[int]]] = None   # see _users
        self._refused: Optional[list[dict]] = None   # S while echelonize runs over Q
        self._residual: Optional[list[dict]] = [] if field.characteristic == 0 else None   # S
        self._s_pivots: list[int] = []   # where S's rows went over Q

    @property
    def unimodular(self) -> bool:
        """The certificate: S is empty."""
        return self._residual == []

    def record(self) -> Optional[Record]:
        """(|E|, E's free columns, S) of a Q elimination of integral rows, else None."""
        if self._residual is None:
            return None
        free = sorted(self.free_cols() + self._s_pivots)
        return Record(self.ncols - len(free), free, self._residual)

    def mod(self, fld: FieldSpec) -> Echelon:
        """The F_p echelon of the recorded rows: E's, shared (+-1 pivots), and S's mod p."""
        ech = echelonize(fld, self._residual, self.ncols)
        s = set(self._s_pivots)
        ech.pivot_row.update((c, r) for c, r in self.pivot_row.items() if c not in s)
        return ech

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
                from fractions import Fraction
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
        pivot; False when vector already lies in the row space.  While
        echelonize runs over Q, a row that a step other than +-1 would install
        goes to S as it stood; once it has run, a row installed voids the record."""
        p = self.field.characteristic
        n = _normalized(vector, p)
        r, divided = _reduce(n, self.pivot_row, p)
        if not r:
            return False
        c = min(r)
        if self._refused is None:
            self._residual = None
        elif divided or r[c] not in (1, -1) or n != vector:
            self._refused.append(vector)
            return True
        self.pivot_row[c] = r
        self._index = None   # rebuilt by the next kernel_vector
        return True


def _normalized(row: dict, p: int) -> dict[int, int]:
    """A row in the kernel's representation: residues mod p, or over Q
    integral, denominators cleared and the content divided out."""
    if p:
        return {c: v % p for c, v in row.items() if v % p}
    if not all(type(v) is int for v in row.values()):
        m = lcm(*(v.denominator for v in row.values()))   # an int's is 1
        row = {c: int(v * m) for c, v in row.items()}
    g = gcd(*row.values()) or 1
    return {c: v // g for c, v in row.items() if v}


def _reduce(r: dict[int, int], pivot_row: dict[int, dict[int, int]],
            p: int, full: bool = False) -> tuple[dict[int, int], bool]:
    """Eliminate r against the echelon rows until its leading column is free,
    or, full, until it holds no pivot column, dividing out no content: the
    reduced row, empty when r lies in the row space, and whether a content
    was divided out on the way (never over F_p)."""
    divided = False
    while r:
        c = min(filter(pivot_row.__contains__, r), default=None) if full else min(r)
        pr = pivot_row.get(c)
        if pr is None:
            break
        if p == 0:
            a, b = pr[c], r[c]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            new = {col: v * ma for col, v in r.items()}
            for col, v in pr.items():
                w = new.get(col, 0) - v * mb
                if w:
                    new[col] = w
                elif col in new:
                    del new[col]
            g2 = 1 if full else gcd(*new.values())
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
    """Reduce a spanning set of row vectors to (sparse) row echelon form: e_c
    - w_c e_root for each non-root c of a live component, e_c for each c of a
    zero component, the long rows `add` reduced, and over Q S's echelon, each
    under its pivot column (module docstring)."""
    p = field.characteristic
    # e_c = weight[c] * e_parent[c] modulo the short rows; a root, the largest
    # column of its component, has no parent entry, so every short-row
    # echelon row e_c - w e_root leads with c.  Over Q a weight is +-1.
    parent: dict[int, int] = {}
    weight: dict[int, int] = {}
    dead: set[int] = set()   # roots of components the short rows set to zero
    ech = Echelon(field, ncols)
    refused: list[dict] = []   # S, over Q

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
            w = weight[node] * w % p if p else weight[node] * w
            weight[node] = w
            parent[node] = up
        return up, w

    def settle(rows) -> list:
        """Read the short rows into the union-find; return the long ones' terms."""
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
                # a e_i + b e_j = 0, i and j roots: over Q a cycle closes on 0 or +-2 e_i
                if not p and (a not in (1, -1) or b not in (1, -1) or i == j and a + b):
                    refused.append(dict(terms))
                elif i == j:
                    if p and (a + b) % p:
                        dead.add(i)
                else:
                    if i > j:
                        i, j, a, b = j, i, b, a
                    parent[i], weight[i] = j, -b * pow(a, p - 2, p) % p if p else int(-a * b)
                    if i in dead:
                        dead.add(j)
            elif len(terms) > 2:
                longer.append(terms)
            elif terms:
                (c, v), = terms
                if p or v in (1, -1):
                    dead.add(find(c)[0] if c in parent else c)
                else:
                    refused.append(dict(terms))
        return longer

    def project(terms) -> dict:
        """The row of terms read on the live roots."""
        proj: dict[int, Scalar] = {}
        for c, v in terms:
            if c in parent:
                c, w = find(c)
                v *= w
            if c not in dead:
                proj[c] = proj.get(c, 0) + v
        if len(proj) < len(terms):   # two terms met on a root, or one died: drop zeros
            proj = {c: v for c, v in proj.items() if (v % p if p else v)}
        return proj

    long_rows = settle(rows)
    while True:
        settled, rest = len(parent) + len(dead), []
        for r in long_rows:
            proj = project(r)
            if len(proj) > 2 or not p and any(v not in (1, -1) for v in proj.values()):
                rest.append(proj)
            elif proj:
                settle((proj,))   # at once, so the next projection sees it
        if len(parent) + len(dead) == settled:
            break
        long_rows = [r.items() for r in rest]
    ech._refused = None if p else refused
    for r in rest:
        ech.add(r)
    ech._refused = None
    pivot_row = ech.pivot_row
    if refused:   # S, read on the live roots, then reduced against E's +-1 pivots: over Z
        refused = [project(r.items()) for r in refused]
        if any(type(v) is not int for r in refused for v in r.values()):
            ech._residual = None   # a value off the integers leaves no lattice to record
        else:
            reduced = (_reduce(r, pivot_row, 0, full=True)[0] for r in refused)
            ech._residual = refused = [r for r in reduced if r]
    for c, root in parent.items():
        root, w = find(c) if root in parent else (root, weight[c])
        pivot_row[c] = {c: 1} if root in dead else {c: 1, root: -w % p if p else -w}
    for c in dead:
        if c not in parent:
            pivot_row[c] = {c: 1}
    for r in refused:   # S's echelon over Q
        r = _reduce(_normalized(r, 0), pivot_row, 0)[0]
        if r:
            ech._s_pivots.append(min(r))
            pivot_row[min(r)] = r
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
