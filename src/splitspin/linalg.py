"""Exact linear algebra over a Field on raw values.

Below the API every number is raw: an int residue in [0, p) over F_p, a
Fraction over Q (never an int, so that every quotient stays exact).
`raw_values` coerces at the API edge, through `fields.raw_value`; Scalars
come back only from the methods that hand results to callers.  Matrices
are immutable raw rows; each row's nonzero (index, value) pairs, the
Scalar view `entries` and the `kernel` are built on first use.
Elimination runs on the incremental `Echelon` basis with first-nonzero
pivots and builds no combination columns, so kernels and inverses are
deterministic: `kernel` and `kernel_raw` bases come out in echelon order
with a unit entry at each free column, and an inverse is the right half of
the reduced [M | I].  Over Q, elimination and products run on integers, with
one Fraction built per returned entry; the integer views `Echelon.kernel`
and `Echelon.rows` are positive multiples of those.  `Echelon` clears a raw
row once, where it comes in (`add`, `contains`, the `Matrix` methods), and
takes int rows as they are (the algebra's identity, eigenspaces and
closure hand it ints).  A kernel over Q runs the integer `Echelon` only
when the rank mod the fixed prime 2^61 - 1 falls short of full column
rank.  Vectors are tuples of Scalars at the API edge.
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field, Scalar, raw_value

Vector = tuple  # tuple of Scalar


def raw_values(field: Field, values: Iterable) -> list:
    """`fields.raw_value` of each value, with Scalars of the field, ints
    and Fractions over Q taken inline."""
    p = field.p
    out = []
    for x in values:
        kind = type(x)
        if kind is Scalar and (x.field is field or x.field == field):
            out.append(x.value)
        elif kind is int:
            out.append(x % p if p else Fraction(x))
        elif kind is Fraction and not p:
            out.append(x)
        else:
            out.append(raw_value(field, x))
    return out


def _reduced(p: int | None, values: Iterable) -> list:
    """Raw values brought back into [0, p) over F_p; unchanged over Q."""
    return [a % p for a in values] if p else list(values)


_RATIONAL_ZERO_ONE = (Fraction(0), Fraction(1))


def zero_one(field: Field) -> tuple:
    """The raw 0 and 1; Fractions over Q, so that sums and quotients stay exact."""
    return (0, 1) if field.p else _RATIONAL_ZERO_ONE


def cleared(values: Sequence) -> tuple[int, list[int]]:
    """(d, d v) for raw values v, d the least common multiple of their denominators:
    ints with the zeros and the ratios of the values (d = 1 over F_p)."""
    pairs = [a.as_integer_ratio() for a in values]
    d = math.lcm(*(b for _, b in pairs))
    return d, [a * (d // b) for a, b in pairs]


def boxed(field: Field, values: Iterable) -> Vector:
    """Raw values as a tuple of Scalars, for the API edge."""
    return tuple(Scalar(field, a) for a in values)


def product(p: int | None, left: Sequence[Sequence], right: Sequence[Sequence]) -> list[list]:
    """The product of two raw matrices given by their rows, as raw rows; no
    coercion.  Over Q it runs on integers: the right factor times the lcm d
    of its denominators, each left row times the lcm a of its own, and one
    Fraction c / (a d) per nonzero entry."""
    if p:
        columns = list(zip(*right))
        return [[sum(map(operator.mul, row, column)) % p for column in columns] for row in left]
    width = len(right[0])
    d, flat = cleared([b for row in right for b in row])
    columns = [flat[j::width] for j in range(width)]
    zero, out = _RATIONAL_ZERO_ONE[0], []
    for row in left:
        a, ints = cleared(row)
        sums = (sum(map(operator.mul, ints, column)) for column in columns)
        out.append([Fraction(c, a * d) if c else zero for c in sums])
    return out


class Matrix:
    """An exact rows x cols matrix over a single field, stored raw."""

    __slots__ = ("field", "raw", "_nonzeros", "_entries", "_kernel")

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        rows = [raw_values(field, row) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        self._store(field, rows)

    @classmethod
    def _from_raw(cls, field: Field, rows: Iterable[Sequence]) -> Matrix:
        """A matrix on rows of already reduced raw values; no coercion."""
        m = cls.__new__(cls)
        m._store(field, rows)
        return m

    def _store(self, field: Field, rows: Iterable[Sequence]) -> None:
        self.field = field
        self.raw = tuple(map(tuple, rows))
        self._nonzeros = None
        self._entries = None
        self._kernel = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        zero, one = zero_one(field)
        return cls._from_raw(field, ([one if i == j else zero for j in range(n)] for i in range(n)))

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence]) -> Matrix:
        cols = [raw_values(field, c) for c in columns]
        if not cols or not cols[0]:
            raise ValueError("need at least one nonempty column")
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged columns")
        return cls._from_raw(field, zip(*cols))

    # -- basic structure -----------------------------------------------------

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The rows as Scalars, built once."""
        if self._entries is None:
            self._entries = tuple(boxed(self.field, row) for row in self.raw)
        return self._entries

    @property
    def _sparse(self) -> tuple[list, ...]:
        """Each row's nonzero (column, raw value) pairs, built once."""
        if self._nonzeros is None:
            self._nonzeros = tuple([(j, a) for j, a in enumerate(row) if a] for row in self.raw)
        return self._nonzeros

    @property
    def rows(self) -> int:
        return len(self.raw)

    @property
    def cols(self) -> int:
        return len(self.raw[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> Matrix:
        return Matrix._from_raw(self.field, zip(*self.raw))

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.raw[i][j] == self.raw[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.raw == other.raw

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> Matrix:
        p = self.field.p
        return Matrix._from_raw(self.field, (_reduced(p, (-a for a in row)) for row in self.raw))

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix._from_raw(self.field, product(self.field.p, self.raw, other.raw))

    def apply(self, vec: Sequence) -> Vector:
        v = raw_values(self.field, vec)
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return boxed(self.field, self.apply_raw(v))

    def apply_raw(self, v: Sequence) -> tuple:
        """`apply` on a reduced raw vector, giving a raw tuple; no coercion."""
        zero, p = zero_one(self.field)[0], self.field.p
        out = []
        for nonzeros in self._sparse:
            acc = zero
            for j, a in nonzeros:
                x = v[j]
                if x:
                    acc += a * x
            out.append(acc % p if p else acc)
        return tuple(out)

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        span = Echelon(self.field, self.raw)
        zero = [zero_one(self.field)[0]] * self.cols
        rows = span.unit_rows() + [zero] * (self.rows - span.rank)
        return Matrix._from_raw(self.field, rows), tuple(span.pivots)

    def rank(self) -> int:
        return Echelon(self.field, self.raw).rank

    def kernel(self) -> tuple[Vector, ...]:
        """Deterministic basis of the null space, one vector per free column;
        built once."""
        if self._kernel is None:
            self._kernel = tuple(boxed(self.field, v) for v in self.kernel_raw())
        return self._kernel

    def kernel_raw(self) -> list[list]:
        """`kernel` as raw vectors: the `Echelon.kernel` vectors, each divided
        by its entry at its free column over Q, where the cleared rows come
        first to a certificate: full column rank mod P = 2^61 - 1 proves the
        kernel empty (a minor nonzero mod P is nonzero over Z)."""
        p = self.field.p
        rows = self.raw if p else [cleared(row)[1] for row in self.raw]
        if not p and _full_rank_mod(rows, self.cols):
            return []
        span = Echelon._from_ints(self.field, rows)
        basis = span.kernel(self.cols)
        if p:
            return basis
        pivots = set(span.pivots)
        free = [c for c in range(self.cols) if c not in pivots]
        return [[Fraction(a, v[f]) for a in v] for f, v in zip(free, basis)]

    def inverse(self) -> Matrix | None:
        """The exact inverse, or None if the matrix is singular: the right
        half of the reduced form of [M | I]."""
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        scales, rows = (None, self.raw) if self.field.p else zip(*map(cleared, self.raw))
        span = Echelon.inverting(self.field, rows, scales)
        return None if span is None else Matrix._from_raw(self.field, (row[self.rows:] for row in span.unit_rows()))


class Echelon:
    """An incrementally built reduced echelon basis of a subspace of F^n.

    Rows vanish at every other row's pivot and are kept sorted by pivot, so
    `unit_rows`, which scales them to unit pivots, is the subspace's reduced
    row echelon form.  Over F_p rows are residues with unit pivots.  Over Q
    they are primitive integers (content 1, positive pivot entry): a raw
    vector is cleared of denominators once, on the way in (`add`,
    `contains`), an int one is taken as it is (`_insert`,
    `_from_ints`, `inverting`), and each step v <- q v - v[c] row divides
    out its content.  Every vector must have the length of the first one.
    """

    __slots__ = ("field", "_rows", "_width")

    def __init__(self, field: Field, vectors: Iterable[Sequence] = ()):
        self.field = field
        self._rows: list[tuple[int, list]] = []  # (pivot, row)
        self._width: int | None = None
        for vec in vectors:
            self.add(vec)

    @classmethod
    def _from_ints(cls, field: Field, rows: Iterable[Sequence]) -> Echelon:
        """The basis of int rows of one length (residues in [0, p) over
        F_p), taken as they are."""
        span = cls(field)
        for row in rows:
            span._insert(row)
        return span

    @classmethod
    def inverting(cls, field: Field, rows: Sequence[Sequence], scales: Sequence[int] | None = None) -> Echelon | None:
        """The basis of [M | S] for the n x n int rows M (residues over F_p)
        and the diagonal S of the scales (I by default), or None when M is
        singular.  Row t's right half is row t of M^-1 S times the row's
        pivot entry q_t (1 over F_p)."""
        n = len(rows)
        span = cls._from_ints(field, (list(row) + [s if j == i else 0 for j in range(n)]
                                      for i, (row, s) in enumerate(zip(rows, scales or [1] * n))))
        return None if span.pivots[-1] >= n else span

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return [pivot for pivot, _ in self._rows]

    @property
    def rows(self) -> list[list]:
        """The rows as held, raw, in pivot order: unit-pivot residues over
        F_p, primitive ints with a positive pivot entry over Q."""
        return [row for _, row in self._rows]

    def unit_rows(self) -> list[list]:
        """The rows scaled to unit pivots, raw, in pivot order."""
        zero, p = zero_one(self.field)[0], self.field.p
        return [row if p else [Fraction(a, row[c]) if a else zero for a in row] for c, row in self._rows]

    def kernel(self, width: int) -> list[list[int]]:
        """An int vector of the rows' null space for each free column f < width,
        in column order: over F_p the unit entry 1 at f and -row[f] at each
        row's pivot; over Q m times that vector, m the lcm of the pivot entries
        row[c] of the rows with row[f] != 0, so m at f and -row[f] (m // row[c]) at c."""
        p, pivots = self.field.p, set(self.pivots)
        basis = []
        for f in (c for c in range(width) if c not in pivots):
            rows = [(c, row) for c, row in self._rows if row[f]]
            m = 1 if p else math.lcm(*(row[c] for c, row in rows))
            v = [0] * width
            v[f] = m
            for c, row in rows:
                v[c] = -row[f] % p if p else -row[f] * (m // row[c])
            basis.append(v)
        return basis

    def _raw(self, vec: Sequence) -> list:
        v = raw_values(self.field, vec)
        if self._width is None:
            self._width = len(v)
        elif len(v) != self._width:
            raise DimensionMismatch("vector length does not match the echelon basis")
        return v if self.field.p else cleared(v)[1]

    def _reduce(self, v: Sequence) -> list:
        """The int vector v minus its part in the span, times a nonzero
        integer over Q.  Each F_p step adds < p^2, so mod p comes at the end."""
        p = self.field.p
        for pivot, row in self._rows:
            f = v[pivot] % p if p else v[pivot]  # rows vanish at each other's pivots
            if f:
                v = _eliminate(p, v, f, row[pivot], row)
        return [a % p for a in v] if p else v

    def add(self, vec: Sequence) -> bool:
        """Insert vec; False (and no change) when it is already in the span."""
        return self._insert(self._raw(vec))

    def _insert(self, v: Sequence) -> bool:
        """`add` on an int vector (residues over F_p); no coercion."""
        r = self._reduce(v)
        pivot = next((c for c, a in enumerate(r) if a), None)
        if pivot is None:
            return False
        p = self.field.p
        # the one field-specific step: a unit pivot over F_p, content 1 and a positive pivot over Q
        s = pow(r[pivot], -1, p) if p else math.gcd(*r) * (1 if r[pivot] > 0 else -1)
        row = [a * s % p for a in r] if p else [a // s for a in r]
        rows = self._rows
        for k, (c, other) in enumerate(rows):
            f = other[pivot]
            if f:
                rows[k] = (c, _reduced(p, _eliminate(p, other, f, row[pivot], row)))
        bisect.insort(rows, (pivot, row))
        return True

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(self._raw(vec)))


def _eliminate(p: int | None, v: list, f: int, q: int, row: list) -> list:
    """q v - f row, for the pivot entry q of row and the entry f of v there:
    left unreduced over F_p (where q is 1), divided by its content over Q."""
    if q == 1:
        v = [a - f * b if b else a for a, b in zip(v, row)]
    else:
        g = math.gcd(q, f)
        q, f = q // g, f // g
        v = [q * a - f * b if b else q * a for a, b in zip(v, row)]
    g = 1 if p else math.gcd(*v)
    return [a // g for a in v] if g > 1 else v


CERTIFICATE_PRIME = 2**61 - 1


def _full_rank_mod(rows: Iterable[Sequence[int]], width: int) -> bool:
    """Whether the int rows have rank `width` mod P = CERTIFICATE_PRIME, by forward
    elimination; an entry is reduced only in the pivot column (a step adds < P^2)."""
    rows = [[a % CERTIFICATE_PRIME for a in row] for row in rows]
    for _ in range(width):
        heads = [row[0] % CERTIFICATE_PRIME for row in rows]
        at = next((i for i, h in enumerate(heads) if h), None)
        if at is None:
            return False
        f, pivot = pow(heads.pop(at), -1, CERTIFICATE_PRIME), rows.pop(at)
        tail = [b * f % CERTIFICATE_PRIME for b in pivot[1:]]
        rows = [[a - h * b for a, b in zip(row[1:], tail)] if h else row[1:] for row, h in zip(rows, heads)]
    return True


def same_span(field: Field, first: Sequence[Vector], second: Sequence[Vector]) -> bool:
    """Whether two vector lists span the same subspace."""
    span = Echelon(field, first)
    return span.rank == Echelon(field, second).rank and all(map(span.contains, second))
