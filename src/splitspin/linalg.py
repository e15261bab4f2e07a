"""Exact linear algebra over a Field on raw values.

Below the API every number is raw: an int residue in [0, p) over F_p, a
Fraction over Q (never an int, so that every quotient stays exact).
`raw_values` coerces at the API edge, through `fields.raw_value`; Scalars
come back only from the methods that hand results to callers.  Matrices
are immutable raw rows; each row's nonzero (column, value) pairs, the
Scalar view `entries` and the `kernel` are built on first use.
Elimination runs on the incremental `Echelon` basis with first-nonzero
pivots and builds no combination columns, so kernels and inverses are
deterministic: kernel bases come out in echelon order with a unit entry at
each free column, and an inverse is the right half of the reduced [M | I].
Over Q, elimination and products run on integers, with one Fraction built
per returned entry.  Vectors are tuples of Scalars at the API edge.
"""

from __future__ import annotations

import bisect
import math
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
    def diagonal(cls, field: Field, diag: Sequence) -> Matrix:
        d, zero = raw_values(field, diag), zero_one(field)[0]
        n = len(d)
        return cls._from_raw(field, ([d[i] if i == j else zero for j in range(n)] for i in range(n)))

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
        zero, p, width = zero_one(self.field)[0], self.field.p, other.cols
        right = other._sparse
        if not p:  # over Q, the right factor as ints times the lcm d of its denominators
            d = math.lcm(*(b.denominator for nonzeros in right for _, b in nonzeros))
            right = [[(j, b.numerator * (d // b.denominator)) for j, b in nonzeros] for nonzeros in right]
        out = []
        for nonzeros in self._sparse:
            if not p:  # and each left row times its own lcm a
                a = math.lcm(*(x.denominator for _, x in nonzeros))
                nonzeros = [(k, x.numerator * (a // x.denominator)) for k, x in nonzeros]
            acc = [0] * width
            for k, x in nonzeros:
                for j, y in right[k]:
                    acc[j] += x * y
            out.append([c % p for c in acc] if p else [Fraction(c, a * d) if c else zero for c in acc])
        return Matrix._from_raw(self.field, out)

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

    def apply_sparse(self, pairs: Sequence[tuple[int, object]]) -> tuple:
        """`apply_raw` on the raw vector whose nonzero entries are the
        (index, value) pairs; no coercion."""
        zero, p = zero_one(self.field)[0], self.field.p
        out = []
        for row in self.raw:
            acc = zero
            for k, c in pairs:
                a = row[k]
                if a:
                    acc += a * c
            out.append(acc % p if p else acc)
        return tuple(out)

    def pow(self, k: int) -> Matrix:
        """Exact k-th power by repeated squaring; M**0 is the identity."""
        if not self.is_square:
            raise DimensionMismatch("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = Matrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        span = Echelon._from_raw(self.field, self.raw)
        zero = [zero_one(self.field)[0]] * self.cols
        rows = span.unit_rows() + [zero] * (self.rows - span.rank)
        return Matrix._from_raw(self.field, rows), tuple(span.pivots)

    def rank(self) -> int:
        return Echelon._from_raw(self.field, self.raw).rank

    def kernel(self) -> tuple[Vector, ...]:
        """Deterministic basis of the null space, one vector per free column;
        built once."""
        if self._kernel is None:
            self._kernel = tuple(boxed(self.field, v) for v in self.kernel_raw())
        return self._kernel

    def kernel_raw(self) -> list[list]:
        """`kernel` as raw vectors."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        zero, one = zero_one(self.field)
        p = self.field.p
        basis = []
        for f in (c for c in range(self.cols) if c not in pivot_set):
            v = [zero] * self.cols
            v[f] = one
            for r, c in enumerate(pivots):
                v[c] = -reduced.raw[r][f]
            basis.append(_reduced(p, v))
        return basis

    def inverse(self) -> Matrix | None:
        """The exact inverse, or None if the matrix is singular: the right
        half of the reduced form of [M | I]."""
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        zero, one = zero_one(self.field)
        augmented = (row + tuple(one if j == i else zero for j in range(n))
                     for i, row in enumerate(self.raw))
        span = Echelon._from_raw(self.field, augmented)
        if span.pivots[-1] >= n:
            return None
        return Matrix._from_raw(self.field, (row[n:] for row in span.unit_rows()))


class Echelon:
    """An incrementally built reduced echelon basis of a subspace of F^n.

    Rows vanish at every other row's pivot and are kept sorted by pivot, so
    `unit_rows`, which scales them to unit pivots, is the subspace's reduced
    row echelon form.  Over F_p rows are residues with unit pivots.  Over Q
    they are primitive integers (content 1, positive pivot entry): a vector
    is cleared of denominators once, and each step v <- q v - v[c] row
    divides out its content.  Every vector must have the length of the
    first one seen.
    """

    __slots__ = ("field", "_rows", "_width")

    def __init__(self, field: Field, vectors: Iterable[Sequence] = ()):
        self.field = field
        self._rows: list[tuple[int, list]] = []  # (pivot, row)
        self._width: int | None = None
        for vec in vectors:
            self.add(vec)

    @classmethod
    def _from_raw(cls, field: Field, rows: Iterable[Sequence]) -> Echelon:
        """The basis of raw rows of one length (residues in [0, p) over
        F_p); no coercion."""
        span = cls(field)
        for row in rows:
            span._insert(row)
        return span

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return [pivot for pivot, _ in self._rows]

    def unit_rows(self) -> list[list]:
        """The rows scaled to unit pivots, raw, in pivot order."""
        zero, p = zero_one(self.field)[0], self.field.p
        return [row if p else [Fraction(a, row[c]) if a else zero for a in row] for c, row in self._rows]

    def _raw(self, vec: Sequence) -> list:
        v = raw_values(self.field, vec)
        if self._width is None:
            self._width = len(v)
        elif len(v) != self._width:
            raise DimensionMismatch("vector length does not match the echelon basis")
        return v

    def _reduce(self, v: Sequence) -> list:
        """The raw vector v minus its part in the span, times a nonzero
        integer over Q.  Each F_p step adds < p^2, so mod p comes at the end."""
        p = self.field.p
        v = v if p else cleared(v)[1]
        for pivot, row in self._rows:
            f = v[pivot] % p if p else v[pivot]  # rows vanish at each other's pivots
            if f:
                v = _eliminate(p, v, f, row[pivot], row)
        return [a % p for a in v] if p else v

    def add(self, vec: Sequence) -> bool:
        """Insert vec; False (and no change) when it is already in the span."""
        return self._insert(self._raw(vec))

    def _insert(self, v: Sequence) -> bool:
        """`add` on a raw vector; no coercion."""
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


def same_span(field: Field, first: Sequence[Vector], second: Sequence[Vector]) -> bool:
    """Whether two vector lists span the same subspace."""
    span = Echelon(field, first)
    return span.rank == Echelon(field, second).rank and all(map(span.contains, second))
