"""Exact linear algebra over a Field on raw values.

Below the API every number is raw: an int residue in [0, p) over F_p, a
Fraction over Q (never an int, so that every quotient stays exact).
`raw_values` is the one place that coerces, at the API edge; Scalars come
back only from the methods that hand results to callers.  Matrices are
immutable raw rows plus each row's nonzero (column, value) pairs, and
`entries` is a cached Scalar view of the rows.  Elimination runs on the
incremental `Echelon` basis with first-nonzero pivots, so kernels,
solutions and inverses are deterministic: kernel bases come out in echelon
order with a unit entry at each free column.  Vectors are tuples of
Scalars at the API edge.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field, Scalar

Vector = tuple  # tuple of Scalar


def raw_values(field: Field, values: Iterable) -> list:
    """The raw values of Scalars of the field, ints, Fractions or "a/b"
    strings; a Scalar of another field raises FieldMismatch."""
    p = field.p
    out = []
    for x in values:
        kind = type(x)
        if kind is Scalar:
            if x.field is not field and x.field != field:
                raise FieldMismatch(f"scalar over {x.field!r} used over {field!r}")
            out.append(x.value)
        elif kind is int:
            out.append(x % p if p else Fraction(x))
        elif kind is Fraction and not p:
            out.append(x)
        else:
            out.append(field.scalar(x).value)
    return out


def _reduced(p: int | None, values: Iterable) -> list:
    """Raw values brought back into [0, p) over F_p; unchanged over Q."""
    return [a % p for a in values] if p else list(values)


_RATIONAL_ZERO_ONE = (Fraction(0), Fraction(1))


def zero_one(field: Field) -> tuple:
    """The raw 0 and 1; Fractions over Q, so that sums and quotients stay exact."""
    return (0, 1) if field.p else _RATIONAL_ZERO_ONE


def boxed(field: Field, values: Iterable) -> Vector:
    """Raw values as a tuple of Scalars, for the API edge."""
    return tuple(Scalar(field, a) for a in values)


def zero_vector(field: Field, n: int) -> Vector:
    return (field.zero(),) * n


def basis_vector(field: Field, n: int, i: int) -> Vector:
    coords = [field.zero()] * n
    coords[i] = field.one()
    return tuple(coords)


def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero for a in u)


class Matrix:
    """An exact rows x cols matrix over a single field, stored raw."""

    __slots__ = ("field", "raw", "_nonzeros", "_entries")

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
        self._nonzeros = tuple([(j, a) for j, a in enumerate(row) if a] for row in self.raw)
        self._entries = None

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
        out = []
        for nonzeros in self._nonzeros:
            acc = [zero] * width
            for k, a in nonzeros:
                for j, b in other._nonzeros[k]:
                    acc[j] += a * b
            out.append(_reduced(p, acc))
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
        for nonzeros in self._nonzeros:
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

    def bilinear(self, u: Sequence, v: Sequence) -> Scalar:
        """u^T M v."""
        u, v = raw_values(self.field, u), raw_values(self.field, v)
        if len(u) != self.rows or len(v) != self.cols:
            raise DimensionMismatch("vector lengths do not match the matrix shape")
        acc = zero_one(self.field)[0]
        for a, x in zip(u, self.apply_raw(v)):
            if a and x:
                acc += a * x
        p = self.field.p
        return Scalar(self.field, acc % p if p else acc)

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
        span = Echelon(self.field, self.raw)
        zero = [zero_one(self.field)[0]] * self.cols
        rows = [row for _, row, _ in span._rows] + [zero] * (self.rows - span.rank)
        return Matrix._from_raw(self.field, rows), tuple(pivot for pivot, _, _ in span._rows)

    def rank(self) -> int:
        return Echelon(self.field, self.raw).rank

    def kernel(self) -> tuple[Vector, ...]:
        """Deterministic basis of the null space, one vector per free column."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        zero, one = zero_one(self.field)
        basis = []
        for f in (c for c in range(self.cols) if c not in pivot_set):
            v = [zero] * self.cols
            v[f] = one
            for r, c in enumerate(pivots):
                v[c] = -reduced.raw[r][f]
            basis.append(boxed(self.field, _reduced(self.field.p, v)))
        return tuple(basis)

    def solve(self, rhs: Sequence) -> Vector | None:
        """One exact solution of self @ x = rhs, or None if inconsistent;
        x is zero at every column in the span of the columns before it."""
        if len(rhs) != self.rows:
            raise DimensionMismatch("right-hand side length does not match row count")
        span = Echelon(self.field)
        pivots = [c for c, column in enumerate(zip(*self.raw)) if span.add(column)]
        coords = span.coordinates(rhs)
        if coords is None:
            return None
        values, zero = dict(zip(pivots, coords)), self.field.zero()
        return tuple(values.get(c, zero) for c in range(self.cols))

    def inverse(self) -> Matrix | None:
        """The exact inverse, or None if the matrix is singular."""
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        span = Echelon(self.field, zip(*self.raw))
        if span.rank < n:
            return None
        zero, one = zero_one(self.field)
        columns = [span._reduce([one if j == i else zero for j in range(n)])[1] for i in range(n)]
        return Matrix._from_raw(self.field, zip(*columns))


class Echelon:
    """An incrementally built reduced echelon basis of a subspace of F^n.

    Rows have unit pivots, vanish at every other row's pivot and are kept
    sorted by pivot, so they are the subspace's reduced row echelon form.
    Each row carries its combination of the vectors `add` accepted, which
    gives `coordinates`.  Entries are raw; every vector must have the
    length of the first one seen.
    """

    __slots__ = ("field", "_rows", "_width")

    def __init__(self, field: Field, vectors: Iterable[Sequence] = ()):
        self.field = field
        self._rows: list[tuple[int, list, list]] = []  # (pivot, row, combination)
        self._width: int | None = None
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _raw(self, vec: Sequence) -> list:
        v = raw_values(self.field, vec)
        if self._width is None:
            self._width = len(v)
        elif len(v) != self._width:
            raise DimensionMismatch("vector length does not match the echelon basis")
        return v

    def _reduce(self, v: list) -> tuple[list, list]:
        """The raw vector v minus its part in the span, and that part as a
        combination of the accepted vectors.  Each F_p step adds < p^2, so
        mod p comes at the end."""
        p = self.field.p
        x = [zero_one(self.field)[0]] * len(self._rows)
        for pivot, row, comb in self._rows:
            f = v[pivot] % p if p else v[pivot]  # rows vanish at each other's pivots
            if f:
                v = [a - f * b if b else a for a, b in zip(v, row)]
                x = [a + f * b if b else a for a, b in zip(x, comb)]
        return _reduced(p, v), _reduced(p, x)

    def add(self, vec: Sequence) -> bool:
        """Insert vec; False (and no change) when it is already in the span."""
        v, x = self._reduce(self._raw(vec))
        pivot = next((c for c, a in enumerate(v) if a), None)
        if pivot is None:
            return False
        p = self.field.p
        inv = pow(v[pivot], -1, p) if p else 1 / v[pivot]
        row = _reduced(p, (a * inv for a in v))
        comb = _reduced(p, [-a * inv for a in x] + [inv])  # v = vec - sum(x_i accepted_i)
        zero = zero_one(self.field)[0]
        rows = [(c, r, cb + [zero]) for c, r, cb in self._rows]
        for k, (c, r, cb) in enumerate(rows):
            f = r[pivot]
            if f:
                rows[k] = (c, _reduced(p, (a - f * b for a, b in zip(r, row))),
                           _reduced(p, (a - f * b for a, b in zip(cb, comb))))
        bisect.insort(rows, (pivot, row, comb))
        self._rows = rows
        return True

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(self._raw(vec))[0])

    def coordinates(self, vec: Sequence) -> Vector | None:
        """The unique coefficients of vec in the accepted vectors, in the
        order `add` accepted them, or None if vec is outside the span."""
        v, x = self._reduce(self._raw(vec))
        return None if any(v) else boxed(self.field, x)

    def rref(self) -> tuple[list[Vector], tuple[int, ...]]:
        """The reduced rows, sorted by pivot, and their pivot columns."""
        rows = [boxed(self.field, row) for _, row, _ in self._rows]
        return rows, tuple(pivot for pivot, _, _ in self._rows)


def span_rank(field: Field, vectors: Sequence[Vector]) -> int:
    return Echelon(field, vectors).rank


def same_span(field: Field, first: Sequence[Vector], second: Sequence[Vector]) -> bool:
    """Whether two vector lists span the same subspace."""
    span = Echelon(field, first)
    return span.rank == span_rank(field, second) and all(map(span.contains, second))
