"""Dense exact linear algebra over a Field.

Matrices are immutable grids of Scalars.  Elimination uses exact division
with first-nonzero pivot selection, so kernels, solutions and inverses are
deterministic: kernel bases come out in echelon order with a unit entry at
each free column.  Vectors are plain tuples of Scalars.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field, Scalar

Vector = tuple  # tuple of Scalar


def as_vector(field: Field, values: Iterable) -> Vector:
    return tuple(field.scalar(v) for v in values)


def zero_vector(field: Field, n: int) -> Vector:
    zero = field.zero()
    return tuple(zero for _ in range(n))


def basis_vector(field: Field, n: int, i: int) -> Vector:
    coords = [field.zero()] * n
    coords[i] = field.one()
    return tuple(coords)


def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero for a in u)


class Matrix:
    """An exact rows x cols matrix over a single field."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        rows = tuple(tuple(field.scalar(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.entries = rows

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> Matrix:
        zero = field.zero()
        return cls(field, [[zero] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, field: Field, diag: Sequence) -> Matrix:
        d = [field.scalar(x) for x in diag]
        zero = field.zero()
        return cls(field, [[d[i] if i == j else zero for j in range(len(d))] for i in range(len(d))])

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence]) -> Matrix:
        cols = [tuple(field.scalar(x) for x in c) for c in columns]
        if not cols:
            raise ValueError("need at least one column")
        return cls(field, [[c[i] for c in cols] for i in range(len(cols[0]))])

    # -- basic structure -----------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> Matrix:
        return Matrix(self.field, list(zip(*self.entries)))

    def trace(self) -> Scalar:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"

    # -- arithmetic ----------------------------------------------------------

    def _check_same_field(self, other: Matrix):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other: Matrix) -> Matrix:
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: Matrix) -> Matrix:
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Matrix(
            self.field,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> Matrix:
        return Matrix(self.field, [[-a for a in row] for row in self.entries])

    def scale(self, s) -> Matrix:
        s = self.field.scalar(s)
        return Matrix(self.field, [[s * a for a in row] for row in self.entries])

    def __matmul__(self, other: Matrix) -> Matrix:
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.entries))
        zero = self.field.zero()
        out = []
        for row in self.entries:
            out_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return Matrix(self.field, out)

    def apply(self, vec: Sequence) -> Vector:
        v = [self.field.scalar(x) for x in vec]
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        zero = self.field.zero()
        out = []
        for row in self.entries:
            acc = zero
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
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
        rows, pivots = Echelon(self.field, self.entries).rref()
        zero = zero_vector(self.field, self.cols)
        return Matrix(self.field, rows + [zero] * (self.rows - len(rows))), pivots

    def rank(self) -> int:
        return Echelon(self.field, self.entries).rank

    def kernel(self) -> tuple[Vector, ...]:
        """Deterministic basis of the null space, one vector per free column."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        zero, one = self.field.zero(), self.field.one()
        basis = []
        for f in free:
            v = [zero] * self.cols
            v[f] = one
            for r, c in enumerate(pivots):
                v[c] = -reduced.entries[r][f]
            basis.append(tuple(v))
        return tuple(basis)

    def solve(self, rhs: Sequence) -> Vector | None:
        """One exact solution of self @ x = rhs, or None if inconsistent;
        x is zero at every column in the span of the columns before it."""
        if len(rhs) != self.rows:
            raise DimensionMismatch("right-hand side length does not match row count")
        span = Echelon(self.field)
        pivots = [c for c in range(self.cols) if span.add(self.column(c))]
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
        span = Echelon(self.field, (self.column(j) for j in range(n)))
        if span.rank < n:
            return None
        columns = [span.coordinates(basis_vector(self.field, n, i)) for i in range(n)]
        return Matrix.from_columns(self.field, columns)

    def det(self) -> Scalar:
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        m = [list(row) for row in self.entries]
        n = self.rows
        det = self.field.one()
        for c in range(n):
            pivot_row = None
            for i in range(c, n):
                if m[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                return self.field.zero()
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                det = -det
            det = det * m[c][c]
            inv = m[c][c].inv()
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det


class Echelon:
    """An incrementally built reduced echelon basis of a subspace of F^n.

    Rows have unit pivots, vanish at every other row's pivot and are kept
    sorted by pivot, so they are the subspace's reduced row echelon form.
    Each row carries its combination of the vectors `add` accepted, which
    gives `coordinates`.  Entries are raw int residues or Fractions; Scalars
    appear only at the API edge.
    """

    __slots__ = ("field", "_rows")

    def __init__(self, field: Field, vectors: Iterable[Sequence] = ()):
        self.field = field
        self._rows: list[tuple[int, list, list]] = []  # (pivot, row, combination)
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _mod(self, values: Iterable) -> list:
        p = self.field.p
        return [a % p for a in values] if p else list(values)

    def _reduce(self, vec: Sequence) -> tuple[list, list]:
        """vec minus its part in the span, and that part as a combination of the
        accepted vectors.  Each F_p step adds < p^2, so mod p comes at the end."""
        v = [self.field.scalar(x).value for x in vec]
        if self._rows and len(v) != len(self._rows[0][1]):
            raise DimensionMismatch("vector length does not match the echelon basis")
        p = self.field.p
        x = [self.field.zero().value] * len(self._rows)
        for pivot, row, comb in self._rows:
            f = v[pivot] % p if p else v[pivot]  # rows vanish at each other's pivots
            if f:
                v = [a - f * b if b else a for a, b in zip(v, row)]
                x = [a + f * b if b else a for a, b in zip(x, comb)]
        return self._mod(v), self._mod(x)

    def add(self, vec: Sequence) -> bool:
        """Insert vec; False (and no change) when it is already in the span."""
        v, x = self._reduce(vec)
        pivot = next((c for c, a in enumerate(v) if a), None)
        if pivot is None:
            return False
        p = self.field.p
        inv = pow(v[pivot], -1, p) if p else 1 / v[pivot]
        row = self._mod(a * inv for a in v)
        comb = self._mod([-a * inv for a in x] + [inv])  # v = vec - sum(x_i accepted_i)
        rows = [(c, r, cb + [self.field.zero().value]) for c, r, cb in self._rows]
        for k, (c, r, cb) in enumerate(rows):
            f = r[pivot]
            if f:
                rows[k] = (c, self._mod(a - f * b for a, b in zip(r, row)),
                           self._mod(a - f * b for a, b in zip(cb, comb)))
        bisect.insort(rows, (pivot, row, comb))
        self._rows = rows
        return True

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(vec)[0])

    def coordinates(self, vec: Sequence) -> Vector | None:
        """The unique coefficients of vec in the accepted vectors, in the
        order `add` accepted them, or None if vec is outside the span."""
        v, x = self._reduce(vec)
        return None if any(v) else tuple(Scalar(self.field, c) for c in x)

    def rref(self) -> tuple[list[Vector], tuple[int, ...]]:
        """The reduced rows, sorted by pivot, and their pivot columns."""
        rows = [tuple(Scalar(self.field, a) for a in row) for _, row, _ in self._rows]
        return rows, tuple(pivot for pivot, _, _ in self._rows)


def span_contains(field: Field, basis: Sequence[Vector], vec: Vector) -> bool:
    """Whether vec lies in the span of the given vectors."""
    return Echelon(field, basis).contains(vec)


def span_rank(field: Field, vectors: Sequence[Vector]) -> int:
    return Echelon(field, vectors).rank


def same_span(field: Field, first: Sequence[Vector], second: Sequence[Vector]) -> bool:
    """Whether two vector lists span the same subspace."""
    span = Echelon(field, first)
    return span.rank == span_rank(field, second) and all(map(span.contains, second))
