"""Exact linear algebra over a Field on raw values.

Below the API every number is raw: an int residue in [0, p) over F_p, a
Fraction over Q (never an int, so that every quotient stays exact).
`raw_values` coerces at the API edge, through `fields.raw_value`; Scalars
come back only from the methods that hand results to callers.  Matrices
are immutable raw rows; the Scalar view `entries` and the `kernel` are
built on first use.
Elimination runs on the incremental `Echelon` basis with first-nonzero
pivots and builds no combination columns, so kernels and inverses are
deterministic: `kernel` and `kernel_raw` bases come out in echelon order
with a unit entry at each free column, and an inverse is the right half of
the reduced [M | I].  Over Q, elimination and products run on integers,
with one Fraction built per returned entry.  `Echelon` has one input form,
the sparse int vector {column: int}: a caller with a dense raw vector
clears it once, at its edge, through `int_vector` (`Matrix.rref` and
`rank`, `same_span`, the axis check's idempotent test), and the algebra
and the norm-one searches hand it their ints as they are.  It gives sparse
vectors back: the `kernel` vectors, and from `inverting` the pivot entries
and the inverse's columns, which `combine` applies.  A kernel over Q runs
the integer `Echelon` only when the rank mod the fixed prime 2^61 - 1 falls
short of full column rank.  Vectors are tuples of Scalars at the API edge.
"""

from __future__ import annotations

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

    __slots__ = ("field", "raw", "_entries", "_kernel")

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
        """`apply` on a reduced raw vector, giving a raw tuple; no coercion.
        Each row is read only at v's nonzero entries."""
        zero, p = zero_one(self.field)[0], self.field.p
        nonzeros = list(sparse(v).items())
        sums = (sum((a * x for j, x in nonzeros if (a := row[j])), zero) for row in self.raw)
        return tuple(a % p for a in sums) if p else tuple(sums)

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        span = Echelon(self.field, (int_vector(self.field, row) for row in self.raw))
        zero = [zero_one(self.field)[0]] * self.cols
        rows = span.unit_rows(self.cols) + [zero] * (self.rows - span.rank)
        return Matrix._from_raw(self.field, rows), tuple(span.pivots)

    def rank(self) -> int:
        return Echelon(self.field, (int_vector(self.field, row) for row in self.raw)).rank

    def kernel(self) -> tuple[Vector, ...]:
        """Deterministic basis of the null space, one vector per free column;
        built once."""
        if self._kernel is None:
            self._kernel = tuple(boxed(self.field, v) for v in self.kernel_raw())
        return self._kernel

    def kernel_raw(self) -> list[list]:
        """`kernel` as raw vectors: the `Echelon.kernel` vectors made dense, over
        Q each over its entry at its free column (its last), where the cleared rows
        come first to a certificate: full column rank mod P = 2^61 - 1 proves the
        kernel empty (a minor nonzero mod P is nonzero over Z)."""
        p, cols, zero = self.field.p, self.cols, zero_one(self.field)[0]
        rows = self.raw if p else [cleared(row)[1] for row in self.raw]
        if not p and _full_rank_mod(rows, cols):
            return []
        basis = Echelon(self.field, map(sparse, rows)).kernel(cols)
        return [[(v[j] if p else Fraction(v[j], m)) if j in v else zero for j in range(cols)]
                for v in basis for m in [v[max(v)]]]

    def inverse(self) -> Matrix | None:
        """The exact inverse, or None if the matrix is singular: the right
        half of the reduced form of [M | I]."""
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        scales, rows = ((1,) * self.rows, self.raw) if self.field.p else zip(*map(cleared, self.raw))
        if (inverted := Echelon.inverting(self.field, [sparse(row) for row in rows])) is None:
            return None
        (q, columns), p, n = inverted, self.field.p, self.rows  # M = S^-1 R for the cleared rows R: M^-1 = R^-1 S
        out = [[zero_one(self.field)[0]] * n for _ in range(n)]
        for k, column in enumerate(columns):
            for t, a in column:
                out[t][k] = a if p else Fraction(a * scales[k], q[t])
        return Matrix._from_raw(self.field, out)


class Echelon:
    """An incrementally built reduced echelon basis of a subspace of F^n.

    Each row is a sparse int vector without zero entries, held in a dict
    keyed by its pivot (its first column), and vanishes at every other
    row's pivot, so `unit_rows`, the rows scaled to unit pivots in pivot
    order and the one dense output, is the subspace's reduced row echelon
    form.  Over F_p rows are residues with unit pivots.  Over Q they are
    primitive integers (content 1, positive pivot entry), and each step
    v <- q v - v[c] row divides out its content.
    """

    __slots__ = ("field", "_rows")

    def __init__(self, field: Field, rows: Iterable[dict] = ()):
        self.field = field
        self._rows: dict[int, dict[int, int]] = {}  # pivot -> row
        for row in rows:
            self.insert(row)

    @classmethod
    def inverting(cls, field: Field, rows: Sequence[dict]) -> tuple | None:
        """For the n sparse int rows of M, read in one pass over the reduced
        [M | I]: the pivot entries q_t (1 over F_p) and each column k of
        Q M^-1, Q = diag(q_t), as its nonzero (t, entry) pairs in row order,
        the columns that `combine` takes; None when M is singular."""
        n = len(rows)
        span = cls(field, ({**row, n + i: 1} for i, row in enumerate(rows)))
        if max(span._rows) >= n:
            return None
        columns: list[list[tuple]] = [[] for _ in range(n)]
        for t in range(n):
            for j, a in span._rows[t].items():
                if j >= n:  # row t is q_t at t and row t of Q M^-1 to the right
                    columns[j - n].append((t, a))
        return [span._rows[t][t] for t in range(n)], columns

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def unit_rows(self, width: int) -> list[list]:
        """The rows scaled to unit pivots, as dense raw rows of the width, in pivot order."""
        zero, p, rows = zero_one(self.field)[0], self.field.p, self._rows
        out = [[zero] * width for _ in rows]
        for dense, c in zip(out, self.pivots):
            for j, a in rows[c].items():
                dense[j] = a if p else Fraction(a, rows[c][c])
        return out

    def kernel(self, width: int) -> list[dict]:
        """A sparse int vector of the rows' null space for each free column f < width,
        in column order, its keys ascending to f: over F_p the unit entry 1 at f and
        -row[f] at the pivot c of each row with row[f] != 0; over Q m times that vector,
        m the lcm of those rows' pivot entries row[c], so m at f and -row[f] (m // row[c]) at c."""
        p, rows, pivots, basis = self.field.p, self._rows, self.pivots, []
        for f in (c for c in range(width) if c not in rows):
            hits = [(c, rows[c]) for c in pivots if f in rows[c]]
            m = 1 if p else math.lcm(*(row[c] for c, row in hits))
            basis.append({c: -row[f] % p if p else -row[f] * (m // row[c]) for c, row in hits} | {f: m})
        return basis

    def reduce(self, v: dict) -> dict:
        """The sparse int vector v minus its part in the span, times a
        nonzero integer over Q, as a new sparse vector (zero entries, and
        entries = 0 mod p, dropped): empty exactly when v lies in the span.
        A step changes v only at its row's pivot and at free columns, so one
        pass over v's own pivot columns clears them all."""
        p, rows = self.field.p, self._rows
        v = pruned(p, v)
        for c in [c for c in v if c in rows]:
            v = _eliminate(p, v, c, rows[c])
        return v

    def insert(self, v: dict) -> int | None:
        """Add the sparse int vector v to the basis: the pivot of its new
        row, or None (and no change) when v already lies in the span."""
        r = self.reduce(v)
        if not r:
            return None
        pivot, p, rows = min(r), self.field.p, self._rows
        # the one field-specific step: a unit pivot over F_p, content 1 and a positive pivot over Q
        s = pow(r[pivot], -1, p) if p else math.gcd(*r.values()) * (1 if r[pivot] > 0 else -1)
        row = {j: a * s % p for j, a in r.items()} if p else {j: a // s for j, a in r.items()}
        for c, other in rows.items():
            if pivot in other:
                rows[c] = _eliminate(p, other, pivot, row)
        rows[pivot] = row
        return pivot


def int_vector(field: Field, values: Sequence) -> dict:
    """The raw (or Scalar) values as a sparse int vector for `Echelon`:
    coerced by `raw_values`, and cleared of denominators over Q."""
    v = raw_values(field, values)
    return sparse(v if field.p else cleared(v)[1])


def sparse(values: Iterable) -> dict:
    """The nonzero entries of a dense vector as {column: value}."""
    return {j: a for j, a in enumerate(values) if a}


def combine(columns: Sequence[Sequence[tuple]], pairs: Iterable[tuple]) -> dict:
    """The matrix held by column, column k its sparse (t, a) pairs, times the sparse
    vector of the (k, w) pairs, as the unreduced ints {t: sum of a w}: one change of basis."""
    out: dict[int, int] = {}
    for k, w in pairs:
        for t, a in columns[k]:
            out[t] = out.get(t, 0) + a * w
    return out


def pruned(p: int | None, v: dict) -> dict:
    """A new sparse vector of v's entries, reduced mod p over F_p, without the zeros."""
    return {j: r for j, a in v.items() if (r := a % p)} if p else {j: a for j, a in v.items() if a}


def _eliminate(p: int | None, v: dict, c: int, row: dict) -> dict:
    """v cleared at row's pivot c, in place where it can be: v - v[c] row mod
    p over F_p, where row[c] is 1; q v - f row over Q for (q, f) = (row[c],
    v[c]) over their gcd, divided by its content."""
    g = math.gcd(row[c], v[c])  # 1 over F_p
    q, f = row[c] // g, v[c] // g
    if q != 1:
        v = {j: q * a for j, a in v.items()}
    for j, b in row.items():
        a = (v.get(j, 0) - f * b) % p if p else v.get(j, 0) - f * b
        if a:
            v[j] = a
        else:
            del v[j]
    g = 1 if p else math.gcd(*v.values())
    return {j: a // g for j, a in v.items()} if g > 1 else v


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
    """Whether two lists of vectors of one length span the same subspace."""
    if len({len(v) for v in (*first, *second)}) > 1:
        raise DimensionMismatch("vectors of different lengths")
    span, other = (Echelon(field, (int_vector(field, v) for v in vs)) for vs in (first, second))
    return span.rank == other.rank and not any(span.reduce(row) for row in other._rows.values())
