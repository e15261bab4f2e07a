import bisect
import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from splitspin import Field, Matrix, linalg
from splitspin.errors import DimensionMismatch, FieldMismatch
from splitspin.linalg import (CERTIFICATE_PRIME, Echelon, _full_rank_mod, boxed, cleared, combine, int_vector,
                              product, pruned, raw_values, same_span)

QQ = Field.rationals()
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
F10007 = Field.prime(10007)


class DenseEchelon(Echelon):
    """`Echelon` fed dense raw (or Scalar) vectors, each cleared once by
    `linalg.int_vector`, with the membership and insertion answers of the
    dense entry it had: the reference tests build their spans here."""

    __slots__ = ()

    def __init__(self, field, vectors=()):
        super().__init__(field, (int_vector(field, v) for v in vectors))

    def add(self, vec):
        return self.insert(int_vector(self.field, vec)) is not None

    def contains(self, vec):
        return not self.reduce(int_vector(self.field, vec))


def test_kernel_of_identity_is_trivial():
    assert Matrix.identity(QQ, 2).kernel() == ()


def test_kernel_of_zero_matrix_is_everything():
    kernel = Matrix(QQ, [[0, 0], [0, 0]]).kernel()
    assert len(kernel) == 2


def test_kernel_rank_one():
    # hand elimination: rref [[1, 1], [0, 0]], free column 1
    m = Matrix(QQ, [[1, 1], [1, 1]])
    kernel = m.kernel()
    assert len(kernel) == 1
    assert m.apply(kernel[0]) == (QQ.zero(), QQ.zero())
    # spans the same line as (1, -1)
    assert DenseEchelon(QQ, [kernel[0]]).contains((QQ.one(), -QQ.one()))


def diagonal(field, values):
    """The square matrix with the given values on its diagonal."""
    return Matrix(field, [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)])


def reference_pow(m, k):
    """The exact k-th power of a square Matrix by repeated squaring on raw
    rows (`linalg.product`); m^0 is the identity."""
    if not m.is_square:
        raise DimensionMismatch("power of a non-square matrix")
    if k < 0:
        raise ValueError("negative power")
    p = m.field.p
    result, base = Matrix.identity(m.field, m.rows).raw, m.raw
    while k:
        if k & 1:
            result = product(p, result, base)
        base = product(p, base, base) if k > 1 else base
        k >>= 1
    return Matrix._from_raw(m.field, result)


def test_mat_pow_rotation():
    rot = Matrix(QQ, [[0, -1], [1, 0]])
    assert reference_pow(rot, 4) == Matrix.identity(QQ, 2)
    assert reference_pow(rot, 2) == -Matrix.identity(QQ, 2)


def test_mat_pow_zero_exponent():
    m = Matrix(QQ, [[2, 5], [1, 7]])
    assert reference_pow(m, 0) == Matrix.identity(QQ, 2)


def test_mat_pow_f5_order_three():
    m = Matrix(F5, [[4, 4], [1, 0]])
    # oracle: naive repeated multiplication
    naive = m
    for _ in range(2):
        naive = naive @ m
    assert naive == Matrix.identity(F5, 2)
    assert reference_pow(m, 3) == naive


def test_pow_requires_square():
    with pytest.raises(DimensionMismatch):
        reference_pow(Matrix(QQ, [[0, 0, 0], [0, 0, 0]]), 2)


def test_inverse_and_det():
    m = Matrix(QQ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(QQ, 2)
    assert reference_det(QQ, m.entries) == QQ.one()
    assert Matrix(QQ, [[1, 1], [1, 1]]).inverse() is None
    assert reference_det(QQ, [[1, 1], [1, 1]]) == QQ.zero()


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _matrix_strategy(field, n, entries):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Matrix(field, rows))


@given(_matrix_strategy(QQ, 2, small_rationals), st.integers(0, 6), st.integers(0, 6))
def test_mat_pow_additivity(m, a, b):
    assert reference_pow(m, a + b) == reference_pow(m, a) @ reference_pow(m, b)


@given(_matrix_strategy(F7, 3, st.integers(0, 6)), st.integers(0, 10), st.integers(0, 10))
def test_mat_pow_additivity_prime(m, a, b):
    assert reference_pow(m, a + b) == reference_pow(m, a) @ reference_pow(m, b)


@given(_matrix_strategy(QQ, 3, small_rationals))
def test_kernel_properties_rational(m):
    kernel = m.kernel()
    zero = tuple(QQ.zero() for _ in range(3))
    for v in kernel:
        assert m.apply(v) == zero
    assert m.rank() + len(kernel) == 3
    # independent oracle: sympy's nullspace spans the same subspace
    sym = sympy.Matrix(3, 3, [x.value for row in m.entries for x in row])
    null = sym.nullspace()
    assert len(null) == len(kernel)
    if kernel:
        ours = sympy.Matrix([[x.value for x in v] for v in kernel])
        theirs = sympy.Matrix([[x for x in v] for v in null])
        both = ours.col_join(theirs)
        assert ours.rank() == theirs.rank() == both.rank() == len(kernel)


@given(_matrix_strategy(F3, 2, st.integers(0, 2)))
def test_kernel_exhaustive_prime(m):
    # enumerate all of F_3^2: the solution set of m v = 0 must equal the
    # span of the returned kernel basis
    kernel = m.kernel()
    zero = tuple(F3.zero() for _ in range(2))
    solutions = set()
    for raw in itertools.product(range(3), repeat=2):
        v = tuple(F3.scalar(c) for c in raw)
        if m.apply(v) == zero:
            solutions.add(v)
    spanned = set()
    for coeffs in itertools.product(range(3), repeat=len(kernel)):
        acc = [F3.zero(), F3.zero()]
        for c, v in zip(coeffs, kernel):
            acc = [a + F3.scalar(c) * x for a, x in zip(acc, v)]
        spanned.add(tuple(acc))
    if not kernel:
        spanned = {zero}
    assert spanned == solutions


@given(_matrix_strategy(F5, 3, st.integers(0, 4)))
def test_rref_idempotent(m):
    reduced, pivots = m.rref()
    again, pivots2 = reduced.rref()
    assert again == reduced and pivots2 == pivots


def test_vector_helpers():
    assert not any((QQ.zero(), QQ.zero()))
    assert any((QQ.zero(), QQ.one()))


# -- Echelon against a reference elimination --------------------------------------


def reference_rref(field, rows):
    """Gauss-Jordan elimination on Scalars with first-nonzero pivots: the
    elimination Matrix.rref used before it was built on Echelon."""
    m = [[field.scalar(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m], tuple(pivots)


def reference_solve(field, columns, rhs):
    """The solution of sum x_j columns[j] = rhs that is zero at the free
    columns, from the reduced augmented matrix, or None."""
    n = len(columns)
    augmented = [[col[i] for col in columns] + [rhs[i]] for i in range(len(rhs))]
    reduced, pivots = reference_rref(field, augmented)
    if pivots and pivots[-1] == n:
        return None
    x = [field.zero()] * n
    for r, c in enumerate(pivots):
        x[c] = reduced[r][n]
    return tuple(x)


def _vector_lists(entries, field):
    """Vector lists of one length with zero vectors and dependent vectors
    mixed in, plus a query vector of the same length."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 4))
        vec = st.lists(entries, min_size=n, max_size=n)
        vecs = draw(st.lists(vec, min_size=0, max_size=5))
        if len(vecs) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            k = draw(entries)
            vecs.insert(draw(st.integers(0, len(vecs))), [x + k * y for x, y in zip(a, b)])
        if draw(st.booleans()):
            vecs.insert(draw(st.integers(0, len(vecs))), [0] * n)
        if vecs and draw(st.booleans()):
            query = [sum(draw(entries) * v[i] for v in vecs) for i in range(n)]
        else:
            query = draw(vec)
        vectors = [tuple(field.scalar(x) for x in raw) for raw in [*vecs, query]]
        return vectors[:-1], vectors[-1]

    return build()


def _in_span(field, accepted, v):
    return not any(v) or (bool(accepted) and reference_solve(field, accepted, v) is not None)


def _check_primitive(field, span):
    """Over Q every stored row is integers with content 1 and a positive
    pivot entry; over F_p residues with a unit pivot."""
    for pivot, row in span._rows.items():
        assert all(type(a) is int and a for a in row.values())
        assert min(row) == pivot and all(pivot not in other for c, other in span._rows.items() if c != pivot)
        if field.p:
            assert row[pivot] == 1 and all(0 < a < field.p for a in row.values())
        else:
            assert row[pivot] > 0 and math.gcd(*row.values()) == 1


def _check_echelon(field, vecs, query):
    span, accepted = DenseEchelon(field), []
    for v in vecs:
        fresh = not _in_span(field, accepted, v)
        assert span.add(v) == fresh
        if fresh:
            accepted.append(v)
    reduced, pivots = reference_rref(field, vecs)
    assert span.rank == len(accepted) == len(pivots)
    assert span.pivots == list(pivots)
    assert span.unit_rows(len(query)) == [[a.value for a in row] for row in reduced[: len(pivots)]]
    _check_primitive(field, span)
    if vecs:
        assert Matrix(field, vecs).rank() == len(pivots)
    assert span.contains(query) == _in_span(field, accepted, query)


@given(_vector_lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), QQ))
def test_echelon_against_reference_rational(case):
    _check_echelon(QQ, *case)


@given(_vector_lists(st.integers(0, 4), F5))
def test_echelon_against_reference_prime(case):
    _check_echelon(F5, *case)


@given(_vector_lists(st.integers(0, 10006), F10007))
def test_echelon_against_reference_large_prime(case):
    _check_echelon(F10007, *case)


def _rect_matrix(field, entries):
    return st.integers(1, 4).flatmap(
        lambda rows: st.integers(1, 4).flatmap(
            lambda cols: st.lists(
                st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
            )
        )
    ).map(lambda rows: Matrix(field, rows))


@pytest.mark.parametrize(
    "field, entries",
    [(QQ, small_rationals), (F5, st.integers(0, 4)), (F10007, st.integers(0, 10006))],
    ids=["QQ", "F5", "F10007"],
)
def test_matrix_elimination_against_reference(field, entries):
    @given(_rect_matrix(field, entries))
    def check(m):
        reduced, pivots = reference_rref(field, m.entries)
        assert m.rref() == (Matrix(field, reduced), pivots)
        columns = [m.column(j) for j in range(m.cols)]
        if m.is_square:
            n = m.rows
            unit = [tuple(field.one() if i == j else field.zero() for i in range(n)) for j in range(n)]
            expected = [reference_solve(field, columns, e) for e in unit] if len(pivots) == n else None
            inverse = m.inverse()
            assert (inverse is None) == (expected is None)
            if inverse is not None:
                assert inverse == Matrix.from_columns(field, expected)

    check()


# -- the integer Echelon against the Fraction elimination it replaced ---------------


class ReferenceEchelon:
    """`Echelon` as it ran on unit-pivot raw rows, Fractions over Q, with
    `Matrix.rref`, `kernel_raw`, `inverse` and `@` on top of it."""

    def __init__(self, field, vectors=()):
        self.field = field
        self._rows = []  # (pivot, row)
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, v):
        p = self.field.p
        for pivot, row in self._rows:
            f = v[pivot] % p if p else v[pivot]
            if f:
                v = [a - f * b if b else a for a, b in zip(v, row)]
        return [a % p for a in v] if p else list(v)

    def add(self, vec):
        r = self._reduce(raw_values(self.field, vec))
        pivot = next((c for c, a in enumerate(r) if a), None)
        if pivot is None:
            return False
        p = self.field.p
        inv = pow(r[pivot], -1, p) if p else 1 / r[pivot]
        row = [a * inv % p if p else a * inv for a in r]
        for k, (c, other) in enumerate(self._rows):
            f = other[pivot]
            if f:
                self._rows[k] = (c, [(a - f * b) % p if p else a - f * b for a, b in zip(other, row)])
        bisect.insort(self._rows, (pivot, row))
        return True

    def contains(self, vec):
        return not any(self._reduce(raw_values(self.field, vec)))

    @staticmethod
    def kernel(field, rows):
        span = ReferenceEchelon(field, rows)
        cols, pivots = len(rows[0]), [c for c, _ in span._rows]
        zero, one = (0, 1) if field.p else (Fraction(0), Fraction(1))
        basis = []
        for f in (c for c in range(cols) if c not in pivots):
            v = [zero] * cols
            v[f] = one
            for c, row in span._rows:
                v[c] = (-row[f]) % field.p if field.p else -row[f]
            basis.append(v)
        return basis

    @staticmethod
    def inverse(field, rows):
        n = len(rows)
        zero, one = (0, 1) if field.p else (Fraction(0), Fraction(1))
        span = ReferenceEchelon(field, [list(row) + [one if j == i else zero for j in range(n)]
                                        for i, row in enumerate(rows)])
        if span._rows[-1][0] >= n:
            return None
        return [row[n:] for _, row in span._rows]

    @staticmethod
    def matmul(field, left, right):
        p, zero = field.p, 0 if field.p else Fraction(0)
        out = []
        for row in left:
            acc = [zero] * len(right[0])
            for a, other in zip(row, right):
                if a:
                    for j, b in enumerate(other):
                        acc[j] += a * b
            out.append([a % p for a in acc] if p else acc)
        return out


def _raws_over_q_are_fractions(field, values):
    return field.p is not None or all(type(a) is Fraction for a in values)


@st.composite
def _echelon_cases(draw, field):
    """A rows x cols raw matrix, wide, tall or a single row, with zero rows,
    rows combined from others (low rank) and, over Q, Fractions with large
    coprime denominators and negative leading entries, plus queries that
    lie in the span or not."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    if field.p:
        entry = st.one_of(st.just(0), st.integers(0, field.p - 1))
    else:
        big = st.sampled_from([1, 7, 97, 1009, 65537, 2**31 - 1, 10**9 + 7])
        entry = st.one_of(st.just(0), st.integers(-9, 9),
                          st.builds(Fraction, st.integers(-10**6, 10**6), big))
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for i in range(rows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "combine", "negate"]))
        if kind == "zero":
            grid[i] = [0] * cols
        elif kind == "combine" and i >= 2:
            a, b = draw(entry), draw(entry)
            grid[i] = [a * x + b * y for x, y in zip(grid[i - 1], grid[i - 2])]
        elif kind == "negate":
            grid[i] = [-x for x in grid[i]]
    grid = [raw_values(field, row) for row in grid]
    queries = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            coeffs = [draw(entry) for _ in range(rows)]
            queries.append([sum((c * row[j] for c, row in zip(coeffs, grid)), 0) for j in range(cols)])
        else:
            queries.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    order = draw(st.permutations(["add"] * rows + ["contains"] * len(queries)))
    return grid, [raw_values(field, q) for q in queries], order


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_integer_echelon_against_fraction_reference(field):
    @given(_echelon_cases(field))
    def check(case):
        grid, queries, order = case
        span, reference = DenseEchelon(field), ReferenceEchelon(field)
        rows, asked = iter(grid), iter(queries)
        for step in order:  # add and contains interleaved
            if step == "add":
                row = next(rows)
                assert span.add(row) == reference.add(row)
            else:
                query = next(asked)
                assert span.contains(query) == reference.contains(query)
            assert span.rank == reference.rank
            assert span.pivots == [c for c, _ in reference._rows]
            assert span.unit_rows(len(grid[0])) == [row for _, row in reference._rows]
            _check_primitive(field, span)
        assert all(_raws_over_q_are_fractions(field, row) for row in span.unit_rows(len(grid[0])))

        m = Matrix(field, grid)
        reduced, pivots = m.rref()
        assert m.rank() == len(pivots) == reference.rank
        assert list(reduced.raw[: len(pivots)]) == [tuple(row) for _, row in reference._rows]
        kernel = m.kernel_raw()
        assert kernel == ReferenceEchelon.kernel(field, grid)
        square = Matrix(field, [row[:m.rows] for row in m.raw]) if m.cols >= m.rows else None
        if square is not None:
            inverse, expected = square.inverse(), ReferenceEchelon.inverse(field, square.raw)
            assert (inverse is None) == (expected is None)
            if inverse is not None:
                assert [list(row) for row in inverse.raw] == expected
                assert (square @ inverse) == Matrix.identity(field, m.rows)
        product = m @ m.transpose()
        assert [list(row) for row in product.raw] == ReferenceEchelon.matmul(field, m.raw, m.transpose().raw)
        for raw in (reduced.raw, product.raw, kernel, *([inverse.raw] if square and inverse else [])):
            assert all(_raws_over_q_are_fractions(field, row) for row in raw)

    check()


def test_rational_echelon_keeps_primitive_rows_with_positive_pivots():
    span = DenseEchelon(QQ, [(Fraction(-2, 3), Fraction(4, 9), 0), (0, -6, Fraction(3, 5))])
    assert span._rows == {0: {0: 15, 2: -1}, 1: {1: 10, 2: -1}}
    assert span.unit_rows(3) == [[1, 0, Fraction(-1, 15)], [0, 1, Fraction(-1, 10)]]
    assert span.contains((Fraction(15, 7), Fraction(10, 7), Fraction(-2, 7)))
    assert not span.contains((0, 0, 1))


# -- sparse rows fed to Echelon directly, against the reference elimination ---------


@st.composite
def _sparse_vectors(draw, field, square=False):
    """Int vectors of one width as {column: int} dicts, as the algebra hands
    them to `Echelon`: dicts with exact zeros and, over F_p, entries = 0 mod p
    or outside [0, p), the empty dict, and combinations of earlier vectors,
    which meet several pivots.  As many vectors as the width when square."""
    width, p = draw(st.integers(1, 6)), field.p
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6),
                      *([st.sampled_from([p, -p, 2 * p]), st.integers(-3 * p, 3 * p)] if p else []))
    vectors = []
    for _ in range(width if square else draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["entries", "empty", "combine", "combine"]))
        if kind == "empty":
            vectors.append({})
        elif kind == "combine" and vectors:
            (a, u), (b, v) = [(draw(entry), draw(st.sampled_from(vectors))) for _ in range(2)]
            vectors.append({j: a * u.get(j, 0) + b * v.get(j, 0) for j in range(width)})  # zeros kept
        else:
            vectors.append({j: draw(entry) for j in draw(st.sets(st.integers(0, width - 1)))})
    return width, vectors


def _dense(width, v):
    return [v.get(j, 0) for j in range(width)]


@st.composite
def _invertible_rows(draw, field):
    """n sparse int rows of an invertible matrix, whose inverse has columns of
    several entries: a triangular matrix with a nonzero diagonal, its rows
    shuffled and each then plus a multiple of another, some zeros kept."""
    n, entry = draw(st.integers(1, 6)), st.integers(-9, 9)
    nonzero = st.integers(1, field.p - 1) if field.p else st.integers(1, 10**6)
    rows = [[0] * i + [draw(nonzero) * draw(st.sampled_from([1, -1]))] + [draw(entry) for _ in range(n - i - 1)]
            for i in range(n)]
    rows = draw(st.permutations(rows))
    for i in range(n):
        j, k = draw(st.integers(0, n - 1)), draw(entry)
        if j != i:
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return n, [{j: a for j, a in enumerate(row) if a or draw(st.booleans())} for row in rows]


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_sparse_insert_against_the_reference(field):
    @given(_sparse_vectors(field))
    def check(case):
        width, vectors = case
        span, reference = Echelon(field), ReferenceEchelon(field)
        for v in vectors:
            given_v = dict(v)
            contained = reference.contains(_dense(width, v))
            assert (not span.reduce(v)) == contained
            before = set(span.pivots)
            pivot = span.insert(v)
            assert (pivot is not None) == reference.add(_dense(width, v)) == (not contained)
            assert set(span.pivots) - before == ({pivot} if pivot is not None else set())
            assert v == given_v  # the caller's dict is left as it was
            assert span.pivots == [c for c, _ in reference._rows]
            assert span.unit_rows(width) == [row for _, row in reference._rows]
            _check_primitive(field, span)
        assert Echelon(field, vectors)._rows == span._rows

    check()


def _inverse_rows(field, q, columns):
    """The inverse as raw rows, from `inverting`'s pivot entries q_t and its
    columns of (t, q_t times entry (t, k)) pairs."""
    rows = [[0 if field.p else Fraction(0)] * len(q) for _ in q]
    for k, column in enumerate(columns):
        for t, a in column:
            rows[t][k] = a if field.p else Fraction(a, q[t])
    return rows


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_sparse_inverting_against_the_reference(field):
    """`inverting` on n sparse rows, singular ones included, against the
    reference's reduced [M | I]: None exactly when that has a pivot right of
    M, else its row t is e_t and, to the right, the entries (t, a) of the
    columns over the pivot entry q_t, with q_t > 0 (1 over F_p), each
    column's rows ascending and no zero kept."""
    @given(st.one_of(_sparse_vectors(field, square=True), _invertible_rows(field)))
    def check(case):
        n, rows = case
        zero, one = (0, 1) if field.p else (Fraction(0), Fraction(1))
        unit = [[one if j == i else zero for j in range(n)] for i in range(n)]
        reduced = ReferenceEchelon(field, [raw_values(field, _dense(n, row)) + e for row, e in zip(rows, unit)])._rows
        inverted = Echelon.inverting(field, rows)
        assert (inverted is None) == (reduced[-1][0] >= n)
        if inverted is not None:
            q, columns = inverted
            assert all(type(a) is int and a > 0 for a in q) and (not field.p or q == [1] * n)
            assert all([t for t, _ in column] == sorted({t for t, _ in column}) for column in columns)
            assert all(0 < a < field.p if field.p else a for column in columns for _, a in column)
            right = _inverse_rows(field, q, columns)
            assert [row for _, row in reduced] == [e + row for e, row in zip(unit, right)]

    check()


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_sparse_kernel_against_the_reference(field):
    """`kernel` of sparse rows of any shape, singular ones included: a sparse
    int vector per free column, its keys ascending and the free column last,
    that is a positive multiple (1 over F_p) of the reference's dense kernel
    vector in its place."""
    @given(st.one_of(st.booleans().flatmap(lambda square: _sparse_vectors(field, square)), _invertible_rows(field)))
    def check(case):
        width, rows = case
        kernel = Echelon(field, rows).kernel(width)
        expected = ReferenceEchelon.kernel(field, [raw_values(field, _dense(width, row)) for row in rows])
        assert len(kernel) == len(expected)
        for v, u in zip(kernel, expected):
            f = max(v)
            assert list(v) == sorted(v) and all(type(a) is int and a for a in v.values())
            if field.p:
                assert v[f] == 1 and all(0 < a < field.p for a in v.values())
                assert [v.get(j, 0) for j in range(width)] == u
            else:
                assert v[f] > 0 and [Fraction(v.get(j, 0), v[f]) for j in range(width)] == u

    check()


def test_inverse_of_rows_with_distinct_denominators():
    """`inverse` clears each row by its own denominator, R = S M, and scales
    column k of R^-1 by s_k: [[1/2, 1/3], [1/5, 1]] clears to (3, 2) over 6
    and (1, 5) over 5, and its inverse is [[30, -10], [-6, 15]] / 13."""
    for rows in ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]],
                 [[Fraction(1, 2), 0, Fraction(1, 3)], [0, Fraction(2, 7), 1], [Fraction(-1, 5), Fraction(1, 9), 0]]):
        m = Matrix(QQ, rows)
        inverse = m.inverse()
        assert [list(row) for row in inverse.raw] == ReferenceEchelon.inverse(QQ, m.raw)
        assert m @ inverse == Matrix.identity(QQ, m.rows) and _exact(QQ, _flat(inverse))
    assert Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]).inverse() == Matrix(
        QQ, [[Fraction(30, 13), Fraction(-10, 13)], [Fraction(-6, 13), Fraction(15, 13)]])


@st.composite
def _combine_cases(draw):
    """A rows x cols int matrix held by column as (t, a) pairs, empty columns
    and repeated rows among them, and a vector as (k, w) pairs: none at all,
    repeated columns, and a weight followed by its negative, which cancel."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12))
    columns = [draw(st.lists(st.tuples(st.integers(0, rows - 1), entry), max_size=4)) for _ in range(cols)]
    pairs = draw(st.lists(st.tuples(st.integers(0, cols - 1), entry), max_size=5))
    if pairs and draw(st.booleans()):
        k, w = draw(st.sampled_from(pairs))
        pairs.append((k, -w))
    return rows, columns, pairs


@given(_combine_cases())
def test_combine_against_a_dense_product(case):
    """`combine` is the dense matrix times the dense vector, read at the rows
    it touches: unreduced ints, zero where weights cancel, and the same mod 7
    and mod 10007 once pruned."""
    rows, columns, pairs = case
    matrix, vector = [[0] * len(columns) for _ in range(rows)], [0] * len(columns)
    for k, column in enumerate(columns):
        for t, a in column:
            matrix[t][k] += a
    for k, w in pairs:
        vector[k] += w
    dense = [sum(a * w for a, w in zip(row, vector)) for row in matrix]
    out = combine(columns, pairs)
    assert set(out) == {t for k, _ in pairs for t, _ in columns[k]}
    assert all(type(c) is int for c in out.values())
    assert [out.get(t, 0) for t in range(rows)] == dense
    for p in (7, 10007):
        assert pruned(p, out) == {t: c % p for t, c in enumerate(dense) if c % p}
    assert combine(columns, iter(pairs)) == out and combine(columns, []) == {}


def test_sparse_inverting_of_a_singular_matrix_is_none():
    assert Echelon.inverting(QQ, [{0: 2, 1: 4}, {0: -1, 1: -2}]) is None
    assert Echelon.inverting(F7, [{0: 3, 1: 0}, {0: 10, 1: 7}]) is None  # second row = 1 * first mod 7
    assert Echelon.inverting(F7, [{}, {1: 1}]) is None


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_identity_against_a_reference_solve(field):
    """`Algebra.identity` reduces its sparse equations into one `Echelon`; the
    identity, or None, must be the reference's solution of the dense system
    sum_j u_j (b_k-coefficient of b_j b_i) = [k == i]."""
    from splitspin.algebra import DERIVED, Algebra, AlgebraMeta

    entry = st.integers(-3, 3) if not field.p else st.integers(0, field.p - 1)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1), entry), max_size=12))))
    def check(case):
        n, cells = case
        table = {}
        for i, j, k, c in cells:
            table[min(i, j), max(i, j), k] = c
        algebra = Algebra(field, [f"b{i}" for i in range(n)], [(*key, c) for key, c in table.items()],
                          AlgebraMeta(DERIVED))
        columns = [[raw_values(field, [table.get((min(i, j), max(i, j), k), 0)])[0] for i in range(n) for k in range(n)]
                   for j in range(n)]
        rhs = raw_values(field, [int(k == i) for i in range(n) for k in range(n)])
        expected = reference_solve(field, columns, rhs)
        found = algebra.identity()
        assert (found is None) == (expected is None)
        assert found is None or found.coords == expected

    check()


def test_identity_of_an_inconsistent_system_is_none():
    """b1 b1 = b2 and b2 b2 = b2: every basis vector has a nonzero product,
    so the equations are reduced, and u b1 = u1 b2 never equals b1."""
    from splitspin.algebra import DERIVED, Algebra, AlgebraMeta

    for field in (QQ, F7, F10007):
        algebra = Algebra(field, ["b1", "b2"], [(0, 0, 1, 1), (1, 1, 1, 1)], AlgebraMeta(DERIVED))
        assert all(algebra.cell(i, i) for i in range(2))
        assert algebra.identity() is None


# -- raw Matrix against the boxed Scalar implementation it replaced ----------------


def reference_apply(field, rows, vec):
    """Matrix.apply as it ran on boxed Scalars."""
    v = [field.scalar(x) for x in vec]
    zero = field.zero()
    out = []
    for row in rows:
        acc = zero
        for a, x in zip(row, v):
            if a and x:
                acc = acc + a * x
        out.append(acc)
    return tuple(out)


def reference_matmul(field, left, right):
    """Matrix @ Matrix as it ran on boxed Scalars; rows of Scalars."""
    cols = list(zip(*right))
    zero = field.zero()
    out = []
    for row in left:
        out_row = []
        for col in cols:
            acc = zero
            for a, b in zip(row, col):
                if a and b:
                    acc = acc + a * b
            out_row.append(acc)
        out.append(tuple(out_row))
    return out


def reference_det(field, rows):
    """The determinant by Gaussian elimination on Scalars (the removed Matrix.det)."""
    m = [[field.scalar(x) for x in row] for row in rows]
    n = len(m)
    det = field.one()
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return field.zero()
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


def _exact(field, scalars):
    """Every Scalar over Q holds a Fraction; over F_p a residue in [0, p)."""
    for s in scalars:
        assert s.field == field
        if field.p is None:
            assert type(s.value) is Fraction, s
        else:
            assert type(s.value) is int and 0 <= s.value < field.p, s
    return True


def _flat(m):
    return [x for row in m.entries for x in row]


def field_vector(field, values):
    return tuple(field.scalar(x) for x in values)


FIELDS = [
    (QQ, small_rationals),
    (F5, st.integers(0, 4)),
    (F10007, st.integers(0, 10006)),
]
FIELD_IDS = ["QQ", "F5", "F10007"]


@st.composite
def _sparse_rows(draw, entries, rows, cols):
    """rows x cols raw entries, about half of them zero, and sometimes an
    all-zero row, where an int accumulator would leak into a Q result."""
    cell = st.one_of(st.just(0), entries)
    grid = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if draw(st.booleans()):
        grid[draw(st.integers(0, rows - 1))] = [0] * cols
    return grid


@pytest.mark.parametrize("field, entries", FIELDS, ids=FIELD_IDS)
def test_apply_matmul_against_boxed_reference(field, entries):
    @given(st.data())
    def check(data):
        r, c, s = (data.draw(st.integers(1, 4)) for _ in range(3))
        a = Matrix(field, data.draw(_sparse_rows(entries, r, c)))
        b = Matrix(field, data.draw(_sparse_rows(entries, c, s)))
        v = data.draw(_sparse_rows(entries, 1, c))[0]

        image = a.apply(v)
        assert image == reference_apply(field, a.entries, v) and _exact(field, image)
        assert a.apply_raw(tuple(x.value for x in field_vector(field, v))) == tuple(x.value for x in image)
        product = a @ b
        assert product.entries == tuple(reference_matmul(field, a.entries, b.entries))
        assert _exact(field, _flat(product))

        t = a.transpose()
        assert (t.rows, t.cols) == (c, r)
        assert all(t.entries[j][i] == a.entries[i][j] for i in range(r) for j in range(c))
        assert _exact(field, _flat(t))
        assert Matrix(field, a.entries) == a and Matrix(field, a.raw) == a
        bumped = [list(row) for row in a.entries]
        bumped[data.draw(st.integers(0, r - 1))][data.draw(st.integers(0, c - 1))] += 1
        assert Matrix(field, bumped) != a
        assert a.is_symmetric() == (r == c and all(
            a.entries[i][j] == a.entries[j][i] for i in range(r) for j in range(c)))
        assert _exact(field, _flat(-a)) and (-a).entries == tuple(
            tuple(-x for x in row) for row in a.entries)

    check()


@pytest.mark.parametrize("field, entries", [(QQ, small_rationals), (F7, st.integers(0, 6))], ids=["QQ", "F7"])
def test_apply_raw_on_zero_unit_and_dense_vectors(field, entries):
    """`apply_raw` reads each row at the vector's nonzero entries only: it
    agrees with the dense Scalar product on the zero vector, every unit
    vector and a vector without zeros, and its entries stay raw."""
    @given(st.data())
    def check(data):
        r, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        a = Matrix(field, data.draw(_sparse_rows(entries, r, c)))
        dense = data.draw(st.lists(entries.filter(bool), min_size=c, max_size=c))
        for v in ([0] * c, *([int(j == i) for j in range(c)] for i in range(c)), dense):
            image = a.apply_raw(tuple(raw_values(field, v)))
            assert image == tuple(x.value for x in reference_apply(field, a.entries, v))
            assert _exact(field, boxed(field, image))

    check()


@pytest.mark.parametrize("field, entries", [(QQ, small_rationals), (F7, st.integers(0, 6)),
                                           (F10007, st.integers(0, 10006))], ids=["QQ", "F7", "F10007"])
def test_raw_product_against_boxed_reference(field, entries):
    """linalg.product on the raw rows of rectangular, sparse and all-zero
    matrices gives the boxed product's values, exact (Fractions over Q)."""
    @given(st.data())
    def check(data):
        r, c, s = (data.draw(st.integers(1, 4)) for _ in range(3))
        a, b = (Matrix(field, data.draw(st.one_of(_sparse_rows(entries, rows, cols),
                                                  st.just([[0] * cols] * rows))))
                for rows, cols in ((r, c), (c, s)))
        raw = product(field.p, a.raw, b.raw)
        rows = [boxed(field, row) for row in raw]
        assert rows == reference_matmul(field, a.entries, b.entries)
        assert all(_exact(field, row) for row in rows)
        assert (a @ b).raw == tuple(map(tuple, raw))

    check()


@pytest.mark.parametrize("field, entries", FIELDS, ids=FIELD_IDS)
def test_pow_inverse_kernel_against_boxed_reference(field, entries):
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        m = Matrix(field, data.draw(_sparse_rows(entries, n, n)))
        k = data.draw(st.integers(0, 5))
        expected = [tuple(field.one() if i == j else field.zero() for j in range(n)) for i in range(n)]
        for _ in range(k):
            expected = reference_matmul(field, expected, m.entries)
        power = reference_pow(m, k)
        assert power.entries == tuple(expected) and _exact(field, _flat(power))

        det = reference_det(field, m.entries)
        inverse = m.inverse()
        assert (inverse is None) == det.is_zero
        if inverse is not None:
            assert _exact(field, _flat(inverse))
            assert reference_matmul(field, m.entries, inverse.entries) == [
                tuple(field.one() if i == j else field.zero() for j in range(n)) for i in range(n)]

        # rectangular kernels: n x c
        c = data.draw(st.integers(1, 4))
        rect = Matrix(field, data.draw(_sparse_rows(entries, n, c)))
        kernel = rect.kernel()
        _, pivots = reference_rref(field, rect.entries)
        assert len(kernel) == c - len(pivots)
        zero = tuple(field.zero() for _ in range(n))
        for vec in kernel:
            assert _exact(field, vec) and reference_apply(field, rect.entries, vec) == zero
        reduced, _ = rect.rref()
        assert _exact(field, _flat(reduced))

    check()


def test_zero_row_results_stay_fractions():
    m = Matrix(QQ, [[0, 0], [1, Fraction(1, 2)]])
    assert _exact(QQ, m.apply([3, 4]))
    assert _exact(QQ, _flat(m @ m)) and _exact(QQ, _flat(reference_pow(m, 0)))
    assert _exact(QQ, [x for v in m.kernel() for x in v])
    assert _exact(QQ, _flat(Matrix.identity(QQ, 2)))
    inverse = Matrix(QQ, [[0, 1], [3, 0]]).inverse()
    assert _exact(QQ, _flat(inverse)) and inverse.entries[0][1] == QQ.scalar(Fraction(1, 3))


def test_scalars_of_another_field_are_rejected():
    with pytest.raises(FieldMismatch):
        Matrix(F5, [[F7.one(), 0]])
    m = Matrix(F5, [[1, 2]])
    with pytest.raises(FieldMismatch):
        m.apply([F7.one(), 0])
    with pytest.raises(FieldMismatch):
        Matrix.from_columns(F5, [[F7.one()]])
    with pytest.raises(FieldMismatch):
        int_vector(F5, (F7.one(), 0))
    with pytest.raises(FieldMismatch):
        m @ Matrix(F7, [[1], [2]])


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(ValueError, match="ragged columns"):
        Matrix.from_columns(QQ, [(1, 2), (3, 4, 5)])
    with pytest.raises(ValueError, match="ragged columns"):
        Matrix.from_columns(QQ, [(1, 2, 3), (4, 5)])


def test_echelon_rejects_vectors_of_another_length():
    # `same_span` is the one caller that hands `Echelon` vectors from outside the package
    with pytest.raises(DimensionMismatch):
        same_span(QQ, [(0, 0)], [(1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        same_span(QQ, [(0, 0)], [(1,)])
    with pytest.raises(DimensionMismatch):
        same_span(F5, [(1, 0), (1, 0, 0)], [])
    assert same_span(F5, [(1, 2), (2, 4)], [(3, 1)]) and not same_span(F5, [(1, 2)], [(1, 0)])


# -- the integer kernel of Echelon against the reference elimination ----------------


@st.composite
def _kernel_matrices(draw, field):
    """A raw rows x cols matrix, wide, tall or square: all zero, of full rank
    (upper triangular with a nonzero diagonal, rows shuffled), or one of the
    rank-deficient grids of `_echelon_cases`, Fractions with large coprime
    denominators over Q."""
    grid = draw(_echelon_cases(field))[0]
    rows, cols = len(grid), len(grid[0])
    kind = draw(st.sampled_from(["zero", "full", "grid"]))
    if kind == "zero":
        grid = [[0] * cols for _ in range(rows)]
    elif kind == "full":
        nonzero = st.integers(1, field.p - 1) if field.p else st.builds(
            Fraction, st.integers(1, 10**6), st.sampled_from([1, 97, 65537, 10**9 + 7]))
        for i in range(min(rows, cols)):
            grid[i][:i] = [0] * i
            grid[i][i] = draw(nonzero) * draw(st.sampled_from([1, -1]))
        grid = draw(st.permutations(grid))
    return [raw_values(field, row) for row in grid]


def _reference_kernel(field, rows):
    """The kernel basis from `reference_rref`: a unit entry at each free
    column f and -reduced[r][f] at the pivot of row r, as raw values."""
    reduced, pivots = reference_rref(field, rows)
    cols = len(rows[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [field.zero()] * cols
        v[f] = field.one()
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append([x.value for x in v])
    return basis


def positive_multiple(field, vector, unit):
    """Whether the int vector is m times the raw vector unit for an m > 0
    (m = 1 over F_p), m read off unit's last nonzero entry, which is 1."""
    f = max(i for i, a in enumerate(unit) if a)
    m = vector[f]
    if field.p:
        return unit[f] == 1 and vector == unit
    return unit[f] == 1 and m > 0 and all(Fraction(a) == m * b for a, b in zip(vector, unit))


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_integer_kernel_against_reference(field):
    @given(_kernel_matrices(field))
    def check(grid):
        expected = _reference_kernel(field, grid)
        span, width = DenseEchelon(field, grid), len(grid[0])
        integer = span.kernel(width)
        assert len(integer) == len(expected) == width - span.rank
        assert all(type(a) is int and a for v in integer for a in v.values())
        assert all(positive_multiple(field, _dense(width, v), u) for v, u in zip(integer, expected))
        kernel = Matrix(field, grid).kernel_raw()
        assert kernel == expected
        assert all(_raws_over_q_are_fractions(field, v) for v in kernel)

    check()


def test_integer_kernel_of_a_rational_matrix_by_hand():
    # rows (3, 0, 2, 1) and (0, 2, 1, 0): free columns 2 and 3
    span = DenseEchelon(QQ, [(Fraction(3, 5), 0, Fraction(2, 5), Fraction(1, 5)), (0, 4, 2, 0)])
    assert span._rows == {0: {0: 3, 2: 2, 3: 1}, 1: {1: 2, 2: 1}}
    # column 2: m = lcm(3, 2) = 6, so (-2 * 2, -1 * 3, 6, 0); column 3: m = 3, so (-1, 0, 0, 3)
    assert span.kernel(4) == [{0: -4, 1: -3, 2: 6}, {0: -1, 3: 3}]
    assert Matrix(QQ, [[3, 0, 2, 1], [0, 2, 1, 0]]).kernel_raw() == [
        [Fraction(-2, 3), Fraction(-1, 2), 1, 0], [Fraction(-1, 3), 0, 0, 1]]
    assert Echelon(QQ).kernel(2) == [{0: 1}, {1: 1}]  # the empty span


# -- the full-rank certificate mod 2^61 - 1 against the integer Echelon ---------------


def _echelon_kernel(rows):
    """`kernel_raw` over Q without the certificate: the integer `Echelon`'s
    kernel vectors, each divided by its entry at its free column."""
    span = DenseEchelon(QQ, rows)
    cols = len(rows[0])
    free = [c for c in range(cols) if c not in span.pivots]
    return [[Fraction(v.get(j, 0), v[f]) for j in range(cols)] for f, v in zip(free, span.kernel(cols))]


def test_certified_kernel_against_integer_echelon():
    @given(_kernel_matrices(QQ))
    def check(grid):
        assert Matrix(QQ, grid).kernel_raw() == _echelon_kernel(grid)
        full = DenseEchelon(QQ, grid).rank == len(grid[0])
        assert not _full_rank_mod([cleared(row)[1] for row in grid], len(grid[0])) or full

    check()


P61 = CERTIFICATE_PRIME


@pytest.mark.parametrize("rows, rank", [
    ([[P61, 0], [0, 1]], 2),  # regular over Q, singular mod P
    ([[2, 1], [1, Fraction(P61 + 1, 2)]], 2),  # determinant P
    ([[Fraction(1, 2), 1], [1, Fraction(P61 + 4, 2)]], 2),  # cleared rows (1, 2), (2, P + 4): determinant P
    ([[P61, 2 * P61], [1, 2]], 1),
    ([[1, 2, 3], [2, 4, 6], [0, 1, P61]], 2),
])
def test_certificate_falls_back_where_it_cannot_decide(rows, rank):
    rows = [raw_values(QQ, row) for row in rows]
    assert not _full_rank_mod([cleared(row)[1] for row in rows], len(rows[0]))
    kernel = Matrix(QQ, rows).kernel_raw()
    assert kernel == _echelon_kernel(rows) and len(kernel) == len(rows[0]) - rank


def test_certified_full_rank_skips_the_integer_elimination(monkeypatch):
    rows = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]  # the Hilbert matrix
    assert _full_rank_mod([cleared(raw_values(QQ, row))[1] for row in rows], 6)
    monkeypatch.setattr(linalg, "Echelon", None)
    assert Matrix(QQ, rows).kernel_raw() == []
    with pytest.raises(TypeError):  # a wide matrix has a kernel: the certificate declines it
        Matrix(QQ, rows[:5]).kernel_raw()


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
def test_dense_kernel_vectors_share_the_raw_zero(field):
    """`kernel_raw` makes the sparse kernel vectors dense with the field's one raw zero, not one
    `Fraction(0, m)` per zero entry."""
    kernel = Matrix(field, [[1, 2, 0, 0], [2, 4, 0, 0]]).kernel_raw()
    zeros = [c for v in kernel for c in v if not c]
    assert len(kernel) == 3 and zeros and all(c is zeros[0] and c == 0 for c in zeros)
