import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from splitspin import Field, Matrix
from splitspin.errors import DimensionMismatch
from splitspin.linalg import Echelon, span_contains, vec_is_zero

QQ = Field.rationals()
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
F10007 = Field.prime(10007)


def test_kernel_of_identity_is_trivial():
    assert Matrix.identity(QQ, 2).kernel() == ()


def test_kernel_of_zero_matrix_is_everything():
    kernel = Matrix.zeros(QQ, 2, 2).kernel()
    assert len(kernel) == 2


def test_kernel_rank_one():
    # hand elimination: rref [[1, 1], [0, 0]], free column 1
    m = Matrix(QQ, [[1, 1], [1, 1]])
    kernel = m.kernel()
    assert len(kernel) == 1
    assert m.apply(kernel[0]) == (QQ.zero(), QQ.zero())
    # spans the same line as (1, -1)
    assert span_contains(QQ, [kernel[0]], (QQ.one(), -QQ.one()))


def test_solve_identity():
    v = (QQ.scalar(3), QQ.scalar(-2))
    assert Matrix.identity(QQ, 2).solve(v) == v


def test_solve_inconsistent():
    assert Matrix(QQ, [[1, 0], [0, 0]]).solve([0, 1]) is None


def test_solve_prime_field():
    assert Matrix(F5, [[2]]).solve([3]) == (F5.scalar(4),)  # 2 * 4 = 8 = 3 mod 5


def test_mat_pow_rotation():
    rot = Matrix(QQ, [[0, -1], [1, 0]])
    assert rot.pow(4) == Matrix.identity(QQ, 2)
    assert rot.pow(2) == -Matrix.identity(QQ, 2)


def test_mat_pow_zero_exponent():
    m = Matrix(QQ, [[2, 5], [1, 7]])
    assert m.pow(0) == Matrix.identity(QQ, 2)


def test_mat_pow_f5_order_three():
    m = Matrix(F5, [[4, 4], [1, 0]])
    # oracle: naive repeated multiplication
    naive = m
    for _ in range(2):
        naive = naive @ m
    assert naive == Matrix.identity(F5, 2)
    assert m.pow(3) == naive


def test_pow_requires_square():
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(QQ, 2, 3).pow(2)


def test_inverse_and_det():
    m = Matrix(QQ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(QQ, 2)
    assert m.det() == QQ.one()
    assert Matrix(QQ, [[1, 1], [1, 1]]).inverse() is None
    assert Matrix(QQ, [[1, 1], [1, 1]]).det() == QQ.zero()


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _matrix_strategy(field, n, entries):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Matrix(field, rows))


@given(_matrix_strategy(QQ, 2, small_rationals), st.integers(0, 6), st.integers(0, 6))
def test_mat_pow_additivity(m, a, b):
    assert m.pow(a + b) == m.pow(a) @ m.pow(b)


@given(_matrix_strategy(F7, 3, st.integers(0, 6)), st.integers(0, 10), st.integers(0, 10))
def test_mat_pow_additivity_prime(m, a, b):
    assert m.pow(a + b) == m.pow(a) @ m.pow(b)


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


@given(
    _matrix_strategy(QQ, 3, small_rationals),
    st.lists(small_rationals, min_size=3, max_size=3),
)
def test_solve_correctness(m, rhs):
    rhs_vec = tuple(QQ.scalar(x) for x in rhs)
    solution = m.solve(rhs_vec)
    sym = sympy.Matrix(3, 3, [x.value for row in m.entries for x in row])
    augmented = sym.row_join(sympy.Matrix([[Fraction(x)] for x in rhs]))
    consistent = augmented.rank() == sym.rank()
    if solution is None:
        assert not consistent
    else:
        assert consistent
        assert m.apply(solution) == rhs_vec


@given(_matrix_strategy(F5, 3, st.integers(0, 4)))
def test_rref_idempotent(m):
    reduced, pivots = m.rref()
    again, pivots2 = reduced.rref()
    assert again == reduced and pivots2 == pivots


def test_vector_helpers():
    assert vec_is_zero((QQ.zero(), QQ.zero()))
    assert not vec_is_zero((QQ.zero(), QQ.one()))


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


def _check_echelon(field, vecs, query):
    span, accepted = Echelon(field), []
    for v in vecs:
        fresh = not _in_span(field, accepted, v)
        assert span.add(v) == fresh
        if fresh:
            accepted.append(v)
    reduced, pivots = reference_rref(field, vecs)
    assert span.rank == len(accepted) == len(pivots)
    assert span.rref() == (reduced[: len(pivots)], pivots)
    if vecs:
        assert Matrix(field, vecs).rank() == len(pivots)
    inside = _in_span(field, accepted, query)
    assert span.contains(query) == inside
    coords = span.coordinates(query)
    if not inside:
        assert coords is None
        return
    assert len(coords) == len(accepted)
    combo = [field.zero()] * len(query)
    for c, v in zip(coords, accepted):
        combo = [a + c * x for a, x in zip(combo, v)]
    assert tuple(combo) == query
    if accepted:  # the accepted vectors are independent: coordinates are unique
        assert coords == reference_solve(field, accepted, query)
        assert coords == Matrix.from_columns(field, accepted).solve(query)


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
    @given(_rect_matrix(field, entries), st.data())
    def check(m, data):
        reduced, pivots = reference_rref(field, m.entries)
        assert m.rref() == (Matrix(field, reduced), pivots)
        rhs = tuple(field.scalar(x) for x in data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows)))
        columns = [m.column(j) for j in range(m.cols)]
        assert m.solve(rhs) == reference_solve(field, columns, rhs)
        if m.is_square:
            n = m.rows
            unit = [tuple(field.one() if i == j else field.zero() for i in range(n)) for j in range(n)]
            expected = [reference_solve(field, columns, e) for e in unit] if len(pivots) == n else None
            inverse = m.inverse()
            assert (inverse is None) == (expected is None)
            if inverse is not None:
                assert inverse == Matrix.from_columns(field, expected)

    check()
