import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitspin import Field, Matrix, QuadraticSpace, Scalar
from splitspin.errors import DimensionMismatch, FieldMismatch, IsotropicVector
from splitspin.fields import sqrt_mod
from splitspin.quadratic import MAX_SAMPLED
from test_fields import rational_root
from test_linalg import diagonal

QQ = Field.rationals()
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)


def space(field, rows):
    return QuadraticSpace(Matrix(field, rows))


def test_bform_orthonormal():
    q = space(QQ, [[1, 0], [0, 1]])
    assert q.bform([1, 0], [0, 1]) == QQ.zero()
    assert q.bform([1, 0], [1, 0]) == QQ.one()


def test_bform_reads_mu():
    mu = Fraction(2, 3)
    q = space(QQ, [[1, mu], [mu, 1]])
    assert q.bform([1, 0], [0, 1]) == QQ.scalar(mu)


def test_bform_zero_vector():
    q = space(QQ, [[1, 0], [0, 1]])
    assert q.bform([0, 0], [0, 0]) == QQ.zero()


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        space(QQ, [[1, 2], [3, 1]])


def test_reflection_coordinate():
    q = space(QQ, [[1, 0], [0, 1]])
    assert q.reflection([1, 0]) == diagonal(QQ, [-1, 1])


def test_reflection_negates_its_vector():
    q = space(QQ, [[2, 1], [1, 3]])
    e = q.vector([1, 1])
    assert q.reflection(e).apply(e) == tuple(-c for c in e)


def test_neg_reflection_formula():
    # -r_e sends f to 2 mu e - f
    mu = 2
    q = space(QQ, [[1, mu], [mu, 1]])
    image = q.neg_reflection([1, 0]).apply([0, 1])
    assert image == (QQ.scalar(4), QQ.scalar(-1))


def test_reflection_rejects_isotropic():
    q = space(QQ, [[0, 1], [1, 0]])
    with pytest.raises(IsotropicVector):
        q.reflection([1, 0])


def test_radical():
    assert space(QQ, [[1, 0], [0, 1]]).radical() == ()
    assert len(space(QQ, [[0, 0], [0, 0]]).radical()) == 2
    rad = space(QQ, [[1, 1], [1, 1]]).radical()
    assert len(rad) == 1
    assert space(QQ, [[1, 1], [1, 1]]).bform(rad[0], [1, 0]) == QQ.zero()


def test_norm_one_exhaustive_dim_one():
    search = space(F5, [[1]]).find_norm_one()
    assert search.status == "exhaustive"
    assert {v[0].value for v in search.vectors} == {1, 4}
    assert search.spans


def test_norm_one_exhaustive_matches_direct_scan():
    q = space(F5, [[1, 0], [0, 1]])
    search = q.find_norm_one()
    assert search.status == "exhaustive"
    direct = {
        tuple(F5.scalar(c) for c in raw)
        for raw in itertools.product(range(5), repeat=2)
        if q.norm([F5.scalar(c) for c in raw]).is_one
    }
    assert set(search.vectors) == direct


def test_norm_one_sampled_rational():
    search = space(QQ, [[1, 0], [0, 1]]).find_norm_one(budget=200, seed=1)
    assert search.status == "sampled"
    assert search.spans
    basis = {(QQ.one(), QQ.zero()), (QQ.zero(), QQ.one())}
    assert basis <= set(search.vectors)


def test_norm_one_negative_definite_rational():
    search = space(QQ, [[-1]]).find_norm_one(budget=300, seed=2)
    assert search.status == "unknown"
    assert search.vectors == ()


def test_norm_one_none_over_f3():
    # 2 lambda^2 = 1 has no solution mod 3
    search = space(F3, [[2]]).find_norm_one()
    assert search.status == "exhaustive"
    assert search.vectors == ()
    assert not search.spans


def test_norm_one_sampled_prime_rescales():
    # dim 5 over F_7 is beyond a tiny budget, forcing the sampled path
    q = QuadraticSpace(Matrix.identity(F7, 5))
    search = q.find_norm_one(budget=500, seed=3)
    assert search.status == "sampled"
    assert search.vectors
    for v in search.vectors:
        assert q.norm(v).is_one


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_reflection_involution_and_isometry(a, b, c):
    q = space(F5, [[1, a], [a, (b + 1)]])
    raw = [b, c]
    v = q.vector(raw)
    if q.norm(v).is_zero:
        return
    r = q.reflection(v)
    assert r @ r == Matrix.identity(F5, 2)
    assert r.transpose() @ q.gram @ r == q.gram


def test_every_returned_norm_one_vector_is_norm_one():
    for field, rows in [(F5, [[1, 2], [2, 3]]), (F7, [[1, 0], [0, 3]]), (QQ, [[1, 1], [1, 2]])]:
        q = space(field, rows)
        search = q.find_norm_one(budget=400, seed=4)
        for v in search.vectors:
            assert q.norm(v).is_one


def test_sample_orthogonal_preserves_form():
    rng = random.Random(9)
    for rows, field in [([[1, 0], [0, 1]], QQ), ([[1, 2], [2, 1]], F7), ([[1, 1], [1, 1]], QQ)]:
        q = space(field, rows)
        for _ in range(5):
            m = q.sample_orthogonal(rng)
            assert m.transpose() @ q.gram @ m == q.gram
            assert m.inverse() is not None


def test_sample_orthogonal_zero_form_is_identity():
    rng = random.Random(10)
    q = space(QQ, [[0, 0], [0, 0]])
    assert q.sample_orthogonal(rng) == Matrix.identity(QQ, 2)


# -- norm-one sampling against the boxed scorer -----------------------------------


def scalar_root(x):
    """A square root of the Scalar x in its field, or None if there is none."""
    p = x.field.p
    root = sqrt_mod(x.value, p) if p else rational_root(x.value)
    return None if root is None else x.field.scalar(root)


def reference_norm_one_sampled(q, budget, seed):
    """The sampled search as it scored candidates before the integer form:
    each candidate boxed, its norm a Scalar, rescaled by its Scalar root."""
    from splitspin.quadratic import NormOneSearch
    from test_linalg import DenseEchelon

    rng = random.Random(seed)
    n = q.dim
    found, seen = [], set()

    def consider(raw):
        v = q.vector(raw)
        nrm = q.norm(v)
        if nrm.is_zero:
            return
        root = scalar_root(nrm)
        if root is None:
            return
        scaled = tuple(x / root for x in v)
        if scaled not in seen:
            seen.add(scaled)
            found.append(scaled)

    def candidates():
        for i in range(n):
            base = [0] * n
            base[i] = 1
            yield tuple(base)
        for i in range(n):
            for j in range(i + 1, n):
                for si, sj in ((1, 1), (1, -1)):
                    base = [0] * n
                    base[i], base[j] = si, sj
                    yield tuple(base)
        while True:
            if q.field.p is None:
                yield tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            else:
                yield tuple(rng.randrange(q.field.p) for _ in range(n))

    spans_now, stagnant = False, 0
    for tried, raw in enumerate(candidates()):
        if tried >= budget:
            break
        before = len(found)
        consider(raw)
        if len(found) != before:
            stagnant = 0
            if not spans_now:
                spans_now = DenseEchelon(q.field, found).rank == n
        else:
            stagnant += 1
        if len(found) >= MAX_SAMPLED:
            break
        if spans_now and stagnant >= 200:
            break
    if found:
        return NormOneSearch("sampled", tuple(found), DenseEchelon(q.field, found).rank == n)
    return NormOneSearch("unknown", (), False)


NORM_ONE_CASES = [
    # Q, Fraction entries; the third finds two vectors that do not span
    (QQ, [[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(9, 4)]], 3000, "sampled"),
    (QQ, [[Fraction(1, 3), 0, 1], [0, Fraction(4, 9), Fraction(-2, 3)], [1, Fraction(-2, 3), 3]], 3000, "sampled"),
    (QQ, [[Fraction(25, 4), Fraction(1, 6)], [Fraction(1, 6), Fraction(2, 5)]], 3000, "sampled"),
    # degenerate, indefinite
    (QQ, [[1, 1, 0], [1, 1, 0], [0, 0, Fraction(1, 4)]], 3000, "sampled"),
    (QQ, [[1, 0], [0, -1]], 3000, "sampled"),
    (QQ, [[Fraction(1, 2), Fraction(3, 2)], [Fraction(3, 2), Fraction(-7, 3)]], 3000, "unknown"),
    # no norm-one vector within the budget
    (QQ, [[2, 1], [1, 3]], 1500, "unknown"),
    (QQ, [[3]], 500, "unknown"),
    (QQ, [[-1, 0], [0, Fraction(-1, 3)]], 500, "unknown"),
    # over F_p, p ** dim above the budget, so the search samples
    (F7, [[1, 2, 0, 0], [2, 3, 1, 0], [0, 1, 0, 5], [0, 0, 5, 6]], 300, "sampled"),
    (Field.prime(10007), [[1, 2, 3], [2, 5, 7], [3, 7, 0]], 400, "sampled"),
    (Field.prime(10007), [[0, 1], [1, 0]], 400, "sampled"),
    (Field.prime(11), [[2, 0, 0], [0, 0, 0], [0, 0, 6]], 300, "sampled"),
    # every candidate scales to +-e1 / 2, so later candidates give vectors already found
    (QQ, [[4]], 500, "sampled"),
    (Field.prime(10007), [[4]], 400, "sampled"),
    # degenerate, with random candidates that repeat a vector already found before the sixteenth
    (QQ, [[4, 0, 0], [0, 4, 0], [0, 0, 0]], 3000, "sampled"),
    (Field.prime(5), [[1, 0, 0], [0, 0, 0], [0, 0, 0]], 100, "sampled"),
]


@pytest.mark.parametrize("field, rows, budget, status", NORM_ONE_CASES)
def test_norm_one_sampled_matches_boxed_scorer(field, rows, budget, status):
    """Same status, vectors in the same order and same spans as the boxed
    scorer, for two seeds."""
    q = space(field, rows)
    for seed in (0, 5):
        expected = reference_norm_one_sampled(q, budget, seed)
        assert expected.status == status
        assert q.find_norm_one(budget, seed) == expected


# -- the one form against boxed Scalar references ----------------------------------

F10007 = Field.prime(10007)

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# large coprime denominators, so that s, the lcm of the Gram denominators, is large
big_rationals = st.builds(Fraction, st.integers(-10**6, 10**6),
                          st.sampled_from([1, 3, 10007, 65537, 999983, 2**61 - 1]))

FORM_FIELDS = [
    (QQ, st.one_of(small_rationals, big_rationals)),
    (F7, st.integers(0, 6)),
    (F10007, st.integers(0, 10006)),
]
FORM_FIELD_IDS = ["QQ", "F7", "F10007"]
# the fields and entries `Matrix.bilinear` was tested on before the form moved here
BILINEAR_FIELDS = [(QQ, small_rationals), (F5, st.integers(0, 4)), (F10007, st.integers(0, 10006))]
BILINEAR_FIELD_IDS = ["QQ", "F5", "F10007"]


def _exact(field, scalars):
    """Every Scalar over Q holds a Fraction; over F_p a residue in [0, p)."""
    for x in scalars:
        assert x.field == field
        if field.p is None:
            assert type(x.value) is Fraction, x
        else:
            assert type(x.value) is int and 0 <= x.value < field.p, x
    return True


def reference_form(field, gram, u, v):
    """u^T G v on boxed Scalars."""
    u, v = [field.scalar(x) for x in u], [field.scalar(x) for x in v]
    acc = field.zero()
    for i, row in enumerate(gram):
        for j, g in enumerate(row):
            acc = acc + u[i] * field.scalar(g) * v[j]
    return acc


def reference_reflection(field, gram, e):
    """The rows of r_e on boxed Scalars: column j is b_j - 2 b(e, b_j)/b(e, e) e."""
    n = len(e)
    e = [field.scalar(x) for x in e]
    nrm = reference_form(field, gram, e, e)
    units = [[field.one() if i == j else field.zero() for i in range(n)] for j in range(n)]
    columns = [[b - field.scalar(2) * reference_form(field, gram, e, unit) / nrm * x for b, x in zip(unit, e)]
               for unit in units]
    return tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))


@st.composite
def _grams(draw, entries, n):
    """A symmetric n x n Gram matrix: random, zero, or degenerate (its last
    row a copy of its first)."""
    cell = st.one_of(st.just(0), entries)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(cell)
    shape = draw(st.sampled_from(["random", "zero", "degenerate"]))
    if shape == "zero":
        rows = [[0] * n for _ in range(n)]
    elif shape == "degenerate" and n > 1:
        for j in range(n):
            rows[n - 1][j] = rows[j][n - 1] = rows[0][j]
        rows[n - 1][n - 1] = rows[0][0]
    return rows


@pytest.mark.parametrize("field, entries", BILINEAR_FIELDS, ids=BILINEAR_FIELD_IDS)
def test_bform_against_boxed_reference(field, entries):
    """The cases `Matrix.bilinear` was tested on, now on the form: sparse
    vectors, all-zero rows, exact Fractions over Q."""
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        gram = data.draw(_grams(entries, n))
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, n - 1))
            for j in range(n):
                gram[k][j] = gram[j][k] = 0
        u, v = (data.draw(st.lists(st.one_of(st.just(0), entries), min_size=n, max_size=n)) for _ in range(2))
        q = space(field, gram)
        form = q.bform(u, v)
        assert form == reference_form(field, gram, u, v) and _exact(field, [form])
        assert q.bform(q.vector(v), q.vector(u)) == form

    check()


@pytest.mark.parametrize("field, entries", FORM_FIELDS, ids=FORM_FIELD_IDS)
def test_form_and_reflections_against_boxed_reference(field, entries):
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        gram = data.draw(_grams(entries, n))
        e = data.draw(st.lists(st.one_of(st.just(0), entries), min_size=n, max_size=n))
        q = space(field, gram)
        nrm = q.norm(e)
        assert nrm == reference_form(field, gram, e, e) and _exact(field, [nrm])
        assert q.norm(q.vector(e)) == nrm == q.bform(e, e)
        if nrm.is_zero:
            with pytest.raises(IsotropicVector):
                q.reflection(e)
            with pytest.raises(IsotropicVector):
                q.neg_reflection(e)
            return
        expected = reference_reflection(field, gram, e)
        r, neg = q.reflection(e), q.neg_reflection(q.vector(e))
        assert r.entries == expected and _exact(field, [x for row in r.entries for x in row])
        assert neg.entries == tuple(tuple(-x for x in row) for row in expected)
        assert _exact(field, [x for row in neg.entries for x in row])
        assert neg == -r and r.transpose() @ q.gram @ r == q.gram

    check()


@pytest.mark.parametrize("field, gram", [
    (Field.prime(101), [[1, 6], [6, 1]]),
    (F7, [[2, 1, 0], [1, 3, 5], [0, 5, 4]]),
    (QQ, [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]),
    (QQ, [[1, 0, 0], [0, 2, 0], [0, 0, Fraction(3, 4)]]),
], ids=["F101", "F7", "QQ-2", "QQ-3"])
def test_raw_reflection_of_norm_one_vectors(field, gram):
    """For b(v, v) = 1 the raw rows of -r_v are 2 v (G v)^T - I, and
    neg_reflection(v) holds the same rows."""
    q = space(field, gram)
    vectors = q.find_norm_one().vectors
    assert vectors
    n, g = q.dim, q.gram.entries
    for v in vectors:
        rows = q.reflection_raw([c.value for c in v], -1)
        gv = [sum((g[j][k] * v[k] for k in range(n)), field.zero()) for j in range(n)]
        expected = [[2 * v[i] * gv[j] - int(i == j) for j in range(n)] for i in range(n)]
        assert [[field.scalar(c) for c in row] for row in rows] == expected
        assert _exact(field, [Scalar(field, c) for row in rows for c in row])
        assert rows == [list(row) for row in q.neg_reflection(v).raw]


def test_bform_of_a_zero_row_stays_a_fraction():
    q = space(QQ, [[0, 0], [0, Fraction(1, 2)]])
    assert _exact(QQ, [q.bform([1, 0], [1, 1]), q.norm([1, 0]), space(QQ, [[0]]).norm([3])])
    assert q.bform([0, 1], [1, 1]) == QQ.scalar(Fraction(1, 2))


def test_bform_rejects_scalars_of_another_field():
    q = space(F5, [[1, 2], [2, 0]])
    with pytest.raises(FieldMismatch):
        q.bform([1, 0], [0, F7.one()])
    with pytest.raises(FieldMismatch):
        q.norm([F7.one(), 0])
    with pytest.raises(FieldMismatch):
        q.neg_reflection([F7.one(), 0])
    with pytest.raises(DimensionMismatch):
        q.bform([1], [0, 1])


@pytest.mark.parametrize("field, rows, e", [
    (QQ, [[0, 1], [1, 0]], [1, 0]),
    (QQ, [[Fraction(1, 3), 0], [0, Fraction(-1, 3)]], [5, -5]),
    (QQ, [[1, 0], [0, 1]], [0, 0]),
    (F7, [[1, 0], [0, 6]], [3, 3]),
    (F10007, [[2, 0, 0], [0, 0, 0], [0, 0, 10005]], [1, 4, 10006]),
])
def test_reflections_reject_norm_zero_vectors(field, rows, e):
    q = space(field, rows)
    assert q.norm(e).is_zero
    with pytest.raises(IsotropicVector):
        q.reflection(e)
    with pytest.raises(IsotropicVector):
        q.neg_reflection(e)
