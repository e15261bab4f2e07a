import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitspin import Field, Matrix, QuadraticSpace
from splitspin.errors import IsotropicVector

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
    assert q.reflection([1, 0]) == Matrix.diagonal(QQ, [-1, 1])


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


def reference_norm_one_sampled(q, budget, seed, max_results):
    """The sampled search as it scored candidates before the integer form:
    each candidate boxed, its norm a Scalar, rescaled by its Scalar root."""
    from splitspin.linalg import span_rank
    from splitspin.quadratic import NormOneSearch

    rng = random.Random(seed)
    n = q.dim
    found, seen = [], set()

    def consider(raw):
        v = q.vector(raw)
        nrm = q.norm(v)
        if nrm.is_zero:
            return
        root = nrm.sqrt()
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
                spans_now = span_rank(q.field, found) == n
        else:
            stagnant += 1
        if len(found) >= max_results:
            break
        if spans_now and stagnant >= 200:
            break
    if found:
        return NormOneSearch("sampled", tuple(found), span_rank(q.field, found) == n)
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
]


@pytest.mark.parametrize("field, rows, budget, status", NORM_ONE_CASES)
def test_norm_one_sampled_matches_boxed_scorer(field, rows, budget, status):
    """Same status, vectors in the same order and same spans as the boxed
    scorer, for two seeds and two result caps."""
    q = space(field, rows)
    for seed in (0, 5):
        for max_results in (3, 16):
            expected = reference_norm_one_sampled(q, budget, seed, max_results)
            assert expected.status == status
            assert q.find_norm_one(budget, seed, max_results) == expected
