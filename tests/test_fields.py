import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitspin import Field, Scalar
from splitspin.errors import DivisionByZero, FieldMismatch
from splitspin.fields import MR_BOUND, sqrt_mod

QQ = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)


def test_rational_addition():
    assert QQ.scalar(Fraction(1, 2)) + QQ.scalar(Fraction(1, 3)) == QQ.scalar(Fraction(5, 6))


def test_prime_inverse():
    assert F5.scalar(3).inv() == F5.scalar(2)  # 3 * 2 = 6 = 1 mod 5


def test_rational_inverse_of_an_int_valued_scalar_is_exact():
    inverse = Scalar(QQ, 3).inv()
    assert type(inverse.value) is Fraction
    assert inverse == QQ.scalar("1/3")
    assert (Scalar(QQ, -2) ** -2).value == Fraction(1, 4)


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZero):
        QQ.zero().inv()
    with pytest.raises(DivisionByZero):
        F5.scalar(10).inv()


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        QQ.one() + F5.one()
    with pytest.raises(FieldMismatch):
        F5.one() * F7.one()


def test_cross_field_equality_is_false():
    assert not (QQ.one() == F5.one())
    assert QQ.one() != F5.one()


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field.prime(1)
    assert Field.prime(2).characteristic == 2


def test_prime_field_rejects_p_beyond_the_deterministic_bound():
    # MR_BOUND = 399165290221 * 798330580441 passes Miller-Rabin to every base 2..37
    assert MR_BOUND == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="decided exactly below"):
        Field.prime(MR_BOUND)
    with pytest.raises(ValueError, match="decided exactly below"):
        Field.prime(MR_BOUND + 2)
    assert Field.prime(2**61 - 1).characteristic == 2**61 - 1


def test_residues_normalized():
    assert F5.scalar(-1) == F5.scalar(4)
    assert F5.scalar(17).value == 2


def test_fraction_coerces_into_prime_field():
    # 1/2 = inverse of 2 = 3 in F_5
    assert F5.scalar(Fraction(1, 2)) == F5.scalar(3)
    with pytest.raises(DivisionByZero):
        F5.scalar(Fraction(1, 5))


def test_half_rejected_in_characteristic_two():
    with pytest.raises(DivisionByZero):
        Field.prime(2).half()


def test_parse_and_serialize_roundtrip():
    s = QQ.scalar("-3/6")
    assert s == QQ.scalar(Fraction(-1, 2))
    assert s.to_json() == "-1/2"
    assert QQ.scalar(s.to_json()) == s
    t = F7.scalar("12")
    assert t.to_json() == 5
    assert F7.scalar(t.to_json()) == t


def test_serialization_is_reduced_with_positive_denominator():
    assert QQ.scalar(Fraction(4, -6)).to_json() == "-2/3"
    assert QQ.scalar(3).to_json() == "3/1"


def test_scalar_power():
    assert QQ.scalar(Fraction(2, 3)) ** 3 == QQ.scalar(Fraction(8, 27))
    assert F5.scalar(2) ** -1 == F5.scalar(3)


def rational_root(q):
    """The positive square root of the rational q, or None if q is not a square."""
    q = Fraction(q)
    n, d = (math.isqrt(max(a, 0)) for a in (q.numerator, q.denominator))
    return Fraction(n, d) if q >= 0 and (n * n, d * d) == (q.numerator, q.denominator) else None


def test_sqrt():
    """`sqrt_mod` against brute force for every residue: a root exactly for
    the squares.  Primes 1 mod 8 (17, 41, 97, 7681, 65537) run the
    Tonelli-Shanks loop past its first step."""
    for p in (2, 3, 5, 7, 13, 17, 41, 97, 7681, 65537):
        squares = {r * r % p for r in range(p)}
        for a in range(p):
            root = sqrt_mod(a, p)
            if a in squares:
                assert root is not None and 0 <= root < p and root * root % p == a, (p, a, root)
            else:
                assert root is None, (p, a, root)


rational_scalars = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
).map(QQ.scalar)
prime_scalars = st.integers(min_value=0, max_value=6).map(F7.scalar)


@pytest.mark.parametrize("strategy", [rational_scalars, prime_scalars], ids=["QQ", "F7"])
def test_field_axioms(strategy):
    @given(strategy, strategy, strategy)
    def inner(a: Scalar, b: Scalar, c: Scalar):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == a.field.zero()
        if b:
            assert b * b.inv() == b.field.one()
            assert (a / b) * b == a

    inner()


@given(rational_scalars)
def test_int_coercion_in_arithmetic(a):
    assert a + 0 == a
    assert 1 * a == a
    assert a - a.field.scalar(0) == a
    assert 2 * a == a + a


# -- one coercion behind every entry point -------------------------------------------

# value, its raw value (or the exception type) over Q, the same over F_5
COERCIONS = [
    (7, Fraction(7), 2),
    (-3, Fraction(-3), 2),
    (0, Fraction(0), 0),
    (10**30 + 1, Fraction(10**30 + 1), 1),
    (Fraction(3, 2), Fraction(3, 2), 4),
    (Fraction(4), Fraction(4), 4),
    (Fraction(2, 5), Fraction(2, 5), DivisionByZero),
    (Fraction(7, 10), Fraction(7, 10), DivisionByZero),
    ("12", Fraction(12), 2),
    (" -3/4 ", Fraction(-3, 4), 3),
    ("1/5", Fraction(1, 5), DivisionByZero),
    ("1/0", ZeroDivisionError, ZeroDivisionError),
    ("x", ValueError, ValueError),
    (True, TypeError, TypeError),
    (1.5, TypeError, TypeError),
    (None, TypeError, TypeError),
    (1j, TypeError, TypeError),
    (Scalar(QQ, Fraction(1, 3)), Fraction(1, 3), FieldMismatch),
    (Scalar(F5, 3), FieldMismatch, 3),
    (Scalar(F7, 3), FieldMismatch, FieldMismatch),
]


def _outcome(fn):
    """fn()'s result with its type, or the type of the exception it raises."""
    try:
        result = fn()
    except Exception as exc:  # the type is the recorded outcome
        return type(exc)
    return type(result), result


def _expected(outcome):
    return outcome if isinstance(outcome, type) else (type(outcome), outcome)


@pytest.mark.parametrize("field", [QQ, F5], ids=["QQ", "F5"])
@pytest.mark.parametrize("value, over_q, over_f5", COERCIONS, ids=[repr(row[0]) for row in COERCIONS])
def test_one_coercion_behind_every_entry_point(field, value, over_q, over_f5):
    from splitspin.fields import raw_value
    from splitspin.linalg import raw_values

    expected = over_q if field is QQ else over_f5
    zero, one = field.zero(), field.one()
    for coerce in (lambda: raw_value(field, value), lambda: field.scalar(value).value,
                   lambda: raw_values(field, [value])[0]):
        assert _outcome(coerce) == _expected(expected)
    # the operators take Scalars, ints and Fractions only: a str is left to Python
    operand = TypeError if isinstance(value, str) else expected
    for op in (lambda: zero + value, lambda: value + zero, lambda: one * value,
               lambda: value * one, lambda: value - zero, lambda: value / one):
        assert _outcome(lambda: op().value) == _expected(operand)
    # == never raises for a foreign Scalar or type, but does for a denominator divisible by p
    if operand is DivisionByZero:
        assert _outcome(lambda: one == value) is DivisionByZero
    elif isinstance(operand, type):
        assert _outcome(lambda: one == value) == (bool, False)
    else:
        assert Scalar(field, operand) == value
        assert Scalar(field, operand) + 1 != value
