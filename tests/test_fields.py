from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitspin import Field, Scalar
from splitspin.errors import DivisionByZero, FieldMismatch
from splitspin.fields import MR_BOUND

QQ = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)


def test_rational_addition():
    assert QQ.scalar(Fraction(1, 2)) + QQ.scalar(Fraction(1, 3)) == QQ.scalar(Fraction(5, 6))


def test_prime_inverse():
    assert F5.scalar(3).inv() == F5.scalar(2)  # 3 * 2 = 6 = 1 mod 5


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


def test_sqrt():
    assert QQ.scalar(Fraction(9, 4)).sqrt() == QQ.scalar(Fraction(3, 2))
    assert QQ.scalar(2).sqrt() is None
    assert QQ.scalar(-1).sqrt() is None
    root = F7.scalar(2).sqrt()  # 3*3 = 9 = 2 and 4*4 = 16 = 2
    assert root is not None and root * root == F7.scalar(2)
    assert F5.scalar(2).sqrt() is None  # squares mod 5 are {0, 1, 4}


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
