import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import splitspin

from splitspin import (
    Field,
    Matrix,
    QuadraticSpace,
    classify_idempotent,
    enumerate_idempotents_bruteforce,
    exceptional_cover,
    family_axis,
    is_idempotent,
    split_spin,
)
from splitspin.errors import (
    BudgetExceeded,
    CharTwo,
    NotFiniteField,
    NotIdempotent,
    NotNormOne,
    WrongAlgebraKind,
)
from splitspin.idempotents import FAMILY_A, FAMILY_B, FAMILY_EXC

QQ = Field.rationals()
F3 = Field.prime(3)
F5 = Field.prime(5)


def identity_space(field, dim):
    return QuadraticSpace(Matrix.identity(field, dim))


@pytest.fixture
def A3():
    return split_spin(identity_space(QQ, 2), 3)


def test_basic_idempotents(A3):
    assert is_idempotent(A3.basis_by_label("z1"))
    assert is_idempotent(A3.identity())
    assert not is_idempotent(A3.basis(0))  # e e = -z, not e


def test_family_a_explicit(A3):
    x = family_axis(A3, [1, 0], FAMILY_A)
    assert x == A3.element([Fraction(1, 2), 0, Fraction(3, 2), 2])


def test_family_b_is_complement_of_family_a(A3):
    # 1 - x_a(e) = x_b(-e)
    one = A3.identity()
    x = family_axis(A3, [1, 0], FAMILY_A)
    assert one - x == family_axis(A3, [-1, 0], FAMILY_B)


def test_family_exc():
    cover = exceptional_cover(identity_space(QQ, 1))
    x = family_axis(cover, [1], FAMILY_EXC)
    assert x == cover.element([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)])
    assert is_idempotent(x)


def test_family_axis_rejects_bad_inputs(A3):
    with pytest.raises(NotNormOne):
        family_axis(A3, [2, 0], FAMILY_A)
    with pytest.raises(WrongAlgebraKind):
        family_axis(A3, [1, 0], FAMILY_EXC)
    cover = exceptional_cover(identity_space(QQ, 2))
    with pytest.raises(WrongAlgebraKind):
        family_axis(cover, [1, 0], FAMILY_A)
    char2 = split_spin(identity_space(Field.prime(2), 1), 1)
    with pytest.raises(CharTwo):
        family_axis(char2, [1], FAMILY_A)


def test_family_axis_rejects_perturbed_table_under_optimize():
    # python -O strips assert statements; the idempotence check must still raise
    script = textwrap.dedent(
        """
        import sys
        from splitspin import Field, Matrix, QuadraticSpace, family_axis, split_spin
        from splitspin.algebra import Algebra
        from splitspin.errors import VerificationFailed
        from splitspin.idempotents import FAMILY_A

        assert False, "assert statements run: not optimised"
        QQ = Field.rationals()
        algebra = split_spin(QuadraticSpace(Matrix.identity(QQ, 2)), 3)
        table = [list(row) for row in algebra.table]
        table[0][0] = tuple(c + (1 if k == 2 else 0) for k, c in enumerate(table[0][0]))
        broken = Algebra(QQ, algebra.labels, table, algebra.meta)
        try:
            family_axis(broken, [1, 0], FAMILY_A)
        except VerificationFailed as exc:
            print("VerificationFailed", exc.witness.coords)
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("VerificationFailed (")


def test_classify_templates(A3):
    x = family_axis(A3, [1, 0], FAMILY_A)
    verdict = classify_idempotent(A3, x)
    assert verdict.tag == "family_a"
    assert verdict.e == (QQ.one(), QQ.zero())
    assert classify_idempotent(A3, A3.basis_by_label("z2")).tag == "z2"
    assert classify_idempotent(A3, A3.identity()).tag == "one"


def test_classify_exceptional_minus():
    cover = exceptional_cover(identity_space(QQ, 1))
    x_minus = cover.element([Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)])
    verdict = classify_idempotent(cover, x_minus)
    assert verdict.tag == "family_exc"
    assert verdict.e == (-QQ.one(),)


def test_classify_rejects_non_idempotents(A3):
    with pytest.raises(NotIdempotent):
        classify_idempotent(A3, A3.basis(0))
    with pytest.raises(NotIdempotent):
        classify_idempotent(A3, A3.zero())


def test_bruteforce_split_example():
    algebra = split_spin(QuadraticSpace(Matrix(F5, [[1]])), 2)
    found = enumerate_idempotents_bruteforce(algebra)
    assert len(found) == 7  # 1, z1, z2 plus two per family from e = +-e1
    tags = sorted(classify_idempotent(algebra, x).tag for x in found)
    assert tags == ["family_a", "family_a", "family_b", "family_b", "one", "z1", "z2"]


def test_bruteforce_f3_no_norm_one():
    # 2 lambda^2 = 1 is insoluble mod 3, so only the Z-idempotents remain
    algebra = split_spin(QuadraticSpace(Matrix(F3, [[2]])), 0)
    found = enumerate_idempotents_bruteforce(algebra)
    tags = sorted(classify_idempotent(algebra, x).tag for x in found)
    assert tags == ["one", "z1", "z2"]


def test_bruteforce_cover_example():
    algebra = exceptional_cover(QuadraticSpace(Matrix(F5, [[1]])))
    found = enumerate_idempotents_bruteforce(algebra)
    assert len(found) == 3  # z1 plus one family member for each of e = +-e1
    tags = sorted(classify_idempotent(algebra, x).tag for x in found)
    assert tags == ["family_exc", "family_exc", "z1"]


def test_bruteforce_requires_finite_field(A3):
    with pytest.raises(NotFiniteField):
        enumerate_idempotents_bruteforce(A3)


def test_bruteforce_budget():
    algebra = split_spin(identity_space(F5, 2), 2)
    with pytest.raises(BudgetExceeded):
        enumerate_idempotents_bruteforce(algebra, budget=16)


def test_sigma_stability_and_quarter_norm():
    space = identity_space(F5, 2)
    algebra = split_spin(space, 2)
    found = {x.coords for x in enumerate_idempotents_bruteforce(algebra)}
    quarter = F5.half() * F5.half()
    for coords in found:
        u = coords[:2]
        minus = tuple(-c for c in u) + coords[2:]
        assert minus in found  # sigma sends idempotents to idempotents
        if any(u):
            assert space.bform(u, u) == quarter
