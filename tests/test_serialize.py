import json
from fractions import Fraction

import pytest

from splitspin import Field, Matrix, QuadraticSpace, exceptional_cover, matsuo_3c, split_spin
from splitspin.errors import DimensionMismatch
from splitspin.serialize import (
    algebra_from_json,
    algebra_to_json,
    matrix_to_json,
    vector_to_json,
)

QQ = Field.rationals()
F7 = Field.prime(7)


def test_scalar_encoding():
    assert vector_to_json([QQ.scalar(Fraction(-2, 4))]) == ["-1/2"]
    assert vector_to_json([F7.scalar(9)]) == [2]


def test_matrix_roundtrip():
    m = Matrix(QQ, [[1, Fraction(1, 2)], [Fraction(1, 2), 3]])
    doc = matrix_to_json(m)
    assert doc == [["1/1", "1/2"], ["1/2", "3/1"]]
    assert Matrix(QQ, doc) == m


def test_field_roundtrip():
    for field in (QQ, F7):
        assert Field.from_json(field.to_json()) == field


def test_algebra_roundtrip_split():
    space = QuadraticSpace(Matrix(QQ, [[1, 2], [2, 1]]))
    algebra = split_spin(space, Fraction(5, 2))
    doc = algebra_to_json(algebra)
    json.dumps(doc)  # must be pure JSON
    rebuilt = algebra_from_json(doc)
    assert rebuilt.labels == algebra.labels
    assert rebuilt.constants == algebra.constants
    assert rebuilt.meta.kind == "split_spin"
    assert rebuilt.meta.alpha == algebra.meta.alpha


def test_algebra_roundtrip_cover():
    space = QuadraticSpace(Matrix(F7, [[1]]))
    algebra = exceptional_cover(space)
    rebuilt = algebra_from_json(algebra_to_json(algebra))
    assert rebuilt.constants == algebra.constants
    assert rebuilt.meta.space == space


@pytest.mark.parametrize("p, variant, alpha, special", [
    (3, "cover", None, True),  # alpha = -1 = 1/2
    (2, "cover", None, True),  # alpha = -1 = 1
    (7, "cover", None, False),
    (None, "split_spin", Fraction(1, 2), True),
    (None, "split_spin", 3, False),
])
def test_jordan_special_survives_a_json_round_trip(p, variant, alpha, special):
    field = Field.prime(p) if p else QQ
    space = QuadraticSpace(Matrix.identity(field, 1))
    algebra = exceptional_cover(space) if variant == "cover" else split_spin(space, alpha)
    doc = algebra_to_json(algebra)
    rebuilt = algebra_from_json(json.loads(json.dumps(doc)))
    assert algebra.meta.jordan_special == rebuilt.meta.jordan_special == special
    assert algebra_to_json(rebuilt) == doc
    assert ("jordan_special" in doc) == (variant == "split_spin")


def test_algebra_roundtrip_3c_and_quotient():
    cover = exceptional_cover(QuadraticSpace(Matrix(QQ, [[1, 2], [2, -1]])))
    quotient = cover.quotient([cover.basis_by_label("n")]).algebra
    for algebra in (matsuo_3c(F7, 3), matsuo_3c(QQ, Fraction(2, 3)), quotient):
        doc = algebra_to_json(algebra)
        rebuilt = algebra_from_json(json.loads(json.dumps(doc)))
        assert rebuilt.constants == algebra.constants
        assert algebra_to_json(rebuilt) == doc


def test_structure_constant_index_outside_the_basis():
    doc = algebra_to_json(matsuo_3c(F7, 3))
    doc["structure_constants"].append([0, 3, 0, 1])
    with pytest.raises(DimensionMismatch):
        algebra_from_json(doc)
    doc = algebra_to_json(matsuo_3c(F7, 3))
    doc["dimension"] = 4
    with pytest.raises(DimensionMismatch):
        algebra_from_json(doc)


def test_conflicting_structure_constants():
    doc = algebra_to_json(matsuo_3c(F7, 3))
    i, j, k, value = doc["structure_constants"][3]
    doc["structure_constants"].append([j, i, k, value + 1])
    with pytest.raises(ValueError, match="conflicting"):
        algebra_from_json(doc)


def test_sparse_triplets_only_state_upper_pairs():
    algebra = split_spin(QuadraticSpace(Matrix(QQ, [[1]])), 3)
    doc = algebra_to_json(algebra)
    for i, j, _, _ in doc["structure_constants"]:
        assert i <= j


def test_vector_encoding():
    assert vector_to_json((QQ.one(), QQ.scalar(-2))) == ["1/1", "-2/1"]
