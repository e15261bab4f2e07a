"""What `check_axis` spares, counted, and the facts that let it.

`Algebra.e_line` against its definition: the products of two basis vectors
of E span at most a line.  One `check_axis` of a class axis on a random
Gram at dim E = 30 computes O(n) products through `Algebra._mul_coords`,
where the full pair loop alone takes n (n + 1) / 2.  A family axis
evaluates `QuadraticSpace._image` once in `family_axis` and once in
`check_axis`.  `classes` builds its table once per algebra, and no caller
changes it."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitspin import Field, Matrix, QuadraticSpace, check_axis, exceptional_cover, family_axis, split_spin
from splitspin.algebra import Algebra, matsuo_3c
from splitspin.axial import axis_law, class_axes
from splitspin.idempotents import (
    FAMILY_A,
    classes,
    classify_idempotents,
    eigenbasis,
    expected_count,
)
from splitspin.linalg import raw_values
from test_algebra import add_to_constants, dense_table

QQ, F7, F10007 = Field.rationals(), Field.prime(7), Field.prime(10007)
FIELDS = pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])


def reference_e_line(algebra):
    """Whether the products b_i b_j of basis vectors of E span at most a line."""
    if algebra.meta.space is None:
        return False
    m, table = algebra.e_dim, dense_table(algebra)
    products = [table[i][j] for i in range(m) for j in range(i, m) if any(table[i][j])]
    return not products or Matrix(algebra.field, products).rank() == 1


def _scalars(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 7]))


@st.composite
def line_cases(draw, field):
    """Split spin, the cover or 3C on a drawn Gram of dim E 1-4 (zero ones
    included), as built or with one drawn cell changed."""
    k = draw(st.integers(1, 4))
    rows = [[0] * k for _ in range(k)]
    if draw(st.booleans()):
        for i in range(k):
            for j in range(i, k):
                rows[i][j] = rows[j][i] = draw(_scalars(field))
    space = QuadraticSpace(Matrix(field, rows))
    kind = draw(st.sampled_from(["split_spin", "cover", "3c"]))
    if kind == "3c":
        algebra = matsuo_3c(field, 3)
    elif kind == "cover":
        algebra = exceptional_cover(space)
    else:
        algebra = split_spin(space, draw(_scalars(field).filter(lambda a: a not in (0, 1))))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, algebra.dim - 1)), draw(st.integers(0, algebra.dim - 1))
        delta = draw(st.lists(_scalars(field), min_size=algebra.dim, max_size=algebra.dim))
        algebra = add_to_constants(algebra, [(i, j, t, d) for t, d in enumerate(delta)])
    return algebra


@FIELDS
def test_e_line_matches_the_rank_of_the_e_products(field):
    outcomes = set()

    @settings(derandomize=True, max_examples=80)
    @given(line_cases(field))
    def check(algebra):
        assert algebra.e_line is reference_e_line(algebra)
        assert algebra.e_line is algebra.e_line  # read off the cells once
        outcomes.add(algebra.e_line)

    check()
    assert outcomes == {True, False}


def random_gram_algebras(field, k=30, seed=30):
    """Split spin at alpha 3 and the cover on a random integer Gram of dim E
    k with b(e1, e1) = 1, so e1 has norm one."""
    rng = random.Random(seed)
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = rng.randint(1, 4)
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    rows[0][0] = 1
    space = QuadraticSpace(Matrix(field, rows))
    return [split_spin(space, 3), exceptional_cover(space)]


def _counted(monkeypatch, owner, name):
    calls, original = [], getattr(owner, name)

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("field", [QQ, F10007], ids=["QQ", "F10007"])
def test_check_axis_takes_linear_many_products(monkeypatch, field):
    for algebra in random_gram_algebras(field):
        n, e = algebra.dim, [1] + [0] * (algebra.e_dim - 1)
        assert algebra.e_line
        for tag, x, law in class_axes(algebra, [e]):
            assert eigenbasis(algebra, x, raw_values(field, law.eigenvalues)) is not None
            calls = _counted(monkeypatch, Algebra, "_mul_coords")
            report = check_axis(algebra, x, law)
            monkeypatch.undo()
            assert report.ok
            # eigenbasis checks n products x v; the loop takes one row per block outside E and one
            # product of the block inside E, against n (n + 1) / 2 for every pair
            assert len(calls) <= 3 * n < n * (n + 1) // 2, (tag, len(calls))


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_a_family_axis_evaluates_the_image_once_in_each_step(monkeypatch, field):
    space = QuadraticSpace(Matrix(field, [[1, 2, 0], [2, 3, 1], [0, 1, 5]]))
    algebra = split_spin(space, 3)
    calls = _counted(monkeypatch, QuadraticSpace, "_image")
    x = family_axis(algebra, [1, 0, 0], FAMILY_A)
    assert len(calls) == 1  # family_axis's own norm-one test
    assert check_axis(algebra, x, axis_law(algebra, "family_a")).ok
    assert len(calls) == 2  # the matcher's norm-one test, which also gives eigenbasis its g


@pytest.mark.parametrize("field", [QQ, F7, Field.prime(2)], ids=["QQ", "F7", "F2"])
def test_classes_is_built_once_and_no_caller_changes_it(field):
    space, odd = QuadraticSpace(Matrix(field, [[1, 0], [0, 1]])), field.characteristic != 2
    for build in (lambda: split_spin(space, 3 if odd else 1), lambda: exceptional_cover(space)):
        algebra = build()
        table = classes(algebra)
        assert classes(algebra) is table
        before = copy.deepcopy(table)
        if odd:  # over F_2 every eta is 1, and no law can be built
            for tag, x, law in class_axes(algebra, [[1, 0], [0, 1]]):
                assert eigenbasis(algebra, x, raw_values(field, law.eigenvalues)) is not None
                assert check_axis(algebra, x, law).ok
                assert classify_idempotents(algebra, [x])[0].tag == tag
        classify_idempotents(algebra, [algebra.basis_by_label("z1")])
        expected_count(algebra, 4)
        assert classes(algebra) is table and table == before == classes(build())
