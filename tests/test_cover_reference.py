"""The cover's subalgebra claims as injective homomorphisms, against the
closures they replaced.

`verify_cover` maps the quotient modulo <n> into S(b, -1) by label and
3C(-1) onto x, x-, z1, checks each map with `check_isomorphism`, and reads
the nil ideal off n's stored cells.  The references below are those checks
as they ran before: the closure of E + F z1 in S(b, -1), its dimension
k + 1 and the identity map from the quotient; the closure of x, x-, z1, its
dimension 3 and the identity map from 3C(-1); and n times every basis
vector as `Element` products.  Each map is decided by the Fraction body of
`check_isomorphism` (`test_int_closure.reference_check_isomorphism`).  Both
must give the same flags on valid covers and on tables altered to flip one.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitspin.cover as cover
from splitspin import Field, Matrix, QuadraticSpace, verify_cover
from splitspin.algebra import Algebra
from splitspin.axial import class_axes
from splitspin.idempotents import FAMILY_EXC, family_axis
from test_int_closure import reference_check_isomorphism

QQ = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)
F11 = Field.prime(11)
BUDGET = 300  # norm-one candidates; a definite form over Q may have none


def reference_flags(report):
    """(nil_ideal_ok, quotient_iso_ok, three_c_ok) of the report's cover and
    witnesses, through the closures and square identity maps."""
    algebra, space = report.algebra, report.space
    field, k = space.field, space.dim
    nil = algebra.basis_by_label("n")
    nil_ideal_ok = all((nil * algebra.basis(i)).is_zero for i in range(algebra.dim))
    quot = algebra.quotient([nil]).algebra
    ambient = cover.split_spin(space, -field.one())
    sub = ambient.subalgebra([ambient.basis(i) for i in range(k)] + [ambient.basis_by_label("z1")]).algebra
    quotient_iso_ok = sub.dim == k + 1 and reference_check_isomorphism(quot, sub, Matrix.identity(field, k + 1))[0]
    three_c_ok = None
    if report.witnesses:
        (_, z1, _), (_, x, _), *_ = class_axes(algebra, report.witnesses)
        x_minus = family_axis(algebra, tuple(-c for c in report.witnesses[0]), FAMILY_EXC)
        b_x = algebra.subalgebra([x, x_minus, z1]).algebra
        model = cover.matsuo_3c(field, -field.one())
        three_c_ok = b_x.dim == 3 and reference_check_isomorphism(model, b_x, Matrix.identity(field, 3))[0]
    return nil_ideal_ok, quotient_iso_ok, three_c_ok


def flags(report):
    return report.nil_ideal_ok, report.quotient_iso_ok, report.three_c_ok


# -- valid covers ----------------------------------------------------------------------

ENTRIES = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))


@st.composite
def spaces(draw):
    """A quadratic space over Q, F_5, F_7 or F_11 with dim E 1-4; a zero
    last row and column, or a rank-one Gram c v v^T, make it degenerate."""
    field = draw(st.sampled_from([QQ, F5, F7, F11]))
    k = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["regular", "zero_last", "rank_one"]))
    v, c = draw(st.lists(ENTRIES, min_size=k, max_size=k)), draw(ENTRIES)
    rows = [[0] * k for _ in range(k)]
    for i, j in itertools.combinations_with_replacement(range(k), 2):
        entry = c * v[i] * v[j] if shape == "rank_one" else 0 if shape == "zero_last" and j == k - 1 else draw(ENTRIES)
        rows[i][j] = rows[j][i] = entry
    return QuadraticSpace(Matrix(field, rows))


@settings(max_examples=40)
@given(spaces(), st.integers(0, 3))
def test_valid_covers_give_the_closure_flags(space, seed):
    report = verify_cover(space, norm_one_budget=BUDGET, seed=seed)
    assert flags(report) == reference_flags(report)
    assert report.nil_ideal_ok and report.quotient_iso_ok and report.three_c_ok in (True, None)


NAMED = [(QQ, [[1, 0], [0, 1]]), (F7, [[1, 2], [2, 4]]), (F11, [[2, 1, 0], [1, 0, 0], [0, 0, 0]])]


@pytest.mark.parametrize("field, rows", NAMED, ids=["QQ", "F7-degenerate", "F11-degenerate"])
def test_named_covers_give_the_closure_flags(field, rows):
    report = verify_cover(QuadraticSpace(Matrix(field, rows)), norm_one_budget=BUDGET)
    assert report.all_ok and report.witnesses
    # the quotient map sends the quotient's basis to the first dim - 1 basis vectors of S(b, -1), label to label
    quot = report.algebra.quotient([report.algebra.basis_by_label("n")]).algebra
    assert quot.labels == cover.split_spin(report.space, -1).labels[:-1]
    assert flags(report) == reference_flags(report) == (True, True, True)


# -- tables altered to flip a flag ---------------------------------------------------------

SPACES = [(QQ, [[1, 0], [0, 1]]), (F7, [[1, 2], [2, 3]]), (F5, [[1, 1, 0], [1, 2, 0], [0, 0, 0]])]
SPACE_IDS = ["QQ", "F7", "F5-degenerate"]


def altered(algebra, change):
    """The algebra on the same labels and meta with its raw constants passed through change."""
    constants = change(algebra, algebra.raw_constants())
    return Algebra(algebra.field, algebra.labels, constants, algebra.meta)


def z2_in_e_products(algebra, constants):
    """e f gains the z2 part of its z1 part: E + F z1 is no longer closed in S(b, -1)."""
    k, z1, z2 = algebra.e_dim, algebra.label_index("z1"), algebra.label_index("z2")
    return constants + [(i, j, z2, c) for i, j, t, c in constants if j < k and t == z1]


def e1_z1_doubled(algebra, constants):
    """e1 z1 = -2 e1 in S(b, -1) in place of -e1."""
    z1 = algebra.label_index("z1")
    return [(i, j, t, 2 * c if (i, j, t) == (0, z1, 0) else c) for i, j, t, c in constants]


def n_e1_is_n(algebra, constants):
    """n e1 = n in the cover: <n> is still an ideal, but not a nil one."""
    nil = algebra.label_index("n")
    return constants + [(0, nil, nil, 1)]


def _run(monkeypatch, field, rows, name, change):
    build = getattr(cover, name)
    monkeypatch.setattr(cover, name, lambda *args: change(build(*args)))
    report = verify_cover(QuadraticSpace(Matrix(field, rows)), norm_one_budget=BUDGET)
    assert flags(report) == reference_flags(report)
    return report


@pytest.mark.parametrize("field, rows", SPACES, ids=SPACE_IDS)
def test_a_split_spin_table_outside_e_plus_f_z1_fails_both_quotient_checks(field, rows, monkeypatch):
    report = _run(monkeypatch, field, rows, "split_spin", lambda a: altered(a, z2_in_e_products))
    assert report.nil_ideal_ok and not report.quotient_iso_ok and report.three_c_ok


@pytest.mark.parametrize("field, rows", SPACES, ids=SPACE_IDS)
def test_a_changed_e_z1_coefficient_fails_both_quotient_checks(field, rows, monkeypatch):
    report = _run(monkeypatch, field, rows, "split_spin", lambda a: altered(a, e1_z1_doubled))
    assert report.nil_ideal_ok and not report.quotient_iso_ok and report.three_c_ok


@pytest.mark.parametrize("field, rows", SPACES, ids=SPACE_IDS)
def test_a_wrong_alpha_3c_model_fails_both_3c_checks(field, rows, monkeypatch):
    matsuo_3c = cover.matsuo_3c
    monkeypatch.setattr(cover, "matsuo_3c", lambda field, alpha: matsuo_3c(field, 2))
    report = verify_cover(QuadraticSpace(Matrix(field, rows)), norm_one_budget=BUDGET)
    assert flags(report) == reference_flags(report) == (True, True, False)


@pytest.mark.parametrize("field, rows", [(QQ, [[-1, 0], [0, -2]]), (F7, [[3]]), (F5, [[2, 0], [0, 0]])],
                         ids=["QQ", "F7", "F5-degenerate"])
def test_a_cover_with_n_e1_n_fails_both_nil_checks(field, rows, monkeypatch):
    """On spaces without norm-one vectors: a family template presumes that n
    annihilates, and with n e1 = n it fails to square to itself."""
    report = _run(monkeypatch, field, rows, "exceptional_cover", lambda a: altered(a, n_e1_is_n))
    assert not report.nil_ideal_ok and report.quotient_iso_ok and report.witnesses == ()


# -- no closure and no Element product -----------------------------------------------------


@pytest.mark.parametrize("field, rows", SPACES + [(QQ, [[1]]), (QQ, [[-1]])], ids=SPACE_IDS + ["QQ-1", "QQ-none"])
def test_verify_cover_runs_no_closure_and_no_element_product(field, rows, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_cover ran a closure or an Element product")

    monkeypatch.setattr(Algebra, "subalgebra", refuse)
    monkeypatch.setattr(Algebra, "multiply", refuse)
    assert verify_cover(QuadraticSpace(Matrix(field, rows)), norm_one_budget=BUDGET).all_ok
