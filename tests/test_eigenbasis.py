"""`idempotents.eigenbasis`, the paper's eigenvectors of a class axis,
against the solved path it spares `check_axis`: the kernels of
ad_x - lambda from `Algebra.eigenspaces_raw`.

Over Q (Fraction Grams and Fraction alpha), F_7 and F_10007, on random,
degenerate and zero Grams, at drawn alphas and the baric -1 and 2, for
z1, z2 and the families (a) and (b) of split spin and z1 and the family of
the cover: each block spans the solved eigenspace of its eigenvalue,
`check_axis` gives the report of a run forced onto the solved path (also
on algebras perturbed so that the fusion law fails on the template path),
and a mutated template vector is rejected unless it is still an
eigenvector, with the report unchanged either way.  `axial.class_axes`
reads each class's law off the `classes` table, takes the paper's path for
every axis it gives, and gives the reports of an explicit loop over the
classes.  The CLI's `axis-check` and `cover` solve no eigenspace, and a law
foreign to the class still takes the solved path."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitspin import Field, Matrix, QuadraticSpace, check_axis, exceptional_cover, family_axis, split_spin
from splitspin import axial, idempotents
from splitspin.algebra import Algebra
from splitspin.axial import axis_law, jordan_law, monster_law
from splitspin.cli import main
from splitspin.errors import IncompleteDecomposition
from splitspin.idempotents import (
    FAMILY_A,
    FAMILY_B,
    FAMILY_EXC,
    TAG_FAMILY_A,
    TAG_FAMILY_B,
    TAG_FAMILY_EXC,
    TAG_Z1,
    TAG_Z2,
    classes,
)
from splitspin.linalg import cleared, raw_values, same_span, sparse
from test_algebra import add_to_constants, dense

QQ, F7, F10007 = Field.rationals(), Field.prime(7), Field.prime(10007)
FIELDS = pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
DENOMINATORS = [1, 2, 3, 97, 65537]
FAMILIES = {TAG_FAMILY_A: FAMILY_A, TAG_FAMILY_B: FAMILY_B, TAG_FAMILY_EXC: FAMILY_EXC}


def _scalars(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-10**4, 10**4), st.sampled_from(DENOMINATORS))


@st.composite
def class_axes(draw, field, perturb=False):
    """(algebra, x, law) for a class axis under its own law.  The Gram has
    dim E 1-4 and is random with b(e1, e1) = s^2 (so e = e1 / s has norm
    one), degenerate (a coordinate appended as a combination of the
    others) or zero (no norm-one vector, so no family).  With perturb, the
    products of basis vectors outside the axis's support may be changed,
    which keeps the axis idempotent with the same adjoint."""
    k = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["random", "degenerate", "zero"]))
    rows = [[0] * k for _ in range(k)]
    s = 1
    if shape != "zero":
        for i in range(k):
            for j in range(i, k):
                rows[i][j] = rows[j][i] = draw(_scalars(field))
        s = draw(_scalars(field).filter(bool))
        rows[0][0] = s * s
    if shape == "degenerate":
        c = draw(st.lists(_scalars(field), min_size=k, max_size=k))
        image = [sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(k)]
        rows = [row + [image[i]] for i, row in enumerate(rows)] + [image + [sum(a * b for a, b in zip(c, image))]]
    space = QuadraticSpace(Matrix(field, rows))
    if draw(st.booleans()):
        algebra, tags = exceptional_cover(space), ["z1", TAG_FAMILY_EXC]
    else:
        half = Fraction(1, 2) if not field.p else pow(2, -1, field.p)
        alpha = draw(st.one_of(st.sampled_from([-1, 2]), _scalars(field)).filter(
            lambda a: field.scalar(a) not in (field.zero(), field.one(), field.scalar(half))))
        algebra, tags = split_spin(space, alpha), ["z1", "z2", TAG_FAMILY_A, TAG_FAMILY_B]
    if shape == "zero":
        tags = tags[:-2] if len(tags) == 4 else tags[:1]
    tag = draw(st.sampled_from(tags))
    e = [field.one() / field.scalar(s)] + [0] * (len(rows) - 1)
    x = algebra.basis_by_label(tag) if tag in ("z1", "z2") else family_axis(algebra, e, FAMILIES[tag])
    law = axis_law(algebra, tag)
    outside = [i for i, c in enumerate(x.raw) if not c]
    if perturb and outside and draw(st.booleans()):
        i, j = draw(st.sampled_from(outside)), draw(st.sampled_from(outside))
        delta = draw(st.lists(_scalars(field), min_size=algebra.dim, max_size=algebra.dim))
        algebra = add_to_constants(algebra, [(i, j, t, d) for t, d in enumerate(delta)])
        x = algebra.element(x.coords)
    return algebra, x, law


def _values(algebra, law):
    return raw_values(algebra.field, law.eigenvalues)


def _solved_report(algebra, x, law):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axial, "eigenbasis", lambda *args: None)
        return _outcome(check_axis(algebra, x, law))


def _proportional(p, v, w):
    return not any((a * d - b * c) % p if p else a * d - b * c for a, b in zip(v, w) for c, d in zip(v, w))


def _outcome(report):
    return report.dims, report.primitive, report.violations, report.miyamoto


@FIELDS
def test_each_block_spans_the_solved_eigenspace(field):
    @settings(derandomize=True, max_examples=60)
    @given(class_axes(field))
    def check(case):
        algebra, x, law = case
        values = _values(algebra, law)
        blocks = idempotents.eigenbasis(algebra, x, values)
        assert blocks is not None
        solved = algebra.eigenspaces_raw(x.raw, values)
        assert [len(block) for block in blocks] == [len(basis) for basis in solved]
        assert all(isinstance(c, int) and c for block in blocks for v in block for c in v.values())
        blocks, solved = ([[dense(v, algebra.dim) for v in basis] for basis in bases] for bases in (blocks, solved))
        for block, basis in zip(blocks, solved):
            assert same_span(field, block, basis)
            # vector by vector a nonzero multiple of the solved one, so every support, and with it the order
            # of the violations, is the same on both paths
            assert all(any(v) and _proportional(field.p, v, w) for v, w in zip(block, basis))

    check()


@FIELDS
def test_check_axis_matches_a_forced_solved_run(field):
    outcomes = set()

    @settings(derandomize=True, max_examples=80)
    @given(class_axes(field, perturb=True))
    def check(case):
        algebra, x, law = case
        template = idempotents.eigenbasis(algebra, x, _values(algebra, law))
        try:
            expected = _solved_report(algebra, x, law)
        except IncompleteDecomposition:  # a perturbation can leave an eigenvalue outside the law
            assert template is None
            with pytest.raises(IncompleteDecomposition):
                check_axis(algebra, x, law)
            return
        report = _outcome(check_axis(algebra, x, law))
        assert report == expected
        outcomes.add((template is not None, bool(report[2])))

    check()
    # the template path is taken with and without a violation, so its violations are compared too
    assert {(True, False), (True, True)} <= outcomes


@FIELDS
def test_a_mutated_template_vector_is_rejected(field):
    """One coefficient of the 0- or eta-eigenvector (the template vectors,
    whose dense ints `eigenbasis` hands to `sparse`) is moved; `eigenbasis`
    rejects the template exactly when the moved vector is no longer a
    lambda-eigenvector, and check_axis reports the same either way."""
    outcomes = set()

    @settings(derandomize=True, max_examples=60)
    @given(class_axes(field), st.integers(0, 1), st.data())
    def check(case, target, data):
        algebra, x, law = case
        values, n, xi = _values(algebra, law), algebra.dim, cleared(x.raw)[1]
        expected = _outcome(check_axis(algebra, x, law))
        built = []

        def recording(vector):
            if list(vector) != xi:
                built.append(list(vector))
            return sparse(vector)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(idempotents, "sparse", recording)
            idempotents.eigenbasis(algebra, x, values)
        if len(built) <= target:  # a point class builds only its 0-eigenvector as a template
            return
        assert all(len(vector) == n for vector in built)
        # any coordinate, or one in the template's support, where a moved coefficient may keep an eigenvector
        support = [i for i, c in enumerate(built[target]) if c]
        coordinate = data.draw(st.one_of(st.integers(0, n - 1), st.sampled_from(support)))
        delta = data.draw(st.integers(1, 6))
        moved = [c + delta if i == coordinate else c for i, c in enumerate(built[target])]
        vector = algebra.element(moved)
        if vector.is_zero:  # a multiple of p over F_p: no eigenvector to keep or lose
            return

        def mutating(vector):
            return sparse(moved if list(vector) == built[target] else vector)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(idempotents, "sparse", mutating)
            blocks = idempotents.eigenbasis(algebra, x, values)
            report = _outcome(check_axis(algebra, x, law))
        assert (blocks is None) == (x * vector != vector * law.eigenvalues[target + 1])
        assert report == expected
        outcomes.add(blocks is None)

    check()
    assert outcomes == {True, False}


@st.composite
def class_algebras(draw, field):
    """(algebra, witnesses) for a split spin algebra at an alpha outside
    {0, 1, 1/2} or the cover, on a random Gram of dim E 1-3 with
    b(e1, e1) = s^2, and the norm-one witnesses +-e1 / s."""
    k = draw(st.integers(1, 3))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = draw(_scalars(field))
    s = draw(_scalars(field).filter(bool))
    rows[0][0] = s * s
    space = QuadraticSpace(Matrix(field, rows))
    if draw(st.booleans()):
        algebra = exceptional_cover(space)
    else:
        alpha = draw(st.one_of(st.sampled_from([-1, 2]), _scalars(field)).filter(
            lambda a: field.scalar(a) not in (field.zero(), field.one(), field.half())))
        algebra = split_spin(space, alpha)
    e = [field.one() / field.scalar(s)] + [field.zero()] * (k - 1)
    return algebra, [e, [-c for c in e]][:draw(st.integers(0, 2))]


def _explicit_class_loop(algebra, witnesses):
    """(tag, report) for every class axis by a loop written out class by
    class: z1 and z2 where the table has them, then the families of each
    witness."""
    table, reports = classes(algebra), []
    for tag in (TAG_Z1, TAG_Z2):
        if tag in table:
            reports.append((tag, check_axis(algebra, algebra.basis_by_label(tag), axis_law(algebra, tag))))
    laws = {tag: (family, axis_law(algebra, tag)) for tag, (family, *_) in table.items() if family}
    for e in witnesses:
        for tag, (family, law) in laws.items():
            reports.append((tag, check_axis(algebra, family_axis(algebra, e, family), law)))
    return reports


@FIELDS
def test_class_axes_read_the_table_and_take_the_paper_path(field):
    @settings(derandomize=True, max_examples=40)
    @given(class_algebras(field))
    def check(case):
        algebra, witnesses = case
        one, zero, half = field.one(), field.zero(), field.half()
        for tag, (family, _, eta, _) in classes(algebra).items():
            if eta is not None:
                assert axis_law(algebra, tag).eigenvalues == (one, zero, field.scalar(eta)) + ((half,) if family else ())
        calls, solve = [], Algebra.eigenspaces_raw
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Algebra, "eigenspaces_raw", lambda self, *args: calls.append(args) or solve(self, *args))
            reports = [(tag, check_axis(algebra, x, law)) for tag, x, law in axial.class_axes(algebra, witnesses)]
        assert calls == []
        points, families = (1, 1) if algebra.meta.kind == "cover" else (2, 2)  # z1 (and z2); the families
        assert len(reports) == points + families * len(witnesses)
        expected = _explicit_class_loop(algebra, witnesses)
        assert [(tag, r.axis, r.law, _outcome(r)) for tag, r in reports] == [
            (tag, r.axis, r.law, _outcome(r)) for tag, r in expected]

    check()


@pytest.fixture
def solves(monkeypatch):
    """The argument tuples of every `Algebra.eigenspaces_raw` call."""
    calls, solve = [], Algebra.eigenspaces_raw

    def counting(self, *args):
        calls.append(args)
        return solve(self, *args)

    monkeypatch.setattr(Algebra, "eigenspaces_raw", counting)
    return calls


GRAMS = {"regular": '[["1","2","0"],["2","1/3","1"],["0","1","5"]]', "degenerate": '[["1","1"],["1","1"]]'}


@pytest.mark.parametrize("gram", GRAMS.values(), ids=GRAMS.keys())
@pytest.mark.parametrize("p", [None, 10007], ids=["QQ", "F10007"])
@pytest.mark.parametrize("command", ["axis-check", "cover"])
def test_the_cli_solves_no_eigenspace(capsys, solves, command, p, gram):
    args = [command, "--gram", gram] + (["--alpha", "3"] if command == "axis-check" else [])
    code = main(args + (["--p", str(p)] if p else []))
    doc = json.loads(capsys.readouterr().out)
    axes = doc["axes"] + ([doc["z1"]] if command == "cover" else [])
    assert code == 0 and len(axes) >= 3 and all(axis["ok"] for axis in axes)
    assert solves == []


def test_a_foreign_law_takes_the_solved_path(solves):
    algebra = split_spin(QuadraticSpace(Matrix(QQ, [[1, 0], [0, 1]])), 3)
    z1 = algebra.basis_by_label("z1")
    with pytest.raises(IncompleteDecomposition):  # z1's eigenvalue 3 on E lies outside (1, 0, -2, 1/2)
        check_axis(algebra, z1, monster_law(QQ, -2, Fraction(1, 2)))
    assert len(solves) == 1
    check_axis(algebra, z1, axis_law(algebra, "z1"))
    assert len(solves) == 1
    # a family axis passes the checks of its first three vectors under its Jordan sublaw; the values decide
    x = family_axis(algebra, [1, 0], FAMILY_A)
    assert idempotents.eigenbasis(algebra, x, raw_values(QQ, jordan_law(QQ, 3).eigenvalues)) is None
    assert idempotents.eigenbasis(algebra, x, raw_values(QQ, axis_law(algebra, TAG_FAMILY_A).eigenvalues))
