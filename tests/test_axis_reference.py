"""`check_axis` against the slow path it replaced: eigenspaces from
`Matrix.kernel` of `adjoint(x) - lambda I`, eigen-coordinates from the
Fraction inverse of B, and tau = B S B^-1 from Fraction `Matrix` products.
Dimensions, primitivity, the violations in order and the Miyamoto matrix
must agree exactly, over Q (Fraction alpha and Gram entries of large
coprime denominators), F_7 and F_10007, on split spin and the cover, on
z1, z2 and the family axes, on non-degenerate and degenerate Grams, and on
algebras perturbed away from the axis so that the fusion law can fail; and
a candidate is rejected as not idempotent exactly when x x != x or x = 0.
Named cases meet the edges of `check_axis`'s shortcuts: a non-primitive
candidate, laws built by hand that forbid or regrade the pairs of x, zero
and isotropic Grams, and a changed E x E cell that turns `e_line` off; on
the zero Gram no E x E cell is stored, and a block inside E is skipped
whole, which is also counted at dim E = 200."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitspin import Field, Matrix, QuadraticSpace, check_axis, exceptional_cover, family_axis, split_spin
from splitspin.algebra import Algebra
from splitspin.axial import axis_law, jordan_law
from splitspin.errors import IncompleteDecomposition, NotIdempotent
from splitspin.idempotents import FAMILY_A, FAMILY_B, FAMILY_EXC, TAG_FAMILY_A, TAG_FAMILY_B, TAG_FAMILY_EXC
from test_algebra import add_to_constants, adjoint
from test_linalg import diagonal

QQ, F7, F10007 = Field.rationals(), Field.prime(7), Field.prime(10007)
DENOMINATORS = [1, 3, 97, 65537, 10**9 + 7]
FAMILIES = {TAG_FAMILY_A: FAMILY_A, TAG_FAMILY_B: FAMILY_B, TAG_FAMILY_EXC: FAMILY_EXC}


def slow_check_axis(algebra, x, law):
    """(dims, primitive, violations, miyamoto) of the axis x, with violations
    in the order check_axis reports them, or None when the eigenspaces do
    not fill the algebra."""
    field, n = algebra.field, algebra.dim
    ad = adjoint(algebra, x).entries
    spaces = []
    for lam in law.eigenvalues:
        shifted = Matrix(field, [[ad[i][j] - lam if i == j else ad[i][j] for j in range(n)] for i in range(n)])
        spaces.append([algebra.element(v) for v in shifted.kernel()])
    dims = {lam: len(space) for lam, space in zip(law.eigenvalues, spaces)}
    if sum(dims.values()) != n:
        return None
    basis_change = Matrix.from_columns(field, [v.coords for space in spaces for v in space])
    inverse = basis_change.inverse()
    owner = [a for a, space in enumerate(spaces) for _ in space]
    plus = [lam in law.plus for lam in law.eigenvalues]
    violations, graded = [], True
    for a, lam in enumerate(law.eigenvalues):
        for b in range(a, len(spaces)):
            allowed = {law.eigenvalues[c] for c in law.table[a][b]}
            for u in spaces[a]:
                for v in spaces[b]:
                    coords = inverse.apply((u * v).coords)
                    nus = sorted({owner[t] for t, c in enumerate(coords) if c})
                    for nu in nus:
                        found = (lam, law.eigenvalues[b], law.eigenvalues[nu])
                        if law.eigenvalues[nu] not in allowed and found not in violations:
                            violations.append(found)
                    graded = graded and all(plus[nu] == (plus[a] == plus[b]) for nu in nus)
    tau = None
    if graded:
        one = field.one()
        signs = diagonal(field, [one if plus[a] else -one for a in owner])
        tau = basis_change @ signs @ inverse
    return dims, dims[law.eigenvalues[0]] == 1, violations, tau


def _scalars(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(DENOMINATORS))


def _nonzero(field):
    return _scalars(field).filter(bool)


@st.composite
def axis_cases(draw, field):
    """(algebra, axis, law, i): split spin at a drawn alpha or the cover, on a
    Gram of dim E 1-4 with b(e1, e1) = s^2, so e = e1 / s has norm one; a
    degenerate Gram appends a combination of the coordinates.  A perturbed
    case adds to the products of basis vectors outside the axis's support,
    which keeps the axis idempotent with the same adjoint.  x + b_i is a
    candidate that is mostly not idempotent."""
    k = draw(st.integers(1, 4))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = draw(_scalars(field))
    s = draw(_nonzero(field))
    rows[0][0] = s * s
    if draw(st.booleans()):  # degenerate: the new coordinate is c in the old ones
        c = draw(st.lists(_scalars(field), min_size=k, max_size=k))
        image = [sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(k)]
        rows = [row + [image[i]] for i, row in enumerate(rows)] + [image + [sum(a * b for a, b in zip(c, image))]]
    space = QuadraticSpace(Matrix(field, rows))
    e = [field.one() / field.scalar(s)] + [0] * (len(rows) - 1)
    if draw(st.booleans()):
        algebra = exceptional_cover(space)
        tags = ["z1", TAG_FAMILY_EXC]
    else:
        half = Fraction(1, 2) if not field.p else pow(2, -1, field.p)
        alpha = draw(_scalars(field).filter(lambda a: a not in (0, 1, half)))
        algebra = split_spin(space, alpha)
        tags = ["z1", "z2", TAG_FAMILY_A, TAG_FAMILY_B]
    tag = draw(st.sampled_from(tags))
    x = algebra.basis_by_label(tag) if tag in ("z1", "z2") else family_axis(algebra, e, FAMILIES[tag])
    law = axis_law(algebra, tag)
    outside = [i for i, c in enumerate(x.raw) if not c]
    if outside and draw(st.booleans()):
        i, j = draw(st.sampled_from(outside)), draw(st.sampled_from(outside))
        delta = draw(st.lists(_scalars(field), min_size=algebra.dim, max_size=algebra.dim))
        algebra = add_to_constants(algebra, [(i, j, t, d) for t, d in enumerate(delta)])
        x = algebra.element(x.coords)
    return algebra, x, law, draw(st.integers(0, algebra.dim - 1))


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_check_axis_matches_the_slow_path(field):
    outcomes, lines = set(), set()

    @settings(derandomize=True, max_examples=60)
    @given(axis_cases(field))
    def check(case):
        algebra, x, law, i = case
        for y in (algebra.zero(), x + algebra.basis(i)):
            try:
                check_axis(algebra, y, law)
                rejected = False
            except NotIdempotent:
                rejected = True
            except IncompleteDecomposition:
                rejected = False
            assert rejected == (y.is_zero or y * y != y)
        expected = slow_check_axis(algebra, x, law)
        if expected is None:
            with pytest.raises(IncompleteDecomposition):
                check_axis(algebra, x, law)
            return
        report = check_axis(algebra, x, law)
        assert (report.dims, report.primitive, list(report.violations), report.miyamoto) == expected
        if report.miyamoto is not None and not field.p:
            assert all(type(c) is Fraction for row in report.miyamoto.raw for c in row)
        outcomes.add((report.miyamoto is not None, bool(report.violations)))
        lines.add(algebra.e_line)

    check()
    assert (True, False) in outcomes and (False, True) in outcomes
    assert lines == {True, False}  # the block inside E stops early, and it runs in full


def _edge_cases(field):
    """(name, algebra, axis, law) where check_axis's shortcuts meet their
    edges: the identity under z1's law, whose 1-space is the whole algebra;
    a non-primitive z1 and laws built by hand, where the row of x holds a
    violation or leaves its grade; zero and isotropic Grams, where b vanishes
    on E or on e-perp and every product within the block inside E is zero;
    and a changed E x E cell, so that the E-products leave their line."""
    def axes(name, space, tags, e=None):
        algebra = split_spin(space, 3)
        for tag in tags:
            x = algebra.basis_by_label(tag) if e is None else family_axis(algebra, e, FAMILIES[tag])
            yield f"{name}-{tag}", algebra, x, axis_law(algebra, tag)
        cover = exceptional_cover(space)
        x = cover.basis_by_label("z1") if e is None else family_axis(cover, e, FAMILY_EXC)
        yield f"{name}-cover", cover, x, axis_law(cover, "z1" if e is None else TAG_FAMILY_EXC)

    one, half = field.one(), field.half()
    random_gram = QuadraticSpace(Matrix(field, [[1, 2, 0], [2, 3, 1], [0, 1, 5]]))
    algebra = split_spin(random_gram, 3)
    yield "identity", algebra, algebra.identity(), axis_law(algebra, "z1")
    # at alpha = 1 the 1-space of z1 is E + F z1, and e1 e2 gains a z2-part: a violation in the row of x
    wide = add_to_constants(split_spin(random_gram, 1), [(0, 1, 4, one)])
    yield "nonprimitive-z1", wide, wide.basis_by_label("z1"), jordan_law(field, 3)
    law = axis_law(algebra, "z1")  # laws built by hand: 1 eta = {} and 1 in the minus part
    table = [list(row) for row in law.table]
    table[0][2] = table[2][0] = frozenset()
    yield "foreign-table", algebra, algebra.basis_by_label("z1"), replace(law, table=tuple(map(tuple, table)))
    yield "foreign-grade", algebra, algebra.basis_by_label("z1"), replace(
        law, plus=frozenset(law.eigenvalues[1:2]), minus=frozenset(law.eigenvalues[::2]))
    yield from axes("zero", QuadraticSpace(Matrix(field, [[0] * 3] * 3)), ["z1", "z2"])
    yield from axes("perp-zero", QuadraticSpace(diagonal(field, [1, 0, 0])), [TAG_FAMILY_A, TAG_FAMILY_B], [1, 0, 0])
    hyperbolic = QuadraticSpace(Matrix(field, [[0, 1], [1, 0]]))
    yield from axes("hyperbolic", hyperbolic, ["z1", "z2"])
    yield from axes("hyperbolic", hyperbolic, [TAG_FAMILY_A, TAG_FAMILY_B], [one, half])
    for tag in ("z1", "z2"):  # e1 e2 gains an e3-part, which the law forbids; z1 and z2 keep their adjoints
        changed = add_to_constants(algebra, [(0, 1, 2, one)])
        yield f"changed-{tag}", changed, changed.basis_by_label(tag), axis_law(changed, tag)


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_shortcut_edges_match_the_slow_path(field):
    for name, algebra, x, law in _edge_cases(field):
        report = check_axis(algebra, x, law)
        expected = slow_check_axis(algebra, x, law)
        assert (report.dims, report.primitive, list(report.violations), report.miyamoto) == expected, name
        assert algebra.e_line is not name.startswith(("changed", "nonprimitive")), name
        if name == "identity":
            assert report.dims[law.eigenvalues[0]] == algebra.dim and not report.primitive
        if name.startswith("changed"):  # found past the block's first nonzero product, e1 e1
            assert report.violations and report.miyamoto is None
        if name in ("nonprimitive-z1", "foreign-table"):  # found in the row of x
            assert report.violations[0][0] == law.eigenvalues[0]
        if name == "foreign-grade":  # x x = x leaves the grade of 1 1
            assert not report.violations and report.miyamoto is None


@pytest.mark.parametrize("field", [QQ, F10007], ids=["QQ", "F10007"])
def test_the_zero_gram_costs_o_n_products(field, monkeypatch):
    """On the zero Gram at dim E = 200 every product of two vectors of E is
    zero and no E x E cell is stored: z1, z2 and the cover's z1 take under
    2n products, the eigenbasis checks included, against n (n + 1) / 2 =
    20,503 with the block inside E multiplied in full, and report the same
    as that full loop (run with `e_line` turned off)."""
    k = 200
    space = QuadraticSpace(Matrix(field, [[0] * k for _ in range(k)]))
    counted, product = [], Algebra._mul_coords

    def counting(algebra, u, v):
        counted.append(1)
        return product(algebra, u, v)

    for build, tags in ((lambda: split_spin(space, 3), ["z1", "z2"]), (lambda: exceptional_cover(space), ["z1"])):
        for tag in tags:
            algebra = build()
            x, law = algebra.basis_by_label(tag), axis_law(algebra, tag)
            counted.clear()
            monkeypatch.setattr(Algebra, "_mul_coords", counting)
            report = check_axis(algebra, x, law)
            monkeypatch.undo()
            assert len(counted) < 2 * algebra.dim and report.ok, (tag, len(counted))
            full = build()
            full._e_line = (False, False)  # the pair loop in full
            expected = check_axis(full, full.basis_by_label(tag), law)
            assert (report.dims, report.primitive, report.violations, report.miyamoto) == (
                expected.dims, expected.primitive, expected.violations, expected.miyamoto)
