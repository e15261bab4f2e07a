"""The closure engine on integer cells against the Fraction bodies it
replaced.

`Algebra.subalgebra`, `ideal_witness`, `quotient` and `check_isomorphism`
hold their vectors as ints over a denominator and solve in the integer
`Echelon`.  The references below are those four methods as they ran on
Fraction coordinates: membership through the dense `add` and `contains`
(of the test-side `DenseEchelon`), the sub-constants through
`Matrix.inverse`, the projection as rows of the inverse of the change of
basis, and products written out in raw values.
Only the sparse map of a cell, `Matrix.apply_sparse`, is replaced by
`apply_raw` on the product's raw coordinates, which gives the same values.
Every result must agree entry for entry, and so must every error text and
witness.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from splitspin import Field, Matrix, QuadraticSpace, exceptional_cover, matsuo_3c, split_spin
from splitspin.algebra import DERIVED, Algebra, AlgebraMeta, QuotientResult, SubalgebraResult
from splitspin.errors import NotAnIdeal, VerificationFailed, check
from splitspin.idempotents import FAMILY_A, family_axis
from splitspin.linalg import sparse
from test_linalg import DenseEchelon, diagonal

QQ = Field.rationals()
F7 = Field.prime(7)
F10007 = Field.prime(10007)
FIELDS = [QQ, F7, F10007]
FIELD_IDS = ["QQ", "F7", "F10007"]
HALF = Fraction(1, 2)


def raw_product(algebra, u, v):
    """u v in raw values, for raw coordinate vectors u and v."""
    return algebra._from_cells(algebra._mul_coords(sparse(u), sparse(v)), 1)


def reference_subalgebra(algebra, generators):
    span = DenseEchelon(algebra.field)
    basis = []

    def try_add(vec):
        if not span.add(vec):
            return False
        basis.append(vec)
        return True

    for g in generators:
        try_add(g.raw)
    if not basis:
        raise ValueError("need at least one nonzero generator")
    products = {}
    degree = 1
    while True:
        added = False
        m = len(basis)
        for i in range(m):
            for j in range(i, m):
                if (i, j) not in products:
                    products[i, j] = raw_product(algebra, basis[i], basis[j])
                    added = try_add(products[i, j]) or added
        if not added:
            break
        degree += 1
    embedding = Matrix.from_columns(algebra.field, basis)
    pivots = span.pivots
    inverse = Matrix._from_raw(algebra.field, ([b[c] for b in basis] for c in pivots)).inverse()
    constants = []
    for (i, j), prod in products.items():
        check(span.contains(prod), "subalgebra closure misses a product", (i, j))
        coords = inverse.apply_raw([prod[c] for c in pivots])
        constants += [(i, j, t, c) for t, c in enumerate(coords) if c]
    labels = tuple(f"s{i + 1}" for i in range(m))
    return SubalgebraResult(Algebra(algebra.field, labels, constants, AlgebraMeta(DERIVED)), embedding, degree)


def reference_ideal_witness(algebra, vectors):
    span = DenseEchelon(algebra.field, vectors)
    units = [algebra.basis(k).raw for k in range(algebra.dim)]
    return next(((i, k) for i, v in enumerate(vectors) for k, unit in enumerate(units)
                 if not span.contains(raw_product(algebra, v, unit))), None)


def reference_quotient(algebra, ideal):
    raws = [x.raw for x in ideal]
    witness = reference_ideal_witness(algebra, raws)
    if witness is not None:
        raise NotAnIdeal(f"span not closed under multiplication by basis vector {algebra.labels[witness[1]]}")
    span = DenseEchelon(algebra.field, raws)
    ideal_rows, pivots = span.unit_rows(algebra.dim), span.pivots
    free = [c for c in range(algebra.dim) if c not in set(pivots)]
    if not free:
        raise ValueError("quotient by the whole algebra is empty")
    change = Matrix.from_columns(algebra.field, ideal_rows + [algebra.basis(f).raw for f in free])
    inverse = change.inverse()
    check(inverse is not None, "ideal rows and free basis vectors do not form a basis", pivots)
    projection = Matrix._from_raw(algebra.field, inverse.raw[len(ideal_rows):])
    units = [algebra.basis(f).raw for f in free]
    constants = [(a, b, t, c)
                 for a, b in itertools.combinations_with_replacement(range(len(free)), 2)
                 for t, c in enumerate(projection.apply_raw(raw_product(algebra, units[a], units[b]))) if c]
    labels = tuple(algebra.labels[f] for f in free)
    return QuotientResult(Algebra(algebra.field, labels, constants, AlgebraMeta(DERIVED)), projection)


def reference_check_isomorphism(algebra, other, mapping):
    if mapping.rank() < algebra.dim:
        return False, None
    cols = list(zip(*mapping.raw))
    units = [algebra.basis(k).raw for k in range(algebra.dim)]
    for i, j in itertools.combinations_with_replacement(range(algebra.dim), 2):
        if mapping.apply_raw(raw_product(algebra, units[i], units[j])) != raw_product(other, cols[i], cols[j]):
            return False, (i, j)
    return True, None


def outcome(call):
    """The result of call(), or the type and text of the error it raises."""
    try:
        return call()
    except (NotAnIdeal, ValueError, VerificationFailed) as error:
        return type(error), str(error)


def exact(field, matrix):
    """Whether every raw entry is a Fraction over Q (an int residue over F_p)."""
    kind = int if field.p else Fraction
    return all(type(a) is kind for row in matrix.raw for a in row)


def assert_same_subalgebra(algebra, generators):
    result = outcome(lambda: algebra.subalgebra(generators))
    expected = outcome(lambda: reference_subalgebra(algebra, generators))
    if not isinstance(expected, SubalgebraResult):
        assert result == expected
        return None
    sub, ref = result.algebra, expected.algebra
    assert (sub.dim, result.closure_degree) == (ref.dim, expected.closure_degree)
    assert result.embedding == expected.embedding and exact(algebra.field, result.embedding)
    assert (sub._rows, sub.denominator) == (ref._rows, ref.denominator)
    return result


def assert_same_quotient(algebra, ideal):
    vectors = [x.raw for x in ideal]
    assert algebra.ideal_witness(vectors) == reference_ideal_witness(algebra, vectors)
    result, expected = outcome(lambda: algebra.quotient(ideal)), outcome(lambda: reference_quotient(algebra, ideal))
    if not isinstance(expected, QuotientResult):
        assert result == expected
        return
    quot, ref = result.algebra, expected.algebra
    assert quot.labels == ref.labels
    assert result.projection == expected.projection and exact(algebra.field, result.projection)
    assert (quot._rows, quot.denominator) == (ref._rows, ref.denominator)


def assert_same_isomorphism(algebra, other, mapping):
    expected = reference_check_isomorphism(algebra, other, mapping)
    assert algebra.check_isomorphism(other, mapping) == expected
    return expected


# -- the named cases -------------------------------------------------------------


def fraction_algebra(field):
    """S(b, 5/3) on the Gram [[1, 1/2, 0], [1/2, 2, 0], [0, 0, 0]]: cells over D > 1 over Q."""
    return split_spin(QuadraticSpace(Matrix(field, [[1, HALF, 0], [HALF, 2, 0], [0, 0, 0]])), Fraction(5, 3))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_fraction_generators_on_cells_over_a_denominator(field):
    algebra = fraction_algebra(field)
    assert algebra.denominator == (18 if field.p is None else 1)
    gens = [algebra.element([HALF, 0, Fraction(2, 3), 0, 1]), algebra.element([0, Fraction(-3, 5), 0, 1, 0])]
    result = assert_same_subalgebra(algebra, gens)
    assert result.closure_degree >= 2
    assert_same_subalgebra(algebra, [algebra.element([Fraction(1, 3), 0, 0, 0, 0])])
    assert_same_quotient(algebra, [algebra.element([0, 0, Fraction(2, 5), 0, 0])])  # e3 spans the form's radical
    assert_same_quotient(algebra, [algebra.zero()])
    # the radical of a rank-one form is spanned by e1 - 4 e2, whose reduced row has an entry at a free column
    space = QuadraticSpace(Matrix(field, [[2, HALF], [HALF, Fraction(1, 8)]]))
    for ambient in (split_spin(space, Fraction(5, 3)), exceptional_cover(space)):
        radical = ambient.element([Fraction(1, 3), Fraction(-4, 3), 0, 0])
        assert_same_quotient(ambient, [radical])
        assert_same_quotient(ambient, [radical, ambient.basis(3)])
    # generators that span the algebra: the embedding is an isomorphism between cells over other denominators
    full = assert_same_subalgebra(algebra, [algebra.element([HALF if j == i else Fraction(j, 3) if j > i else 0
                                                             for j in range(5)]) for i in range(5)])
    assert (full.algebra.dim, full.closure_degree) == (algebra.dim, 1)
    assert full.algebra.denominator != algebra.denominator or field.p
    assert assert_same_isomorphism(full.algebra, algebra, full.embedding) == (True, None)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_quotient_by_kernel_vectors_of_unequal_scale(field):
    """The radical of the rank-one form v v^T, v = (1, 2, 3), reduces to the
    rows (3, 0, -1) and (0, 3, -2) over Q: the kernel vector at e3 has 3 at
    its free column and those at z1 and z2 have 1, so the projection's rows
    come over different multiples."""
    space = QuadraticSpace(Matrix(field, [[a * b for b in (1, 2, 3)] for a in (1, 2, 3)]))
    for ambient in (split_spin(space, Fraction(5, 3)), exceptional_cover(space)):
        assert_same_quotient(ambient, [ambient.element(list(v) + [0, 0]) for v in space.radical()])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_family_only_generators_close_in_two_rounds(field):
    algebra = split_spin(QuadraticSpace(Matrix.identity(field, 2)), 3)
    gens = [family_axis(algebra, e, FAMILY_A) for e in ([1, 0], [-1, 0], [0, 1])]
    result = assert_same_subalgebra(algebra, gens)
    assert (result.algebra.dim, result.closure_degree) == (4, 2)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_basis_and_zero_generators(field):
    algebra = fraction_algebra(field)
    gens = [algebra.basis(0), algebra.basis_by_label("z1")]
    assert_same_subalgebra(algebra, gens)
    assert_same_subalgebra(algebra, gens + [algebra.basis(1)])
    assert outcome(lambda: algebra.subalgebra([algebra.zero()])) == (ValueError, "need at least one nonzero generator")
    assert_same_subalgebra(algebra, [algebra.zero()])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_non_ideal_text_and_witness(field):
    algebra = fraction_algebra(field)
    for ideal in ([algebra.basis_by_label("z1")], [algebra.element([1, HALF, 0, 0, 0])],
                  [algebra.basis(2), algebra.element([0, 0, 1, Fraction(1, 3), 0])]):
        assert algebra.ideal_witness([x.raw for x in ideal]) is not None
        assert outcome(lambda: algebra.quotient(ideal))[0] is NotAnIdeal
        assert_same_quotient(algebra, ideal)
    assert_same_quotient(algebra, [algebra.basis(i) for i in range(algebra.dim)])  # the whole algebra


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_non_multiplicative_and_singular_mappings(field):
    algebra = fraction_algebra(field)
    n = algebra.dim
    swap = Matrix(field, [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
    assert assert_same_isomorphism(algebra, algebra, swap) == (False, (0, 0))
    singular = Matrix(field, [[HALF if i == j < n - 1 else 0 for j in range(n)] for i in range(n)])
    assert assert_same_isomorphism(algebra, algebra, singular) == (False, None)
    scaled = diagonal(field, [Fraction(2, 3)] * n)  # invertible, but (2/3)^2 != 2/3
    assert assert_same_isomorphism(algebra, algebra, scaled)[0] is False
    assert assert_same_isomorphism(algebra, algebra, Matrix.identity(field, n)) == (True, None)


# -- random algebras, generators, ideals and mappings --------------------------------


ENTRIES = st.one_of(st.integers(-2, 2), st.sampled_from([HALF, Fraction(-2, 3), Fraction(5, 3)]))


@st.composite
def algebras(draw):
    """A split spin, cover or 3C algebra over Q, F_7 or F_10007, on a Gram
    and alpha that may hold Fractions, so that D > 1 over Q.  A zero last
    row and column, or a rank-one Gram c v v^T, make the form degenerate, so
    that its radical spans a proper ideal."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["split_spin", "cover", "matsuo_3c"]))
    if kind == "matsuo_3c":
        return matsuo_3c(field, draw(ENTRIES))
    k = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["regular", "zero_last", "rank_one"]))
    v, c = draw(st.lists(ENTRIES, min_size=k, max_size=k)), draw(ENTRIES)
    rows = [[0] * k for _ in range(k)]
    for i, j in itertools.combinations_with_replacement(range(k), 2):
        entry = c * v[i] * v[j] if shape == "rank_one" else 0 if shape == "zero_last" and j == k - 1 else draw(ENTRIES)
        rows[i][j] = rows[j][i] = entry
    space = QuadraticSpace(Matrix(field, rows))
    return split_spin(space, draw(ENTRIES)) if kind == "split_spin" else exceptional_cover(space)


def elements(algebra, draw, count):
    vector = st.lists(st.one_of(st.just(0), ENTRIES), min_size=algebra.dim, max_size=algebra.dim)
    return [algebra.element(draw(vector)) for _ in range(count)]


@given(algebras(), st.data())
def test_subalgebra_matches_the_fraction_closure(algebra, data):
    gens = elements(algebra, data.draw, data.draw(st.integers(1, 3)))
    result = assert_same_subalgebra(algebra, gens)
    if result is not None and result.algebra.dim == algebra.dim:
        assert_same_isomorphism(result.algebra, algebra, result.embedding)


@given(algebras(), st.data())
def test_ideal_test_and_quotient_match_the_fraction_bodies(algebra, data):
    ideals = [elements(algebra, data.draw, data.draw(st.integers(0, 2)))]
    if algebra.meta.space is not None:  # the lifted radical of the form is an ideal, and so is it plus n
        radical = [algebra.element(list(v) + [0, 0]) for v in algebra.meta.space.radical()]
        ideals += [radical, [algebra.basis(algebra.e_dim - 1)]]
    if algebra.meta.kind == "cover":
        nil = algebra.basis_by_label("n")
        ideals += [radical + [nil], [nil] + elements(algebra, data.draw, 1)]
    for ideal in ideals:
        assert_same_quotient(algebra, ideal)


@given(algebras(), st.data())
def test_isomorphism_check_matches_the_fraction_body(algebra, data):
    n = algebra.dim
    entries = st.one_of(st.just(0), ENTRIES)
    mapping = Matrix(algebra.field, data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                                       min_size=n, max_size=n)))
    assert_same_isomorphism(algebra, algebra, mapping)
    gens = elements(algebra, data.draw, 2)
    assume(not all(g.is_zero for g in gens))
    sub = algebra.subalgebra(gens).algebra
    assert_same_isomorphism(sub, sub, Matrix.identity(algebra.field, sub.dim))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_quotient_eliminates_the_ideal_once(field, monkeypatch):
    """The one `Echelon` that tests the ideal also gives the quotient's kernel, and the projection's zeros
    are the one raw zero of the field."""
    import splitspin.algebra as algebra_module

    built = []

    class Counting(algebra_module.Echelon):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    algebra = fraction_algebra(field)
    ideal = [algebra.element([0, 0, Fraction(2, 5), 0, 0])]
    monkeypatch.setattr(algebra_module, "Echelon", Counting)
    result = algebra.quotient(ideal)
    assert len(built) == 1
    zero = Fraction(0) if field.p is None else 0
    zeros = [c for row in result.projection.raw for c in row if not c]
    assert zeros and all(c is zeros[0] and c == zero for c in zeros)
    monkeypatch.undo()
    assert_same_quotient(algebra, ideal)
