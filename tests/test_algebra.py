import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from splitspin import (
    Field,
    Matrix,
    QuadraticSpace,
    exceptional_cover,
    matsuo_3c,
    split_spin,
)
from splitspin import algebra as algebra_module
from splitspin.algebra import DERIVED, Algebra, AlgebraMeta
from splitspin.errors import (
    AlgebraMismatch,
    CharTwo,
    DimensionMismatch,
    DuplicateCandidates,
    FieldMismatch,
    NotAnIdeal,
)
from splitspin.idempotents import FAMILY_A, family_axis
from splitspin.linalg import Echelon, boxed, raw_values, sparse
from test_linalg import _reference_kernel, diagonal, positive_multiple, reference_solve

QQ = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)
F10007 = Field.prime(10007)


def identity_space(field, dim):
    return QuadraticSpace(Matrix.identity(field, dim))


@pytest.fixture
def A3():
    """S(b, 3) with the standard orthonormal plane."""
    return split_spin(identity_space(QQ, 2), 3)


def test_z_vector_at_alpha_three(A3):
    # z = 3 z1 + 8 z2, so e1 e1 = -(3 z1 + 8 z2) and e1 e2 = 0
    e1, e2 = A3.basis(0), A3.basis(1)
    assert e1 * e2 == A3.zero()
    assert e1 * e1 == A3.from_labels({"z1": -3, "z2": -8})


def test_z1_z2_product_vanishes_for_any_alpha():
    for alpha in (0, 1, Fraction(1, 2), 7, Fraction(-2, 3)):
        algebra = split_spin(identity_space(QQ, 2), alpha)
        assert (algebra.basis_by_label("z1") * algebra.basis_by_label("z2")).is_zero


def test_alpha_zero_splits_off_z1():
    algebra = split_spin(identity_space(QQ, 2), 0)
    z1 = algebra.basis_by_label("z1")
    for other in (algebra.basis(0), algebra.basis(1), algebra.basis_by_label("z2")):
        assert (z1 * other).is_zero
    assert algebra.meta.jordan_special


def test_identity_element(A3):
    one = A3.identity()
    assert one == A3.from_labels({"z1": 1, "z2": 1})
    for i in range(A3.dim):
        assert one * A3.basis(i) == A3.basis(i)


def test_cover_n_annihilates_and_no_identity():
    algebra = exceptional_cover(identity_space(QQ, 2))
    n = algebra.basis_by_label("n")
    for i in range(algebra.dim):
        assert (n * algebra.basis(i)).is_zero
    assert algebra.identity() is None
    # e e = -3 z1 + 2 n for a norm-one e
    e = algebra.basis(0)
    assert e * e == algebra.from_labels({"z1": -3, "n": 2})
    assert e * algebra.basis_by_label("z1") == -e


def adjoint(algebra, a):
    """The matrix of v -> a v in the algebra basis: column j is a b_j."""
    return Matrix.from_columns(algebra.field, [(a * algebra.basis(j)).coords for j in range(algebra.dim)])


def test_adjoint_matrices(A3):
    z1 = A3.basis_by_label("z1")
    assert adjoint(A3, z1) == diagonal(QQ, [3, 3, 1, 0])
    assert adjoint(A3, A3.identity()) == Matrix.identity(QQ, 4)
    cover = exceptional_cover(identity_space(QQ, 1))
    assert adjoint(cover, cover.basis_by_label("n")) == Matrix(QQ, [[0] * 3] * 3)


def test_multiply_rejects_foreign_elements(A3):
    other = split_spin(identity_space(QQ, 2), 3)
    with pytest.raises(AlgebraMismatch):
        A3.basis(0) * other.basis(0)


def eigenspace_dims(algebra, x, candidates):
    """The eigenspace dimensions of ad_x at the candidate eigenvalues."""
    bases = algebra.eigenspaces_raw(x.raw, raw_values(algebra.field, candidates))
    return [len(basis) for basis in bases]


def test_eigendecompose_family_axis(A3):
    x = family_axis(A3, [1, 0], FAMILY_A)
    assert eigenspace_dims(A3, x, [1, 0, 3, Fraction(1, 2)]) == [1, 1, 1, 1]
    # the 1-eigenspace is the line through x
    (line,) = A3.eigenspaces_raw(x.raw, [Fraction(1)])
    assert Echelon(QQ, line).contains(x.raw)


def test_eigendecompose_z1(A3):
    assert eigenspace_dims(A3, A3.basis_by_label("z1"), [1, 0, 3]) == [1, 1, 2]


def test_eigendecompose_incomplete_without_half(A3):
    x = family_axis(A3, [1, 0], FAMILY_A)
    assert sum(eigenspace_dims(A3, x, [1, 0, 3])) < A3.dim


_big_fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from([1, 3, 97, 65537, 10**9 + 7]))


@given(st.integers(1, 4), st.data())
def test_eigenspaces_raw_are_integer_multiples_of_the_unit_kernel(k, data):
    """Over Q, each eigenspace vector is ints, a positive multiple of the
    unit-entry kernel vector of Matrix(QQ, ad_u - lambda), on split spin
    algebras with Fraction Gram entries and alpha of large coprime
    denominators, for z1, z2, a family axis and a random u."""
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = data.draw(_big_fractions)
    rows[0][0] = 1
    alpha = data.draw(_big_fractions)
    assume(alpha not in (0, 1, Fraction(1, 2)))
    algebra = split_spin(QuadraticSpace(Matrix(QQ, rows)), alpha)
    u = data.draw(st.sampled_from(["z1", "z2", "axis", "random"]))
    if u == "axis":
        x = family_axis(algebra, [1] + [0] * (k - 1), FAMILY_A)
    elif u == "random":
        x = algebra.element(data.draw(st.lists(_big_fractions, min_size=k + 2, max_size=k + 2)))
    else:
        x = algebra.basis_by_label(u)
    values = list(dict.fromkeys([Fraction(1), Fraction(0), alpha, 1 - alpha, Fraction(1, 2),
                                 data.draw(_big_fractions)]))
    bases = algebra.eigenspaces_raw(x.raw, values)
    ad = adjoint(algebra, x).raw
    for lam, basis in zip(values, bases):
        shifted = Matrix(QQ, [[a - lam if i == j else a for j, a in enumerate(row)] for i, row in enumerate(ad)])
        expected = shifted.kernel_raw()
        assert expected == _reference_kernel(QQ, shifted.raw)
        assert len(basis) == len(expected)
        assert all(type(a) is int for v in basis for a in v)
        assert all(positive_multiple(QQ, v, unit) for v, unit in zip(basis, expected))


def test_eigendecompose_rejects_duplicates(A3):
    with pytest.raises(DuplicateCandidates):
        A3.eigenspaces_raw(A3.basis(0).raw, [Fraction(1), Fraction(1)])


def test_family_axis_squares(A3):
    x = family_axis(A3, [1, 0], FAMILY_A)
    assert x == A3.element([Fraction(1, 2), 0, Fraction(3, 2), 2])
    assert x * x == x


def test_mu_one_collapse():
    space = QuadraticSpace(Matrix(QQ, [[1, 1], [1, 1]]))
    algebra = split_spin(space, 3)
    x = family_axis(algebra, [1, 0], FAMILY_A)
    y = family_axis(algebra, [0, 1], FAMILY_A)
    assert x * y == QQ.half() * (x + y)
    sub = algebra.subalgebra([x, y])
    assert sub.algebra.dim == 2 and sub.closure_degree == 1


def test_subalgebra_generation_full():
    algebra = split_spin(identity_space(QQ, 2), 3)
    gens = [
        algebra.basis_by_label("z1"),
        family_axis(algebra, [1, 0], FAMILY_A),
        family_axis(algebra, [-1, 0], FAMILY_A),
        family_axis(algebra, [0, 1], FAMILY_A),
    ]
    sub = algebra.subalgebra(gens)
    assert sub.algebra.dim == 4
    assert sub.closure_degree == 1  # spanned, not merely generated


def test_subalgebra_alpha_minus_one_proper():
    algebra = split_spin(identity_space(QQ, 2), -1)
    gens = [
        algebra.basis_by_label("z1"),
        family_axis(algebra, [1, 0], FAMILY_A),
        family_axis(algebra, [-1, 0], FAMILY_A),
        family_axis(algebra, [0, 1], FAMILY_A),
        family_axis(algebra, [0, -1], FAMILY_A),
    ]
    sub = algebra.subalgebra(gens)
    assert sub.algebra.dim == 3  # E + F z1 only: z2 is never reached
    assert sub.closure_degree == 1


def test_family_only_generators_are_two_closed():
    algebra = split_spin(identity_space(QQ, 2), 3)
    gens = [
        family_axis(algebra, [1, 0], FAMILY_A),
        family_axis(algebra, [-1, 0], FAMILY_A),
        family_axis(algebra, [0, 1], FAMILY_A),
    ]
    sub = algebra.subalgebra(gens)
    assert sub.algebra.dim == 4
    assert sub.closure_degree == 2


def test_w_plus_z_closed_for_any_subspace():
    rng = random.Random(11)
    for _ in range(5):
        dim = rng.randint(2, 4)
        entries = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        gram = [[entries[min(i, j)][max(i, j)] for j in range(dim)] for i in range(dim)]
        algebra = split_spin(QuadraticSpace(Matrix(QQ, gram)), Fraction(rng.randint(-5, 5), 2))
        w_size = rng.randint(1, dim - 1)
        gens = [algebra.basis(i) for i in range(w_size)]
        gens += [algebra.basis_by_label("z1"), algebra.basis_by_label("z2")]
        sub = algebra.subalgebra(gens)
        assert sub.algebra.dim == w_size + 2
        assert sub.closure_degree == 1


def test_quotient_cover_by_nil():
    space = identity_space(QQ, 2)
    cover = exceptional_cover(space)
    quotient = cover.quotient([cover.basis_by_label("n")])
    assert quotient.algebra.dim == 3
    ambient = split_spin(space, -1)
    sub = ambient.subalgebra(
        [ambient.basis(0), ambient.basis(1), ambient.basis_by_label("z1")]
    )
    ok, _ = quotient.algebra.check_isomorphism(sub.algebra, Matrix.identity(QQ, 3))
    assert ok


def test_quotient_by_zero_is_whole_algebra(A3):
    quotient = A3.quotient([A3.zero()])
    assert quotient.algebra.dim == A3.dim
    ok, _ = A3.check_isomorphism(quotient.algebra, Matrix.identity(QQ, 4))
    assert ok


def test_quotient_codimension_one():
    algebra = split_spin(identity_space(QQ, 2), -1)
    ideal = [algebra.basis(0), algebra.basis(1), algebra.basis_by_label("z1")]
    quotient = algebra.quotient(ideal)
    assert quotient.algebra.dim == 1


def test_quotient_rejects_non_ideal(A3):
    with pytest.raises(NotAnIdeal):
        A3.quotient([A3.basis_by_label("z1")])  # z1 e = 3 e leaves the span


def test_quotient_projection_is_multiplicative():
    # pi(u v) = pi(u) pi(v) for the cover modulo <n>
    space = identity_space(F7, 2)
    cover = exceptional_cover(space)
    result = cover.quotient([cover.basis_by_label("n")])
    quot, pi = result.algebra, result.projection
    rng = random.Random(21)
    for _ in range(10):
        u = cover.element([rng.randrange(7) for _ in range(4)])
        v = cover.element([rng.randrange(7) for _ in range(4)])
        lhs = pi.apply((u * v).coords)
        rhs = quot.element(pi.apply(u.coords)) * quot.element(pi.apply(v.coords))
        assert lhs == rhs.coords


def test_subalgebra_embedding_is_multiplicative():
    algebra = split_spin(identity_space(QQ, 3), Fraction(5, 3))
    x = family_axis(algebra, [1, 0, 0], FAMILY_A)
    x_minus = family_axis(algebra, [-1, 0, 0], FAMILY_A)
    result = algebra.subalgebra([x, x_minus, algebra.basis_by_label("z1")])
    sub, emb = result.algebra, result.embedding
    for i in range(sub.dim):
        for j in range(sub.dim):
            inside = emb.apply((sub.basis(i) * sub.basis(j)).coords)
            outside = algebra.element(emb.column(i)) * algebra.element(emb.column(j))
            assert inside == outside.coords


def subalgebra_reference(algebra, generators):
    """The closure as subalgebra ran it before the echelon basis: every pair
    of each round's snapshot is multiplied, membership and the table entries
    are solved from scratch."""
    field, basis = algebra.field, []

    def product(u, v):
        return boxed(field, algebra._from_cells(algebra._mul_coords(sparse(raw_values(field, u)),
                                                                    sparse(raw_values(field, v)))))

    def try_add(vec):
        if not any(vec) or (basis and reference_solve(field, basis, vec) is not None):
            return False
        basis.append(vec)
        return True

    for g in generators:
        try_add(g.coords)
    degree = 1
    while True:
        snapshot, added = list(basis), False
        for i in range(len(snapshot)):
            for j in range(i, len(snapshot)):
                added = try_add(product(snapshot[i], snapshot[j])) or added
        if not added:
            break
        degree += 1
    table = [[reference_solve(field, basis, product(u, v)) for v in basis] for u in basis]
    return basis, degree, table


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
def test_subalgebra_matches_reference_closure(field):
    rng = random.Random(f"subalgebra/{field.p}")
    for k in (1, 2, 3):
        rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                rows[i][j] = rows[j][i] = rng.randint(-1, 1)
        space = QuadraticSpace(Matrix(field, rows))
        for algebra in (split_spin(space, 3), exceptional_cover(space)):
            for _ in range(4):
                count = rng.randint(1, 2)
                gens = [
                    algebra.element([rng.choice((0, 0, 1, -1, 2)) for _ in range(algebra.dim)])
                    for _ in range(count)
                ]
                if all(g.is_zero for g in gens):
                    continue
                basis, degree, table = subalgebra_reference(algebra, gens)
                result = algebra.subalgebra(gens)
                assert [result.embedding.column(j) for j in range(result.embedding.cols)] == basis
                assert result.closure_degree == degree
                assert dense_table(result.algebra) == table


def test_larger_dimensions():
    # nothing should assume a small quadratic part
    entries = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    entries[4][5] = entries[5][4] = 2
    space = QuadraticSpace(Matrix(F7, entries))
    algebra = split_spin(space, 2)
    assert algebra.dim == 8
    one = algebra.identity()
    assert one == algebra.from_labels({"z1": 1, "z2": 1})
    x = family_axis(algebra, [1, 0, 0, 0, 0, 0], FAMILY_A)
    assert eigenspace_dims(algebra, x, [1, 0, 2, F7.half()]) == [1, 1, 1, 5]


def test_matsuo_products():
    algebra = matsuo_3c(QQ, 3)
    a, b, c = algebra.basis(0), algebra.basis(1), algebra.basis(2)
    assert a * a == a
    assert a * b == QQ.scalar(Fraction(3, 2)) * (a + b - c)
    # identity is (a + b + c) / (1 + alpha), solved by hand for alpha = 3
    assert algebra.identity() == QQ.scalar(Fraction(1, 4)) * (a + b + c)


def test_matsuo_alpha_minus_one_has_no_identity():
    assert matsuo_3c(QQ, -1).identity() is None


def test_matsuo_rejects_char_two():
    with pytest.raises(CharTwo):
        matsuo_3c(Field.prime(2), 1)


def test_relabel_symmetry():
    space = QuadraticSpace(Matrix(QQ, [[1, 2], [2, 3]]))
    alpha = Fraction(5, 2)
    left = split_spin(space, alpha)
    right = split_spin(space, 1 - QQ.scalar(alpha))
    ident = Matrix.identity(QQ, 4)
    cols = [ident.column(0), ident.column(1), ident.column(3), ident.column(2)]
    swap = Matrix.from_columns(QQ, cols)
    ok, _ = left.check_isomorphism(right, swap)
    assert ok


def test_alpha_half_spin_structure():
    algebra = split_spin(identity_space(QQ, 2), Fraction(1, 2))
    one = algebra.identity()
    u = algebra.basis_by_label("z1") - algebra.basis_by_label("z2")
    assert u * u == one
    assert (algebra.basis(0) * u).is_zero
    # (e + g u)(f + d u) = (3/4 b(e,f) + g d) 1
    e, f = algebra.basis(0), algebra.basis(0)
    g, d = QQ.scalar(2), QQ.scalar(Fraction(1, 3))
    lhs = (e + g * u) * (f + d * u)
    assert lhs == (QQ.scalar(Fraction(3, 4)) + g * d) * one


def test_check_isomorphism_identity_map(A3):
    ok, witness = A3.check_isomorphism(A3, Matrix.identity(QQ, 4))
    assert ok and witness is None


def test_check_isomorphism_detects_failure(A3):
    # swapping z1 and z2 without changing alpha breaks e z1 = 3 e
    ident = Matrix.identity(QQ, 4)
    cols = [ident.column(0), ident.column(1), ident.column(3), ident.column(2)]
    swap = Matrix.from_columns(QQ, cols)
    ok, witness = A3.check_isomorphism(A3, swap)
    assert not ok and witness is not None


def test_check_isomorphism_rejects_a_mapping_over_another_field():
    algebra = split_spin(identity_space(F7, 2), 3)
    singular = Matrix(F5, [[1, 0, 0, 0]] * 4)
    for mapping in (singular, Matrix.identity(F5, 4), Matrix.identity(QQ, 4)):
        with pytest.raises(FieldMismatch):
            algebra.check_isomorphism(algebra, mapping)


@given(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_multiplication_commutative(u_raw, v_raw):
    algebra = split_spin(identity_space(F7, 2), 3)
    u = algebra.element([F7.scalar(c) for c in u_raw])
    v = algebra.element([F7.scalar(c) for c in v_raw])
    assert u * v == v * u


def test_structure_constants_symmetric_for_all_constructors():
    algebras = [
        split_spin(identity_space(F5, 3), 2),
        exceptional_cover(identity_space(F7, 2)),
        matsuo_3c(QQ, Fraction(7, 3)),
    ]
    for algebra in algebras:
        assert all(i <= j for i, j, _, _ in algebra.constants)
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                assert algebra.basis(i) * algebra.basis(j) == algebra.basis(j) * algebra.basis(i)


def test_constants_accept_either_order_and_repeats():
    meta = AlgebraMeta("derived")
    algebra = Algebra(QQ, ("x", "y"), [(1, 0, 0, 2), (0, 1, 0, "2/1"), (0, 0, 1, 0)], meta)
    assert algebra.constants == ((0, 1, 0, QQ.scalar(2)),)
    x, y = algebra.basis(0), algebra.basis(1)
    assert x * y == y * x == 2 * x
    assert (x * x).is_zero


def test_constants_index_outside_the_basis_is_a_dimension_mismatch():
    meta = AlgebraMeta("derived")
    for entry in ((0, 2, 0, 1), (0, 0, 2, 1), (-1, 0, 0, 1)):
        with pytest.raises(DimensionMismatch):
            Algebra(QQ, ("x", "y"), [entry], meta)


def test_conflicting_constants_are_rejected():
    meta = AlgebraMeta("derived")
    for constants in ([(0, 1, 0, 1), (1, 0, 0, 2)], [(0, 1, 0, 1), (0, 1, 0, 0)]):
        with pytest.raises(ValueError, match="conflicting"):
            Algebra(F7, ("x", "y"), constants, meta)


# -- the sparse product against the dense loop it replaced ---------------------


def dense_table(algebra):
    """table[i][j] = b_i b_j as a tuple of Scalars, from the constants alone."""
    n, zero = algebra.dim, algebra.field.zero()
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in algebra.constants:
        table[i][j][k] = table[j][i][k] = c
    return [[tuple(cell) for cell in row] for row in table]


def reference_product(field, table, u, v):
    """The dense boxed loop `Algebra._mul_coords` ran before the sparse cells."""
    n = len(table)
    acc = [field.zero()] * n
    for i in range(n):
        ui = u[i]
        if not ui:
            continue
        row = table[i]
        for j in range(n):
            vj = v[j]
            if not vj:
                continue
            c = ui * vj
            cell = row[j]
            for k in range(n):
                if cell[k]:
                    acc[k] = acc[k] + c * cell[k]
    return tuple(acc)


def reference_identity(field, table):
    """The identity as solved from the dense table, or None."""
    n = len(table)
    columns = [[table[j][i][k] for i in range(n) for k in range(n)] for j in range(n)]
    rhs = [field.one() if k == i else field.zero() for i in range(n) for k in range(n)]
    return reference_solve(field, columns, rhs)


def add_to_constants(algebra, deltas):
    """The algebra with each (i, j, k, d) of deltas added to its constants."""
    values = {(i, j, k): c for i, j, k, c in algebra.constants}
    for i, j, k, d in deltas:
        key = (min(i, j), max(i, j), k)
        values[key] = values.get(key, algebra.field.zero()) + d
    constants = [(*key, c) for key, c in values.items()]
    return Algebra(algebra.field, algebra.labels, constants, algebra.meta)


def with_annihilated(algebra, pos):
    """The algebra with a new basis vector at index pos whose products all
    vanish, so that it has no identity."""
    def shift(i):
        return i + (i >= pos)

    constants = [(shift(i), shift(j), shift(k), c) for i, j, k, c in algebra.constants]
    labels = algebra.labels[:pos] + ("null",) + algebra.labels[pos:]
    return Algebra(algebra.field, labels, constants, AlgebraMeta(DERIVED))


@st.composite
def derived_algebras(draw):
    """A split spin, cover or 3C algebra over Q, F_5 or F_10007, or a
    subalgebra, quotient or perturbation of one, or one with an annihilated
    basis vector inserted before its last.  Alpha and the Gram entries may
    be Fractions with coprime denominators, so that over Q the stored cells'
    denominator D exceeds 1."""
    field = draw(st.sampled_from([QQ, F5, F10007]))
    kind = draw(st.sampled_from(["split_spin", "cover", "matsuo_3c"]))
    derive = draw(st.sampled_from(["none", "subalgebra", "quotient", "perturbed", "annihilated"]))
    small = st.integers(-3, 3)
    parameter = st.one_of(small, st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]))
    if kind == "matsuo_3c":
        algebra = matsuo_3c(field, draw(parameter))
    else:
        k = draw(st.integers(1, 3))
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                # e_k spans an ideal of split spin when it is orthogonal to E
                zero_last = derive == "quotient" and j == k - 1
                rows[i][j] = rows[j][i] = 0 if zero_last else draw(parameter)
        space = QuadraticSpace(Matrix(field, rows))
        algebra = split_spin(space, draw(parameter)) if kind == "split_spin" else exceptional_cover(space)
    n = algebra.dim
    if derive == "subalgebra":
        gens = [algebra.element(draw(st.lists(small, min_size=n, max_size=n))) for _ in range(2)]
        assume(not all(g.is_zero for g in gens))
        algebra = algebra.subalgebra(gens).algebra
    elif derive == "quotient":
        ideal = {"split_spin": [algebra.basis(n - 3)], "cover": [algebra.basis(n - 1)],
                 "matsuo_3c": []}[kind]
        algebra = algebra.quotient(ideal).algebra
    elif derive == "perturbed":
        index = st.integers(0, n - 1)
        delta = st.tuples(index, index, index, st.integers(-2, 2))
        algebra = add_to_constants(algebra, draw(st.lists(delta, min_size=1, max_size=3)))
    elif derive == "annihilated":
        algebra = with_annihilated(algebra, draw(st.integers(0, n - 1)))
    return algebra


def fractions_over_q(field, values):
    """Whether every raw value is a Fraction, or the field is finite."""
    return field.p is not None or all(type(c) is Fraction for c in values)


@given(derived_algebras(), st.data())
def test_sparse_product_matches_dense_reference(algebra, data):
    field, n = algebra.field, algebra.dim
    table = dense_table(algebra)
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    vectors = [algebra.basis(i) for i in range(n)]
    vectors += [algebra.element(data.draw(coords)) for _ in range(2)]
    for u in vectors:
        for v in vectors:
            product = u * v
            assert product.coords == reference_product(field, table, u.coords, v.coords)
            assert fractions_over_q(field, (c.value for c in product.coords))
    one = algebra.identity()
    assert (None if one is None else one.coords) == reference_identity(field, table)
    assert fractions_over_q(field, (c.value for _, _, _, c in algebra.constants))
    rebuilt = Algebra(field, algebra.labels, algebra.constants, algebra.meta)
    assert (rebuilt._rows, rebuilt.denominator) == (algebra._rows, algebra.denominator)


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
def test_cells_are_integers_over_one_denominator(field):
    """Each stored cell is D times its constant, D the lcm of the constants'
    denominators over Q and 1 over F_p, where the cells are the residues."""
    gram = [[1, Fraction(1, 2), 0], [Fraction(1, 2), 2, 1], [0, 1, -3]]
    for algebra in (split_spin(QuadraticSpace(Matrix(field, gram)), Fraction(-2, 5)),
                    exceptional_cover(QuadraticSpace(Matrix(field, gram))), matsuo_3c(field, 3)):
        d = math.lcm(*(c.value.denominator for *_, c in algebra.constants)) if field.p is None else 1
        assert algebra.denominator == d
        assert d > 1 or field.p
        for i, j, k, c in algebra.constants:
            assert (k, c.value * d) in algebra.cell(i, j) and (k, c.value * d) in algebra.cell(j, i)
        cells = [c for row in algebra._rows for cell in row.values() for _, c in cell]
        assert all(type(c) is int and (field.p is None or 0 <= c < field.p) for c in cells)


def test_identity_stops_at_an_annihilated_basis_vector(monkeypatch):
    algebra = with_annihilated(split_spin(identity_space(QQ, 2), 3), 1)
    assert algebra.identity() is None
    assert reference_identity(QQ, dense_table(algebra)) is None

    def no_elimination(*args):
        raise AssertionError("identity eliminated although a basis vector annihilates the algebra")

    monkeypatch.setattr(algebra_module, "Echelon", no_elimination)
    assert algebra.identity() is None
    cover = exceptional_cover(identity_space(F7, 2))
    assert cover.identity() is None  # its nil vector n annihilates the cover


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
def test_derived_constants_match_the_full_constant_lists(field):
    """subalgebra and quotient pass only nonzero constants; the algebra is
    the one built from every constant, zeros included.  The second form and
    alpha make the ambient cells' denominator D > 1 over Q."""
    half = Fraction(1, 2)
    check_derived_constants(field, split_spin(QuadraticSpace(Matrix(field, [[1, 1, 0], [1, 2, 0], [0, 0, 0]])), 3))
    algebra = split_spin(QuadraticSpace(Matrix(field, [[1, half, 0], [half, 2, 0], [0, 0, 0]])), Fraction(5, 3))
    assert algebra.denominator == (18 if field.p is None else 1)
    check_derived_constants(field, algebra)


def check_derived_constants(field, algebra):
    gens = [algebra.element([1, 0, 2, 0, 1]), algebra.element([0, 1, 0, 1, 0])]
    result = algebra.subalgebra(gens)
    sub, emb = result.algebra, result.embedding
    columns = [emb.column(j) for j in range(emb.cols)]
    full = []
    for i in range(sub.dim):
        for j in range(i, sub.dim):
            product = algebra.element(columns[i]) * algebra.element(columns[j])
            full += [(i, j, t, c) for t, c in enumerate(reference_solve(field, columns, product.coords))]
    rebuilt = Algebra(field, sub.labels, full, AlgebraMeta(DERIVED))
    assert (rebuilt._rows, rebuilt.denominator) == (sub._rows, sub.denominator)

    result = algebra.quotient([algebra.basis(2)])  # e3 spans the radical of the form, an ideal
    quot, projection = result.algebra, result.projection
    free = [algebra.label_index(label) for label in quot.labels]
    full = [(a, b, t, c)
            for a in range(len(free)) for b in range(a, len(free))
            for t, c in enumerate(projection.apply((algebra.basis(free[a]) * algebra.basis(free[b])).coords))]
    rebuilt = Algebra(field, quot.labels, full, AlgebraMeta(DERIVED))
    assert (rebuilt._rows, rebuilt.denominator) == (quot._rows, quot.denominator)


class BoxedElement:
    """The Element arithmetic on tuples of Scalars, as it ran before the
    coordinates were stored raw: the reference for the raw Element."""

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(algebra.field.scalar(c) for c in coords)

    def __add__(self, other):
        return BoxedElement(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return BoxedElement(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return BoxedElement(self.algebra, [-a for a in self.coords])

    def scaled(self, other):
        scalar = self.algebra.field.scalar(other)
        return BoxedElement(self.algebra, [scalar * a for a in self.coords])

    def times(self, other):
        table = dense_table(self.algebra)
        return BoxedElement(self.algebra, reference_product(self.algebra.field, table, self.coords, other.coords))

    def __eq__(self, other):
        return other.algebra is self.algebra and other.coords == self.coords

    @property
    def is_zero(self):
        return all(a.is_zero for a in self.coords)

    def __repr__(self):
        parts = [
            f"{c}*{label}" if not c.is_one else label
            for c, label in zip(self.coords, self.algebra.labels)
            if c
        ]
        return " + ".join(parts) if parts else "0"


@given(derived_algebras(), st.data())
def test_raw_element_matches_boxed_reference(algebra, data):
    field, n = algebra.field, algebra.dim
    value = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
    coords = st.lists(value, min_size=n, max_size=n)
    u_in = data.draw(coords)
    v_in = list(u_in) if data.draw(st.booleans()) else data.draw(coords)
    s = data.draw(value)
    u, v = algebra.element(u_in), algebra.element(v_in)
    bu, bv = BoxedElement(algebra, u_in), BoxedElement(algebra, v_in)
    pairs = [
        (u, bu),
        (u + v, bu + bv),
        (u - v, bu - bv),
        (-u, -bu),
        (u * s, bu.scaled(s)),
        (s * u, bu.scaled(s)),
        (u * field.scalar(s), bu.scaled(s)),
        (u * v, bu.times(bv)),
    ]
    for x, reference in pairs:
        assert x.coords == reference.coords
        assert x.raw == tuple(c.value for c in reference.coords)
        assert x.is_zero == reference.is_zero
        assert repr(x) == repr(reference)
        assert fractions_over_q(field, x.raw)
    assert (u == v) == (bu == bv)
    if u == v:
        assert hash(u) == hash(v)
    assert u == algebra.element(bu.coords) and hash(u) == hash(algebra.element(bu.coords))
    built = [algebra.zero(), *map(algebra.basis, range(n)), algebra.from_labels({algebra.labels[0]: s})]
    for x in built:
        assert fractions_over_q(field, x.raw)
