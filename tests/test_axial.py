import itertools
import os
import random
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
    algebra_radical,
    axes_with_involution,
    check_axis,
    exceptional_cover,
    extend_orthogonal,
    family_axis,
    frobenius,
    frobenius_s3_invariant,
    is_automorphism,
    is_simple,
    jordan_law,
    matsuo_3c,
    miyamoto,
    monster_law,
    split_spin,
)
from splitspin.axial import FusionLaw, _verify_ideal, sample_orthogonal_extension
from splitspin.errors import (
    BaricCase,
    VerificationFailed,
    EigenvalueCollision,
    FieldMismatch,
    IncompleteDecomposition,
    NotAnAutomorphism,
    NotIdempotent,
    UnverifiedSpanHypothesis,
    WrongAlgebraKind,
)
from splitspin.idempotents import FAMILY_A, FAMILY_B, FAMILY_EXC
from splitspin.linalg import same_span
from test_algebra import add_to_constants, adjoint, dense, dense_table
from test_linalg import diagonal

QQ = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)
HALF = Fraction(1, 2)


def identity_space(field, dim):
    return QuadraticSpace(Matrix.identity(field, dim))


@pytest.fixture
def A3():
    return split_spin(identity_space(QQ, 2), 3)


# -- fusion laws ------------------------------------------------------------------


def allowed(law, lam, mu):
    """The eigenvalues allowed in the product of the lam- and mu-eigenspaces,
    read off the law's index table."""
    index = law.eigenvalues.index
    return frozenset(law.eigenvalues[c] for c in law.table[index(lam)][index(mu)])


def test_monster_law_table():
    law = monster_law(QQ, 3, HALF)
    one, zero = QQ.one(), QQ.zero()
    alpha, beta = QQ.scalar(3), QQ.scalar(HALF)
    assert allowed(law, one, zero) == frozenset()
    assert allowed(law, zero, zero) == {zero}
    assert allowed(law, alpha, alpha) == {one, zero}
    assert allowed(law, beta, alpha) == {beta}
    assert allowed(law, beta, beta) == {one, zero, alpha}
    assert law.minus == {beta}


def test_jordan_law_is_the_sublaw():
    law = jordan_law(F7, 3)
    one, zero, eta = F7.one(), F7.zero(), F7.scalar(3)
    assert allowed(law, eta, eta) == {one, zero}
    assert allowed(law, one, eta) == {eta}
    assert law.plus == {one, zero}


# the allowed products by eigenvalue index, written out for every ordered
# pair: 1, 0, alpha, beta for the Monster-type law, 1, 0, eta for the Jordan one
MONSTER_TABLE = (
    ({0}, set(), {2}, {3}),
    (set(), {1}, {2}, {3}),
    ({2}, {2}, {0, 1}, {3}),
    ({3}, {3}, {3}, {0, 1, 2}),
)
JORDAN_TABLE = (
    ({0}, set(), {2}),
    (set(), {1}, {2}),
    ({2}, {2}, {0, 1}),
)


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
@pytest.mark.parametrize("build, named, expected", [
    (lambda field: monster_law(field, 3, HALF), (3, HALF), MONSTER_TABLE),
    (lambda field: jordan_law(field, 3), (3,), JORDAN_TABLE),
], ids=["monster", "jordan"])
def test_law_table_matches_the_written_table(field, build, named, expected):
    law = build(field)
    values = (field.one(), field.zero(), *map(field.scalar, named))
    assert law.eigenvalues == values
    assert law.table == tuple(tuple(frozenset(cell) for cell in row) for row in expected)
    for a, b in itertools.product(range(len(values)), repeat=2):
        assert law.table[a][b] == law.table[b][a]
    assert law.plus == frozenset(values[:-1]) and law.minus == {values[-1]}


def test_law_collisions_are_named():
    with pytest.raises(EigenvalueCollision):
        jordan_law(QQ, 1)
    with pytest.raises(EigenvalueCollision) as info:
        monster_law(QQ, HALF, HALF)
    assert "alpha" in str(info.value) and "beta" in str(info.value)
    with pytest.raises(EigenvalueCollision):
        # 1/2 = 3 = alpha in F_5
        monster_law(F5, 3, HALF)


# -- axis checking ----------------------------------------------------------------


def test_z1_is_jordan_axis(A3):
    report = check_axis(A3, A3.basis_by_label("z1"), jordan_law(QQ, 3))
    assert report.primitive
    assert not report.violations
    assert list(report.dims.values()) == [1, 1, 2]
    assert report.miyamoto is not None


def test_family_a_is_monster_axis(A3):
    x = family_axis(A3, [1, 0], FAMILY_A)
    report = check_axis(A3, x, monster_law(QQ, 3, HALF))
    assert report.primitive
    assert not report.violations
    assert list(report.dims.values()) == [1, 1, 1, 1]


def test_check_axis_rejects_a_law_over_another_field(A3):
    with pytest.raises(FieldMismatch):
        check_axis(A3, A3.basis_by_label("z1"), jordan_law(F7, 3))


def test_family_b_fails_the_wrong_law(A3):
    y = family_axis(A3, [1, 0], FAMILY_B)
    with pytest.raises(IncompleteDecomposition):
        check_axis(A3, y, monster_law(QQ, 3, HALF))
    report = check_axis(A3, y, monster_law(QQ, -2, HALF))
    assert report.primitive and not report.violations


def test_grading_failure_reports_not_an_automorphism(A3):
    # an artificial law grading the alpha-eigenspace as the minus part:
    # products between the 1/2- and alpha-eigenspaces land in 1/2 (plus),
    # so the flip cannot be multiplicative
    x = family_axis(A3, [1, 0], FAMILY_A)
    good = monster_law(QQ, 3, HALF)
    bad = FusionLaw(
        kind="monster",
        eigenvalues=good.eigenvalues,
        table=good.table,
        plus=frozenset([QQ.one(), QQ.zero(), QQ.scalar(HALF)]),
        minus=frozenset([QQ.scalar(3)]),
    )
    with pytest.raises(NotAnAutomorphism):
        miyamoto(A3, x, bad)


def test_miyamoto_is_negated_reflection(A3):
    space = A3.meta.space
    x = family_axis(A3, [1, 0], FAMILY_A)
    tau = miyamoto(A3, x, monster_law(QQ, 3, HALF))
    assert tau == extend_orthogonal(A3, space.neg_reflection([1, 0]))
    assert tau @ tau == Matrix.identity(QQ, 4)
    assert is_automorphism(A3, tau)


def test_tau_z1_equals_tau_z2_equals_sigma(A3):
    sigma = extend_orthogonal(A3, -Matrix.identity(QQ, 2))
    assert miyamoto(A3, A3.basis_by_label("z1"), jordan_law(QQ, 3)) == sigma
    assert miyamoto(A3, A3.basis_by_label("z2"), jordan_law(QQ, -2)) == sigma


def test_axes_with_involution_four_distinct(A3):
    quad = axes_with_involution(A3, [1, 0])
    assert len({x.coords for x in quad}) == 4


def test_axes_with_involution_rejections(A3):
    from splitspin.errors import NotNormOne

    with pytest.raises(NotNormOne):
        axes_with_involution(A3, [2, 0])
    with pytest.raises(WrongAlgebraKind):
        axes_with_involution(exceptional_cover(identity_space(QQ, 2)), [1, 0])


def test_adjoint_charpoly_matches_eigenstructure():
    # independent oracle: the characteristic polynomial of ad_x over dim E = 3
    # factors as t (t - 1)(t - alpha)(t - 1/2)^2
    import sympy

    algebra = split_spin(identity_space(QQ, 3), 3)
    x = family_axis(algebra, [1, 0, 0], FAMILY_A)
    ad = adjoint(algebra, x)
    sym = sympy.Matrix(5, 5, [c.value for row in ad.entries for c in row])
    t = sympy.Symbol("t")
    charpoly = sym.charpoly(t).as_expr()
    expected = t * (t - 1) * (t - 3) * (t - sympy.Rational(1, 2)) ** 2
    assert sympy.expand(charpoly - expected) == 0


def test_miyamoto_permutes_family_a():
    from splitspin import classify_idempotent

    algebra = split_spin(identity_space(QQ, 2), 3)
    space = algebra.meta.space
    x = family_axis(algebra, [1, 0], FAMILY_A)
    tau = miyamoto(algebra, x, monster_law(QQ, 3, HALF))
    other = family_axis(algebra, [Fraction(3, 5), Fraction(4, 5)], FAMILY_A)
    image = algebra.element(tau.apply(other.coords))
    verdict = classify_idempotent(algebra, image)
    assert verdict.tag == "family_a"
    assert verdict.raw_e == space.neg_reflection([1, 0]).apply_raw([Fraction(3, 5), Fraction(4, 5)])


def test_exceptional_axis_monster_law():
    cover = exceptional_cover(identity_space(QQ, 2))
    x = family_axis(cover, [1, 0], FAMILY_EXC)
    report = check_axis(cover, x, monster_law(QQ, -1, HALF))
    assert report.primitive and not report.violations
    assert list(report.dims.values()) == [1, 1, 1, 1]


# -- Frobenius form ----------------------------------------------------------------


def test_frobenius_values_alpha_three(A3):
    form = frobenius(A3)
    z1 = A3.basis_by_label("z1")
    z2 = A3.basis_by_label("z2")
    e1 = A3.basis(0)
    assert form.evaluate(z1, z1) == QQ.scalar(4)
    assert form.evaluate(z2, z2) == QQ.scalar(-1)
    assert form.evaluate(e1, e1) == QQ.scalar(-4)
    assert form.evaluate(e1, z1) == QQ.zero()
    assert form.radical_basis == ()


def test_frobenius_lengths(A3):
    form = frobenius(A3)
    x = family_axis(A3, [1, 0], FAMILY_A)
    y = family_axis(A3, [1, 0], FAMILY_B)
    assert form.evaluate(x, x) == QQ.scalar(4)  # alpha + 1
    assert form.evaluate(y, y) == QQ.scalar(-1)  # 2 - alpha


def test_frobenius_cover_values():
    cover = exceptional_cover(identity_space(QQ, 2))
    form = frobenius(cover)
    e1, z1, n = cover.basis(0), cover.basis_by_label("z1"), cover.basis_by_label("n")
    assert form.evaluate(e1, e1) == QQ.scalar(3)
    assert form.evaluate(z1, z1) == QQ.one()
    assert form.evaluate(n, n) == QQ.zero()
    assert form.evaluate(n, e1) == QQ.zero()
    assert same_span(QQ, [v.coords for v in form.radical_basis], [n.coords])


def test_frobenius_wrong_kind():
    with pytest.raises(WrongAlgebraKind):
        frobenius(matsuo_3c(QQ, 3))


def test_frobenius_rank_one_baric():
    for alpha, label in ((-1, "z1"), (2, "z2")):
        algebra = split_spin(identity_space(QQ, 2), alpha)
        form = frobenius(algebra)
        assert form.gram.rank() == 1
        stated = [algebra.basis(i).coords for i in range(2)]
        stated.append(algebra.basis_by_label(label).coords)
        assert same_span(QQ, [v.coords for v in form.radical_basis], stated)


def test_frobenius_invariant_under_sampled_orthogonal(A3):
    rng = random.Random(5)
    form = frobenius(A3)
    for _ in range(5):
        m = sample_orthogonal_extension(A3, rng)
        assert is_automorphism(A3, m)
        assert m.transpose() @ form.gram @ m == form.gram


def test_projection_graph_surrogate():
    # (z1, x) != 0 for every family (a) axis when alpha is outside {-1, 2}
    for alpha in (3, -3, 5, Fraction(1, 4)):
        algebra = split_spin(identity_space(QQ, 2), alpha)
        form = frobenius(algebra)
        z1 = algebra.basis_by_label("z1")
        for e in ([1, 0], [0, 1], [Fraction(3, 5), Fraction(4, 5)]):
            x = family_axis(algebra, e, FAMILY_A)
            assert form.evaluate(z1, x) != QQ.zero()


# -- radical and simplicity ---------------------------------------------------------


def reference_form(gram, u, v):
    """u^T F v by a boxed loop over the Scalars u and v."""
    gv = gram.apply(v)
    acc = gram.field.zero()
    for a, b in zip(u, gv):
        acc = acc + a * b
    return acc


def frobenius_witness_reference(algebra, gram):
    """The first basis triple (i, j, t) with (b_i, b_j b_t) != (b_i b_j, b_t),
    or None: the O(n^5) loop frobenius ran before its O(n^4) check."""
    n, table = algebra.dim, dense_table(algebra)
    for i in range(n):
        for j in range(n):
            for t in range(n):
                lhs = reference_form(gram, algebra.basis(i).coords, table[j][t])
                rhs = reference_form(gram, table[i][j], algebra.basis(t).coords)
                if lhs != rhs:
                    return (i, j, t)
    return None


def first_failing_sorted_triple(algebra, gram):
    """The first i <= j <= t at which (b_i, b_j b_t), (b_j, b_i b_t) and
    (b_t, b_i b_j) are not all equal, or None."""
    n, table = algebra.dim, dense_table(algebra)

    def value(i, j, t):
        return reference_form(gram, algebra.basis(i).coords, table[j][t])

    return next(((i, j, t) for i, j, t in itertools.combinations_with_replacement(range(n), 3)
                 if not value(i, j, t) == value(j, i, t) == value(t, i, j)), None)


def reference_frobenius_gram(algebra):
    """The Frobenius Gram as frobenius built it before it read the form's
    int terms: Fraction products with the Gram entries, coerced by Matrix."""
    space = algebra.meta.space
    if algebra.meta.kind == "split_spin":
        a = algebra.meta.alpha.value
        e_scale, z_diagonal = (a + 1) * (2 - a), (a + 1, 2 - a)
    else:
        e_scale, z_diagonal = 3, (1, 0)
    k = space.dim
    rows = [[e_scale * b for b in row] + [0, 0] for row in space.gram.raw]
    rows += [[0] * k + [z_diagonal[0], 0], [0] * (k + 1) + [z_diagonal[1]]]
    return Matrix(algebra.field, rows)


def assert_reference_gram(gram, algebra):
    assert gram == reference_frobenius_gram(algebra)
    kind = int if algebra.field.p else Fraction
    assert all(type(a) is kind for row in gram.raw for a in row)


def perturbed(algebra, i, j, delta):
    """The algebra with delta added to the coordinates of b_i b_j = b_j b_i."""
    return add_to_constants(algebra, [(i, j, k, d) for k, d in enumerate(delta)])


def random_gram(field, k, rng, entries=None):
    """A random symmetric k x k Gram matrix: ints in [-2, 2], or draws from entries."""
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2) if entries is None else rng.choice(entries)
    return QuadraticSpace(Matrix(field, rows))


FRACTION_ENTRIES = (0, 1, -1, 2, HALF, Fraction(-2, 3), Fraction(5, 3))
F10007 = Field.prime(10007)


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
@pytest.mark.parametrize("k", range(1, 6))
def test_frobenius_matches_reference_loop(field, k):
    """The sorted-triple integer check against the boxed lexicographic loop,
    with Fraction alpha and Gram entries (cells over a denominator D > 1);
    the Gram read off the form's int terms against the Fraction products."""
    rng = random.Random(f"frobenius/{field.p}/{k}")
    builds = (lambda s: split_spin(s, 3), lambda s: split_spin(s, Fraction(5, 3)),
              lambda s: split_spin(s, Fraction(-3, 4)), exceptional_cover)
    for build, entries in itertools.product(builds, (None, FRACTION_ENTRIES)):
        algebra = build(random_gram(field, k, rng, entries))
        gram = frobenius(algebra).gram
        assert_reference_gram(gram, algebra)
        assert frobenius_witness_reference(algebra, gram) is None
        n = algebra.dim
        for _ in range(3):
            i, j = rng.randrange(n), rng.randrange(n)
            delta = [rng.choice((0, 0, 1, -1, 2, Fraction(1, 3))) for _ in range(n)]
            broken = perturbed(algebra, i, j, delta)
            expected = frobenius_witness_reference(broken, gram)
            if expected is None:
                assert frobenius(broken).gram == gram
                continue
            with pytest.raises(VerificationFailed) as info:
                frobenius(broken)
            assert info.value.witness == expected


@pytest.mark.parametrize("field", [QQ, F7, F10007], ids=["QQ", "F7", "F10007"])
def test_frobenius_witness_is_lexicographic_not_sorted(field):
    """On a diagonal Gram, adding b_1 to b_0 b_2 changes only (b_1, b_0 b_2):
    the sorted triple (0, 1, 2) fails first, and the witness is the first
    failing triple in lexicographic order, (0, 2, 1)."""
    space = QuadraticSpace(diagonal(field, [HALF, 3, Fraction(-2, 3)]))
    for algebra in (split_spin(space, Fraction(5, 3)), exceptional_cover(space)):
        broken = perturbed(algebra, 0, 2, [0, 1, 0, 0, 0])
        gram = frobenius(algebra).gram
        assert first_failing_sorted_triple(broken, gram) == (0, 1, 2)
        assert frobenius_witness_reference(broken, gram) == (0, 2, 1)
        with pytest.raises(VerificationFailed) as info:
            frobenius(broken)
        assert info.value.witness == (0, 2, 1)


def _radical_cases():
    """Algebras over Q, F_5, F_7 and F_10007 on regular, degenerate and zero
    Grams: split spin at alpha in {3, 5/3, -1, 2} and the cover; and the
    cover over F_3, where the E-block's scale 3 vanishes."""
    grams = ([[1, 0], [0, 1]], [[1, 1], [1, 1]], [[0, 0], [0, 0]],
             [[HALF, 1, 0], [1, 2, 3], [0, 3, Fraction(9, 2)]], [[2, 1, 0], [1, 1, 0], [0, 0, 0]])
    for field in (QQ, F5, F7, F10007):
        for rows in grams:
            space = QuadraticSpace(Matrix(field, rows))
            yield exceptional_cover(space)
            for alpha in (3, Fraction(5, 3), -1, 2):
                yield split_spin(space, alpha)
    yield exceptional_cover(QuadraticSpace(Matrix(Field.prime(3), [[1, 2], [2, 0]])))


def test_frobenius_radical_is_the_kernel_of_its_gram():
    """The radical read off G's kernel and the z-diagonal equals, vector for
    vector, the generic kernel of the whole Frobenius Gram matrix."""
    for algebra in _radical_cases():
        form = frobenius(algebra)
        assert_reference_gram(form.gram, algebra)
        assert [v.coords for v in form.radical_basis] == list(form.gram.kernel()), algebra.meta


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
def test_frobenius_evaluate_is_the_plain_bilinear_form(field):
    rng = random.Random(f"evaluate/{field.p}")
    entries = FRACTION_ENTRIES if field.p is None else range(7)
    for algebra in (split_spin(random_gram(field, 3, rng, entries), Fraction(5, 3)),
                    exceptional_cover(random_gram(field, 2, rng, entries))):
        form = frobenius(algebra)
        for _ in range(10):
            u, v = (algebra.element([rng.choice(entries) for _ in range(algebra.dim)]) for _ in range(2))
            plain = sum((a * form.gram.entries[i][j] * b for i, a in enumerate(u.coords)
                         for j, b in enumerate(v.coords)), field.zero())
            assert form.evaluate(u, v) == plain


def check_axis_reference(algebra, x, law):
    """(dims, violations, miyamoto) by the two sweeps check_axis made before it
    read the Miyamoto involution off the fusion products: the fusion law on
    every ordered pair of eigenvectors, then B D B^-1 tested with
    is_automorphism on standard basis pairs."""
    bases = algebra.eigenspaces_raw(x.raw, [lam.value for lam in law.eigenvalues])
    assert sum(map(len, bases)) == algebra.dim
    spaces = {lam: [algebra.element(dense(v, algebra.dim)) for v in basis]
              for lam, basis in zip(law.eigenvalues, bases)}
    dims = {lam: len(basis) for lam, basis in spaces.items()}
    columns = [v.coords for lam in law.eigenvalues for v in spaces[lam]]
    basis_change = Matrix.from_columns(algebra.field, columns)
    inverse = basis_change.inverse()
    offsets, offset = {}, 0
    for lam in law.eigenvalues:
        offsets[lam] = range(offset, offset + dims[lam])
        offset += dims[lam]
    violations = []
    for i, lam in enumerate(law.eigenvalues):
        for mu in law.eigenvalues[i:]:
            products = allowed(law, lam, mu)
            for u in spaces[lam]:
                for v in spaces[mu]:
                    coords = inverse.apply((u * v).coords)
                    for nu in law.eigenvalues:
                        hit = nu not in products and any(coords[t] for t in offsets[nu])
                        if hit and (lam, mu, nu) not in violations:
                            violations.append((lam, mu, nu))
    one = algebra.field.one()
    signs = [one if lam in law.plus else -one for lam in law.eigenvalues for _ in spaces[lam]]
    tau = basis_change @ diagonal(algebra.field, signs) @ inverse
    if tau @ tau != Matrix.identity(algebra.field, algebra.dim) or not is_automorphism(algebra, tau):
        tau = None
    return dims, violations, tau


def _axis_cases(field, k, alpha, rng):
    """(algebra, axis, law) for z1, z2 and the family axes of split spin, and
    z1 and the exceptional axis of the cover, on a random Gram matrix with
    Fraction entries and b(e_1, e_1) = 1."""
    entries = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = rng.choice(entries)
    rows[0][0] = 1
    space = QuadraticSpace(Matrix(field, rows))
    e = [1] + [0] * (k - 1)
    alpha, half, one = field.scalar(alpha), field.half(), field.one()
    algebra = split_spin(space, alpha)
    yield algebra, algebra.basis_by_label("z1"), jordan_law(field, alpha)
    yield algebra, algebra.basis_by_label("z2"), jordan_law(field, one - alpha)
    yield algebra, family_axis(algebra, e, FAMILY_A), monster_law(field, alpha, half)
    yield algebra, family_axis(algebra, e, FAMILY_B), monster_law(field, one - alpha, half)
    cover = exceptional_cover(space)
    yield cover, cover.basis_by_label("z1"), jordan_law(field, -one)
    yield cover, family_axis(cover, e, FAMILY_EXC), monster_law(field, -one, half)


def test_check_axis_matches_two_sweep_reference():
    """The integer fusion loop against the boxed one, on denominators other
    than 1 and 2: alpha in {3, 1/3, -3/2}, Gram entries and perturbations
    with denominators 2 and 3."""
    outcomes = set()
    for field in (QQ, F7, Field.prime(11), Field.prime(10007)):
        for k in range(1, 6):
            for alpha in (3, Fraction(1, 3), Fraction(-3, 2)):
                rng = random.Random(f"check_axis/{field.p}/{k}/{alpha}")
                for algebra, axis, law in _axis_cases(field, k, alpha, rng):
                    n = algebra.dim
                    variants = [algebra]
                    for _ in range(12):
                        i, j = rng.randrange(n), rng.randrange(n)
                        delta = [rng.choice((0, 0, 1, -1, 2, Fraction(1, 3))) for _ in range(n)]
                        variants.append(perturbed(algebra, i, j, delta))
                    for variant in variants:
                        x = variant.element(axis.coords)
                        try:
                            report = check_axis(variant, x, law)
                        except (NotIdempotent, IncompleteDecomposition):
                            continue
                        dims, violations, tau = check_axis_reference(variant, x, law)
                        assert report.dims == dims
                        assert list(report.violations) == violations
                        assert report.miyamoto == tau
                        outcomes.add((tau is not None, bool(violations)))
    assert outcomes >= {(False, True), (True, True), (True, False)}


def test_frobenius_rejects_perturbed_table_under_optimize(A3):
    # python -O strips assert statements; the check must still raise
    script = textwrap.dedent(
        """
        import sys
        from splitspin import Field, Matrix, QuadraticSpace, frobenius, split_spin
        from splitspin.algebra import Algebra
        from splitspin.errors import VerificationFailed

        assert False, "assert statements run: not optimised"
        QQ = Field.rationals()
        algebra = split_spin(QuadraticSpace(Matrix.identity(QQ, 2)), 3)
        # e1 e2 = 0 gains a z1 coefficient 1
        broken = Algebra(QQ, algebra.labels, algebra.constants + ((0, 1, 2, 1),), algebra.meta)
        try:
            frobenius(broken)
        except VerificationFailed as exc:
            print("VerificationFailed", exc.witness)
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
    broken = perturbed(A3, 0, 1, [0, 0, 1, 0])
    expected = frobenius_witness_reference(broken, frobenius(A3).gram)
    assert expected is not None
    assert proc.stdout.strip() == f"VerificationFailed {expected}"


def test_verify_ideal_reports_first_escaping_product(A3):
    e1 = A3.basis(0).raw
    _verify_ideal(A3, [])  # the zero subspace is an ideal
    with pytest.raises(VerificationFailed) as info:
        _verify_ideal(A3, [e1])  # e1 e1 lies in the z-part, outside <e1>
    assert info.value.witness == (0, 0)


def test_radical_nondegenerate(A3):
    assert algebra_radical(A3) == ()


def test_radical_degenerate():
    space = QuadraticSpace(Matrix(QQ, [[1, 1], [1, 1]]))
    algebra = split_spin(space, 3)
    radical = algebra_radical(algebra)
    assert len(radical) == 1
    lifted = tuple(radical[0].coords)
    assert lifted[2] == QQ.zero() and lifted[3] == QQ.zero()
    assert space.bform(lifted[:2], [1, 0]) == QQ.zero()


def test_radical_baric_case():
    algebra = split_spin(identity_space(QQ, 2), 2)
    with pytest.raises(BaricCase) as info:
        algebra_radical(algebra)
    assert info.value.tag == "alpha=2"
    stated = [algebra.basis(0).coords, algebra.basis(1).coords,
              algebra.basis_by_label("z2").coords]
    assert same_span(QQ, [v.coords for v in info.value.radical], stated)


def test_baric_minus_one_is_decided_before_two():
    # over F_3, alpha = 2 = -1: the radical and the simplicity verdict name -1
    F3 = Field.prime(3)
    algebra = split_spin(identity_space(F3, 2), 2)
    with pytest.raises(BaricCase) as info:
        algebra_radical(algebra)
    assert info.value.tag == "alpha=-1"
    stated = [algebra.basis(0).coords, algebra.basis(1).coords, algebra.basis_by_label("z1").coords]
    assert same_span(F3, [v.coords for v in info.value.radical], stated)
    assert is_simple(algebra, identity_space(F3, 2).find_norm_one()) == (False, "BaricMinusOne")


def test_radical_cover():
    space = QuadraticSpace(Matrix(QQ, [[1, 1], [1, 1]]))
    cover = exceptional_cover(space)
    radical = algebra_radical(cover)
    assert len(radical) == 2  # the (1, -1) lift and n


def test_radical_cover_rejects_characteristic_three():
    from splitspin.errors import BadCharacteristic

    cover = exceptional_cover(identity_space(Field.prime(3), 1))
    with pytest.raises(BadCharacteristic):
        algebra_radical(cover)


def test_radical_wrong_kind():
    with pytest.raises(WrongAlgebraKind):
        algebra_radical(matsuo_3c(QQ, 3))


def test_is_simple_wrong_kind_and_char_two():
    from splitspin.errors import CharTwo

    with pytest.raises(WrongAlgebraKind):
        is_simple(matsuo_3c(QQ, 3))
    char2 = split_spin(identity_space(Field.prime(2), 1), 1)
    with pytest.raises(CharTwo):
        is_simple(char2)


def test_is_simple_grid():
    degenerate = QuadraticSpace(Matrix(QQ, [[1, 1], [1, 1]]))
    evidence = identity_space(QQ, 2).find_norm_one(budget=100, seed=0)
    evidence_deg = degenerate.find_norm_one(budget=100, seed=0)
    assert is_simple(split_spin(identity_space(QQ, 2), 3), evidence) == (True, "Simple")
    assert is_simple(split_spin(identity_space(QQ, 2), -1), evidence) == (False, "BaricMinusOne")
    assert is_simple(split_spin(identity_space(QQ, 2), 2), evidence) == (False, "BaricTwo")
    assert is_simple(split_spin(degenerate, 3), evidence_deg) == (False, "DegenerateForm")


def test_is_simple_requires_evidence(A3):
    with pytest.raises(UnverifiedSpanHypothesis):
        is_simple(A3)
    bad = QuadraticSpace(Matrix(QQ, [[-1]]))
    algebra = split_spin(bad, 3)
    with pytest.raises(UnverifiedSpanHypothesis):
        is_simple(algebra, evidence=bad.find_norm_one(budget=100, seed=0))
    assert is_simple(A3, identity_space(QQ, 2).find_norm_one(budget=100, seed=0)) == (True, "Simple")


# -- automorphisms ------------------------------------------------------------------


def test_reflection_extension_is_automorphism(A3):
    space = A3.meta.space
    m = extend_orthogonal(A3, space.reflection([1, 0]))
    assert is_automorphism(A3, m)


def test_z_swap_is_not_an_automorphism(A3):
    ident = Matrix.identity(QQ, 4)
    cols = [ident.column(0), ident.column(1), ident.column(3), ident.column(2)]
    assert not is_automorphism(A3, Matrix.from_columns(QQ, cols))


def test_extend_orthogonal_rejects_a_map_over_another_field():
    algebra = split_spin(identity_space(F7, 2), 3)
    for m_on_e in (Matrix(F5, [[4, 0], [0, 1]]), Matrix(QQ, [[Fraction(1, 2), 0], [0, 1]])):
        with pytest.raises(FieldMismatch):
            extend_orthogonal(algebra, m_on_e)


def test_form_preserving_requirement():
    # a non-isometry of E does not extend to an automorphism
    A = split_spin(identity_space(QQ, 2), 3)
    stretch = diagonal(QQ, [2, 1])
    assert not is_automorphism(A, extend_orthogonal(A, stretch))


def test_s3_invariance_in_dimension_one():
    algebra = split_spin(identity_space(QQ, 1), 3)
    assert frobenius_s3_invariant(algebra, [1])
    with pytest.raises(WrongAlgebraKind):
        frobenius_s3_invariant(split_spin(identity_space(QQ, 2), 3), [1, 0])


def test_s3_permutations_are_automorphisms():
    # the three distinguished idempotents of the dim-1 algebra may be permuted
    algebra = split_spin(identity_space(QQ, 1), 3)
    x = family_axis(algebra, [1], FAMILY_A)
    x_minus = family_axis(algebra, [-1], FAMILY_A)
    z1 = algebra.basis_by_label("z1")
    basis = Matrix.from_columns(QQ, [x.coords, x_minus.coords, z1.coords])
    inverse = basis.inverse()
    import itertools

    for perm in itertools.permutations(range(3)):
        mapped = Matrix.from_columns(QQ, [basis.column(p) for p in perm]) @ inverse
        assert is_automorphism(algebra, mapped)
