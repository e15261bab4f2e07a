import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import splitspin

from splitspin import (
    Field,
    Matrix,
    QuadraticSpace,
    classify_idempotent,
    classify_idempotents,
    enumerate_idempotents_bruteforce,
    exceptional_cover,
    family_axis,
    is_idempotent,
    matsuo_3c,
    split_spin,
)
from splitspin.algebra import COVER, DERIVED, Algebra, AlgebraMeta
from splitspin.axial import axis_law, check_axis, jordan_law, monster_law
from splitspin.errors import (
    BudgetExceeded,
    CharTwo,
    NotFiniteField,
    NotIdempotent,
    NotNormOne,
    WrongAlgebraKind,
)
from splitspin.idempotents import (
    FAMILY_A,
    FAMILY_B,
    FAMILY_EXC,
    TAG_FAMILY_A,
    TAG_FAMILY_B,
    TAG_FAMILY_EXC,
    TAG_ONE,
    TAG_OTHER,
    TAG_Z1,
    TAG_Z2,
    IdempotentClass,
    classes,
    expected_count,
)
from test_fields import rational_root

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
        from splitspin.algebra import COVER, DERIVED, Algebra, AlgebraMeta
        from splitspin.errors import VerificationFailed
        from splitspin.idempotents import FAMILY_A

        assert False, "assert statements run: not optimised"
        QQ = Field.rationals()
        algebra = split_spin(QuadraticSpace(Matrix.identity(QQ, 2)), 3)
        # e1 e1 = -3 z1 - 8 z2 becomes -2 z1 - 8 z2
        constants = [(i, j, k, c + 1 if (i, j, k) == (0, 0, 2) else c)
                     for i, j, k, c in algebra.constants]
        broken = Algebra(QQ, algebra.labels, constants, algebra.meta)
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
    assert verdict.raw_e == (1, 0)
    assert classify_idempotent(A3, A3.basis_by_label("z2")).tag == "z2"
    assert classify_idempotent(A3, A3.identity()).tag == "one"


def test_classify_exceptional_minus():
    cover = exceptional_cover(identity_space(QQ, 1))
    x_minus = cover.element([Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)])
    verdict = classify_idempotent(cover, x_minus)
    assert verdict.tag == "family_exc"
    assert verdict.raw_e == (-1,)


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


# -- the line scan against the plain scan ----------------------------------------


def reference_bruteforce(algebra):
    """The plain exhaustive scan: square every one of the p**n coordinate
    vectors from the stored cells and keep those equal to their square."""
    p = algebra.field.p
    n = algebra.dim
    # x^2 = sum_i x_i^2 b_i b_i + sum_{i<j} 2 x_i x_j b_i b_j over the stored cells
    cells = [
        (i, j, algebra.cell(i, j) if i == j else tuple((k, 2 * c) for k, c in algebra.cell(i, j)))
        for i in range(n)
        for j in range(i, n)
        if algebra.cell(i, j)
    ]
    hits = []
    for coords in itertools.product(range(p), repeat=n):
        acc = [0] * n
        for i, j, cell in cells:
            w = coords[i] * coords[j]
            if w:
                for k, c in cell:
                    acc[k] += w * c
        if all((a - c) % p == 0 for a, c in zip(acc, coords)) and any(coords):
            hits.append(algebra.element(coords))
    return tuple(hits)


SCAN_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_VECTORS = 10**5


@st.composite
def scan_algebras(draw):
    """A split spin (alpha over all of F_p, 0, 1 and 1/2 included), cover or
    3C algebra over a small prime field, or a subalgebra, quotient or
    perturbation of one, with at most MAX_VECTORS coordinate vectors."""
    p = draw(st.sampled_from(SCAN_PRIMES))
    field = Field.prime(p)
    kind = draw(st.sampled_from(["split_spin", "cover"] + (["matsuo_3c"] if p != 2 else [])))
    derive = draw(st.sampled_from(["none", "subalgebra", "quotient", "perturbed"]))
    residue = st.integers(0, p - 1)
    if kind == "matsuo_3c":
        algebra = matsuo_3c(field, draw(residue))
    else:
        k = draw(st.integers(1, max(k for k in range(1, 5) if p ** (k + 2) <= MAX_VECTORS)))
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                # e_k spans an ideal of split spin when it is orthogonal to E
                zero_last = derive == "quotient" and j == k - 1
                rows[i][j] = rows[j][i] = 0 if zero_last else draw(residue)
        space = QuadraticSpace(Matrix(field, rows))
        if kind == "split_spin":
            special = [field.zero(), field.one()] + ([field.half()] if p != 2 else [])
            algebra = split_spin(space, draw(st.one_of(st.sampled_from(special), residue)))
        else:
            algebra = exceptional_cover(space)
    n = algebra.dim
    if derive == "subalgebra":
        gens = [algebra.element(draw(st.lists(residue, min_size=n, max_size=n))) for _ in range(2)]
        assume(not all(g.is_zero for g in gens))
        algebra = algebra.subalgebra(gens).algebra
    elif derive == "quotient":
        ideal = {"split_spin": [algebra.basis(n - 3)], "cover": [algebra.basis(n - 1)],
                 "matsuo_3c": []}[kind]
        algebra = algebra.quotient(ideal).algebra
    elif derive == "perturbed":
        index = st.integers(0, n - 1)
        deltas = draw(st.lists(st.tuples(index, index, index, st.integers(1, p - 1)),
                               min_size=1, max_size=3))
        values = {(i, j, k): c for i, j, k, c in algebra.constants}
        for i, j, k, d in deltas:
            key = (min(i, j), max(i, j), k)
            values[key] = values.get(key, field.zero()) + d
        algebra = Algebra(field, algebra.labels, [(*key, c) for key, c in values.items()], algebra.meta)
    return algebra


@settings(max_examples=200)
@given(scan_algebras())
def test_line_scan_matches_plain_scan(algebra):
    expected = tuple(x.coords for x in reference_bruteforce(algebra))
    assert tuple(x.coords for x in enumerate_idempotents_bruteforce(algebra)) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
def test_line_scan_matches_plain_scan_at_every_alpha(p):
    field = Field.prime(p)
    for gram in ([[1]], [[1, 1], [1, 2]], [[0, 0], [0, 1]]):
        space = QuadraticSpace(Matrix(field, gram))
        for algebra in [split_spin(space, alpha) for alpha in range(p)] + [exceptional_cover(space)]:
            expected = tuple(x.coords for x in reference_bruteforce(algebra))
            assert tuple(x.coords for x in enumerate_idempotents_bruteforce(algebra)) == expected


def test_line_scan_on_one_dimensional_algebras():
    for p in SCAN_PRIMES:
        field = Field.prime(p)
        for c in range(p):
            algebra = Algebra(field, ("b",), [(0, 0, 0, c)], AlgebraMeta(DERIVED))
            expected = tuple(x.coords for x in reference_bruteforce(algebra))
            assert tuple(x.coords for x in enumerate_idempotents_bruteforce(algebra)) == expected


def test_criterion_3_fails_under_optimize_when_the_scan_drops_a_hit():
    # python -O strips assert statements; criterion 3 must still report FAIL
    script = textwrap.dedent(
        """
        import sys
        from splitspin import acceptance
        from splitspin.cli import main

        assert False, "assert statements run: not optimised"
        scan = acceptance.enumerate_idempotents_bruteforce
        acceptance.enumerate_idempotents_bruteforce = lambda algebra, budget=10**6: scan(algebra, budget)[:-1]
        sys.exit(main(["selftest", "--only", "3"]))
        """
    )
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("FAIL criterion 3: ")
    assert "Traceback" not in proc.stderr


# -- batch classification against the boxed one-element classifier --------------


def reference_classify(algebra, x):
    """The boxed classifier: square x through the product, then match it
    against the templates with Scalar arithmetic."""
    if x.is_zero or not is_idempotent(x):
        raise NotIdempotent("classification requires a nonzero idempotent")
    kind = algebra.meta.kind
    if kind not in ("split_spin", COVER):
        raise WrongAlgebraKind(f"no idempotent classification on a {kind} algebra")
    field = algebra.field
    space = algebra.meta.space
    k = space.dim
    u = x.coords[:k]
    gamma, delta = x.coords[k], x.coords[k + 1]
    one = field.one()

    if not any(u):
        if kind == "split_spin":
            if gamma.is_one and delta.is_one:
                return IdempotentClass(TAG_ONE)
            if gamma.is_one and delta.is_zero:
                return IdempotentClass(TAG_Z1)
            if gamma.is_zero and delta.is_one:
                return IdempotentClass(TAG_Z2)
        else:
            if gamma.is_one and delta.is_zero:
                return IdempotentClass(TAG_Z1)
        return IdempotentClass(TAG_OTHER, witness=x)

    if field.characteristic != 2:
        e = tuple(2 * c for c in u)
        if space.bform(e, e).is_one:
            half = field.half()
            if kind == COVER:
                if gamma == -half and delta == half:
                    return IdempotentClass(TAG_FAMILY_EXC, tuple(c.value for c in e))
            else:
                alpha = algebra.meta.alpha
                if gamma == half * alpha and delta == half * (alpha + one):
                    return IdempotentClass(TAG_FAMILY_A, tuple(c.value for c in e))
                if gamma == half * (2 - alpha) and delta == half * (one - alpha):
                    return IdempotentClass(TAG_FAMILY_B, tuple(c.value for c in e))
    return IdempotentClass(TAG_OTHER, witness=x)


def classify_outcome(classify, algebra, x):
    try:
        return classify(algebra, x)
    except NotIdempotent:
        return NotIdempotent


CLASSIFY_FIELDS = tuple(Field.prime(p) for p in SCAN_PRIMES) + (QQ,)
Q_DIAGONAL = (1, 4, Fraction(1, 9), Fraction(9, 4), 2, -3, 0)  # the first four are squares


def template_points(algebra, rows):
    """Over Q: z1, and 1 and z2 on split spin, and the family members of
    +-e_i / r for every diagonal Gram entry r^2 that is a nonzero square."""
    field = algebra.field
    k = len(rows)
    z1 = algebra.basis(k)
    if algebra.meta.kind == COVER:
        points, families = [z1], [FAMILY_EXC]
    else:
        points, families = [z1, algebra.basis(k + 1), z1 + algebra.basis(k + 1)], [FAMILY_A, FAMILY_B]
    for i, row in enumerate(rows):
        root = rational_root(row[i])
        if not root:
            continue
        for sign in (1, -1):
            e = [field.zero()] * k
            e[i] = sign / root
            points += [family_axis(algebra, e, family) for family in families]
    return points


@st.composite
def classify_cases(draw):
    """A split spin algebra (alpha over the whole field, with 0, 1, 1/2, -1
    and 2 drawn on purpose) or a cover over F_2..F_13 or Q, sometimes with
    perturbed constants but its meta kept, and elements to classify: every
    scan hit over F_p, the templates over Q, zero and one random element."""
    field = draw(st.sampled_from(CLASSIFY_FIELDS))
    p = field.p
    kind = draw(st.sampled_from(["split_spin", COVER]))
    if p:
        value = st.integers(0, p - 1)
        k = draw(st.integers(1, max(k for k in (1, 2, 3) if p ** (k + 2) <= 20_000)))
    else:
        value = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
        k = draw(st.integers(1, 3))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = draw(value if p else st.sampled_from(Q_DIAGONAL))
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = draw(value)
    space = QuadraticSpace(Matrix(field, rows))
    if kind == COVER:
        algebra = exceptional_cover(space)
    else:
        special = [0, 1, -1, 2] + ([Fraction(1, 2)] if p != 2 else [])
        algebra = split_spin(space, draw(st.one_of(st.sampled_from(special), value)))
    n = algebra.dim
    points = [] if p else template_points(algebra, rows)
    if draw(st.booleans()):
        index = st.integers(0, n - 1)
        deltas = draw(st.lists(st.tuples(index, index, index, value.filter(bool)), min_size=1, max_size=3))
        values = {(i, j, t): c for i, j, t, c in algebra.constants}
        for i, j, t, d in deltas:
            key = (min(i, j), max(i, j), t)
            values[key] = values.get(key, field.zero()) + d
        algebra = Algebra(field, algebra.labels, [(*key, c) for key, c in values.items()], algebra.meta)
        points = [algebra.element(x.coords) for x in points]
    if p:
        points = list(enumerate_idempotents_bruteforce(algebra))
    points += [algebra.zero(), algebra.element(draw(st.lists(value, min_size=n, max_size=n)))]
    return algebra, points


@settings(max_examples=200, deadline=None)
@given(classify_cases())
def test_classify_idempotents_matches_boxed_reference(case):
    algebra, points = case
    expected = [classify_outcome(reference_classify, algebra, x) for x in points]
    assert [classify_outcome(classify_idempotent, algebra, x) for x in points] == expected
    hits = [x for x, verdict in zip(points, expected) if verdict is not NotIdempotent]
    verdicts = [verdict for verdict in expected if verdict is not NotIdempotent]
    assert classify_idempotents(algebra, hits) == verdicts
    with pytest.raises(NotIdempotent):
        classify_idempotents(algebra, [*hits, algebra.zero()])


@pytest.mark.parametrize("field", [Field.prime(p) for p in (2, 3, 5, 7)] + [QQ], ids=repr)
def test_classify_idempotents_meets_every_tag(field):
    """Every tag ("other" only over F_p) on the scan hits of split spin at
    every alpha in F_p (on the templates over Q, at the special alphas) and
    of the cover, each hit classified as the boxed reference does."""
    p = field.p
    alphas = range(p) if p else (0, 1, Fraction(1, 2), -1, 2, 3)
    tags = set()
    for rows in ([[1]], [[1, 1], [1, 2]], [[0, 0], [0, 1]], [[4, 1], [1, 0]]):
        space = QuadraticSpace(Matrix(field, rows))
        for algebra in [split_spin(space, alpha) for alpha in alphas] + [exceptional_cover(space)]:
            points = enumerate_idempotents_bruteforce(algebra) if p else template_points(algebra, rows)
            verdicts = classify_idempotents(algebra, points)
            assert verdicts == [reference_classify(algebra, x) for x in points]
            tags |= {verdict.tag for verdict in verdicts}
    if p == 2:  # no family, and every nonzero idempotent lies in F z1 + F z2
        assert tags == {TAG_ONE, TAG_Z1, TAG_Z2}
    else:
        families = {TAG_FAMILY_A, TAG_FAMILY_B, TAG_FAMILY_EXC}
        assert tags == {TAG_ONE, TAG_Z1, TAG_Z2, *families} | ({TAG_OTHER} if p else set())


# -- the class table against the classification, written out --------------------


TABLE_FIELDS = (QQ, F5, Field.prime(7), Field.prime(13))


def table_alphas(field):
    """A few alphas outside {0, 1, 1/2}."""
    excluded = (field.zero(), field.one(), field.half())
    candidates = (field.scalar(a) for a in (2, 3, 4, -2, Fraction(2, 3)))
    return list(dict.fromkeys(a for a in candidates if a not in excluded))


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_class_table_matches_the_classification(field):
    """The z-parts, etas, fusion laws and expected count read from `classes`,
    `axis_law` and `expected_count` agree with the paper's formulas: 1, z1,
    z2 and families (a) = e/2 + (alpha/2) z1 + ((alpha + 1)/2) z2 and
    (b) = e/2 + ((2 - alpha)/2) z1 + ((1 - alpha)/2) z2 with 3 + 2N in all
    on split spin; z1 and (e - z1 + n)/2 with 1 + N on the cover.  Each
    class's axes pass their law, and every family member classifies back
    to its own tag with its own e."""
    one, zero, half = field.one(), field.zero(), field.half()
    space = identity_space(field, 2)
    cases = []
    for alpha in table_alphas(field):
        algebra = split_spin(space, alpha)
        z_parts = {TAG_ONE: (None, (one, one)), TAG_Z1: (None, (one, zero)), TAG_Z2: (None, (zero, one)),
                   TAG_FAMILY_A: (FAMILY_A, (alpha / 2, (alpha + 1) / 2)),
                   TAG_FAMILY_B: (FAMILY_B, ((2 - alpha) / 2, (1 - alpha) / 2))}
        laws = {TAG_Z1: jordan_law(field, alpha), TAG_Z2: jordan_law(field, 1 - alpha),
                TAG_FAMILY_A: monster_law(field, alpha, half), TAG_FAMILY_B: monster_law(field, 1 - alpha, half)}
        cases.append((algebra, z_parts, laws, lambda n: 3 + 2 * n))
    cover = exceptional_cover(space)
    z_parts = {TAG_Z1: (None, (one, zero)), TAG_FAMILY_EXC: (FAMILY_EXC, (-half, half))}
    laws = {TAG_Z1: jordan_law(field, -one), TAG_FAMILY_EXC: monster_law(field, -one, half)}
    cases.append((cover, z_parts, laws, lambda n: 1 + n))

    norm_one = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for algebra, z_parts, laws, count in cases:
        table = classes(algebra)
        assert list(table) == list(z_parts)
        assert {tag: (family, tuple(field.scalar(c) for c in z)) for tag, (family, z, *_) in table.items()} == z_parts
        assert {tag: field.scalar(eta) for tag, (_, _, eta, _) in table.items() if eta is not None} == {
            tag: law.eigenvalues[2] for tag, law in laws.items()}
        for n in (0, 1, 4, 12):
            assert expected_count(algebra, n) == count(n)
        for tag, law in laws.items():
            assert axis_law(algebra, tag) == law
        for tag in (TAG_ONE, TAG_OTHER):
            with pytest.raises(ValueError):
                axis_law(algebra, tag)
        assert check_axis(algebra, algebra.basis_by_label("z1"), laws[TAG_Z1]).ok
        for tag, (family, (gamma, delta)) in z_parts.items():
            if family is None:
                continue
            for e in norm_one:
                x = family_axis(algebra, e, family)
                assert x == algebra.element([half * c for c in e] + [gamma, delta])
                verdict = classify_idempotent(algebra, x)
                assert verdict.tag == tag and verdict.raw_e == tuple(c.value for c in space.vector(e))
            assert check_axis(algebra, x, laws[tag]).ok


def test_class_table_edges():
    """No family in characteristic 2, no z2 axis on the cover, and no
    classes at all on other algebras."""
    F2 = Field.prime(2)
    assert list(classes(split_spin(identity_space(F2, 1), 1))) == [TAG_ONE, TAG_Z1, TAG_Z2]
    assert list(classes(exceptional_cover(identity_space(F2, 1)))) == [TAG_Z1]
    with pytest.raises(ValueError):
        axis_law(exceptional_cover(identity_space(QQ, 1)), TAG_Z2)
    with pytest.raises(WrongAlgebraKind):
        classes(matsuo_3c(QQ, 3))
    with pytest.raises(ValueError):
        family_axis(split_spin(identity_space(QQ, 1), 3), [1], "c")
