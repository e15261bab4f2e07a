"""The acceptance suite: eleven exact, property-style criteria covering
construction axioms, the degenerate-alpha Jordan cases, the idempotent
classification oracle, fusion and Miyamoto checks, the Frobenius form,
radicals and simplicity, the 3C subalgebra, the Yabe basis, axet sizes and
the cover pipeline.  Every check is exact arithmetic with zero tolerance.

Each criterion is a callable that raises a SplitSpinError on failure,
from typed checks that also run under python -O; run_all prints one
pass/fail line per criterion, with the exception's type and message and a
failed check's witness, and goes on to the next whatever the criterion
raised.  The pytest acceptance module drives the same registry.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import COVER, SPLIT_SPIN, Algebra, exceptional_cover, is_jordan_special, matsuo_3c, split_spin
from .axial import (
    algebra_radical,
    axes_with_involution,
    axis_law,
    check_axis,
    extend_orthogonal,
    frobenius,
    frobenius_s3_invariant,
    is_automorphism,
    is_simple,
    jordan_law,
    miyamoto,
    monster_law,
    sample_orthogonal_extension,
)
from .cover import verify_cover
from .errors import BaricCase, MuOne, SpecialAlpha, VerificationFailed, check
from .fields import Field
from .idempotents import (
    FAMILY_A,
    FAMILY_B,
    FAMILY_EXC,
    TAG_FAMILY_A,
    TAG_FAMILY_B,
    TAG_FAMILY_EXC,
    TAG_ONE,
    classify_idempotent,
    enumerate_idempotents_bruteforce,
    family_axis,
)
from .linalg import Matrix, same_span
from .quadratic import QuadraticSpace
from .two_gen import (
    SINGLE,
    TWO_HALVES,
    TwoGenConfig,
    axet,
    build_two_gen,
    rho_order,
    yabe_data,
)

QQ = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)
F11 = Field.prime(11)
F13 = Field.prime(13)

_FIELDS = (QQ, F5, F7, F11, F13)


# -- shared helpers ---------------------------------------------------------------


def _random_scalar(field: Field, rng: random.Random):
    if field.p is None:
        return field.scalar(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2))))
    return field.scalar(rng.randrange(field.p))


def _random_gram(field: Field, dim: int, rng: random.Random) -> QuadraticSpace:
    entries = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            value = _random_scalar(field, rng)
            entries[i][j] = entries[j][i] = value
    return QuadraticSpace(Matrix(field, entries))


def _orthonormal_rich_space(field: Field, dim: int, rng: random.Random):
    """A random Gram matrix T^t T together with dim known norm-one vectors
    (the columns of T inverse)."""
    one, zero = field.one(), field.zero()
    lower = [[one if i == j else (field.scalar(rng.randint(-2, 2)) if i > j else zero) for j in range(dim)] for i in range(dim)]
    upper = [[one if i == j else (field.scalar(rng.randint(-2, 2)) if i < j else zero) for j in range(dim)] for i in range(dim)]
    t = Matrix(field, lower) @ Matrix(field, upper)
    gram = t.transpose() @ t
    t_inv = t.inverse()
    witnesses = [t_inv.column(j) for j in range(dim)]
    return QuadraticSpace(gram), witnesses


def _swap_z_map(algebra: Algebra) -> Matrix:
    ident = Matrix.identity(algebra.field, algebra.dim)
    k = algebra.e_dim
    cols = [ident.column(j) for j in range(algebra.dim)]
    cols[k], cols[k + 1] = cols[k + 1], cols[k]
    return Matrix.from_columns(algebra.field, cols)


# -- criteria ---------------------------------------------------------------------


def criterion_1():
    """Construction axioms on 200 random configurations: commutative
    structure constants, z1 + z2 is the identity, and the z1/z2 relabelling
    with alpha -> 1 - alpha yields an isomorphic structure tensor."""
    rng = random.Random(1001)
    element_rng = random.Random(1011)  # apart from rng, so the configurations stay the same
    for case in range(200):
        field = _FIELDS[case % len(_FIELDS)]
        dim = rng.randint(1, 4)
        space = _random_gram(field, dim, rng)
        alpha = _random_scalar(field, rng)
        algebra = split_spin(space, alpha)
        n = algebra.dim
        for _ in range(3):
            u, v = (algebra.element([_random_scalar(field, element_rng) for _ in range(n)])
                    for _ in range(2))
            check(u * v == v * u, "the product is not commutative", (u, v))
        one_elt = algebra.from_labels({"z1": 1, "z2": 1})
        identity = algebra.identity()
        check(identity == one_elt, "the identity is not z1 + z2", witness=identity)
        for i in range(n):
            check(one_elt * algebra.basis(i) == algebra.basis(i), "z1 + z2 does not fix b_i", witness=i)
        relabelled = split_spin(space, field.one() - alpha)
        ok, witness = algebra.check_isomorphism(relabelled, _swap_z_map(algebra))
        check(ok, f"relabelling symmetry failed at basis pair {witness}", witness=witness)


def criterion_2():
    """Degenerate alpha: at 0 the idempotent z1 annihilates E + F z2; at 1/2
    the element u = z1 - z2 squares to the identity, kills E, and the
    two-variable product formula collapses to a single bilinear form."""
    rng = random.Random(1002)
    for field in (QQ, F7):
        space = _random_gram(field, 2, rng)
        algebra = split_spin(space, 0)
        z1 = algebra.basis_by_label("z1")
        for other in (algebra.basis(0), algebra.basis(1), algebra.basis_by_label("z2")):
            check((z1 * other).is_zero, "at alpha = 0, z1 does not kill E + F z2", witness=(field, other))
    space = _random_gram(QQ, 3, rng)
    algebra = split_spin(space, Fraction(1, 2))
    check(algebra.meta.jordan_special, "alpha = 1/2 is not tagged Jordan-special", witness=algebra.meta)
    one_elt = algebra.identity()
    u_hat = algebra.basis_by_label("z1") - algebra.basis_by_label("z2")
    square = u_hat * u_hat
    check(square == one_elt, "at alpha = 1/2, (z1 - z2)^2 is not the identity", witness=square)
    k = space.dim
    for i in range(k):
        check((algebra.basis(i) * u_hat).is_zero, "at alpha = 1/2, z1 - z2 does not kill E", witness=i)
    for _ in range(10):
        e_coords = [QQ.scalar(rng.randint(-3, 3)) for _ in range(k)]
        f_coords = [QQ.scalar(rng.randint(-3, 3)) for _ in range(k)]
        gamma = QQ.scalar(Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
        delta = QQ.scalar(Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
        e_elt = algebra.element(list(e_coords) + [0, 0])
        f_elt = algebra.element(list(f_coords) + [0, 0])
        v = e_elt + gamma * u_hat
        w = f_elt + delta * u_hat
        coeff = QQ.scalar(Fraction(3, 4)) * space.bform(e_coords, f_coords) + gamma * delta
        check(v * w == coeff * one_elt, "at alpha = 1/2, v w is not (3/4 b(e, f) + gamma delta) 1",
              witness=(v, w))


def _expected_idempotents(algebra: Algebra, norm_one):
    coords = set()
    if algebra.meta.kind == COVER:
        coords.add(algebra.basis_by_label("z1").coords)
        for e in norm_one:
            coords.add(family_axis(algebra, e, FAMILY_EXC).coords)
    else:
        coords.add(algebra.from_labels({"z1": 1, "z2": 1}).coords)
        coords.add(algebra.basis_by_label("z1").coords)
        coords.add(algebra.basis_by_label("z2").coords)
        for e in norm_one:
            coords.add(family_axis(algebra, e, FAMILY_A).coords)
            coords.add(family_axis(algebra, e, FAMILY_B).coords)
    return coords


def criterion_3():
    """Idempotent classification oracle: on finite-field instances the
    brute-force scan finds exactly the templates, 3 + 2N of them (1 + N on
    the cover, whose single family meets each norm-one vector once) for N
    the exhaustive norm-one count, with zero `other` classifications;
    sigma-stability and complement pairing hold."""
    i3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    mixed3 = [[1, 1, 0], [1, 2, 1], [0, 1, 3]]
    split_grid = [
        (F5, [[1]], (2, 4)),
        (F5, [[2]], (2, 4)),
        (F5, [[0]], (2,)),
        (F5, [[1, 0], [0, 1]], (2, 4)),
        (F5, [[1, 1], [1, 1]], (2,)),
        (F7, [[1]], (2, 6)),
        (F7, [[3]], (2,)),
        (F7, [[1, 0], [0, 1]], (2,)),
        (F7, i3, (2, 5)),
        (F7, mixed3, (3,)),
        (F11, [[1]], (3,)),
        (F11, i3, (3,)),
        (F11, mixed3, (7,)),
        (F13, [[1]], (2,)),
    ]
    for field, gram, alphas in split_grid:
        space = QuadraticSpace(Matrix(field, gram))
        search = space.find_norm_one()
        check(search.status == "exhaustive", "norm-one search is not exhaustive", (field, gram))
        n_count = len(search.vectors)
        half = field.half()
        quarter = half * half
        for alpha in alphas:
            algebra = split_spin(space, alpha)
            one = algebra.identity()
            found = enumerate_idempotents_bruteforce(algebra)
            found_coords = {x.coords for x in found}
            check(len(found) == 3 + 2 * n_count,
                  f"count {len(found)} != 3 + 2*{n_count} over {field!r}, alpha={alpha}",
                  witness=tuple(x.coords for x in found))
            expected_coords = _expected_idempotents(algebra, search.vectors)
            check(found_coords == expected_coords, "scan and templates disagree",
                  witness=found_coords ^ expected_coords)
            for x in found:
                verdict = classify_idempotent(algebra, x)
                check(verdict.tag != "other", "an idempotent matches no template", witness=x)
                minus = algebra.element(
                    [-c for c in algebra.e_part(x)] + list(x.coords[space.dim:])
                )
                check(minus.coords in found_coords, "sigma image of an idempotent was not found", witness=x)
                check(classify_idempotent(algebra, minus).tag == verdict.tag,
                      "sigma changes the class of an idempotent", witness=x)
                if verdict.tag in (TAG_FAMILY_A, TAG_FAMILY_B):
                    u = algebra.e_part(x)
                    check(space.bform(u, u) == quarter, "family member with b(u, u) != 1/4", witness=x)
                    complement = one - x
                    expected = TAG_FAMILY_B if verdict.tag == TAG_FAMILY_A else TAG_FAMILY_A
                    check(classify_idempotent(algebra, complement).tag == expected,
                          "1 - x is not in the other family", witness=x)
    cover_grid = [
        (F5, [[1]]),
        (F5, [[2]]),
        (F5, [[1, 0], [0, 1]]),
        (F7, [[1]]),
        (F7, i3),
        (F7, mixed3),
        (F11, i3),
        (F11, mixed3),
        (F13, [[1]]),
    ]
    for field, gram in cover_grid:
        space = QuadraticSpace(Matrix(field, gram))
        search = space.find_norm_one()
        check(search.status == "exhaustive", "norm-one search is not exhaustive", (field, gram))
        n_count = len(search.vectors)
        algebra = exceptional_cover(space)
        found = enumerate_idempotents_bruteforce(algebra)
        found_coords = {x.coords for x in found}
        check(len(found) == 1 + n_count, f"count {len(found)} != 1 + {n_count} over {field!r} on the cover",
              witness=tuple(x.coords for x in found))
        expected_coords = _expected_idempotents(algebra, search.vectors)
        check(found_coords == expected_coords, "scan and templates disagree on the cover",
              witness=found_coords ^ expected_coords)
        half = field.half()
        for x in found:
            verdict = classify_idempotent(algebra, x)
            check(verdict.tag != "other", "an idempotent of the cover matches no template", witness=x)
            if verdict.tag == TAG_FAMILY_EXC:
                u = algebra.e_part(x)
                check(space.bform(u, u) == half * half
                      and x.coords[space.dim] == -half and x.coords[space.dim + 1] == half,
                      "cover family member off its template", witness=x)


def _fusion_pair_check(algebra, e):
    field = algebra.field
    alpha = algebra.meta.alpha
    half = field.half()
    k = algebra.e_dim
    for family, eta in ((FAMILY_A, alpha), (FAMILY_B, field.one() - alpha)):
        report = check_axis(algebra, family_axis(algebra, e, family), monster_law(field, eta, half))
        check(report.ok, f"a family {family} axis breaks the Monster law ({eta}, 1/2)", witness=report)
        check(list(report.dims.values()) == [1, 1, 1, k - 1],
              f"a family {family} axis has eigenspace dimensions other than (1, 1, 1, dim E - 1)",
              witness=report.dims)


def criterion_4():
    """Fusion suites: z1 and z2 are Jordan-type axes of type alpha and
    1 - alpha; family (a) and (b) axes satisfy the Monster laws
    (alpha, 1/2) and (1 - alpha, 1/2) with eigenspace dimensions
    (1, 1, 1, dim E - 1); at least 50 (configuration, e) pairs, all clean."""
    rng = random.Random(1004)
    rational_alphas = [QQ.scalar(a) for a in (3, -3, 5, Fraction(1, 4), -1)]
    pairs = 0
    for dim in (2, 3, 4):
        for _ in range(4):
            space, witnesses = _orthonormal_rich_space(QQ, dim, rng)
            alpha = rng.choice(rational_alphas)
            algebra = split_spin(space, alpha)
            for label, eta in (("z1", alpha), ("z2", QQ.one() - alpha)):
                report = check_axis(algebra, algebra.basis_by_label(label), jordan_law(QQ, eta))
                check(report.primitive and not report.violations,
                      f"{label} is not a Jordan axis of type {eta}", witness=report)
                check(list(report.dims.values()) == [1, 1, dim],
                      f"{label} has eigenspace dimensions other than (1, 1, dim E)", witness=report.dims)
            for e in witnesses:
                _fusion_pair_check(algebra, e)
                pairs += 1
    for field, alpha in ((F5, 2), (F7, 3), (F11, 4)):
        found = 0
        attempts = 0
        while found < 2 and attempts < 20:
            attempts += 1
            space = _random_gram(field, 2, rng)
            search = space.find_norm_one()
            if not search.vectors:
                continue
            found += 1
            alpha_s = field.scalar(alpha)
            check(not is_jordan_special(alpha_s), "alpha is a Jordan-special value", witness=alpha_s)
            algebra = split_spin(space, alpha_s)
            for e in search.vectors[:3]:
                _fusion_pair_check(algebra, e)
                pairs += 1
        check(found == 2, f"only {found} forms over {field!r} have norm-one vectors", witness=found)
    check(pairs >= 50, f"only {pairs} (config, e) pairs exercised", witness=pairs)


def criterion_5():
    """Miyamoto involutions: tau_x is the negated reflection extended by the
    identity on the z-part, an involutive automorphism; tau_z1 = tau_z2 =
    sigma; exactly four axes share one involution, confirmed by exhaustive
    finite-field scan."""
    space = QuadraticSpace(Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    algebra = split_spin(space, 3)
    e = space.vector([1, 0, 0])
    quad = axes_with_involution(algebra, e)
    check(len({x.coords for x in quad}) == 4, "the four axes sharing -r_e are not distinct", witness=quad)
    expected = extend_orthogonal(algebra, space.neg_reflection(e))
    tau = miyamoto(algebra, quad[0], monster_law(QQ, 3, Fraction(1, 2)))
    check(tau == expected, "tau_x is not the negated reflection", witness=(tau, expected))
    check(tau @ tau == Matrix.identity(QQ, algebra.dim), "tau_x is not an involution", witness=tau)
    check(is_automorphism(algebra, tau), "tau_x is not an automorphism", witness=tau)
    sigma = extend_orthogonal(algebra, -Matrix.identity(QQ, 3))
    tau_z1 = miyamoto(algebra, algebra.basis_by_label("z1"), jordan_law(QQ, 3))
    tau_z2 = miyamoto(algebra, algebra.basis_by_label("z2"), jordan_law(QQ, -2))
    check(tau_z1 == sigma and tau_z2 == sigma, "tau_z1 or tau_z2 differs from sigma",
          witness=(tau_z1, tau_z2, sigma))

    # exhaustive confirmation over F_5: no fifth axis shares -r_e
    field = F5
    space5 = QuadraticSpace(Matrix(field, [[1, 0], [0, 1]]))
    algebra5 = split_spin(space5, 2)
    e5 = space5.vector([1, 0])
    quad5 = axes_with_involution(algebra5, e5)
    expected5 = extend_orthogonal(algebra5, space5.neg_reflection(e5))
    matching = set()
    for x in enumerate_idempotents_bruteforce(algebra5):
        verdict = classify_idempotent(algebra5, x)
        if verdict.tag == TAG_ONE:
            continue  # the identity is not primitive
        if miyamoto(algebra5, x, axis_law(algebra5, verdict.tag)) == expected5:
            matching.add(x.coords)
    axes5 = {x.coords for x in quad5}
    check(matching == axes5, "the axes sharing -r_e over F_5 are not the four of the theorem",
          witness=matching ^ axes5)


def criterion_6():
    """Frobenius form: associativity on all basis triples for both
    constructors; family (a) axes have length alpha + 1 and family (b)
    axes 2 - alpha; invariance under 20 sampled reflection products and,
    for dim E = 1 over Q and F_7, under the six permutations of x, x^- and
    z1; at alpha in {-1, 2} the form has rank one with the stated radical."""
    rng = random.Random(1006)
    grams = ([[1, 0], [0, 1]], [[1, 1], [1, 1]])
    sampled = 0
    for alpha in (3, -3, 5):
        for gram in grams:
            space = QuadraticSpace(Matrix(QQ, gram))
            algebra = split_spin(space, alpha)
            form = frobenius(algebra)
            e = space.vector([1, 0])
            x = family_axis(algebra, e, FAMILY_A)
            y = family_axis(algebra, e, FAMILY_B)
            check(form.evaluate(x, x) == QQ.scalar(alpha) + 1,
                  "a family (a) axis does not have length alpha + 1", witness=(alpha, gram))
            check(form.evaluate(y, y) == 2 - QQ.scalar(alpha),
                  "a family (b) axis does not have length 2 - alpha", witness=(alpha, gram))
            check(form.evaluate(algebra.basis_by_label("z1"), x) == (
                QQ.half() * alpha * (QQ.scalar(alpha) + 1)
            ), "(z1, x) is not alpha (alpha + 1) / 2 for a family (a) axis x", witness=(alpha, gram))
            for _ in range(2):
                m = sample_orthogonal_extension(algebra, rng)
                check(is_automorphism(algebra, m), "a sampled reflection product is not an automorphism", witness=m)
                check(m.transpose() @ form.gram @ m == form.gram,
                      "the Frobenius form is not invariant under a sampled automorphism", witness=m)
                sampled += 1
    for field, gram in ((F7, [[1, 0], [0, 1]]), (QQ, [[1, 0], [0, 1]]), (F5, [[1, 1], [1, 1]])):
        space = QuadraticSpace(Matrix(field, gram))
        algebra = exceptional_cover(space)
        form = frobenius(algebra)
        e = space.vector([1, 0])
        x = family_axis(algebra, e, FAMILY_EXC)
        check(form.evaluate(x, x) == field.one(),  # (3 b(e,e) + (z1,z1)) / 4
              "a cover family axis does not have length 1", witness=(field, gram))
        for _ in range(3):
            m = sample_orthogonal_extension(algebra, rng)
            check(is_automorphism(algebra, m), "a sampled reflection product is not an automorphism of the cover",
                  witness=m)
            check(m.transpose() @ form.gram @ m == form.gram,
                  "the cover's Frobenius form is not invariant under a sampled automorphism", witness=m)
            sampled += 1
    check(sampled >= 20, f"only {sampled} automorphisms sampled", witness=sampled)
    for field in (QQ, F7):
        check(frobenius_s3_invariant(split_spin(QuadraticSpace(Matrix(field, [[1]])), 3), [1]),
              "the Frobenius form at dim E = 1 is not invariant under permuting x, x^- and z1", witness=field)
    for alpha, label in ((-1, "z1"), (2, "z2")):
        for gram in grams:
            space = QuadraticSpace(Matrix(QQ, gram))
            algebra = split_spin(space, alpha)
            form = frobenius(algebra)
            check(form.gram.rank() == 1, f"the baric Frobenius form at alpha = {alpha} is not of rank one",
                  witness=form.gram)
            stated = [algebra.basis(i).coords for i in range(2)]
            stated.append(algebra.basis_by_label(label).coords)
            check(same_span(QQ, [v.coords for v in form.radical_basis], stated),
                  f"the Frobenius radical at alpha = {alpha} is not E + F {label}", witness=form.radical_basis)
            try:
                algebra_radical(algebra)
                check(False, "expected BaricCase", witness=(alpha, gram))
            except BaricCase as exc:
                check(same_span(QQ, [v.coords for v in exc.radical], stated),
                      f"the baric radical at alpha = {alpha} is not E + F {label}", witness=exc.radical)


def criterion_7():
    """Radical and simplicity on the grid alpha in {-1, 2, 3, -3, 5} times
    {identity Gram, degenerate Gram}: the radical is the lifted kernel of b
    away from the baric cases, and is_simple matches the criterion."""
    grams = ([[1, 0], [0, 1]], [[1, 1], [1, 1]])
    for alpha in (-1, 2, 3, -3, 5):
        for gram in grams:
            space = QuadraticSpace(Matrix(QQ, gram))
            b = Matrix(QQ, gram)  # solved apart from the space, whose cached radical the code under test reads
            algebra = split_spin(space, alpha)
            degenerate = b.rank() < len(gram)
            if alpha in (-1, 2):
                try:
                    algebra_radical(algebra)
                    check(False, "expected BaricCase", witness=(alpha, gram))
                except BaricCase:
                    pass
            else:
                radical = algebra_radical(algebra)
                zero = QQ.zero()
                lifted = [tuple(v) + (zero, zero) for v in b.kernel()]
                check(same_span(QQ, [v.coords for v in radical], lifted),
                      "the radical is not the lifted kernel of b", witness=(alpha, gram))
                form = frobenius(algebra)
                check(same_span(QQ, [v.coords for v in form.radical_basis], lifted),
                      "the Frobenius radical is not the lifted kernel of b", witness=(alpha, gram))
            evidence = space.find_norm_one(budget=500, seed=7)
            check(evidence.spans, "the norm-one vectors found do not span E", witness=(alpha, gram))
            simple, reason = is_simple(algebra, evidence=evidence)
            expected = (not degenerate) and alpha not in (-1, 2)
            check(simple == expected, f"is_simple gives {simple}, expected {expected}", witness=(alpha, gram))
            if alpha == -1:
                check(reason == "BaricMinusOne", f"is_simple gives reason {reason}, not BaricMinusOne", witness=gram)
            elif alpha == 2:
                check(reason == "BaricTwo", f"is_simple gives reason {reason}, not BaricTwo", witness=gram)
            elif degenerate:
                check(reason == "DegenerateForm", f"is_simple gives reason {reason}, not DegenerateForm",
                      witness=(alpha, gram))
            else:
                check(reason == "Simple", f"is_simple gives reason {reason}, not Simple", witness=(alpha, gram))


def criterion_8():
    """3C subalgebras: the span of (x, x^-, z1) is one, and the explicit
    basis map from 3C(alpha) is an isomorphism; cover version at alpha=-1."""
    cases = [
        (QQ, 3),
        (QQ, -3),
        (QQ, Fraction(1, 4)),
        (F7, 2),
    ]
    for field, alpha in cases:
        space = QuadraticSpace(Matrix.identity(field, 2))
        algebra = split_spin(space, alpha)
        e = space.vector([1, 0])
        x = family_axis(algebra, e, FAMILY_A)
        x_minus = family_axis(algebra, tuple(-c for c in e), FAMILY_A)
        z1 = algebra.basis_by_label("z1")
        sub = algebra.subalgebra([x, x_minus, z1])
        check(sub.algebra.dim == 3 and sub.closure_degree == 1, "x, x^- and z1 do not span a subalgebra",
              witness=(field, alpha, sub.algebra.dim, sub.closure_degree))
        model = matsuo_3c(field, alpha)
        ok, witness = model.check_isomorphism(sub.algebra, Matrix.identity(field, 3))
        check(ok, f"the subalgebra is not 3C({alpha}) over {field!r}", witness=witness)
    for field in (QQ, F5):
        space = QuadraticSpace(Matrix.identity(field, 2))
        algebra = exceptional_cover(space)
        e = space.vector([1, 0])
        x = family_axis(algebra, e, FAMILY_EXC)
        x_minus = family_axis(algebra, tuple(-c for c in e), FAMILY_EXC)
        z1 = algebra.basis_by_label("z1")
        sub = algebra.subalgebra([x, x_minus, z1])
        check(sub.algebra.dim == 3, "x, x^- and z1 of the cover do not span a three-dimensional subalgebra",
              witness=(field, sub.algebra.dim))
        model = matsuo_3c(field, -field.one())
        ok, witness = model.check_isomorphism(sub.algebra, Matrix.identity(field, 3))
        check(ok, f"the cover subalgebra is not 3C(-1) over {field!r}", witness=witness)


def criterion_9():
    """Yabe basis: delta = -2 mu - 1, q = alpha(alpha+1)(mu-1)/4 times the
    identity ((1-mu)/4 times n on the cover), the four basis vectors span,
    and a_minus1 matches its closed form; mu = 1 degenerates to
    x y = (x + y)/2 with generation failure detected."""
    split_cases = [
        (QQ, a, m)
        for a in (3, -3, Fraction(1, 4), 2)
        for m in (0, 2, -1, 3)
    ] + [(F7, a, m) for a in (2, 3) for m in (0, 2, 3)]
    for field, alpha, mu in split_cases:
        cfg = TwoGenConfig(field, mu=field.scalar(mu), alpha=field.scalar(alpha))
        algebra, x, y = build_two_gen(cfg)
        data = yabe_data(algebra, x, y)
        alpha_s, mu_s = field.scalar(alpha), field.scalar(mu)
        case = (field, alpha, mu)
        check(data.delta == -2 * mu_s - 1, "delta is not -2 mu - 1", witness=case)
        check(data.q == algebra.identity() * (alpha_s * (alpha_s + 1) * (mu_s - 1) / 4),
              "q is not alpha (alpha + 1)(mu - 1)/4 times the identity", witness=case)
        check(data.spans_algebra, "the Yabe basis does not span the algebra", witness=case)
        half = field.half()
        expected = algebra.element(
            [2 * mu_s * half, -half, half * alpha_s, half * (alpha_s + 1)]
        )
        check(data.a_minus1 == expected, "a_minus1 is off its closed form", witness=(case, data.a_minus1))
    cover_cases = [(QQ, m) for m in (0, 2, -1)] + [(F5, m) for m in (0, 3)]
    for field, mu in cover_cases:
        cfg = TwoGenConfig(field, mu=field.scalar(mu), variant=COVER)
        algebra, x, y = build_two_gen(cfg)
        data = yabe_data(algebra, x, y)
        mu_s = field.scalar(mu)
        case = (field, mu)
        check(data.delta == -2 * mu_s - 1, "delta is not -2 mu - 1 on the cover", witness=case)
        check(data.q == algebra.basis_by_label("n") * ((1 - mu_s) / 4), "q is not (1 - mu)/4 times n",
              witness=case)
        check(data.spans_algebra, "the Yabe basis does not span the cover", witness=case)
        half = field.half()
        expected = algebra.element([2 * mu_s * half, -half, -half, half])
        check(data.a_minus1 == expected, "a_minus1 is off its closed form on the cover",
              witness=(case, data.a_minus1))
    # mu = 1 degeneration, both variants
    for variant, alpha in ((SPLIT_SPIN, 3), (COVER, None)):
        cfg = TwoGenConfig(QQ, mu=QQ.one(), alpha=None if alpha is None else QQ.scalar(alpha), variant=variant)
        algebra, x, y = build_two_gen(cfg)
        check(x * y == QQ.half() * (x + y), "at mu = 1, x y is not (x + y)/2", witness=variant)
        sub = algebra.subalgebra([x, y])
        check(sub.algebra.dim == 2, "at mu = 1, x and y generate more than a plane",  # generation fails
              witness=(variant, sub.algebra.dim))
        try:
            yabe_data(algebra, x, y)
            check(False, "expected MuOne", witness=variant)
        except MuOne:
            pass
    cfg = TwoGenConfig(QQ, mu=QQ.scalar(2), alpha=QQ.scalar(-1))
    algebra, x, y = build_two_gen(cfg)
    try:
        yabe_data(algebra, x, y)
        check(False, "expected SpecialAlpha", witness=cfg)
    except SpecialAlpha:
        pass


def criterion_10():
    """Axet sizes: the rational sweep mu in {-1, -1/2, 0, 1/2, 1} gives
    {infinite, 3, 4, 6, infinite}; F_7 at mu=1 gives 7 (single orbit,
    index 1), F_5 gives 10 at mu=-1 (two orbits of five) and 3 at mu=2;
    enumeration always agrees with the rho order and the parity rule holds."""
    expectations = {
        Fraction(-1): None,
        Fraction(-1, 2): 3,
        Fraction(0): 4,
        Fraction(1, 2): 6,
        Fraction(1): None,
    }
    for mu, expected in expectations.items():
        order = rho_order(QQ, mu)
        if expected is None:
            check(order.kind == "infinite", f"rho({mu}) over Q has finite order", witness=order)
            cfg = TwoGenConfig(QQ, mu=QQ.scalar(mu), alpha=QQ.scalar(3))
            algebra, x, y = build_two_gen(cfg)
            result = axet(algebra, x, y)
            check(result.size.kind == "infinite", f"the axet at mu = {mu} is not infinite", witness=result.size)
            check(result.d_orbit_split == TWO_HALVES and result.d_hat_index == 2,
                  f"the infinite axet at mu = {mu} is not two halves of index 2",
                  witness=(result.d_orbit_split, result.d_hat_index))
        else:
            check(order.order == expected, f"rho({mu}) over Q has order {order.order}, expected {expected}",
                  witness=order)
            cfg = TwoGenConfig(QQ, mu=QQ.scalar(mu), alpha=QQ.scalar(3))
            algebra, x, y = build_two_gen(cfg)
            result = axet(algebra, x, y)
            check(result.size.order == expected and len(result.orbit) == expected,
                  f"the axet at mu = {mu} does not have {expected} axes", witness=result.size)
            check((result.d_orbit_split == SINGLE) == (expected % 2 == 1),
                  f"the D-orbit split at mu = {mu} breaks the parity rule", witness=result.d_orbit_split)
            check((result.d_hat_index == 1) == (expected % 2 == 1),
                  f"the index of D at mu = {mu} breaks the parity rule", witness=result.d_hat_index)
    finite_cases = [
        (F7, 1, 2, 7, SINGLE, 1),
        (F5, -1, 2, 10, TWO_HALVES, 2),
        (F5, 2, 2, 3, SINGLE, 1),
    ]
    for field, mu, alpha, size, split, index in finite_cases:
        cfg = TwoGenConfig(field, mu=field.scalar(mu), alpha=field.scalar(alpha))
        algebra, x, y = build_two_gen(cfg)
        result = axet(algebra, x, y)
        case = (field, mu)
        check(result.size.order == size, f"the axet over {field!r} at mu = {mu} does not have {size} axes",
              witness=(case, result.size))
        order = rho_order(field, field.scalar(mu))
        check(order.order == size, f"rho({mu}) over {field!r} has order {order.order}, expected {size}",
              witness=(case, order))
        check(result.d_orbit_split == split and result.d_hat_index == index,
              f"the axet over {field!r} at mu = {mu} is not {split} of index {index}",
              witness=(case, result.d_orbit_split, result.d_hat_index))
        if split == TWO_HALVES:
            check(len(result.orbit_x) == len(result.orbit_y) == size // 2,
                  f"the D-orbits over {field!r} at mu = {mu} are not halves of X",
                  witness=(case, len(result.orbit_x), len(result.orbit_y)))


def criterion_11():
    """Cover pipeline: ten random Gram matrices (characteristic outside
    {2, 3}), each with a guaranteed norm-one vector; every flag of
    verify_cover is computed true and the radical is E-perp + <n>."""
    rng = random.Random(1011)
    fields = (QQ, F5, F7, F11, F13)
    for case in range(10):
        field = fields[case % len(fields)]
        dim = 1 + case % 3
        space = _random_gram(field, dim, rng)
        entries = [list(row) for row in space.gram.entries]
        entries[0][0] = field.one()  # e1 has norm one
        space = QuadraticSpace(Matrix(field, entries))
        report = verify_cover(space, norm_one_budget=2000, seed=case)
        check(report.witnesses, "expected at least one norm-one witness", witness=case)
        check(report.nil_ideal_ok, "n does not span a nil ideal", witness=case)
        check(report.no_identity_ok, "the cover has an identity", witness=case)
        check(report.quotient_iso_ok, "the cover modulo n is not the split spin algebra", witness=case)
        check(report.z1_report.ok, "z1 fails its axis check on the cover", witness=(case, report.z1_report))
        check(all(r.ok for r in report.axis_reports), "a cover family axis fails its axis check", witness=case)
        check(report.three_c_ok, "the cover has no 3C(-1) subalgebra", witness=case)
        check(report.frobenius_ok, "the cover's Frobenius form check fails", witness=case)
        check(report.radical_ok, "the cover's radical is not E-perp + <n>", witness=case)
        check(report.all_ok, "the cover report is not all ok", witness=case)
        for r in report.axis_reports:
            check(list(r.dims.values()) == [1, 1, 1, dim - 1],
                  "a cover family axis has eigenspace dimensions other than (1, 1, 1, dim E - 1)",
                  witness=(case, r.dims))


CRITERIA = (
    (1, "construction axioms (commutativity, identity, relabelling symmetry)", criterion_1),
    (2, "degenerate alpha: direct product at 0, spin structure at 1/2", criterion_2),
    (3, "idempotent classification vs exhaustive finite-field oracle", criterion_3),
    (4, "fusion suites for z1, z2 and both families", criterion_4),
    (5, "Miyamoto involutions and the four-axis property", criterion_5),
    (6, "Frobenius form: associativity, lengths, invariance, baric rank", criterion_6),
    (7, "radical and simplicity grid", criterion_7),
    (8, "3C(alpha) subalgebra isomorphisms", criterion_8),
    (9, "Yabe basis data and mu = 1 degeneration", criterion_9),
    (10, "axet sizes, orbit structure and parity rule", criterion_10),
    (11, "cover pipeline over random Gram matrices", criterion_11),
)


def run_all(only: int | None = None, stream=None) -> bool:
    """Run the acceptance criteria, printing one pass/fail line each."""
    import sys

    stream = stream or sys.stdout
    all_ok = True
    for number, description, fn in CRITERIA:
        if only is not None and number != only:
            continue
        try:
            fn()
            print(f"PASS criterion {number}: {description}", file=stream)
        except Exception as exc:  # a broken criterion, whatever it raises, must not stop the rest
            all_ok = False
            detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
            if isinstance(exc, VerificationFailed):
                detail += f"; witness {repr(exc.witness)[:200]}"
            print(f"FAIL criterion {number}: {description} ({detail})", file=stream)
    return all_ok
