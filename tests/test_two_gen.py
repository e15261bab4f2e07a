import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import splitspin
import splitspin.two_gen as two_gen
from splitspin import (
    Field,
    Matrix,
    QuadraticSpace,
    TwoGenConfig,
    axet,
    build_two_gen,
    check_axis,
    miyamoto,
    monster_law,
    rho,
    rho_order,
    yabe_data,
)
from splitspin.errors import CapExceeded, CharTwo, MuOne, SpecialAlpha, VerificationFailed
from splitspin.two_gen import (
    SINGLE,
    TWO_HALVES,
    OrbitSize,
    _prime_divisors,
    default_two_gen_alpha,
)

QQ = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)
HALF = Fraction(1, 2)


def test_build_two_gen_split():
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(2), alpha=QQ.scalar(3)))
    assert algebra.dim == 4
    law = monster_law(QQ, 3, HALF)
    for axis in (x, y):
        report = check_axis(algebra, axis, law)
        assert report.primitive and not report.violations


def test_build_two_gen_cover():
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(2), variant="cover"))
    assert algebra.meta.kind == "cover"
    law = monster_law(QQ, -1, HALF)
    report = check_axis(algebra, x, law)
    assert report.primitive and not report.violations


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(2), alpha=QQ.scalar(1)))
    with pytest.raises(CharTwo):
        build_two_gen(TwoGenConfig(Field.prime(2), mu=Field.prime(2).one(), alpha=None, variant="cover"))
    with pytest.raises(ValueError):
        TwoGenConfig(QQ, mu=QQ.scalar(2), alpha=QQ.scalar(5), variant="cover")


def det2(m):
    """The determinant of a 2 x 2 matrix."""
    (a, b), (c, d) = m.entries
    return a * d - b * c


def test_rho_matrix():
    assert rho(QQ.scalar(0)) == Matrix(QQ, [[0, -1], [1, 0]])
    m = rho(QQ.scalar(Fraction(2, 3)))
    assert m.entries[0][0] + m.entries[1][1] == QQ.scalar(Fraction(4, 3))  # trace 2 mu
    assert det2(m) == QQ.one()


@given(st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_rho_det_one(mu):
    assert det2(rho(QQ.scalar(mu))) == QQ.one()


def test_rho_matches_swap_times_miyamoto():
    # rho acts on row vectors: its transpose is (tau_x on E) @ (theta on E)
    mu = QQ.scalar(Fraction(2, 3))
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=mu, alpha=QQ.scalar(3)))
    tau = miyamoto(algebra, x, monster_law(QQ, 3, HALF))
    tau_e = Matrix(QQ, [row[:2] for row in tau.entries[:2]])
    theta_e = Matrix(QQ, [[0, 1], [1, 0]])
    assert rho(mu).transpose() == tau_e @ theta_e


@pytest.mark.parametrize(
    "mu, expected",
    [
        (Fraction(-1), None),
        (Fraction(-1, 2), 3),
        (Fraction(0), 4),
        (Fraction(1, 2), 6),
        (Fraction(1), None),
        (Fraction(5), None),
        (Fraction(3, 4), None),
    ],
)
def test_rho_order_rational(mu, expected):
    order = rho_order(QQ, mu)
    if expected is None:
        assert order.kind == "infinite"
    else:
        assert order.order == expected
        # oracle: direct powering reaches the identity exactly at the order
        m = rho(QQ.scalar(mu))
        assert m.pow(expected) == Matrix.identity(QQ, 2)
        for k in range(1, expected):
            assert m.pow(k) != Matrix.identity(QQ, 2)


def test_rho_order_prime_special_values():
    assert rho_order(F7, F7.one()).order == 7
    assert rho_order(F5, F5.scalar(-1)).order == 10
    assert rho_order(F5, F5.scalar(2)).order == 3
    m = rho(F5.scalar(2))
    assert m.pow(3) == Matrix.identity(F5, 2)


def test_rho_order_cap():
    assert rho_order(F5, F5.scalar(2), cap=1).kind == "exceeds_cap"
    with pytest.raises(ValueError):
        rho_order(F5, F5.scalar(2), cap=0)


def test_yabe_split_example():
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(2), alpha=QQ.scalar(3)))
    data = yabe_data(algebra, x, y)
    assert data.delta == QQ.scalar(-5)
    assert data.q == algebra.identity() * 3
    assert data.spans_algebra
    assert data.a_minus1 == algebra.element([2, Fraction(-1, 2), Fraction(3, 2), 2])
    # a0 is idempotent in the emitted constants: a0 a0 = 1 a0
    assert data.structure_constants[0][0] == (QQ.one(), QQ.zero(), QQ.zero(), QQ.zero())


def test_yabe_cover_example():
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(2), variant="cover"))
    data = yabe_data(algebra, x, y)
    assert data.q == algebra.basis_by_label("n") * Fraction(-1, 4)
    assert data.delta == QQ.scalar(-5)
    assert data.spans_algebra


def test_yabe_rejections():
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.one(), alpha=QQ.scalar(3)))
    with pytest.raises(MuOne):
        yabe_data(algebra, x, y)
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(2), alpha=QQ.scalar(-1)))
    with pytest.raises(SpecialAlpha):
        yabe_data(algebra, x, y)


def test_axet_rational_orders():
    sizes = {}
    for mu in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)):
        algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(mu), alpha=QQ.scalar(3)))
        result = axet(algebra, x, y)
        sizes[mu] = result.size.order if result.size.is_finite else "infinite"
    assert sizes == {
        Fraction(-1): "infinite",
        Fraction(-1, 2): 3,
        Fraction(0): 4,
        Fraction(1, 2): 6,
        Fraction(1): "infinite",
    }


def test_axet_orbit_structure_mu_zero():
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.zero(), alpha=QQ.scalar(3)))
    result = axet(algebra, x, y)
    assert result.size.order == 4
    assert result.d_orbit_split == TWO_HALVES and result.d_hat_index == 2
    assert len(result.orbit_x) == len(result.orbit_y) == 2
    coords = {tuple(c.value for c in v) for v in result.orbit}
    assert coords == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_axet_single_orbit_mu_minus_half():
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(Fraction(-1, 2)), alpha=QQ.scalar(3)))
    result = axet(algebra, x, y)
    assert result.size.order == 3
    assert result.d_orbit_split == SINGLE and result.d_hat_index == 1


def test_axet_prime_cases():
    algebra, x, y = build_two_gen(TwoGenConfig(F7, mu=F7.one(), alpha=F7.scalar(2)))
    result = axet(algebra, x, y)
    assert result.size.order == 7 and result.d_orbit_split == SINGLE

    algebra, x, y = build_two_gen(TwoGenConfig(F5, mu=F5.scalar(-1), alpha=F5.scalar(2)))
    result = axet(algebra, x, y)
    assert result.size.order == 10
    assert result.d_orbit_split == TWO_HALVES
    assert len(result.orbit_x) == len(result.orbit_y) == 5


@pytest.mark.parametrize("field, mu", [(QQ, Fraction(1, 2)), (QQ, 0), (F5, -1), (Field.prime(101), 6)])
def test_axet_keeps_its_orbit_raw_until_read(field, mu):
    """The report reads only size, split and index, and boxes no vector; the
    orbits, boxed on first read, are the Scalar views of the raw vectors."""
    from splitspin import serialize
    from splitspin.linalg import boxed

    algebra, x, y = build_two_gen(TwoGenConfig(field, mu=field.scalar(mu), alpha=field.scalar(2)))
    result = axet(algebra, x, y)
    serialize.axet_to_json(result)
    assert not {"orbit", "orbit_x", "orbit_y"} & vars(result).keys()
    assert all(type(a) is (int if field.p else Fraction) for v in result.raw_orbit for a in v)
    for boxed_vectors, raw in ((result.orbit, result.raw_orbit), (result.orbit_x, result.raw_x),
                               (result.orbit_y, result.raw_y)):
        assert boxed_vectors == tuple(boxed(field, v) for v in raw)
    assert set(result.orbit_x) | set(result.orbit_y) == set(result.orbit)


def test_axet_norm_one_stability():
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(Fraction(1, 2)), alpha=QQ.scalar(3)))
    result = axet(algebra, x, y)
    space = algebra.meta.space
    for v in result.orbit:
        assert space.bform(v, v).is_one


def test_axet_cap():
    algebra, x, y = build_two_gen(TwoGenConfig(QQ, mu=QQ.scalar(Fraction(-1, 2)), alpha=QQ.scalar(3)))
    with pytest.raises(CapExceeded):
        axet(algebra, x, y, cap=2)


def test_axet_cover_variant():
    algebra, x, y = build_two_gen(TwoGenConfig(F5, mu=F5.scalar(2), variant="cover"))
    result = axet(algebra, x, y)
    assert result.size.order == 3


def test_default_two_gen_alpha():
    assert default_two_gen_alpha(QQ) == QQ.scalar(2)
    assert default_two_gen_alpha(F5) == F5.scalar(2)
    # over F_7 the value 4 is 1/2, but 2 comes first anyway
    assert default_two_gen_alpha(F7) == F7.scalar(2)
    # F_3 = {0, 1, 1/2}: every alpha is excluded
    with pytest.raises(ValueError):
        default_two_gen_alpha(Field.prime(3))


# -- differential tests against the direct methods ---------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def rho_order_by_powering(field, mu):
    """Reference: multiply rho(mu) until the identity; orders over F_p are at most 2p."""
    m = rho(field.scalar(mu))
    ident = Matrix.identity(field, 2)
    acc = m
    for k in range(1, 2 * field.p + 1):
        if acc == ident:
            return k
        acc = acc @ m
    raise AssertionError(f"rho({mu}) over F_{field.p} has no order up to 2p")


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_rho_order_matches_powering(p):
    field = Field.prime(p)
    for mu in range(p):
        expected = rho_order_by_powering(field, mu)
        assert rho_order(field, mu) == OrbitSize.finite(expected), (p, mu)
        assert rho_order(field, mu, cap=expected) == OrbitSize.finite(expected), (p, mu)
        assert rho_order(field, mu, cap=expected - 1).kind == "exceeds_cap", (p, mu)


def test_rho_order_large_prime_is_exact():
    # the order n satisfies rho^n = 1 and rho^(n/q) != 1 for every prime q | n
    field = Field.prime(10007)
    ident = Matrix.identity(field, 2)
    for mu in (2, 6, 1234):
        n = rho_order(field, mu).order
        assert (10007 - 1) % n == 0 or (10007 + 1) % n == 0
        m = rho(field.scalar(mu))
        assert m.pow(n) == ident
        for q in _prime_divisors(n):
            assert m.pow(n // q) != ident


def axet_by_all_reflections(algebra, x, y):
    """Reference: close {e, f} under the negated reflection of every vector
    found, O(|X|^2) applications, and read the D-orbits off two-generator
    closures.  Returns (size, split, index, orbit, orbit_x, orbit_y)."""
    field = algebra.field
    space = algebra.meta.space
    two = field.scalar(2)
    e = tuple(two * c for c in algebra.e_part(x))
    f = tuple(two * c for c in algebra.e_part(y))
    reflections = {}

    def close(seeds, generators):
        found = list(seeds)
        seen = set(found)
        queue = list(found)
        while queue:
            current = queue.pop(0)
            gens = found if generators is None else generators
            for g in list(gens):
                if g not in reflections:
                    reflections[g] = space.neg_reflection(g)
                image = reflections[g].apply(current)
                if image not in seen:
                    assert space.bform(image, image).is_one
                    seen.add(image)
                    found.append(image)
                    queue.append(image)
        return found

    orbit = close([e, f], None)
    orbit_x = close([e], [e, f])
    orbit_y = close([f], [e, f])
    split = SINGLE if set(orbit_x) == set(orbit) else TWO_HALVES
    index = 1 if len(orbit) % 2 == 1 else 2
    return len(orbit), split, index, set(orbit), set(orbit_x), set(orbit_y)


def _two_gen_cases():
    for p in SMALL_PRIMES:
        field = Field.prime(p)
        if p > 3:
            yield field, "split_spin", default_two_gen_alpha(field)
            yield field, "cover", None


@pytest.mark.parametrize(
    "field, variant, alpha", list(_two_gen_cases()), ids=lambda v: str(v)
)
def test_axet_matches_all_reflections_closure(field, variant, alpha):
    splits = set()
    for mu in range(field.p):
        cfg = TwoGenConfig(field, mu=field.scalar(mu), alpha=alpha, variant=variant)
        algebra, x, y = build_two_gen(cfg)
        result = axet(algebra, x, y)
        splits.add(result.d_orbit_split)
        for half in (result.orbit_x, result.orbit_y):
            assert list(half) == [v for v in result.orbit if v in set(half)]
        got = (
            result.size.order,
            result.d_orbit_split,
            result.d_hat_index,
            set(result.orbit),
            set(result.orbit_x),
            set(result.orbit_y),
        )
        assert got == axet_by_all_reflections(algebra, x, y), (field, variant, mu)
    assert splits == {SINGLE, TWO_HALVES}


def test_axet_rejects_wrong_rho_order_under_optimize():
    # python -O strips assert statements; the checks must still raise
    script = textwrap.dedent(
        """
        import sys
        import splitspin.two_gen as two_gen
        from splitspin import Field, TwoGenConfig, axet, build_two_gen
        from splitspin.errors import VerificationFailed

        assert False, "assert statements run: not optimised"
        two_gen.rho_order = lambda field, mu, cap=None: two_gen.OrbitSize.finite(5)
        F = Field.prime(101)
        algebra, x, y = build_two_gen(TwoGenConfig(F, mu=F.scalar(6), alpha=F.scalar(2)))
        try:
            axet(algebra, x, y)
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
    size = rho_order(Field.prime(101), 6).order
    assert proc.stdout.strip() == f"VerificationFailed ({size}, 5)"


F101 = Field.prime(101)
# F_101, mu = 6: e = (1, 0), f = (0, 1), and tau_f(e) = 2 mu f - e = (100, 12) is
# the first vector found past them.  Adding 1 to entry (1, 1) of its tau_v or
# of every product breaks its certificate first; of tau_f = [[-1, 0], [12, 1]]
# it sends f to (0, 2), of norm 4.
CORRUPTED_WITNESS = {
    "reflection": ((100, 12), (0, 1), (1, 0)),
    "product": ((100, 12), (0, 1), (1, 0)),
    "generator": ((0, 2), F101.scalar(4)),
}


def corrupted_axet_failure(kind):
    """The VerificationFailed that axet raises at F_101, mu = 6 with one
    reflection (of (100, 12), or of the generator f) or every certificate
    product corrupted; None if it raises none."""
    algebra, x, y = build_two_gen(TwoGenConfig(F101, mu=F101.scalar(6), alpha=F101.scalar(2)))
    target = {"reflection": (100, 12), "generator": (0, 1)}.get(kind)
    reflection_raw, product = QuadraticSpace.reflection_raw, two_gen.product

    def bumped(rows):
        rows[1][1] = (rows[1][1] + 1) % 101
        return rows

    def corrupted_reflection(space, e, sign):
        rows = reflection_raw(space, e, sign)
        return bumped(rows) if tuple(e) == target else rows

    QuadraticSpace.reflection_raw = corrupted_reflection
    if kind == "product":
        two_gen.product = lambda p, left, right: bumped(product(p, left, right))
    try:
        axet(algebra, x, y)
    except VerificationFailed as exc:
        return exc
    finally:
        QuadraticSpace.reflection_raw, two_gen.product = reflection_raw, product
    return None


@pytest.mark.parametrize("kind", list(CORRUPTED_WITNESS))
def test_axet_certificate_catches_a_corrupted_involution(kind):
    exc = corrupted_axet_failure(kind)
    assert exc is not None and exc.witness == CORRUPTED_WITNESS[kind]
    assert str(exc) == ("orbit left the norm-one set" if kind == "generator"
                        else "tau_v is not the conjugate of its parent's involution")
    algebra, x, y = build_two_gen(TwoGenConfig(F101, mu=F101.scalar(6), alpha=F101.scalar(2)))
    assert axet(algebra, x, y).size.order == rho_order(F101, 6).order  # the patches are undone


def test_axet_catches_a_corrupted_involution_under_optimize():
    script = textwrap.dedent(
        """
        import test_two_gen

        assert False, "assert statements run: not optimised"
        for kind in test_two_gen.CORRUPTED_WITNESS:
            print(kind, test_two_gen.corrupted_axet_failure(kind).witness)
        """
    )
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests]), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{kind} {witness}" for kind, witness in CORRUPTED_WITNESS.items()]
