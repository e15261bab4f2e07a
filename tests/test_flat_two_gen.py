"""The flat 2x2 kernel of `two_gen` against the paths it replaced.

`_involution` builds tau_v = -r_v for a norm-one v, `_compose` multiplies
two flat row-major 2x2 tuples, `_power` takes rho's powers, and `axet` runs
on all three.  The references are `QuadraticSpace.reflection_raw(v, -1)`,
`linalg.product` on rows, `reference_pow` (the former `Matrix.pow`) and the
all-reflections closure `axet_by_all_reflections`.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitspin import Field, Matrix, QuadraticSpace, TwoGenConfig, axet, build_two_gen, rho, rho_order
from splitspin.algebra import split_spin
from splitspin.errors import VerificationFailed
from splitspin.idempotents import FAMILY_A, family_axis
from splitspin.linalg import cleared, product
from splitspin.two_gen import _compose, _involution, _power, default_two_gen_alpha
from test_linalg import reference_pow
from test_two_gen import axet_by_all_reflections

QQ = Field.rationals()
F3 = Field.prime(3)
F10007 = Field.prime(10007)
FIELDS = [F3, Field.prime(7), Field.prime(101), F10007, QQ]
IDS = ["F3", "F7", "F101", "F10007", "QQ"]
PRIME_FIELDS, PRIME_IDS = FIELDS[:-1], IDS[:-1]


def _raw(field):
    """Raw values of the field: residues, or small Fractions over Q."""
    if field.p:
        return st.integers(0, field.p - 1)
    return st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _flat(rows):
    return tuple(a for row in rows for a in row)


def _exact(field, values):
    return all(type(a) is (int if field.p else Fraction) for a in values)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_involution_is_the_negated_reflection(field):
    """On a Gram made to give v norm one, and on a second vector u of any
    norm: tau is -r as raw rows, or the norm-one check refuses u with its
    norm as the witness."""

    @given(st.data())
    def check(data):
        g01, g11, v1 = (field.scalar(data.draw(_raw(field))) for _ in range(3))
        v0 = field.scalar(data.draw(_raw(field).filter(bool)))
        g00 = (1 - 2 * g01 * v0 * v1 - g11 * v1 * v1) / (v0 * v0)  # b(v, v) = 1
        space = QuadraticSpace(Matrix(field, [[g00, g01], [g01, g11]]))
        v = (v0.value, v1.value)
        u = (data.draw(_raw(field)), data.draw(_raw(field)))
        tau = _involution(space, v)
        assert tau == _flat(space.reflection_raw(v, -1)) and _exact(field, tau)
        if space._norm_one_image(*cleared(u)) is not None:
            assert _involution(space, u) == _flat(space.reflection_raw(u, -1))
        else:
            with pytest.raises(VerificationFailed, match="orbit left the norm-one set") as info:
                _involution(space, u)
            assert info.value.witness == (u, space.bform(u, u))

    check()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_compose_is_the_row_product(field):
    @given(st.lists(_raw(field), min_size=8, max_size=8))
    def check(entries):
        s, t = tuple(entries[:4]), tuple(entries[4:])
        got = _compose(field.p, s, t)
        assert got == _flat(product(field.p, [s[:2], s[2:]], [t[:2], t[2:]])) and _exact(field, got)

    check()


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=PRIME_IDS)
def test_flat_power_of_rho_is_the_reference_power(field):
    """rho's powers are taken over F_p only; over Q its order is read off the trace."""

    @given(_raw(field), st.integers(0, 2 * field.p + 2))
    def check(mu, k):
        m = rho(field.scalar(mu))
        got = _power(field.p, _flat(m.raw), k)
        assert got == _flat(reference_pow(m, k).raw) and _exact(field, got)

    check()


def _axes(field, mu):
    """The algebra and its two generating axes at b(e, f) = mu.  No alpha
    outside {0, 1, 1/2} exists over F_3, so there the split spin algebra at
    alpha = 2 is built directly; its axet does not depend on alpha."""
    if field is F3:
        algebra = split_spin(QuadraticSpace(Matrix(field, [[1, mu], [mu, 1]])), field.scalar(2))
        return algebra, family_axis(algebra, [1, 0], FAMILY_A), family_axis(algebra, [0, 1], FAMILY_A)
    return build_two_gen(TwoGenConfig(field, mu=field.scalar(mu), alpha=default_two_gen_alpha(field)))


@functools.cache
def _small_orbit_mu(field):
    return [mu for mu in range(field.p) if rho_order(field, mu, cap=48).is_finite]


def _mu_values(field):
    """Every mu over F_3, F_7 and F_101; over F_10007, the mu whose axet has
    at most 48 vectors, since the reference costs O(|X|^2) boxed products;
    over Q, the finite cases and some infinite ones."""
    if field is QQ:
        return st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]) | _raw(QQ)
    if field is F10007:
        return st.sampled_from(_small_orbit_mu(field))
    return _raw(field)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_axet_matches_the_all_reflections_closure_on_random_mu(field):
    @settings(max_examples=25)
    @given(_mu_values(field))
    def check(mu):
        algebra, x, y = _axes(field, mu)
        result = axet(algebra, x, y)
        if not result.size.is_finite:
            assert field is QQ and rho_order(field, mu).kind == "infinite"
            return
        size, split, index, orbit, orbit_x, orbit_y = axet_by_all_reflections(algebra, x, y)
        assert (result.size.order, result.d_orbit_split, result.d_hat_index) == (size, split, index)
        assert (set(result.orbit), set(result.orbit_x), set(result.orbit_y)) == (orbit, orbit_x, orbit_y)

    check()
