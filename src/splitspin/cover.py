"""Verification bundle for the exceptional cover on E + F z1 + F n.

verify_cover runs the whole pipeline on one quadratic space: the nil ideal
<n>, absence of an identity, the explicit quotient isomorphism onto the
subalgebra E + F z1 of the split spin algebra at alpha = -1, the fusion
checks on the cover's `class_axes` (z1 of Jordan type -1, the family of
Monster type (-1, 1/2)), the 3C(-1) subalgebra, the Frobenius form and the
radical E-perp + <n>, checked to be an ideal that the form's gram
annihilates.  Every flag in the report is computed, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, Element, exceptional_cover, matsuo_3c, split_spin
from .axial import AxisReport, algebra_radical, check_axis, class_axes, frobenius
from .errors import BadCharacteristic, VerificationFailed
from .idempotents import FAMILY_EXC, family_axis
from .linalg import Matrix, Vector
from .quadratic import DEFAULT_NORM_ONE_BUDGET, QuadraticSpace

MAX_WITNESSES = 4  # norm-one vectors whose family axes the cover and axis-check pipelines check


@dataclass
class CoverReport:
    space: QuadraticSpace
    algebra: Algebra
    nil_ideal_ok: bool
    no_identity_ok: bool
    quotient_iso_ok: bool
    z1_report: AxisReport
    axis_reports: tuple[AxisReport, ...]
    witnesses: tuple[Vector, ...]
    three_c_ok: bool | None
    frobenius_ok: bool
    radical_ok: bool
    radical_basis: tuple[Element, ...]

    @property
    def all_ok(self) -> bool:
        flags = [
            self.nil_ideal_ok,
            self.no_identity_ok,
            self.quotient_iso_ok,
            self.frobenius_ok,
            self.radical_ok,
            self.z1_report.ok,
        ]
        flags.extend(report.ok for report in self.axis_reports)
        if self.three_c_ok is not None:
            flags.append(self.three_c_ok)
        return all(flags)


def verify_cover(space: QuadraticSpace, norm_one_budget: int = DEFAULT_NORM_ONE_BUDGET, seed: int = 0) -> CoverReport:
    """The cover pipeline on the space (see the module docstring).
    `algebra_radical` raises unless its span is an ideal, and radical_ok
    holds when the Frobenius gram annihilates each of its vectors (a failed
    form is reported by frobenius_ok)."""
    field = space.field
    if field.characteristic in (2, 3):
        raise BadCharacteristic("the cover pipeline requires characteristic outside {2, 3}")
    algebra = exceptional_cover(space)
    k = space.dim
    nil = algebra.basis_by_label("n")

    nil_ideal_ok = all((nil * algebra.basis(i)).is_zero for i in range(algebra.dim))
    no_identity_ok = algebra.identity() is None

    # quotient modulo <n> against the subalgebra E + F z1 of the alpha = -1
    # split spin algebra, via the explicit map e -> e, z1 -> z1
    quot = algebra.quotient([nil])
    ambient = split_spin(space, -field.one())
    gens = [ambient.basis(i) for i in range(k)] + [ambient.basis_by_label("z1")]
    sub = ambient.subalgebra(gens)
    ident = Matrix.identity(field, k + 1)
    quotient_iso_ok = (
        sub.algebra.dim == k + 1
        and quot.algebra.check_isomorphism(sub.algebra, ident)[0]
    )

    search = space.find_norm_one(budget=norm_one_budget, seed=seed)
    witnesses = search.vectors[:MAX_WITNESSES]
    (_, z1, law), *family_axes = class_axes(algebra, witnesses)
    z1_report = check_axis(algebra, z1, law)
    axis_reports = [check_axis(algebra, x, law) for _, x, law in family_axes]

    three_c_ok = None
    if witnesses:
        e = witnesses[0]
        x = family_axis(algebra, e, FAMILY_EXC)
        x_minus = family_axis(algebra, tuple(-c for c in e), FAMILY_EXC)
        b_x = algebra.subalgebra([x, x_minus, z1])
        model = matsuo_3c(field, -field.one())
        three_c_ok = (
            b_x.algebra.dim == 3
            and model.check_isomorphism(b_x.algebra, Matrix.identity(field, 3))[0]
        )

    try:
        form = frobenius(algebra)
        frobenius_ok = True
    except VerificationFailed:
        form = None
        frobenius_ok = False

    radical_basis = algebra_radical(algebra)
    radical_ok = form is None or not any(any(form.gram.apply_raw(v.raw)) for v in radical_basis)

    return CoverReport(
        space=space,
        algebra=algebra,
        nil_ideal_ok=nil_ideal_ok,
        no_identity_ok=no_identity_ok,
        quotient_iso_ok=quotient_iso_ok,
        z1_report=z1_report,
        axis_reports=tuple(axis_reports),
        witnesses=tuple(witnesses),
        three_c_ok=three_c_ok,
        frobenius_ok=frobenius_ok,
        radical_ok=radical_ok,
        radical_basis=radical_basis,
    )
