"""Verification bundle for the exceptional cover on E + F z1 + F n.

verify_cover runs the whole pipeline on one quadratic space: the nil ideal
<n> (n's row stores no cell), absence of an identity, the quotient modulo
<n> onto the subalgebra E + F z1 of the split spin algebra at alpha = -1,
the fusion checks on the cover's `class_axes` (z1 of Jordan type -1, the
family of Monster type (-1, 1/2)), the 3C(-1) subalgebra on x, x-, z1, the
Frobenius form and the radical E-perp + <n>, checked to be an ideal that
the form's gram annihilates.  Each subalgebra claim is `check_isomorphism`
of a map into the larger algebra, injective and multiplicative on basis
pairs, so no closure is run.  Every flag in the report is computed, never
assumed.
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
    """The cover pipeline on the space (see the module docstring).  The
    quotient maps into S(b, -1) by label (e -> e, z1 -> z1) and 3C(-1) by
    a, b, c -> x, x-, z1.  `algebra_radical` raises unless its span is an
    ideal, and radical_ok holds when the Frobenius gram annihilates each of
    its vectors (a failed form is reported by frobenius_ok)."""
    field = space.field
    if field.characteristic in (2, 3):
        raise BadCharacteristic("the cover pipeline requires characteristic outside {2, 3}")
    algebra = exceptional_cover(space)
    nil = algebra.label_index("n")

    nil_ideal_ok = not any(algebra.cell(nil, j) for j in range(algebra.dim))
    no_identity_ok = algebra.identity() is None

    # the quotient's e1, ..., ek, z1 to the basis vectors of S(b, -1) with their labels, its first dim - 1
    quot = algebra.quotient([algebra.basis(nil)]).algebra
    phi = Matrix.from_columns(field, Matrix.identity(field, algebra.dim).raw[:-1])
    quotient_iso_ok = quot.check_isomorphism(split_spin(space, -field.one()), phi)[0]

    search = space.find_norm_one(budget=norm_one_budget, seed=seed)
    witnesses = search.vectors[:MAX_WITNESSES]
    (_, z1, law), *family_axes = class_axes(algebra, witnesses)
    z1_report = check_axis(algebra, z1, law)
    axis_reports = [check_axis(algebra, x, law) for _, x, law in family_axes]

    three_c_ok = None
    if witnesses:
        x = family_axes[0][1]  # the axis of witnesses[0]
        x_minus = family_axis(algebra, tuple(-c for c in witnesses[0]), FAMILY_EXC)
        images = Matrix.from_columns(field, [x.raw, x_minus.raw, z1.raw])
        three_c_ok = matsuo_3c(field, -field.one()).check_isomorphism(algebra, images)[0]

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
