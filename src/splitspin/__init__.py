"""Exact-arithmetic split spin factor algebras.

Construction of the split spin factor S(b, alpha) and its exceptional nil
cover, classification of their idempotents, fusion-law and Miyamoto
verification, Frobenius forms, radicals and simplicity, and the
two-generated theory (Yabe basis, rho matrix, axet sizes) — all over the
rationals or a prime field, with no floating point anywhere.
"""

from .algebra import (
    Algebra,
    AlgebraMeta,
    Element,
    QuotientResult,
    SubalgebraResult,
    exceptional_cover,
    matsuo_3c,
    split_spin,
)
from .axial import (
    AxisReport,
    FrobeniusForm,
    FusionLaw,
    algebra_radical,
    axes_with_involution,
    check_axis,
    extend_orthogonal,
    frobenius,
    frobenius_s3_invariant,
    is_automorphism,
    is_simple,
    jordan_law,
    miyamoto,
    monster_law,
)
from .cover import CoverReport, verify_cover
from .errors import SplitSpinError
from .fields import Field, Scalar
from .idempotents import (
    IdempotentClass,
    classify_idempotent,
    classify_idempotents,
    enumerate_idempotents_bruteforce,
    family_axis,
    is_idempotent,
)
from .linalg import Matrix
from .quadratic import NormOneSearch, QuadraticSpace
from .two_gen import (
    AxetResult,
    OrbitSize,
    TwoGenConfig,
    YabeData,
    axet,
    build_two_gen,
    rho,
    rho_order,
    yabe_data,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraMeta",
    "AxetResult",
    "AxisReport",
    "CoverReport",
    "Element",
    "Field",
    "FrobeniusForm",
    "FusionLaw",
    "IdempotentClass",
    "Matrix",
    "NormOneSearch",
    "OrbitSize",
    "QuadraticSpace",
    "QuotientResult",
    "Scalar",
    "SplitSpinError",
    "SubalgebraResult",
    "TwoGenConfig",
    "YabeData",
    "algebra_radical",
    "axes_with_involution",
    "axet",
    "build_two_gen",
    "check_axis",
    "classify_idempotent",
    "classify_idempotents",
    "enumerate_idempotents_bruteforce",
    "exceptional_cover",
    "extend_orthogonal",
    "family_axis",
    "frobenius",
    "frobenius_s3_invariant",
    "is_automorphism",
    "is_idempotent",
    "is_simple",
    "jordan_law",
    "matsuo_3c",
    "miyamoto",
    "monster_law",
    "rho",
    "rho_order",
    "split_spin",
    "verify_cover",
    "yabe_data",
]
