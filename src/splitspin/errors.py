"""Exception types shared across the package."""


class SplitSpinError(Exception):
    """Base class for every error raised by this library."""


class FieldMismatch(SplitSpinError):
    """Arithmetic attempted between values living over different fields."""


class DivisionByZero(SplitSpinError, ZeroDivisionError):
    """Division by, or inversion of, a zero scalar."""


class IsotropicVector(SplitSpinError):
    """Reflection requested in a vector of norm zero."""


class AlgebraMismatch(SplitSpinError):
    """Elements of two different algebras were combined."""


class DimensionMismatch(SplitSpinError):
    """Matrix or vector dimensions do not line up."""


class DuplicateCandidates(SplitSpinError):
    """Candidate eigenvalue set contains a repeated value."""


class NotAnIdeal(SplitSpinError):
    """Quotient requested modulo a subspace that is not an ideal."""


class CapExceeded(SplitSpinError):
    """A closure or orbit enumeration outgrew its configured cap."""


class CharTwo(SplitSpinError):
    """Operation requires characteristic different from two."""


class BadCharacteristic(SplitSpinError):
    """Operation requires a characteristic outside {2, 3}."""


class NotNormOne(SplitSpinError):
    """Vector argument must satisfy b(e, e) = 1."""


class WrongAlgebraKind(SplitSpinError):
    """Operation is only defined for a different kind of algebra."""


class NotIdempotent(SplitSpinError):
    """Element argument must be a nonzero idempotent."""


class NotFiniteField(SplitSpinError):
    """Exhaustive enumeration requires a finite ground field."""


class BudgetExceeded(SplitSpinError):
    """Exhaustive enumeration would exceed the configured budget."""


class EigenvalueCollision(SplitSpinError):
    """Fusion-law eigenvalues fail to be pairwise distinct in the field."""


class IncompleteDecomposition(SplitSpinError):
    """Adjoint eigenspaces for the tried law do not fill the algebra.

    This is the signal that the element has an eigenvalue outside the law.
    """

    def __init__(self, message, dims=None):
        super().__init__(message)
        self.dims = dims


class NotAnAutomorphism(SplitSpinError):
    """The plus/minus eigenspace flip fails to preserve products."""


class BaricCase(SplitSpinError):
    """The algebra is baric (alpha in {-1, 2}): the Frobenius form has
    rank one and its radical is the codimension-one ideal carried here."""

    def __init__(self, tag, radical):
        super().__init__(f"baric algebra ({tag}): Frobenius radical has codimension one")
        self.tag = tag
        self.radical = radical


class UnverifiedSpanHypothesis(SplitSpinError):
    """Simplicity criterion needs evidence that norm-one vectors span E."""


class SpecialAlpha(SplitSpinError):
    """alpha = -1: the two generating axes do not span the split spin algebra."""


class MuOne(SplitSpinError):
    """mu = 1: the two axes generate only a two-dimensional subalgebra."""


class ConfigError(SplitSpinError, ValueError):
    """Invalid or unknown configuration data, or parameters outside a
    command's domain; the CLI exits 2 on it."""


class VerificationFailed(SplitSpinError):
    """An identity the computation relies on failed its exact check.

    `witness` carries the data that breaks it.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def check(condition, message: str, witness=None) -> None:
    """Raise VerificationFailed unless condition holds; survives python -O."""
    if not condition:
        raise VerificationFailed(message, witness)
