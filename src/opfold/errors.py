"""Exception types shared across the package."""
from .rationals import rat_str


class OpfoldError(Exception):
    """Base class for all package errors."""


class SingularMatrix(OpfoldError):
    """Exact elimination hit a zero pivot where a nonzero one is required."""


class InsufficientMoments(OpfoldError):
    """A bilinear evaluation needs moments beyond the stored table."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(f"need moments through order {needed}, have {available}")


class NotPositiveDefinite(OpfoldError):
    """A Gram pivot is not strictly positive."""

    def __init__(self, degree: int, pivot=None):
        self.degree = degree
        self.pivot = pivot
        msg = f"nonpositive pivot at degree {degree}"
        if pivot is not None:
            msg += f" (pivot = {rat_str(pivot)})"
        super().__init__(msg)


class SymmetryViolated(OpfoldError):
    """A banded recurrence has a nonzero entry outside its provable band."""


class BandViolation(OpfoldError):
    """A connection entry below the allowed subdiagonal is nonzero."""


class IdentityViolated(OpfoldError):
    """An exact operator identity failed on a trusted row."""


class SingularPivotBlock(OpfoldError):
    """Block LU hit a singular odd-index pivot block."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"singular pivot block at zeta index {index}")


class SingularLeading(OpfoldError):
    """A matrix polynomial's leading coefficient is not invertible."""


class InsufficientSequence(OpfoldError):
    """An operation needs more sequence members than were generated."""


class DimensionMismatch(OpfoldError):
    """Operands have incompatible shapes."""


class Infeasible(OpfoldError):
    """An exact linear system for operator discovery has no solution."""


class Underdetermined(OpfoldError):
    """Operator discovery has leftover free parameters beyond normalization."""

    def __init__(self, dim: int):
        self.dim = dim
        super().__init__(f"solution space has {dim} free parameters")


class ConfigError(OpfoldError):
    """A run configuration failed validation."""


class NumericalInstability(OpfoldError):
    """A floating-point evaluation is too ill-conditioned to trust."""
