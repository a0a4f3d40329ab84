"""Exceptions shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live in ambient rings with different variable counts."""


class InexactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


class PoleError(ArithmeticError):
    """A substitution hit a negative power of a non-invertible value."""


class UnsupportedTypeError(ValueError):
    """Unknown or out-of-range (family, rank) pair."""


class CheckSelectionError(ValueError):
    """A verify selection names an unknown check or plans none."""


class BijectionError(RuntimeError):
    """A family/root correspondence that must be bijective is not."""


class StructureError(RuntimeError):
    """A tile graph with a malformed gluing description."""


class IterationLimitError(RuntimeError):
    """The root closure exceeded its hard iteration cap."""


class ExponentOverflowError(ArithmeticError):
    """An exponent left the range that one packed monomial digit can hold."""
