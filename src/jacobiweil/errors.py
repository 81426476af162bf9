"""Exception types shared across the package, and the one integer rule."""

import numpy as np


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class AsymmetryError(ValueError):
    """A matrix that must be symmetric has an asymmetry defect above tolerance."""


class EigenSolverError(RuntimeError):
    """Eigensolver failed to converge; carries the offending matrix."""

    def __init__(self, message, matrix):
        super().__init__(message)
        self.matrix = matrix


class ResourceError(RuntimeError):
    """Requested tolerance unreachable within the configured resource cap."""


class ConvergenceError(RuntimeError):
    """Successive refinements disagree beyond the requested tolerance."""


class InvariantViolation(ValueError):
    """A structural invariant that should hold by construction failed."""


def _integer(name: str, value, low: int | None = None) -> int:
    """``value`` as a Python int: an int or numpy integer that is not a bool (an
    int subclass, as JSON true and false decode), and at least ``low`` if given.
    Anything else raises DomainError; int() would truncate 2.7 and read True as 1."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)
