"""Dense matrix predicates and branch conventions used throughout the package.

Everything here is a pure function of immutable inputs; arrays returned to
callers are fresh copies, never views of the arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetryError, DomainError, EigenSolverError

SYM_DEFECT_TOL = 1e-8


def _sym(a, dtype, defect_tol: float) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    defect = np.max(np.abs(a - a.T), initial=0.0)
    scale = max(1.0, np.max(np.abs(a), initial=0.0))
    if defect > defect_tol * scale:
        raise AsymmetryError(f"asymmetry defect {defect:.3e} exceeds {defect_tol:.1e}")
    return 0.5 * (a + a.T)


def real_sym(a, defect_tol: float = SYM_DEFECT_TOL) -> np.ndarray:
    """Return the symmetrized copy of a real square matrix.

    Inputs are averaged with their transpose; an asymmetry defect above
    ``defect_tol`` (relative to the matrix scale) indicates a caller bug
    and raises instead of being silently absorbed.
    """
    return _sym(a, float, defect_tol)


def complex_sym(a, defect_tol: float = SYM_DEFECT_TOL) -> np.ndarray:
    """Symmetrize a complex square matrix (same defect policy as real_sym)."""
    return _sym(a, complex, defect_tol)


@dataclass(frozen=True)
class Signature:
    """Inertia of a real symmetric matrix: eigenvalue counts by sign."""

    positives: int
    negatives: int
    zeros: int

    @property
    def net(self) -> int:
        return self.positives - self.negatives

    def __iter__(self):
        return iter((self.positives, self.negatives, self.zeros))


def signature(q, zero_tol: float | None = None) -> Signature:
    """Signature of a real symmetric matrix.

    Parameters
    ----------
    q : array_like
        Real symmetric matrix (symmetrized on entry).
    zero_tol : float, optional
        Absolute threshold separating zero eigenvalues.  Default is
        1e-9 scaled by the largest absolute eigenvalue; the forms this
        package feeds in are exactly rank-deficient, so a relative
        threshold keeps the integer output stable.
    """
    q = real_sym(q)
    try:
        w = np.linalg.eigvalsh(q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise EigenSolverError(f"eigvalsh did not converge: {exc}", q) from exc
    if zero_tol is None:
        zero_tol = 1e-9 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    elif zero_tol <= 0:
        raise DomainError("zero_tol must be positive")
    pos = int(np.sum(w > zero_tol))
    neg = int(np.sum(w < -zero_tol))
    return Signature(pos, neg, q.shape[0] - pos - neg)


def is_positive_definite(y, tol: float = 1e-12) -> bool:
    """True iff all eigenvalues of the symmetric matrix exceed ``tol``."""
    y = real_sym(y)
    try:
        w = np.linalg.eigvalsh(y)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenSolverError(f"eigvalsh did not converge: {exc}", y) from exc
    return bool(np.min(w) > tol)


def principal_pow_half(z: complex, kappa: int) -> complex:
    """(z^{1/2})^kappa with the square root branch arg(z^{1/2}) in (-pi/2, pi/2].

    Real negative z lands on the branch boundary: z^{1/2} = i*|z|^{1/2}.
    """
    z = complex(z)
    if z == 0:
        if kappa < 0:
            raise DomainError("0 cannot be raised to a negative half-power")
        return 1.0 + 0j if kappa == 0 else 0j
    if z.imag == 0.0 and z.real < 0:
        phi = math.pi  # force the upper side of the cut regardless of -0.0 signs
    else:
        phi = math.atan2(z.imag, z.real)
    root = math.sqrt(abs(z)) * complex(math.cos(phi / 2), math.sin(phi / 2))
    return root ** int(kappa)


def holo_sqrt_det(s) -> complex:
    """Holomorphic square root of det on {S symmetric, Re S positive definite}.

    Computed as the product of principal square roots of the eigenvalues of S.
    The numerical range of S lies in the open right half-plane, so every
    eigenvalue does too; the principal roots are then continuous in S, the
    product squares to det S, and it is real positive for real S, which pins
    the unique holomorphic branch on this simply connected domain.
    """
    s = complex_sym(s)
    if not is_positive_definite(s.real):
        raise DomainError("Re(S) must be positive definite")
    try:
        w = np.linalg.eigvals(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenSolverError(f"eigvals did not converge: {exc}", s) from exc
    return complex(np.prod(np.sqrt(w)))
