"""Dense matrix predicates and branch conventions used throughout the package.

Everything here is a pure function of immutable inputs; arrays returned to
callers are fresh copies, never views of the arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetryError, DomainError, EigenSolverError, _integer

SYM_DEFECT_TOL = 1e-8
PD_TOL = 1e-12


def _square(a, dtype) -> np.ndarray:
    """``a`` as an array of ``dtype``; DomainError unless it is one square matrix."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


def _sym(a: np.ndarray, defect_tol: float, unit: float = 1.0) -> np.ndarray:
    """The symmetrized copy 0.5 (a + a^T) of each matrix of a stack (..., k, k).

    Raises AsymmetryError, naming the first offending matrix's defect, when a
    defect max|a - a^T| exceeds ``defect_tol`` times that matrix's scale
    max(1, max|a|); a NaN entry leaves that scale at 1 (``np.fmax``), as
    Python's max(1.0, nan) does.  A NaN defect compares false and passes.
    Each threshold is at least ``defect_tol``, so when no entry's defect
    exceeds that, one count decides, and the per-matrix defects and scales
    are only reduced otherwise.  Matrices of size 0 x 0 have no entries to
    reduce, and their copy is returned.

    No numpy warning is emitted: an infinite entry makes a NaN defect
    (inf - inf), which passes.  A finite matrix gives a finite copy: where
    a + a^T, a - a^T or |a| overflows (an entry above max/2), the rule is
    applied to a / 2, which halves such entries exactly, and the copy is
    doubled; ``unit`` doubles the defect reported.
    """
    if a.size == 0:
        return a.copy()
    try:
        with np.errstate(over="raise", invalid="ignore"):
            t = a.swapaxes(-1, -2)
            d = abs(a - t)
            if np.count_nonzero(d > defect_tol):
                defect = d.max(axis=(-2, -1))
                over = defect > defect_tol * np.fmax(1.0, abs(a).max(axis=(-2, -1)))
                if over.any():
                    # a Python float, so that a doubled defect beyond max prints inf
                    raise AsymmetryError(f"asymmetry defect {unit * float(defect[over][0]):.3e}"
                                         f" exceeds {defect_tol:.1e}")
            return 0.5 * (a + t)
    except FloatingPointError:
        with np.errstate(invalid="ignore"):
            half = _sym(0.5 * a, defect_tol, 2.0)
            return half + half


def real_sym(a) -> np.ndarray:
    """Return the symmetrized copy of a real square matrix.

    Inputs are averaged with their transpose; an asymmetry defect above
    SYM_DEFECT_TOL (relative to the matrix scale) indicates a caller bug
    and raises instead of being silently absorbed.
    """
    return _sym(_square(a, float), SYM_DEFECT_TOL)


def complex_sym(a, defect_tol: float = SYM_DEFECT_TOL) -> np.ndarray:
    """Symmetrize a complex square matrix (same defect policy as real_sym)."""
    return _sym(_square(a, complex), defect_tol)


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


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each matrix of a stack, ascending."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise EigenSolverError(f"eigvalsh did not converge: {exc}", a) from exc


def _has_nan(w: list[float]) -> bool:
    # a NaN eigenvalue (from non-finite entries) does not sort, so the ends
    # of eigvalsh's output alone cannot show it
    return any(v != v for v in w)


def _inertia(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive and negative eigenvalue counts of each matrix of a real
    stack (..., k, k), symmetrized on entry by ``_sym``.

    An eigenvalue counts as zero when its absolute value is at most 1e-9
    times max(1, largest absolute eigenvalue of its matrix); the forms this
    package feeds in are exactly rank-deficient, so a relative threshold
    keeps the integer output stable.  The eigenvalues come sorted from
    ``eigvalsh``, so the largest absolute one is at an end of each row.  A
    NaN eigenvalue does not sort and leaves its matrix's scale at 1.  One
    ``eigvalsh`` call serves the whole stack.
    """
    w = _eigvalsh(_sym(q, SYM_DEFECT_TOL))
    if w.shape[-1] == 0:
        zero = np.zeros(w.shape[:-1], dtype=int)
        return zero, zero
    scale = np.maximum(1.0, np.maximum(-w[..., 0], w[..., -1]))
    zero_tol = 1e-9 * np.where(np.isnan(w).any(axis=-1), 1.0, scale)[..., None]
    return (w > zero_tol).sum(axis=-1), (w < -zero_tol).sum(axis=-1)


def signature(q) -> Signature:
    """Signature of a real symmetric matrix (symmetrized on entry): the
    one-matrix case of ``_inertia``, which states the symmetry and zero rules."""
    q = _square(q, float)
    pos, neg = (int(c) for c in _inertia(q))
    return Signature(pos, neg, q.shape[0] - pos - neg)


def _min_eigenvalue(y: np.ndarray) -> float:
    """The least eigenvalue of a symmetric matrix, NaN if any eigenvalue is NaN.

    ``y`` must already be symmetric (the output of ``real_sym``).  A 0 x 0
    matrix raises the ValueError that ``np.min`` raises on an empty array.
    """
    w = _eigvalsh(y).tolist()
    if not w:
        raise ValueError("zero-size array to reduction operation minimum which has no identity")
    return math.nan if _has_nan(w) else w[0]


def _require_pd(y: np.ndarray, message: str) -> float:
    """The least eigenvalue of ``y``, already symmetric; DomainError(message)
    unless it exceeds PD_TOL."""
    lam = _min_eigenvalue(y)
    if not lam > PD_TOL:
        raise DomainError(message)
    return lam


def _require_siegel_pair(a: np.ndarray, b: np.ndarray, matrix: str, entries: str,
                         pd: bool = True):
    """The one check of a Siegel pair, a point (Omega, Z) or a state's (A, B):
    ``_sym(a)`` and the least eigenvalue of its imaginary part, for one
    complex a (n, n) with b, or each of a stack (k, n, n) with b (k, m, n).

    DomainError unless n >= 1 ("<matrix> must be n x n with n >= 1", zero
    states too; a stack of k = 0 points passes), Im a is positive definite
    (every eigenvalue above PD_TOL; skipped when pd is False, and the
    eigenvalue is then NaN) and a and b have finite entries, in that order:
    "Im(<matrix>) must be positive definite", else "<entries> must have finite
    entries", prefixed "point i: " for the first bad matrix of a stack, as an
    asymmetry is.  ``_sym`` turns an inf in Re a into a NaN in Im a (0.5 + 0j
    times inf), so the message reads Im a off the input.
    """
    if a.shape[-1] == 0:
        raise DomainError(f"{matrix} must be n x n with n >= 1, got {a.shape}")
    try:
        sym = _sym(a, SYM_DEFECT_TOL)
    except AsymmetryError as exc:
        if a.ndim == 2:
            raise
        # only on failure: find the matrix that the stack's message does not name
        for i, one in enumerate(a):
            try:
                _sym(one, SYM_DEFECT_TOL)
            except AsymmetryError:
                raise AsymmetryError(f"point {i}: {exc}") from None
    lam, bad = math.nan, False
    if pd:
        # eigvalsh sorts finite eigenvalues: the first of each row is the least
        w = _eigvalsh(sym.imag)
        lam = w[:, 0] if w.ndim == 2 else float(w[0])
        bad = np.count_nonzero(lam <= PD_TOL) if w.ndim == 2 else not lam > PD_TOL
    finite_a, finite_b = np.isfinite(sym), np.isfinite(b)
    if not bad and (np.count_nonzero(finite_a) + np.count_nonzero(finite_b)
                    == finite_a.size + finite_b.size):
        return sym, lam
    ok = finite_a.all(axis=(-2, -1)) & finite_b.all(axis=(-2, -1))
    pos = _eigvalsh(_sym(a.imag, math.inf)).min(axis=-1) > PD_TOL if pd else ok | True
    first = np.argmin(pos & ok) if ok.ndim else ()
    message = (f"Im({matrix}) must be positive definite" if not pos[first]
               else f"{entries} must have finite entries")
    raise DomainError(f"point {first}: {message}" if ok.ndim else message)


def _siegel_omega(omega) -> np.ndarray:
    """One raw square Omega, symmetrized and checked as the Omega of a point with
    no rows of Z: the rule and messages of ``SiegelJacobiPoint``."""
    omega = _square(omega, complex)
    return _require_siegel_pair(omega, omega[:0], "Omega", "Omega and Z")[0]


def is_positive_definite(y) -> bool:
    """True iff all eigenvalues of the symmetric matrix exceed PD_TOL."""
    return bool(_min_eigenvalue(real_sym(y)) > PD_TOL)


def principal_pow_half(z: complex, kappa: int) -> complex:
    """(z^{1/2})^kappa with the square root branch arg(z^{1/2}) in (-pi/2, pi/2].

    Real negative z lands on the branch boundary: z^{1/2} = i*|z|^{1/2}.
    """
    z, kappa = complex(z), _integer("kappa", kappa)
    if z == 0:
        if kappa < 0:
            raise DomainError("0 cannot be raised to a negative half-power")
        return 1.0 + 0j if kappa == 0 else 0j
    if z.imag == 0.0 and z.real < 0:
        phi = math.pi  # force the upper side of the cut regardless of -0.0 signs
    else:
        phi = math.atan2(z.imag, z.real)
    root = math.sqrt(abs(z)) * complex(math.cos(phi / 2), math.sin(phi / 2))
    return root ** kappa


def holo_sqrt_det(s) -> complex:
    """Holomorphic square root of det on {S symmetric, Re S positive definite}.

    Computed as the product of principal square roots of the eigenvalues of S.
    The numerical range of S lies in the open right half-plane, so every
    eigenvalue does too; the principal roots are then continuous in S, the
    product squares to det S, and it is real positive for real S, which pins
    the unique holomorphic branch on this simply connected domain.
    """
    s = complex_sym(s)
    _require_pd(s.real, "Re(S) must be positive definite")
    try:
        w = np.linalg.eigvals(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenSolverError(f"eigvals did not converge: {exc}", s) from exc
    return complex(np.prod(np.sqrt(w)))
