"""Closed-form Gaussian states on R^(m,n).

A state is f(x) = c * exp(pi i tr(M (x A x^T + 2 x B^T))) with A complex
symmetric n x n, Im A positive definite, and B complex (m, n).  The family is
closed under every representation operator implemented in this package,
which is what makes exact (quadrature-free) verification possible.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .groups import SiegelJacobiPoint, _one_point
from .linalg import _require_pd, _require_siegel_pair, _square, real_sym


def index_matrix(m) -> np.ndarray:
    """Validate a positive definite symmetric index matrix."""
    return _index_matrix(m)[0]


def _index_matrix(m) -> tuple[np.ndarray, float]:
    """``index_matrix``, and the least eigenvalue of M that its check computed."""
    m = real_sym(m)
    return m, _require_pd(m, "index matrix must be positive definite")


@dataclass(frozen=True)
class GaussianState:
    """``im_a_min`` is the least eigenvalue of Im A, kept from the constructor's
    positive-definiteness check (NaN when c = 0, where Im A is not checked).
    c, A and B must be finite.  A and B are checked by
    ``linalg._require_siegel_pair``, the check of a point (Omega, Z), and c
    after them."""

    c: complex
    a: np.ndarray
    b: np.ndarray
    im_a_min: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a = _square(self.a, complex)
        b = np.asarray(self.b, dtype=complex)
        if b.ndim != 2 or b.shape[1] != a.shape[0]:
            raise DomainError("B must be (m, n) with n matching A")
        c = complex(self.c)
        a, im_a_min = _require_siegel_pair(a, b, "A", "c, A and B", pd=c != 0)
        if not cmath.isfinite(c):
            raise DomainError("c, A and B must have finite entries")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "im_a_min", im_a_min)

    @property
    def shape(self):
        return self.b.shape

    def scaled(self, factor: complex) -> "GaussianState":
        return GaussianState(self.c * factor, self.a, self.b)

    def parity_flip(self) -> "GaussianState":
        """The image under x -> -x (negates the linear part)."""
        return GaussianState(self.c, self.a, -self.b)


def evaluate(state: GaussianState, m_index, x):
    """Pointwise value c exp(pi i tr(M (x A x^T + 2 x B^T))).

    ``x`` is one point of shape (m, n), which gives a complex scalar, or a
    stack of points of shape (..., m, n), which gives an array of shape
    (...): M is validated once and the whole stack is one numpy pass.
    """
    return _evaluate(state, index_matrix(m_index), x)


def _evaluate(state: GaussianState, mm: np.ndarray, x):
    """``evaluate`` with M already checked."""
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != state.shape:
        raise DomainError(f"sample point must have shape {state.shape}")
    quad = x @ state.a @ np.swapaxes(x, -1, -2) + 2 * x @ state.b.T
    return state.c * np.exp(1j * np.pi * np.trace(mm @ quad, axis1=-2, axis2=-1))


def covariant_map(p: SiegelJacobiPoint) -> GaussianState:
    """The Gaussian of one point (Omega, Z), the same for every index M: (1, Omega, Z)."""
    return GaussianState(1.0, _one_point(p).omega, p.z)


def ground_state(n: int, m: int = 1) -> GaussianState:
    """exp(-pi tr(M x x^T)), the covariant state at (iI, 0)."""
    return GaussianState(1.0, 1j * np.eye(n), np.zeros((m, n)))


def l2_norm_sq(state: GaussianState, m_index) -> float:
    """Closed-form squared L^2 norm.

    |f|^2 integrates |c|^2 exp(-2 pi tr(M (x ImA x^T + 2 x ImB^T))), a real
    Gaussian; the result is
    |c|^2 2^{-mn/2} det(M ⊗ ImA)^{-1/2} exp(2 pi tr(M ImB (ImA)^{-1} ImB^T)).
    """
    mm = index_matrix(m_index)
    if state.c == 0:
        return 0.0
    m, n = state.shape
    ia = state.a.imag
    ib = state.b.imag
    kron = np.kron(mm, ia)
    det = np.linalg.det(kron)
    corr = np.trace(mm @ ib @ np.linalg.inv(ia) @ ib.T)
    return float(abs(state.c) ** 2 * 2 ** (-m * n / 2) * det ** -0.5 * np.exp(2 * np.pi * corr))


def sample_grid(m: int, n: int) -> np.ndarray:
    """The 17 deterministic real sample points as one (17, m, n) array: the origin,
    then for j = 1..16 the row-major vector cos(1.7 j + 0.9 k) (0.15 + 0.06 j), k < mn."""
    j = np.arange(1, 17)[:, None]
    pts = np.zeros((17, m * n))
    pts[1:] = np.cos(1.7 * j + 0.9 * np.arange(m * n)) * (0.15 + 0.06 * j)
    return pts.reshape(17, m, n)


def state_distance(f: GaussianState, g: GaussianState, m_index) -> float:
    """Max pointwise difference on ``sample_grid`` plus parameter distance.

    The amplitudes are compared as they are, phase included, so the result
    measures the distance of the states, not of the rays they span.
    """
    if f.shape != g.shape:
        raise DomainError("shape mismatch")
    mm, grid = index_matrix(m_index), sample_grid(*f.shape)
    point = np.abs(_evaluate(f, mm, grid) - _evaluate(g, mm, grid)).max()
    par = max(np.max(np.abs(f.a - g.a)), np.max(np.abs(f.b - g.b)), abs(f.c - g.c))
    return float(max(point, par))
