"""Truncated lattice sums with certified tail bounds.

The engine evaluates sums of exp(pi i tr(M (xi Omega xi^T + 2 xi Z^T))) over
xi in Z^(m,n) with sup-norm at most R, choosing R so that a proven upper
bound for the omitted mass is below the requested tolerance.  Summation
order is fixed (sup-norm shells, lexicographic within a shell, shells
combined in order), so results are bit-identical across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .groups import SiegelJacobiPoint
from .linalg import complex_sym, is_positive_definite
from .states import GaussianState, index_matrix

RADIUS_CAP = 10_000


@dataclass(frozen=True)
class Truncation:
    radius: int
    tail_bound: float


@dataclass(frozen=True)
class ThetaValue:
    value: complex
    truncation: Truncation


def _tail_majorant(radius: int, dim: int, decay: float, drift: float) -> float:
    """Upper bound for sum over ||xi||_inf > radius of exp(-decay ||xi||^2 + drift ||xi||).

    Uses the shell count (2r+1)^d - (2r-1)^d <= 2d(3r)^{d-1}, ||xi||_2 >= r
    on the shell, and a geometric ratio bound of 1/2 past the cutoff; returns
    inf when the ratio condition fails at radius+1.
    """
    def shell_term(r: float) -> float:
        expo = -decay * r * r + drift * r
        if expo > 700:
            return math.inf
        return 2 * dim * (3 * r) ** (dim - 1) * math.exp(expo)

    r0 = radius + 1
    # ratio of consecutive shell bounds must be <= 1/2
    ratio_log = -decay * (2 * r0 + 1) + drift + (dim - 1) * math.log1p(1 / r0)
    if ratio_log > math.log(0.5):
        return math.inf
    return 2.0 * shell_term(r0)


def _lattice_shell(radius: int, dim: int) -> np.ndarray:
    """Points of Z^dim with sup norm exactly radius, one per row, lexicographic order.

    The faces x_0 = -radius and x_0 = radius carry the full (dim-1)-cube; the
    slabs in between carry the (dim-1)-shell.
    """
    if radius == 0:
        return np.zeros((1, dim), dtype=np.int64)
    if dim == 1:
        return np.array([[-radius], [radius]], dtype=np.int64)
    face = np.indices((2 * radius + 1,) * (dim - 1)).reshape(dim - 1, -1).T - radius
    inner = _lattice_shell(radius, dim - 1)
    middle = np.arange(1 - radius, radius)
    lead = np.concatenate([np.full(len(face), -radius), np.repeat(middle, len(inner)),
                           np.full(len(face), radius)])
    rest = np.concatenate([face, np.tile(inner, (len(middle), 1)), face])
    return np.column_stack([lead, rest])


def _shell_sum(state: GaussianState, mm: np.ndarray, radius: int) -> complex:
    """Exact-order sum of the state over one sup-norm shell; ``mm`` is validated."""
    m, n = state.shape
    xs = _lattice_shell(radius, m * n).astype(float).reshape(-1, m, n)
    quad = np.einsum("kij,jl,kml,im->k", xs, state.a, xs, mm)
    lin = 2 * np.einsum("kij,lj,il->k", xs, state.b, mm)
    vals = state.c * np.exp(1j * np.pi * (quad + lin))
    return complex(np.sum(vals))


def lattice_sum(state: GaussianState, m_index, tol: float) -> ThetaValue:
    """Sum the Gaussian state over Z^(m,n) with a certified truncation.

    The tail bound dominates |term(xi)| by
    exp(-pi a ||xi||_inf^2 + 2 pi c sqrt(mn) ||xi||_inf) with
    a = lambda_min(M) lambda_min(Im A) and c = ||M Im B||_F, then applies
    the shell majorant.  The certificate bounds the truncation error in exact
    arithmetic; when Im B makes individual terms huge the float result also
    carries roundoff at the scale of the largest term.  Raises ResourceError
    if the radius cap is hit.
    """
    mm = index_matrix(m_index)
    if tol <= 0:
        raise DomainError("tol must be positive")
    if state.c == 0:
        return ThetaValue(0j, Truncation(0, 0.0))
    m, n = state.shape
    dim = m * n
    decay = math.pi * float(np.linalg.eigvalsh(mm).min() * np.linalg.eigvalsh(state.a.imag).min())
    # |<xi, M Im B>| <= ||M Im B||_F ||xi||_F and ||xi||_F <= sqrt(dim) ||xi||_inf
    drift = 2 * math.pi * float(np.linalg.norm(mm @ state.b.imag)) * math.sqrt(dim)
    amp = abs(state.c)

    radius = 1
    while amp * _tail_majorant(radius, dim, decay, drift) > tol:
        radius = radius + max(1, radius // 4)
        if radius > RADIUS_CAP:
            raise ResourceError(f"tolerance {tol} unreachable within radius cap {RADIUS_CAP}")
    tail = amp * _tail_majorant(radius, dim, decay, drift)

    # fixed reduction order: shells in increasing radius
    total = 0j
    for r in range(radius + 1):
        total += _shell_sum(state, mm, r)
    return ThetaValue(total, Truncation(radius, tail))


def theta_M(m_index, p: SiegelJacobiPoint, tol: float) -> ThetaValue:
    """Theta(Omega, Z) = sum over Z^(m,n) of exp(pi i tr(M(xi O xi^T + 2 xi Z^T)))."""
    mm = index_matrix(m_index)
    state = GaussianState(1.0, p.omega, p.z)
    return lattice_sum(state, mm, tol)


def siegel_theta(omega, tol: float) -> ThetaValue:
    """Theta(Omega) = sum over A in Z^n of exp(pi i tr(A Omega A^T))."""
    omega = complex_sym(omega)
    if not is_positive_definite(omega.imag):
        raise DomainError("Omega must lie in the Siegel upper half space")
    n = omega.shape[0]
    state = GaussianState(1.0, omega, np.zeros((1, n)))
    return lattice_sum(state, np.eye(1), tol)


def theta_weight_quarter(tau: complex, tol: float) -> complex:
    """theta(tau) = y^{1/4} sum over n in Z of exp(2 pi i n^2 tau)."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise DomainError("Im(tau) must be positive")
    state = GaussianState(1.0, np.array([[2 * tau]]), np.zeros((1, 1)))
    inner = lattice_sum(state, np.eye(1), tol)
    return tau.imag ** 0.25 * inner.value


# ---------------------------------------------------------------------------
# Fourier coefficients of functions periodic in Re(Omega) and Re(Z)


def _sym_coords(n: int):
    return [(i, j) for i in range(n) for j in range(i, n)]


def fourier_coefficient(func, t_matrix, r_matrix, p0: SiegelJacobiPoint,
                        grid_points: int = 32, refine_tol: float | None = 1e-8) -> complex:
    """Coefficient of exp(2 pi i tr(T Omega)) exp(2 pi i tr(R Z)) of a
    1-periodic holomorphic function on the Siegel-Jacobi space.

    Trapezoidal quadrature over the period cube in the independent real
    coordinates (upper triangle of X = Re Omega, all of U = Re Z) at the
    fixed imaginary parts of ``p0``; exponentially convergent for holomorphic
    integrands.  With ``refine_tol`` set, the grid is doubled once and a
    disagreement above the tolerance raises ConvergenceError.
    """
    from .errors import ConvergenceError

    n, m = p0.n, p0.m
    t_matrix = np.asarray(t_matrix, dtype=float)
    r_matrix = np.asarray(r_matrix, dtype=float)
    if t_matrix.shape != (n, n) or r_matrix.shape != (n, m):
        raise DomainError("T must be n x n symmetric, R must be n x m")

    sym_idx = _sym_coords(n)
    y0 = p0.omega.imag
    v0 = p0.z.imag

    def once(npts: int) -> complex:
        ticks = np.arange(npts) / npts
        total = 0j
        for xv in itertools.product(ticks, repeat=len(sym_idx)):
            x = np.zeros((n, n))
            for (i, j), val in zip(sym_idx, xv):
                x[i, j] = x[j, i] = val
            omega = x + 1j * y0
            for uv in itertools.product(ticks, repeat=m * n):
                u = np.asarray(uv).reshape(m, n)
                z = u + 1j * v0
                val = func(omega, z)
                phase = np.exp(-2j * np.pi * (np.trace(t_matrix @ x) + np.trace(r_matrix @ u)))
                total += val * phase
        total /= npts ** (len(sym_idx) + m * n)
        # compensate the fixed imaginary parts to get the true coefficient
        comp = np.exp(-2j * np.pi * (np.trace(t_matrix @ (1j * y0)) + np.trace(r_matrix @ (1j * v0))))
        return complex(total * comp)

    coarse = once(grid_points)
    if refine_tol is None:
        return coarse
    fine = once(2 * grid_points)
    if abs(fine - coarse) > refine_tol * max(1.0, abs(fine)):
        raise ConvergenceError(
            f"quadrature refinement moved the coefficient by {abs(fine - coarse):.3e}")
    return fine
