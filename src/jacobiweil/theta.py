"""Truncated lattice sums with certified tail and roundoff bounds.

The engine evaluates sums of exp(pi i tr(M (xi Omega xi^T + 2 xi Z^T))) over
xi in Z^(m,n) with sup-norm at most R, choosing the least R for which a proven
upper bound on the omitted mass is below the requested tolerance.  The cube
[-R, R]^(mn) is walked in lexicographic order, in blocks of consecutive
points, one numpy pass per block: one exponent evaluation, one ``exp`` and
one ``sum``.  The order is fixed, so results are bit-identical across runs.
Each result also carries a first-order bound on the floating-point error of
that evaluation (``Truncation.roundoff_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceError
from .groups import SiegelJacobiPoint
from .states import GaussianState, _index_matrix

RADIUS_CAP = 10_000
# points per numpy pass, so memory is bounded by one block, not by the cube
_BLOCK_TERMS = 4096


@dataclass(frozen=True)
class Truncation:
    """How a lattice sum was cut off: the sup-norm radius, the bound on the
    omitted terms, the number of terms summed, and the bound on the
    floating-point error of their sum (see ``lattice_sum``)."""

    radius: int
    tail_bound: float
    terms: int = 0
    roundoff_bound: float = 0.0


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


def _cube_blocks(radius: int, dim: int):
    """Yield the points of the cube [-radius, radius]^dim in lexicographic
    order, as (dim, count) float arrays of at most ``_BLOCK_TERMS`` points.

    Each block is a slice of consecutive flat indices of the cube, decoded
    into coordinates (the last one fastest) with ``np.divmod``.
    """
    side = 2 * radius + 1
    total = side ** dim
    for start in range(0, total, _BLOCK_TERMS):
        flat = np.arange(start, min(start + _BLOCK_TERMS, total))
        x = np.empty((dim, flat.size))
        for i in range(dim - 1, -1, -1):
            flat, x[i] = np.divmod(flat, side)
        x -= radius
        yield x


def lattice_sum(state: GaussianState, m_index, tol: float) -> ThetaValue:
    """Sum the Gaussian state over Z^(m,n) with a certified truncation.

    The tail bound dominates |term(xi)| by
    exp(-pi a ||xi||_inf^2 + 2 pi c sqrt(mn) ||xi||_inf) with
    a = lambda_min(M) lambda_min(Im A) and c = ||M Im B||_F, then applies
    the shell majorant.  The radius is the least R >= 1 whose majorant, times
    |c|, is at most ``tol``: a geometric bracket, then bisection (once the
    majorant is finite it at least halves with each step of R).  Raises
    ResourceError if the bracket passes the radius cap.

    With x = vec(xi) (d = mn entries), term k is t_k = c exp(z_k), where
    z_k = i sum_i x_i (sum_j G_ij x_j + h_i), G = pi M kron A and
    h = 2 pi vec(M B); the real and imaginary parts are evaluated as real
    arrays.  The cube is walked in lexicographic order, in blocks of at most
    ``_BLOCK_TERMS`` consecutive points (see ``_cube_blocks``), with one
    ``exp`` per block.  Each block is reduced by numpy's pairwise ``sum``,
    and the block sums are added to the total in order.

    ``roundoff_bound`` is k eps sum_k |t_k| (1 + zeta_k + N) with
    k = d + (m + 8) / 2, eps = 2u the double epsilon and N the number of
    terms.  With r_k the sup norm of term k's point, zeta_k = r_k^2 sum_ij
    |G_ij| + r_k sum_i |h|_i, with |h| = 2 pi vec(|M| |B|), which bounds
    the exponent evaluated with every entry replaced by its absolute value,
    and so |z_k|.
    Derivation, to first order in u: the entries of G carry relative error
    3u (the product M A, the rounding of pi, the product with pi), those of
    h (m + 2)u (a length-m dot product, then 2 pi).  Evaluating z_k adds
    2d + 1 roundings to each partial product, so |z_k error| <= (2d + m + 3)
    u zeta_k (componentwise, then Minkowski's inequality).  An exponent
    error delta moves t_k by |t_k| |delta|; the complex ``exp`` (exp, cos
    and sin within 1 ulp, then two products) adds 5u |t_k| and the product
    with c adds 3u |t_k|.  Each term passes through at most N complex
    additions (a pairwise sum within its block, then one addition per
    block), which add N u |t_k|.  Together u sum_k |t_k| (8 +
    (2d + m + 3) zeta_k + N), which the bound dominates.  It bounds the
    error against the exact sum of the terms of the given floating-point
    inputs.
    """
    mm, m_min = _index_matrix(m_index)
    if tol <= 0:
        raise DomainError("tol must be positive")
    m, n = state.shape
    if mm.shape[0] != m:
        raise DomainError(f"index matrix must be {m} x {m} for a state of shape {state.shape}")
    if state.c == 0:
        return ThetaValue(0j, Truncation(0, 0.0))
    dim = m * n
    # both least eigenvalues were computed by the validation of M and of the state
    decay = math.pi * (m_min * state.im_a_min)
    # |<xi, M Im B>| <= ||M Im B||_F ||xi||_F and ||xi||_F <= sqrt(dim) ||xi||_inf
    drift = 2 * math.pi * float(np.linalg.norm(mm @ state.b.imag)) * math.sqrt(dim)
    amp = abs(state.c)

    def certified(r: int) -> bool:
        return amp * _tail_majorant(r, dim, decay, drift) <= tol

    failed, radius = 0, 1
    while not certified(radius):
        failed, radius = radius, radius + max(1, radius // 4)
        if radius > RADIUS_CAP:
            raise ResourceError(f"tolerance {tol} unreachable within radius cap {RADIUS_CAP}")
    while radius - failed > 1:
        mid = (failed + radius) // 2
        if certified(mid):
            radius = mid
        else:
            failed = mid
    tail = amp * _tail_majorant(radius, dim, decay, drift)

    # G = pi M kron A: entry (i n + k, j n + l) is pi M[i, j] A[k, l]
    g = (math.pi * mm[:, None, :, None] * state.a[None, :, None, :]).reshape(dim, dim)
    h = 2 * math.pi * (mm @ state.b).ravel()
    # rows d..2d-1 give Im z = Re(x^T G x + h.x), rows 0..d-1 give Re z = -Im(...)
    coef = np.concatenate([-g.imag, g.real])
    lin = np.concatenate([-h.imag, h.real])[:, None]
    terms = (2 * radius + 1) ** dim
    g_abs = float(np.abs(g).sum())
    h_abs = 2 * math.pi * float((np.abs(mm) @ np.abs(state.b)).sum())
    total = 0j
    mass = 0.0
    for x in _cube_blocks(radius, dim):
        y = coef @ x
        y += lin
        y = y.reshape(2, dim, -1)
        y *= x
        z = np.empty((x.shape[1], 2))
        np.sum(y, axis=1, out=z.T)
        vals = np.exp(z.view(complex)[:, 0])
        vals *= state.c
        total += complex(vals.sum())
        r = np.abs(x).max(axis=0)
        zeta = (g_abs * r + h_abs) * r
        mass += float(np.abs(vals) @ (1 + zeta + terms))

    eps = float(np.finfo(float).eps)
    roundoff = (dim + (m + 8) / 2) * eps * mass
    return ThetaValue(total, Truncation(radius, tail, terms, roundoff))


def theta_M(m_index, p: SiegelJacobiPoint, tol: float) -> ThetaValue:
    """Theta(Omega, Z) = sum over Z^(m,n) of exp(pi i tr(M(xi O xi^T + 2 xi Z^T)))."""
    return lattice_sum(GaussianState(1.0, p.omega, p.z), m_index, tol)


def siegel_theta(omega, tol: float) -> ThetaValue:
    """Theta(Omega) = sum over A in Z^n of exp(pi i tr(A Omega A^T))."""
    # GaussianState checks that Omega is symmetric with Im Omega positive definite
    state = GaussianState(1.0, omega, np.zeros((1, len(np.atleast_1d(omega)))))
    return lattice_sum(state, np.eye(1), tol)


def theta_weight_quarter(tau: complex, tol: float) -> complex:
    """theta(tau) = y^{1/4} sum over n in Z of exp(2 pi i n^2 tau), that is
    y^{1/4} times ``siegel_theta`` at Omega = 2 tau."""
    tau = complex(tau)
    return tau.imag ** 0.25 * siegel_theta(np.array([[2 * tau]]), tol).value


# ---------------------------------------------------------------------------
# Fourier coefficients of functions periodic in Re(Omega) and Re(Z)


def fourier_coefficient(func, t_matrix, r_matrix, p0: SiegelJacobiPoint,
                        grid_points: int = 32) -> complex:
    """Coefficient of exp(2 pi i tr(T Omega)) exp(2 pi i tr(R Z)) of a
    1-periodic holomorphic function on the Siegel-Jacobi space.

    Trapezoidal quadrature over the period cube in the independent real
    coordinates (upper triangle of X = Re Omega, all of U = Re Z) at the
    fixed imaginary parts of ``p0``; exponentially convergent for holomorphic
    integrands.  ``func`` is sampled on the doubled grid of
    2 * ``grid_points`` ticks per coordinate, and the result is the rule on
    that grid.  The coarse rule is the mean over its even-index points
    (k/N == 2k/(2N) exactly); a disagreement of the two rules above
    1e-8 * max(1, |result|) raises ConvergenceError.
    """
    n, m = p0.n, p0.m
    t_matrix = np.asarray(t_matrix, dtype=float)
    r_matrix = np.asarray(r_matrix, dtype=float)
    if t_matrix.shape != (n, n) or r_matrix.shape != (n, m):
        raise DomainError("T must be n x n symmetric, R must be n x m")
    if int(grid_points) != grid_points or grid_points < 1:
        raise DomainError("grid_points must be a positive integer")

    npts = 2 * grid_points
    rows, cols = np.triu_indices(n)
    dims = len(rows) + m * n
    idx = np.indices((npts,) * dims).reshape(dims, -1)
    pts = idx / npts
    x = np.zeros((pts.shape[1], n, n))
    x[:, rows, cols] = x[:, cols, rows] = pts[:len(rows)].T
    u = pts[len(rows):].T.reshape(-1, m, n)
    samples = np.array([func(omega, z) for omega, z in zip(x + 1j * p0.omega.imag,
                                                            u + 1j * p0.z.imag)], dtype=complex)
    # tr(T X) + tr(R U) as a linear form in the coordinates
    weights = np.concatenate([(t_matrix + np.triu(t_matrix.T, 1))[rows, cols], r_matrix.T.ravel()])
    terms = samples * np.exp(-2j * np.pi * (weights @ pts))
    # compensate the fixed imaginary parts to get the true coefficient
    comp = np.exp(-2j * np.pi * (np.trace(t_matrix @ (1j * p0.omega.imag))
                                 + np.trace(r_matrix @ (1j * p0.z.imag))))
    fine = complex(terms.mean() * comp)
    coarse = complex(terms[(idx % 2 == 0).all(axis=0)].mean() * comp)
    if abs(fine - coarse) > 1e-8 * max(1.0, abs(fine)):
        raise ConvergenceError(
            f"quadrature refinement moved the coefficient by {abs(fine - coarse):.3e}")
    return fine
