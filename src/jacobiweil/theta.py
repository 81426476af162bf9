"""Truncated lattice sums with certified tail and roundoff bounds.

The engine evaluates sums of exp(pi i tr(M (xi Omega xi^T + 2 xi Z^T))) over
xi in Z^(m,n) with sup-norm at most R, choosing the least R for which a proven
upper bound on the omitted mass is below the requested tolerance.  Terms are
evaluated in blocks of consecutive sup-norm shells, one numpy pass per block:
one exponent evaluation, one ``exp``, and one ``np.bincount`` on the sup
norm for the shell sums.  Summation order is fixed (lexicographic within a
shell, shell sums added to the total in increasing radius), so results are
bit-identical across runs.  Each result also carries a first-order bound on
the floating-point error of that evaluation (``Truncation.roundoff_bound``).
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
# terms per numpy pass: consecutive shells are grouped up to this many terms (a
# larger shell is a block of its own), so memory is bounded by one block, not
# by the ball
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


def _lattice_annulus(r0: int, r1: int, dim: int) -> np.ndarray:
    """Points of Z^dim with sup norm in [r0, r1], one per column, in
    lexicographic order.

    Coordinate 0 runs over [-r1, r1].  Where |x_0| >= r0 the other
    coordinates range over the full (dim-1)-cube of radius r1; in between
    they range over the (dim-1)-annulus.
    """
    neg, pos = np.arange(-r1, 1 - r0), np.arange(max(r0, 1), r1 + 1)
    if dim == 1:
        return np.concatenate([neg, pos])[None]
    cube = np.indices((2 * r1 + 1,) * (dim - 1)).reshape(dim - 1, -1) - r1
    middle = np.arange(1 - r0, r0)
    inner = _lattice_annulus(r0, r1, dim - 1) if r0 > 0 else cube[:, :0]
    lead = np.concatenate([np.repeat(neg, cube.shape[1]), np.repeat(middle, inner.shape[1]),
                           np.repeat(pos, cube.shape[1])])
    rest = np.concatenate([np.tile(cube, len(neg)), np.tile(inner, len(middle)),
                           np.tile(cube, len(pos))], axis=1)
    return np.vstack([lead, rest])


def _lattice_shell(radius: int, dim: int) -> np.ndarray:
    """Points of Z^dim with sup norm exactly radius, one per row, lexicographic order."""
    return _lattice_annulus(radius, radius, dim).T


def _shell_blocks(radius: int, dim: int):
    """Yield (r0, points) for the shells 0..radius, grouped into blocks.

    A block is the annulus of the consecutive shells r0..r1 (see
    ``_lattice_annulus``), as a (dim, count) float array.  It takes shells
    while their total stays within ``_BLOCK_TERMS`` terms.
    """
    sizes = [1] + [(2 * r + 1) ** dim - (2 * r - 1) ** dim for r in range(1, radius + 1)]
    r0 = 0
    while r0 <= radius:
        r1, count = r0, sizes[r0]
        while r1 < radius and count + sizes[r1 + 1] <= _BLOCK_TERMS:
            r1 += 1
            count += sizes[r1]
        yield r0, _lattice_annulus(r0, r1, dim).astype(float)
        r0 = r1 + 1


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
    arrays.  Terms are evaluated in blocks of consecutive shells of at most
    ``_BLOCK_TERMS`` terms, with one ``exp`` per block.  Within a block the
    points are in lexicographic order and ``np.bincount`` on their sup norm
    sums each shell in that order; the shell sums are added to the total in
    increasing radius.

    ``roundoff_bound`` is k eps sum_k |t_k| (1 + zeta_k + N) with
    k = d + (m + 8) / 2, eps = 2u the double epsilon and N the number of
    terms.  On the shell of radius r, zeta_k = r^2 sum_ij |G_ij| +
    r sum_i |h|_i, with |h| = 2 pi vec(|M| |B|), which bounds the exponent
    evaluated with every entry replaced by its absolute value, and so |z_k|.
    Derivation, to first order in u: the entries of G carry relative error
    3u (the product M A, the rounding of pi, the product with pi), those of
    h (m + 2)u (a length-m dot product, then 2 pi).  Evaluating z_k adds
    2d + 1 roundings to each partial product, so |z_k error| <= (2d + m + 3)
    u zeta_k (componentwise, then Minkowski's inequality).  An exponent
    error delta moves t_k by |t_k| |delta|; the complex ``exp`` (exp, cos
    and sin within 1 ulp, then two products) adds 5u |t_k| and the product
    with c adds 3u |t_k|.  Each term passes through at most N complex
    additions, which add N u |t_k|.  Together u sum_k |t_k| (8 +
    (2d + m + 3) zeta_k + N), which the bound dominates.  It bounds the
    error against the exact sum of the terms of the given floating-point
    inputs.
    """
    mm = index_matrix(m_index)
    if tol <= 0:
        raise DomainError("tol must be positive")
    m, n = state.shape
    if mm.shape[0] != m:
        raise DomainError(f"index matrix must be {m} x {m} for a state of shape {state.shape}")
    if state.c == 0:
        return ThetaValue(0j, Truncation(0, 0.0))
    dim = m * n
    decay = math.pi * float(np.linalg.eigvalsh(mm).min() * np.linalg.eigvalsh(state.a.imag).min())
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
    total = 0j
    masses = []
    for r0, x in _shell_blocks(radius, dim):
        shell = np.abs(x).max(axis=0).astype(np.intp) - r0
        y = coef @ x
        y += lin
        y = y.reshape(2, dim, -1)
        y *= x
        z = np.empty((x.shape[1], 2))
        np.sum(y, axis=1, out=z.T)
        vals = np.exp(z.view(complex)[:, 0])
        vals *= state.c
        sums = np.bincount(shell, vals.real) + 1j * np.bincount(shell, vals.imag)
        for shell_sum in sums.tolist():
            total += shell_sum
        masses.append(np.bincount(shell, np.abs(vals)))

    terms = (2 * radius + 1) ** dim
    rs = np.arange(radius + 1)
    zeta = (float(np.abs(g).sum()) * rs
            + 2 * math.pi * float((np.abs(mm) @ np.abs(state.b)).sum())) * rs
    eps = float(np.finfo(float).eps)
    roundoff = (dim + (m + 8) / 2) * eps * float(np.concatenate(masses) @ (1 + zeta + terms))
    return ThetaValue(total, Truncation(radius, tail, terms, roundoff))


def theta_M(m_index, p: SiegelJacobiPoint, tol: float) -> ThetaValue:
    """Theta(Omega, Z) = sum over Z^(m,n) of exp(pi i tr(M(xi O xi^T + 2 xi Z^T)))."""
    return lattice_sum(GaussianState(1.0, p.omega, p.z), m_index, tol)


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
