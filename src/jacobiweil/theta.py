"""Truncated lattice sums with certified tail and roundoff bounds.

The engine evaluates sums of exp(pi i tr(M (xi Omega xi^T + 2 xi Z^T))) over
xi in Z^(m,n) with sup-norm at most R, choosing the least R for which a proven
upper bound on the omitted mass is below the requested tolerance.  The cube
[-R, R]^(mn) is walked in lexicographic order, in blocks of consecutive
points, one numpy pass per block: one exponent evaluation, one ``exp`` and
one ``sum``.  The order is fixed, so results are bit-identical across runs.
Each result also carries a first-order bound on the floating-point error of
that evaluation (``Truncation.roundoff_bound``).

One private kernel, ``_lattice_sums``, sums a stack of k states at once: M
and tol are checked once, the radius is the largest that any point needs,
and each block of the one cube walk is evaluated for every point together.
``lattice_sum`` is its one-state case, and ``theta_M`` hands it a stack of
points (``SiegelJacobiPoint``) whole.  A cube that fits in one block is
built once and cached (``_whole_cube``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceError
from .groups import SiegelJacobiPoint, _one_point
from .states import GaussianState, _index_matrix

RADIUS_CAP = 10_000
# (point, term) pairs per numpy pass, so memory is bounded by one block, not by the cube
_BLOCK_TERMS = 4096
_EPS = float(np.finfo(float).eps)
_LOG_HALF = math.log(0.5)


@dataclass(frozen=True)
class Truncation:
    """How a lattice sum was cut off: the sup-norm radius, the bound on the
    omitted terms, the number of terms summed, and the bound on the
    floating-point error of their sum (see ``lattice_sum``).  For a stack of
    k points (``theta_M``) ``tail_bound`` and ``roundoff_bound`` are arrays
    of k, one per point, and ``radius`` and ``terms`` are shared."""

    radius: int
    tail_bound: float | np.ndarray
    terms: int = 0
    roundoff_bound: float | np.ndarray = 0.0


@dataclass(frozen=True)
class ThetaValue:
    """A lattice sum and its truncation.  For a stack of k points
    (``theta_M``) ``value`` is an array of k complex values."""

    value: complex | np.ndarray
    truncation: Truncation


def _tail_majorant(radius: int, dim: int, decay: float, drift: float) -> float:
    """Upper bound for sum over ||xi||_inf > radius of exp(-decay ||xi||^2 + drift ||xi||).

    Uses the shell count (2r+1)^d - (2r-1)^d <= 2d(3r)^{d-1}, ||xi||_2 >= r
    on the shell, and a geometric ratio bound of 1/2 past the cutoff; returns
    inf when the ratio condition fails at radius+1.
    """
    r0 = radius + 1
    # ratio of consecutive shell bounds must be <= 1/2
    ratio_log = -decay * (2 * r0 + 1) + drift + (dim - 1) * math.log1p(1 / r0)
    if ratio_log > _LOG_HALF:
        return math.inf
    # twice the bound on the shell of radius r0
    expo = -decay * r0 * r0 + drift * r0
    if expo > 700:
        return math.inf
    return 2.0 * (2 * dim * (3 * r0) ** (dim - 1) * math.exp(expo))


def _least_radius(tol: float, dim: int, amp: float, decay: float, drift: float) -> int:
    """The least R >= 1 with amp * ``_tail_majorant``(R, dim, decay, drift) <= tol
    (0 for amp = 0): a geometric bracket, then bisection, since once the
    majorant is finite it at least halves with each step of R.  Raises
    ResourceError if the bracket passes the radius cap."""
    if amp == 0:
        return 0
    failed, radius = 0, 1
    while not amp * _tail_majorant(radius, dim, decay, drift) <= tol:
        failed, radius = radius, radius + max(1, radius // 4)
        if radius > RADIUS_CAP:
            raise ResourceError(f"tolerance {tol} unreachable within radius cap {RADIUS_CAP}")
    while radius - failed > 1:
        mid = (failed + radius) // 2
        if amp * _tail_majorant(mid, dim, decay, drift) <= tol:
            radius = mid
        else:
            failed = mid
    return radius


def _cube_blocks(radius: int, dim: int, points: int = 1):
    """Yield the points of the cube [-radius, radius]^dim in lexicographic
    order, as (dim, count) float arrays of at most max(1, ``_BLOCK_TERMS`` //
    ``points``) points, so that a block summed for a stack of ``points``
    states holds about ``_BLOCK_TERMS`` (point, term) pairs.

    Each block is a slice of consecutive flat indices of the cube, decoded
    into coordinates (the last one fastest) with ``np.unravel_index``.
    """
    side = 2 * radius + 1
    total = side ** dim
    size = max(1, _BLOCK_TERMS // points)
    for start in range(0, total, size):
        x = np.array(np.unravel_index(np.arange(start, min(start + size, total)), (side,) * dim),
                     dtype=float)
        x -= radius
        yield x


@functools.lru_cache(maxsize=64)
def _whole_cube(radius: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The cube [-radius, radius]^dim as one read-only block, the one block of
    ``_cube_blocks`` for a cube that fits in one, and the sup norm of each of
    its points.  Cached: the small sums walk the same few cubes call after
    call, and such a cube holds at most ``_BLOCK_TERMS`` points."""
    x = next(_cube_blocks(radius, dim))
    r = np.abs(x).max(axis=0)
    x.flags.writeable = r.flags.writeable = False
    return x, r


def _walk(radius: int, dim: int, points: int):
    """The blocks of ``_cube_blocks`` with the sup norm of each point; a cube
    that fits in one block comes from ``_whole_cube``."""
    if (2 * radius + 1) ** dim <= max(1, _BLOCK_TERMS // points):
        return [_whole_cube(radius, dim)]
    return ((x, np.abs(x).max(axis=0)) for x in _cube_blocks(radius, dim, points))


def _lattice_sums(c: np.ndarray, a: np.ndarray, b: np.ndarray, im_a_min: np.ndarray,
                  m_index, tol: float) -> tuple:
    """The lattice sums of Gaussian states that share leading axes, as
    ``lattice_sum`` states them for one, in one pass.

    The states come validated (by ``GaussianState`` or ``SiegelJacobiPoint``):
    amplitudes ``c`` (...), A (..., n, n), B (..., m, n) and the least
    eigenvalue of each Im A (...).  A stack of k states has the leading axis
    (k,); one state has none, and then every array below has the shape, and
    every value the bits, of a one-state sum.  M and ``tol`` are checked
    here, once.  The radius and the tail bound are computed once per distinct
    (|c|, decay, drift) triple, and the radius is the largest; each state's
    tail bound is taken at that radius, so it is at most ``tol`` and at most
    its own one-state bound.  The cube is walked once: each block is one
    exponent evaluation for all states (their coefficient blocks stacked
    row-wise), one ``exp`` and one sum per state.  ``roundoff_bound`` is per
    state, from that state's own sum of |t_k|.  Returns (values, radius, tail
    bounds, terms, roundoff bounds), in the order of ``Truncation``'s fields,
    the values and the bounds with the leading axes.  Zero states (c = 0,
    whose A is not checked) may stand anywhere: no term of theirs is evaluated,
    each gets value 0 and bounds 0, and the rest the results of a stack without them.
    """
    mm, m_min = _index_matrix(m_index)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    m, n = b.shape[-2:]
    if mm.shape[0] != m:
        raise DomainError(f"index matrix must be {m} x {m} for a state of shape {(m, n)}")
    shape, nonzero = c.shape, c.all()
    if not nonzero:
        live = c != 0
        c, a, b, im_a_min = c[live], a[live], b[live], im_a_min[live]
    lead, dim = b.shape[:-2], m * n
    # |<xi, M Im B>| <= ||M Im B||_F ||xi||_F and ||xi||_F <= sqrt(dim) ||xi||_inf;
    # vecdot takes each norm as the one dot product np.linalg.norm takes
    v = (mm @ b.imag).reshape(lead + (dim,))
    drift = 2 * math.pi * np.sqrt(np.vecdot(v, v)) * math.sqrt(dim)
    # the decay from the least eigenvalues that validated M and the states; abs()
    # of a Python complex, as a one-state sum takes it (np.abs may differ in the last bit)
    triples = list(zip(map(abs, c.ravel().tolist()),
                       [math.pi * (m_min * y) for y in im_a_min.ravel().tolist()],
                       drift.ravel().tolist()))
    tails = dict.fromkeys(triples)
    radius = 0
    for t in tails:
        radius = max(radius, _least_radius(tol, dim, *t))
    if radius == 0:
        zero = np.zeros(shape)
        return zero + 0j, 0, zero, 0, zero
    for t in tails:
        tails[t] = t[0] * _tail_majorant(radius, dim, t[1], t[2])
    tail = np.fromiter(map(tails.get, triples), float, len(triples)).reshape(lead)

    # G = pi M kron A: entry (i n + k, j n + l) is pi M[i, j] A[k, l]
    g = (math.pi * mm[:, None, :, None] * a[..., None, :, None, :]).reshape(lead + (dim, dim))
    h = 2 * math.pi * (mm @ b).reshape(lead + (dim,))
    # per state, rows d..2d-1 give Im z = Re(x^T G x + h.x), rows 0..d-1 give Re z = -Im(...)
    coef = np.concatenate([-g.imag, g.real], axis=-2).reshape(-1, dim)
    lin = np.concatenate([-h.imag, h.real], axis=-1).reshape(-1, 1)
    terms = (2 * radius + 1) ** dim
    g_abs = np.add.reduce(np.abs(g).reshape(lead + (-1,)), axis=-1, keepdims=True)
    h_abs = 2 * math.pi * np.add.reduce((np.abs(mm) @ np.abs(b)).reshape(lead + (-1,)),
                                        axis=-1, keepdims=True)
    c = c[..., None]
    total, mass = 0j, 0.0
    for x, r in _walk(radius, dim, math.prod(lead)):
        y = coef @ x
        y += lin
        y = y.reshape(lead + (2, dim, -1))
        y *= x
        z = np.empty(lead + (x.shape[1], 2))
        np.sum(y, axis=-2, out=z.swapaxes(-1, -2))
        vals = np.exp(z.view(complex)[..., 0])
        vals *= c
        total = total + np.add.reduce(vals, axis=-1)
        zeta = (g_abs * r + h_abs) * r
        mass = mass + np.vecdot(np.abs(vals), 1 + zeta + terms)

    roundoff = (dim + (m + 8) / 2) * _EPS * mass
    if nonzero:
        return total, radius, tail, terms, roundoff
    out = np.zeros((3,) + shape, complex)
    out[:, live] = total, tail, roundoff
    return out[0], radius, out[1].real, terms, out[2].real


def lattice_sum(state: GaussianState, m_index, tol: float) -> ThetaValue:
    """Sum the Gaussian state over Z^(m,n) with a certified truncation: the
    one-state case of ``_lattice_sums``.  ``tol`` must be positive (a NaN is
    refused with DomainError before any work).

    The tail bound dominates |term(xi)| by
    exp(-pi a ||xi||_inf^2 + 2 pi c sqrt(mn) ||xi||_inf) with
    a = lambda_min(M) lambda_min(Im A) and c = ||M Im B||_F, then applies
    the shell majorant.  The radius is the least R >= 1 whose majorant, times
    |c|, is at most ``tol`` (``_least_radius``).  Raises ResourceError if the
    bracket passes the radius cap.

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
    value, radius, tail, terms, roundoff = _lattice_sums(
        np.array(state.c), state.a, state.b, np.array(state.im_a_min), m_index, tol)
    return ThetaValue(complex(value), Truncation(radius, float(tail), terms, float(roundoff)))


def theta_M(m_index, p: SiegelJacobiPoint, tol: float) -> ThetaValue:
    """Theta(Omega, Z) = sum over Z^(m,n) of exp(pi i tr(M(xi O xi^T + 2 xi Z^T))).

    One point is summed by ``lattice_sum``.  A stack of k points is summed in
    one pass by ``_lattice_sums``, with the points' own validation (no
    ``GaussianState`` per point): ``value``, ``tail_bound`` and
    ``roundoff_bound`` are then arrays of k, and the radius is the largest
    that any point needs.
    """
    if p.omega.ndim == 2:
        return lattice_sum(GaussianState(1.0, p.omega, p.z), m_index, tol)
    value, *cut = _lattice_sums(np.ones(len(p.omega)), p.omega, p.z, p.im_omega_min, m_index, tol)
    return ThetaValue(value, Truncation(*cut))


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
    fixed imaginary parts of ``p0``, one point; exponentially convergent for
    holomorphic integrands.  ``func`` is sampled on the doubled grid of
    2 * ``grid_points`` ticks per coordinate, and the result is the rule on
    that grid.  The coarse rule is the mean over its even-index points
    (k/N == 2k/(2N) exactly); a disagreement of the two rules above
    1e-8 * max(1, |result|) raises ConvergenceError.

    ``func`` is called once, on the whole stack of k samples: ``func(omega,
    z)`` with ``omega`` of shape (k, n, n) and ``z`` of shape (k, m, n), and
    must return an array of the k values, in the order of the stack (a
    DomainError otherwise).  ``theta_M`` on ``SiegelJacobiPoint(omega, z)``
    is such a function.
    """
    _one_point(p0)
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
    samples = np.asarray(func(x + 1j * p0.omega.imag, u + 1j * p0.z.imag), dtype=complex)
    if samples.shape != (len(x),):
        raise DomainError(f"func must return an array of the {len(x)} sample values, "
                          f"got shape {samples.shape}")
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
