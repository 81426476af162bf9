"""Truncated lattice sums with certified tail and roundoff bounds.

The engine evaluates sums of exp(pi i tr(M (xi Omega xi^T + 2 xi Z^T))) over
xi in Z^(m,n) with sup-norm distance at most R from an integer centre k,
choosing the least R for which a proven upper bound on the omitted mass is
below the requested tolerance.  k is the lattice point nearest the peak
-Im Z (Im Omega)^{-1} of the terms' Gaussian envelope, so R does not pay for
the drift of that peak away from 0 (Deconinck, Heil, Bobenko, van Hoeij and
Schmies, Computing Riemann theta functions, Math. Comp. 73 (2004), who also
factor the sum as exp(log_scale) times a sum around the peak).  The cube
k + [-R, R]^(mn) is walked in lexicographic order, in blocks of consecutive
points, one numpy pass per block: one exponent evaluation, one ``exp`` and
one ``sum``.  The order is fixed, so results are bit-identical across runs.
Each result also carries a first-order bound on the floating-point error of
that evaluation (``Truncation.roundoff_bound``).

One private kernel, ``_lattice_sums``, sums a stack of k states at once: M
and tol are checked once, the radius is the largest that any point needs,
and each block of the one cube walk is evaluated for every point together.
``lattice_sum`` is its one-state case and ``theta_M`` hands it a stack of
points (``SiegelJacobiPoint``) whole; both return its ``ThetaValue`` as it
is.  A cube that fits in one block is built once and cached (``_whole_cube``).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceError, _integer
from .groups import SiegelJacobiPoint, _one_point
from .states import GaussianState, _index_matrix

RADIUS_CAP = 10_000
# (point, term) pairs per numpy pass, so memory is bounded by one block, not by the cube
_BLOCK_TERMS = 4096
_EPS = float(np.finfo(float).eps)
_LOG_HALF = math.log(0.5)
_LOG_MAX = math.log(np.finfo(float).max)  # exp(x) overflows above this
# a centre this far out is left unshifted: doubles there are at least 1 apart,
# and the peak of such a sum, exp(pi lambda_min(M) lambda_min(Im A) 2^104) or
# more, is beyond any float, so its radius search fails either way
_CENTRE_CAP = 2.0 ** 52


@dataclass(frozen=True)
class Truncation:
    """How a lattice sum was cut off: the sup-norm radius, the bound on the
    omitted terms, the number of terms summed, the bound on the
    floating-point error of their sum, and the integer centre of the summed
    cube, an (m, n) integer array (see ``lattice_sum``).  For a stack of k
    points (``theta_M``) ``tail_bound`` and ``roundoff_bound`` are arrays of
    k, one per point, ``shift`` is (k, m, n), and ``radius`` and ``terms``
    are shared.  ``shift`` is left out of equality, as numpy arrays do not
    compare to one truth value."""

    radius: int
    tail_bound: float | np.ndarray
    terms: int
    roundoff_bound: float | np.ndarray
    shift: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class ThetaValue:
    """A lattice sum and its truncation.  For a stack of k points
    (``theta_M``) ``value`` is an array of k complex values."""

    value: complex | np.ndarray
    truncation: Truncation


def _tail_majorant(radius: int, dim: int, decay: float, drift: float,
                   log_amp: float) -> float:
    """Upper bound for sum over ||xi||_inf > radius of
    exp(log_amp - decay ||xi||^2 + drift ||xi||).

    Uses the shell count (2r+1)^d - (2r-1)^d <= 2d(3r)^{d-1}, ||xi||_2 >= r
    on the shell, and a geometric ratio bound of 1/2 past the cutoff; returns
    inf when the ratio condition fails at radius+1.  ``log_amp`` is added in
    the exponent, so an amplitude beyond the float range still gives a finite
    bound far enough out.
    """
    r0 = radius + 1
    # ratio of consecutive shell bounds must be <= 1/2
    ratio_log = -decay * (2 * r0 + 1) + drift + (dim - 1) * math.log1p(1 / r0)
    if ratio_log > _LOG_HALF:
        return math.inf
    # twice the bound on the shell of radius r0
    expo = -decay * r0 * r0 + drift * r0 + log_amp
    if expo > 700:
        return math.inf
    return 2.0 * (2 * dim * (3 * r0) ** (dim - 1) * math.exp(expo))


def _least_radius(tol: float, dim: int, amp: float, decay: float, drift: float,
                  log_amp: float) -> int:
    """The least R >= 1 with amp * ``_tail_majorant``(R, dim, decay, drift,
    log_amp) <= tol (0 for amp = 0).  Raises ResourceError if that R passes
    the radius cap.

    The majorant is at least 4d exp(log_amp - decay r^2 + drift r) at
    r = R + 1, so every R + 1 below the larger root r* of
    decay r^2 - drift r = c = log_amp + log(4d amp) - log(tol) fails when
    c > 0.  So the scan starts at R = floor(r*) - 1 (at 1 unless
    c > 16 decay, so r* > 4, and r* < RADIUS_CAP + 2) and steps up by 1:
    once the majorant is finite it stays finite and at least halves with each
    step, so the first R that passes is the least.  c is a sum of logs:
    tol = inf gives c = -inf and the start 1, and neither an amp near the
    float limit nor a tiny tol can overflow 4d amp / tol.

    The refusal comes at once, with no majorant taken, when no R <= RADIUS_CAP
    can pass: when r* >= RADIUS_CAP + 2, so that every R + 1 <= RADIUS_CAP + 1
    is a whole step below the root, or when drift or log_amp is +inf or NaN,
    which makes the majorant inf or NaN at every radius.
    """
    if amp == 0:
        return 0
    radius = 1
    c = log_amp + math.log(4 * dim) + math.log(amp) - math.log(tol)
    # c > 16 decay means r* > 4: only then can the start save a step
    if c > 16 * decay:
        root = (drift + math.sqrt(drift * drift + 4 * decay * c)) / (2 * decay)
        radius = math.floor(root) - 1 if root < RADIUS_CAP + 2 else RADIUS_CAP + 1
    if not (drift < math.inf and log_amp < math.inf):
        radius = RADIUS_CAP + 1
    # a radius past the cap is refused without a majorant
    while radius > RADIUS_CAP or not amp * _tail_majorant(radius, dim, decay, drift,
                                                         log_amp) <= tol:
        if radius >= RADIUS_CAP:
            raise ResourceError(f"tolerance {tol} unreachable within radius cap {RADIUS_CAP}")
        radius += 1
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


def _require_amplitude(log_re: float) -> None:
    """ResourceError when |c'| = exp(``log_re``) overflows (``lattice_sum``)."""
    if log_re > _LOG_MAX:
        raise ResourceError(f"the re-centred amplitude exp({log_re:.6g}) overflows a float")


class _Recentred(NamedTuple):
    """A re-centred stack of states, per state (``_recentre``): B + kA, its
    drift, the amplitude c' = c exp(log_scale), Re log_scale, the rounding
    weight w (shaped to add to the state's sum |h|) and the relative error
    e_c of c' (``lattice_sum``'s roundoff bound), k as an integer array
    (..., m, n), and ``moved``: True when every state has k != 0, else a
    mask of those that have."""

    b: np.ndarray
    drifts: list
    c: complex | np.ndarray
    log_amps: list
    w: float | np.ndarray
    scale_err: float | np.ndarray
    shift: np.ndarray
    moved: bool | np.ndarray


def _recentre(mm: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray,
              far) -> _Recentred | None:
    """Re-centre the states marked ``far`` on their shift k (``lattice_sum``),
    or None when every k is 0.  A state with k = 0 keeps B, c and its drift
    bit for bit, its Re log_scale and w are 0, and the kernel leaves its
    roundoff bound as it is.  c' is formed in logs, and ResourceError is
    raised, before any ``exp``, when it overflows a float."""
    m, n = b.shape[-2:]
    lead, dim = b.shape[:-2], m * n
    if dim == 1 and not lead:
        # one state with m = n = 1, in Python scalars: a numpy call on a
        # 1 x 1 array costs more than the arithmetic it does
        av, bv, mv = a.item(), b.item(), mm.item()
        centre = -bv.imag / av.imag
        k = round(centre) if abs(centre) < _CENTRE_CAP else 0
        if not k:
            return None
        b_new = bv + k * av
        log_scale = 1j * math.pi * (mv * k) * (bv + b_new)
        log_c = cmath.log(c.item())
        log_scaled = log_c + log_scale
        _require_amplitude(log_scaled.real)
        w = 2 * math.pi * abs(mv) * (abs(bv) + abs(k) * abs(av))
        scale_err = _EPS * (7 * abs(k) * w + abs(log_c) + abs(log_scaled) + 7)
        return _Recentred(np.array([[b_new]]), [2 * math.pi * abs(mv * b_new.imag)],
                          np.exp(log_scaled), [log_scale.real], w, scale_err,
                          np.array([[k]]), True)
    if n == 1:
        centre = -b.imag / a.imag
    else:
        centre = -np.linalg.solve(a.imag, b.imag.swapaxes(-1, -2)).swapaxes(-1, -2)
    shift = np.where(np.reshape(far, lead + (1, 1)) & (np.abs(centre) < _CENTRE_CAP),
                     np.rint(centre), 0.0)
    k_abs = np.abs(shift)
    k_max = k_abs.reshape(lead + (dim,)).max(axis=-1)
    count = np.count_nonzero(k_max)
    if not count:
        return None
    b_new = b + shift @ a
    log_scale = 1j * math.pi * np.vecdot((mm @ shift).reshape(lead + (dim,)),
                                         (b + b_new).reshape(lead + (dim,)))
    log_c = np.log(c)
    log_scaled = log_c + log_scale
    _require_amplitude(log_scaled.real.max())
    c_new = np.exp(log_scaled)
    # w = 2 pi sum |M| (|B| + |k| |A|) weighs the rounding of B + kA and of log_scale
    w = 2 * math.pi * np.add.reduce(
        (np.abs(mm) @ (np.abs(b) + k_abs @ np.abs(a))).reshape(lead + (dim,)), axis=-1)
    moved = True
    if count < k_max.size:
        moved = k_max > 0
        b_new = np.where(moved[..., None, None], b_new, b)
        c_new, w = np.where(moved, c_new, c), w * moved
    scale_err = (dim + m + n + 4) * _EPS * k_max * w + _EPS * (
        np.abs(log_c) + np.abs(log_scaled) + 7)
    return _Recentred(b_new, _drift(mm, b_new).ravel().tolist(), c_new,
                      log_scale.real.ravel().tolist(), w[..., None], scale_err,
                      shift.astype(int), moved)


def _drift(mm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2 pi sqrt(d) ||M Im B||_F per state (d = mn): |<xi, M Im B>| <=
    ||M Im B||_F ||xi||_F and ||xi||_F <= sqrt(d) ||xi||_inf.  vecdot takes
    each norm as the one dot product np.linalg.norm takes."""
    dim = b.shape[-2] * b.shape[-1]
    v = (mm @ b.imag).reshape(b.shape[:-2] + (dim,))
    return 2 * math.pi * np.sqrt(np.vecdot(v, v)) * math.sqrt(dim)


# a sum that overflows, its drift, G and h included, raises ResourceError, with no numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _lattice_sums(c: np.ndarray, a: np.ndarray, b: np.ndarray, im_a_min: np.ndarray,
                  mm: np.ndarray, m_min: float, tol: float) -> ThetaValue:
    """The lattice sums of Gaussian states that share leading axes, as
    ``lattice_sum`` states them for one, in one pass.

    The states come validated (by ``GaussianState`` or ``SiegelJacobiPoint``):
    amplitudes ``c`` (...), A (..., n, n), B (..., m, n) and the least
    eigenvalue of each Im A (...), and so does M: ``mm`` and its least
    eigenvalue ``m_min``, as ``states._index_matrix`` returns them.  A stack
    of k states has the leading axis (k,); one state has none.  ``tol`` and
    the size of M are checked here.  Each state is re-centred on its own
    shift k (``lattice_sum``); a state with k = 0 is summed as it would be
    with no re-centring at all, bit for bit, also beside shifted states.  The
    radius and the tail bound are computed once per distinct (|c|, decay,
    drift, Re log_scale), and the radius is the largest; each state's tail
    bound is taken at that radius, so it is at most ``tol`` and at most its
    own one-state bound.  The cube is walked once: each block is one exponent
    evaluation for all states (their coefficient blocks stacked row-wise),
    one ``exp`` and one sum per state.  ``roundoff_bound`` is per state, from
    that state's own sum of |t_k|.  Returns the stack's ``ThetaValue``: the
    value and both bounds have the leading axes, ``shift`` is (..., m, n)
    and integer, and ``radius`` and ``terms`` are shared; one state's value
    is a Python complex and its bounds Python floats.  Zero states (c = 0,
    whose A is not checked) may stand anywhere: no term of theirs is
    evaluated, each gets value 0, bounds 0 and shift 0, and the rest the
    results of a stack without them.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    m, n = b.shape[-2:]
    if mm.shape[0] != m:
        raise DomainError(f"index matrix must be {m} x {m} for a state of shape {(m, n)}")
    shape, nonzero = c.shape, np.count_nonzero(c) == c.size
    if not nonzero:
        live = c != 0
        c, a, b, im_a_min = c[live], a[live], b[live], im_a_min[live]
    lead, dim = b.shape[:-2], m * n
    # the decay from the least eigenvalues that validated M and the states
    decays = [math.pi * (m_min * y) for y in im_a_min.ravel().tolist()]
    drift = _drift(mm, b)
    drifts, log_amps, recentred = drift.ravel().tolist(), itertools.repeat(0.0), None
    # drift < decay sqrt(d) is ||M Im B||_F < lambda_min(M) lambda_min(Im A) / 2,
    # which puts every entry of the centre within 1/2 of 0: k = 0 with no solve
    if max(drifts, default=0.0) >= min(decays, default=1.0) * math.sqrt(dim):
        # the same test per state of a stack; one state has passed it already
        far = drift >= math.pi * (m_min * im_a_min) * math.sqrt(dim) if lead else True
        recentred = _recentre(mm, a, b, c, far)
    if recentred is not None:
        b, drifts, log_amps = recentred.b, recentred.drifts, recentred.log_amps
    # abs() of a Python complex, as a one-state sum takes it (np.abs may differ in the last bit)
    quads = list(zip(map(abs, c.ravel().tolist()), decays, drifts, log_amps))
    tails = dict.fromkeys(quads)
    radius = terms = 0
    for t in tails:
        radius = max(radius, _least_radius(tol, dim, *t))
    if radius == 0:
        total, tail = np.zeros(lead, complex), np.zeros(lead)
        roundoff, shift = tail, np.zeros(lead + (m, n), int)
    else:
        for t in tails:
            tails[t] = t[0] * _tail_majorant(radius, dim, *t[1:])
        tail = np.fromiter(map(tails.get, quads), float, len(quads)).reshape(lead)
        terms = (2 * radius + 1) ** dim
        total, mass = 0j, 0.0
        # G = pi M kron A: entry (i n + k, j n + l) is pi M[i, j] A[k, l]
        g = (math.pi * mm[:, None, :, None] * a[..., None, :, None, :]).reshape(lead + (dim, dim))
        h = 2 * math.pi * (mm @ b).reshape(lead + (dim,))
        # per state, rows d..2d-1 give Im z = Re(x^T G x + h.x), rows 0..d-1 give Re z = -Im(...)
        coef = np.concatenate([-g.imag, g.real], axis=-2).reshape(-1, dim)
        lin = np.concatenate([-h.imag, h.real], axis=-1).reshape(-1, 1)
        g_abs = np.add.reduce(np.abs(g).reshape(lead + (-1,)), axis=-1, keepdims=True)
        h_abs = 2 * math.pi * np.add.reduce((np.abs(mm) @ np.abs(b)).reshape(lead + (-1,)),
                                            axis=-1, keepdims=True)
        if recentred is not None:
            h_abs, c = h_abs + recentred.w, recentred.c
        c = c[..., None]
        for x, r in _walk(radius, dim, math.prod(lead)):
            y = coef @ x
            y += lin
            y = y.reshape(lead + (2, dim, -1))
            y *= x
            z = np.empty(lead + (x.shape[1], 2))
            np.add.reduce(y, axis=-2, out=z.swapaxes(-1, -2))
            vals = np.exp(z.view(complex)[..., 0])
            vals *= c
            total = total + np.add.reduce(vals, axis=-1)
            zeta = (g_abs * r + h_abs) * r
            mass = mass + np.vecdot(np.abs(vals), 1 + zeta + terms)
        # each weight 1 + zeta + terms is at least 4, so mass >= 4 |total| when finite
        if not np.isfinite(mass).all():
            raise ResourceError("the lattice sum or its roundoff bound overflows a float")
        roundoff = (dim + (m + 8) / 2) * _EPS * mass
        if recentred is None:
            shift = np.zeros(lead + (m, n), int)
        else:
            bound = roundoff + np.abs(total) * recentred.scale_err
            if recentred.moved is not True:
                bound = np.where(recentred.moved, bound, roundoff)
            roundoff, shift = bound, recentred.shift
    if not nonzero:
        # the live states' results in their places, 0 at the zero states
        out = np.zeros((3,) + shape, complex)
        out[:, live] = total, tail, roundoff
        shifts = np.zeros(shape + (m, n), int)
        shifts[live] = shift
        total, tail, roundoff, shift = out[0], out[1].real, out[2].real, shifts
    if not shape:
        total, tail, roundoff = complex(total), float(tail), float(roundoff)
    return ThetaValue(total, Truncation(radius, tail, terms, roundoff, shift))


def lattice_sum(state: GaussianState, m_index, tol: float) -> ThetaValue:
    """Sum the Gaussian state over Z^(m,n) with a certified truncation: the
    one-state case of ``_lattice_sums``.  ``tol`` must be positive (a NaN is
    refused with DomainError before any work).  ``value`` is the sum, and
    ``tail_bound`` and ``roundoff_bound`` bound its error.

    Re-centring.  For k in Z^(m,n), put xi = eta + k.  As A and M are
    symmetric, the term of xi is exp(log_scale) times the term of eta of the
    state (c, A, B'), with B' = B + kA and
    log_scale = pi i tr(M (k A k^T + 2 k B^T)) = pi i tr(M k (B + B')^T).
    The shift k (``Truncation.shift``) is rint(-Im B (Im A)^{-1}), row by
    row the lattice point nearest the peak of |term|, and then
    Im B' = (k - centre) Im A has rows within half a cell of 0.  At n = 1
    the centre is a division, and otherwise one ``np.linalg.solve``.  When
    ||M Im B||_F < lambda_min(M) lambda_min(Im A) / 2, every entry of the
    centre is within 1/2 of 0, so k = 0 with no solve, and the state is
    summed as if unshifted, bit for bit.  ``value`` is exp(log_scale) times
    the sum over ||eta||_inf <= R of the shifted state.

    Tail bound.  Let a = lambda_min(M) lambda_min(Im A) and
    c' = ||M Im B'||_F.  Then
    |term(eta)| = |c| exp(Re log_scale) exp(-pi tr(M (eta Im A eta^T + 2 eta Im B'^T))),
    tr(M eta Im A eta^T) >= a ||eta||_F^2 >= a ||eta||_inf^2, and
    |tr(M eta Im B'^T)| <= c' ||eta||_F <= c' sqrt(mn) ||eta||_inf.  So each
    term with ||eta||_inf = r is at most
    |c| exp(Re log_scale - pi a r^2 + 2 pi c' sqrt(mn) r), and the shell
    majorant (``_tail_majorant``, with Re log_scale in its exponent) bounds
    their sum over r > R.  The radius is the least R >= 1 whose majorant,
    times |c|, is at most ``tol`` (``_least_radius``); the amplitude
    |c| exp(Re log_scale) is formed in the exponent, so it cannot overflow on
    its own.  Raises ResourceError if that R passes the radius cap, and when
    c' (below), the sum or its roundoff bound overflows a float.

    Evaluation.  With x = vec(eta) (d = mn entries), term k is
    t_k = c' exp(z_k), where z_k = i sum_i x_i (sum_j G_ij x_j + h_i),
    G = pi M kron A, h = 2 pi vec(M B') and c' = exp(log c + log_scale) (c
    itself for k = 0): the amplitude is formed in logs, so c' fits a float
    even where c is tiny and exp(log_scale) alone would overflow; a c' that
    overflows raises first.  The real and imaginary parts are evaluated as
    real arrays.  The cube is walked in lexicographic order, in blocks of at
    most ``_BLOCK_TERMS`` consecutive points (see ``_cube_blocks``), with one
    ``exp`` per block.  Each block is reduced by numpy's pairwise ``sum``,
    and the block sums are added to the total in order.

    Roundoff bound.  With kappa = d + (m + 8) / 2, eps = 2u the double
    epsilon, N the number of terms and r_k the sup norm of term k's point,
    ``roundoff_bound`` is
    kappa eps sum_k |t_k| (1 + zeta_k + N) + |value| e_c,
    zeta_k = r_k^2 sum_ij |G_ij| + r_k (sum_i |h|_i + w), with
    |h| = 2 pi vec(|M| |B'|).  For k = 0, w = e_c = 0, which is the bound of
    an unshifted sum; otherwise w = 2 pi sum(|M| (|B| + |k| |A|)) and
    e_c = e_L + eps (|log c| + |log c + log_scale| + 7), with
    e_L = (d + m + n + 4) eps max|k| w.
    Derivation, to first order in u; a complex rounding is within sqrt(2) of
    the real bound, which the slack in each constant covers.  The entries of
    G carry relative error 3u (the product M A, the rounding of pi, the
    product with pi), those of h (m + 2)u (a length-m dot product, then
    2 pi).  Evaluating z_k adds 2d + 1 roundings to each partial product, so
    |z_k error| <= (2d + m + 3) u r_k (r_k sum |G| + sum |h|) (componentwise,
    then Minkowski's inequality).  B' = fl(B + kA) is a length-n product
    with integer k, then one addition: |B' - (B + kA)| <= (n + 1) u Q with
    Q = |B| + |k| |A|, which moves z_k by at most
    2 pi r_k sum(|M| |B' error|) <= (n + 1) u r_k w.  An exponent error
    delta moves t_k by |t_k| |delta|, and 2 kappa exceeds both 2d + m + 3 and
    sqrt(2) (n + 1), so kappa eps zeta_k covers both.  The complex ``exp``
    (exp, cos and sin within 1 ulp, then two products) adds 5u |t_k| and the
    product with c' adds 3u |t_k|.  Each term passes through at most N
    complex additions (a pairwise sum within its block, then one addition
    per block), which add N u |t_k|.  So the sum is within
    u sum_k |t_k| (8 + 2 kappa zeta_k + N) of the exact sum of its terms
    with the computed c'.  c' is common to every term, so its relative error
    moves the sum by |value| times as much.  log_scale is evaluated as
    pi i sum_ij (M k)_ij (B + B')_ij: M k carries error m u |M| |k|, B + B'
    error (n + 3) u Q (B' above, then one addition of entries at most 2Q),
    the length-d dot product d u of sum (|M| |k|) 2Q, and pi i the product
    with the rounded pi 2u of twice that sum.  With
    S = sum_ij (|M| |k|)_ij Q_ij <= max|k| w / (2 pi) (M is symmetric),
    |log_scale error| <= (2d + 2m + n + 7) u pi S, which sqrt(2) times stays
    below e_L.  log c carries at most u (|log c| + 8) (log |c| from hypot,
    then log, and arg c from atan2), the addition of log_scale
    u |log c + log_scale|, and its ``exp`` 5u, so the relative error of c' is
    below e_c.  It bounds the error against the exact sum of the terms of
    the given floating-point inputs.  A one-state m = n = 1 sum takes the
    same steps in Python scalars, whose roundings the same bound covers.
    """
    return _lattice_sums(np.array(state.c), state.a, state.b, np.array(state.im_a_min),
                         *_index_matrix(m_index), tol)


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
    return _lattice_sums(np.ones(len(p.omega)), p.omega, p.z, p.im_omega_min,
                         *_index_matrix(m_index), tol)


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
    1e-8 * max(1, |result|) raises ConvergenceError.  T and R must have finite
    entries (DomainError before ``func`` is sampled).  The factor
    exp(2 pi (tr(T Im Omega0) + tr(R Im Z0))) that undoes the fixed imaginary
    parts is formed before ``func`` is sampled; when it, or the result, is
    past the float range, ResourceError is raised, with no numpy warning.

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
    if t_matrix.shape != (n, n) or r_matrix.shape != (n, m) or not (
            np.isfinite(t_matrix).all() and np.isfinite(r_matrix).all()):
        raise DomainError("T must be n x n symmetric, R must be n x m, both with finite entries")
    npts = 2 * _integer("grid_points", grid_points, 1)
    # compensate the fixed imaginary parts to get the true coefficient
    with np.errstate(over="ignore", invalid="ignore"):
        comp = np.exp(-2j * np.pi * (np.trace(t_matrix @ (1j * p0.omega.imag))
                                     + np.trace(r_matrix @ (1j * p0.z.imag))))
    if not cmath.isfinite(comp):
        raise ResourceError("the factor exp(2 pi (tr(T Im Omega0) + tr(R Im Z0))) "
                            "overflows a float")
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
    with np.errstate(over="ignore", invalid="ignore"):
        terms = samples * np.exp(-2j * np.pi * (weights @ pts))
        fine = complex(terms.mean() * comp)
        coarse = complex(terms[(idx % 2 == 0).all(axis=0)].mean() * comp)
    if not (cmath.isfinite(fine) and cmath.isfinite(coarse)):
        raise ResourceError("the Fourier coefficient overflows a float")
    if abs(fine - coarse) > 1e-8 * max(1.0, abs(fine)):
        raise ConvergenceError(
            f"quadrature refinement moved the coefficient by {abs(fine - coarse):.3e}")
    return fine
