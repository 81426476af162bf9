"""Jacobi theta sums driven by the Schrödinger-Weil operators (index 1, m = 1).

Theta_f(tau, theta; xi, t) sums [W((xi; t)) R~(tau, theta) f] over Z^n.  The
translation pair xi = (lam, mu) in R^n x R^n uses the lattice coordinates in
which SL(2, R) acts linearly by the embedded matrix on the stacked vector;
these correspond to the Heisenberg row convention through the twist
(lam, mu) -> (-mu, lam; t) (see tests: all three lattice-group generators
leave Theta_f conj(Theta_g) invariant in these coordinates, none do without
the twist).  M = 1 is checked once, at import, for the operator loop and
the lattice kernel.  ``theta_state`` applies its operators as one letter
list (``weil._apply_letters``), and each invariance or asymptotic check sums
all of its states in one ``theta._lattice_sums`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .groups import HeisenbergElement, IwasawaCoords, _sl2_entries, sl2_act_circle
from .states import GaussianState, _index_matrix
from .theta import ThetaValue, _lattice_sums, lattice_sum
from .weil import SW_SCALE, _apply_letters, _iwasawa_letters

# the index M = 1 and its least eigenvalue, checked once; M is shared read-only,
# as groups.symplectic_form keeps J
_M_ONE, _M_ONE_MIN = _index_matrix(np.eye(1))
_M_ONE.flags.writeable = False


@dataclass(frozen=True)
class LatticePair:
    """xi = (lam, mu), two real n-vectors with finite entries."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if lam.shape != mu.shape or lam.ndim != 1:
            raise DomainError("lam and mu must be equal-length vectors")
        if not (np.isfinite(lam).all() and np.isfinite(mu).all()):
            raise DomainError("lam and mu must have finite entries")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @property
    def n(self) -> int:
        return self.lam.size


def xi_to_heisenberg(xi: LatticePair, t: float = 0.0) -> HeisenbergElement:
    """The frozen twist (lam, mu) -> (-mu, lam; t)."""
    return HeisenbergElement(-xi.mu[None], xi.lam[None], np.array([[float(t)]]))


def sl2_on_xi(mat, xi: LatticePair) -> LatticePair:
    """Columnwise linear action (lam, mu) -> (a lam + b mu, c lam + d mu) of an
    SL(2, R) matrix; any other matrix raises DomainError."""
    a, b, c, d = _sl2_entries(mat)
    return LatticePair(a * xi.lam + b * xi.mu, c * xi.lam + d * xi.mu)


def _check_shapes(xi: LatticePair, *states: GaussianState) -> None:
    for s in states:
        if s.shape != (1, xi.n):
            raise DomainError("state shape must be (1, n) matching xi")


def _theta_letters(coords: IwasawaCoords, xi: LatticePair, t: float) -> list:
    """W's letter, then ``weil._iwasawa_letters``, whose last letter, the
    rotation, is applied first."""
    return [("heis", (xi_to_heisenberg(xi, t), SW_SCALE))] + _iwasawa_letters(coords, xi.n)


def theta_state(f: GaussianState, coords: IwasawaCoords, xi: LatticePair,
                t: float = 0.0) -> GaussianState:
    """The Gaussian state W((xi; t)) R~(tau, theta) f whose lattice sum is Theta_f,
    at the reduced angle theta in [0, 2 pi) stored in ``coords``: W's letter and
    ``weil._iwasawa_letters`` as one list, applied at the module's checked M = 1."""
    _check_shapes(xi, f)
    return _apply_letters(_M_ONE, _theta_letters(coords, xi, t), f)


def theta_sum_f(f: GaussianState, coords: IwasawaCoords, xi: LatticePair,
                t: float = 0.0, tol: float = 1e-10) -> ThetaValue:
    """Jacobi's theta sum: the certified lattice sum of ``theta_state``."""
    return lattice_sum(theta_state(f, coords, xi, t), _M_ONE, tol)


def _stack_sums(states, tol: float) -> ThetaValue:
    """The ``ThetaValue`` of states of one shape (1, n) summed at M = 1 as one
    stack by ``theta._lattice_sums``: ``value`` holds one sum per state."""
    fields = ([getattr(s, k) for s in states] for k in ("c", "a", "b", "im_a_min"))
    return _lattice_sums(*map(np.array, fields), _M_ONE, _M_ONE_MIN, tol)


def gamma_n_generators(n: int):
    """The three generators of the invariance lattice group: (sigma, 0),
    (T, (s, 0)) with s = (1/2, ..., 1/2), and (I, alpha) unit translations."""
    zero = np.zeros(n)
    gens = [("sigma", np.array([[0.0, -1.0], [1.0, 0.0]]), LatticePair(zero, zero)),
            ("T_shift", np.array([[1.0, 1.0], [0.0, 1.0]]), LatticePair(np.full(n, 0.5), zero))]
    for k, e in enumerate(np.eye(n)):
        gens.append((f"unit_lam_{k}", np.eye(2), LatticePair(e, zero)))
        gens.append((f"unit_mu_{k}", np.eye(2), LatticePair(zero, e)))
    return gens


def gamma_transform(mat, xi0: LatticePair, coords: IwasawaCoords, xi: LatticePair):
    """Left action of (mat, xi0): (M.(tau, theta), xi0 + M xi)."""
    if xi0.n != xi.n:
        raise DomainError("xi0 and xi must have equal length")
    moved = sl2_on_xi(mat, xi)
    return sl2_act_circle(mat, coords), LatticePair(xi0.lam + moved.lam, xi0.mu + moved.mu)


def check_gamma_invariance(f: GaussianState, g: GaussianState, generator,
                           coords: IwasawaCoords, xi: LatticePair,
                           tol: float = 1e-12) -> float:
    """|Theta_f conj(Theta_g)(gamma . point) - Theta_f conj(Theta_g)(point)|; the four
    Theta states (f and g, at the point and at gamma . point) are summed as one stack."""
    mat, xi0 = generator
    coords2, xi2 = gamma_transform(mat, xi0, coords, xi)
    states = [theta_state(h, c, x) for c, x in ((coords, xi), (coords2, xi2)) for h in (f, g)]
    vf, vg, vf2, vg2 = _stack_sums(states, tol).value
    return float(abs(vf * np.conj(vg) - vf2 * np.conj(vg2)))


def asymptotic_main_term(f: GaussianState, g: GaussianState, coords: IwasawaCoords,
                         xi: LatticePair, tol: float = 1e-12):
    """Main term y^{n/2} sum_a f_th((a - mu) sqrt y) conj(g_th((a - mu) sqrt y))
    against the actual product Theta_f conj(Theta_g).

    f_th conj(g_th) is the Gaussian with A = A_f - conj(A_g) and
    B = B_f - conj(B_g); substituting x = (a - mu) sqrt y turns the main term
    into y^{n/2} times one certified lattice sum over a, summed at ``tol``.
    mu is first moved by its nearest integer point, which only relabels a, so
    that the amplitude of that sum does not underflow for large mu.  f and g
    are rotated once: the Theta states are the rotated states under the
    remaining letters of ``theta_state``, and that sum and theirs are one
    stack.  Returns (main, actual, residual).
    """
    _check_shapes(xi, f, g)
    *rest, rot = _theta_letters(coords, xi, 0.0)
    f_th, g_th = (_apply_letters(_M_ONE, [rot], h) for h in (f, g))
    th_f, th_g = (_apply_letters(_M_ONE, rest, h) for h in (f_th, g_th))
    y = coords.tau.imag
    a, b = f_th.a - np.conj(g_th.a), f_th.b - np.conj(g_th.b)
    mu = (xi.mu - np.round(xi.mu)).reshape(1, -1)
    ry = math.sqrt(y)
    shift = y * (mu @ a @ mu.T)[0, 0] - 2 * ry * (mu @ b.T)[0, 0]
    product = GaussianState(f_th.c * np.conj(g_th.c) * np.exp(1j * np.pi * shift),
                            y * a, ry * b - y * (mu @ a))
    total, vf, vg = _stack_sums([product, th_f, th_g], tol).value
    main, actual = y ** (xi.n / 2) * total, vf * np.conj(vg)
    return complex(main), complex(actual), float(abs(actual - main))
