"""Jacobi theta sums driven by the Schrödinger-Weil operators (index 1, m = 1).

Theta_f(tau, theta; xi, t) sums [W((xi; t)) R~(tau, theta) f] over Z^n.  The
translation pair xi = (lam, mu) in R^n x R^n uses the lattice coordinates in
which SL(2, R) acts linearly by the embedded matrix on the stacked vector;
these correspond to the Heisenberg row convention through the twist
(lam, mu) -> (-mu, lam; t) (see tests: all three lattice-group generators
leave Theta_f conj(Theta_g) invariant in these coordinates, none do without
the twist).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .groups import HeisenbergElement, IwasawaCoords, _sl2_entries, sl2_act_circle
from .states import GaussianState
from .theta import ThetaValue, lattice_sum
from .weil import sw_heisenberg_apply, sw_iwasawa_apply, sw_rotation_apply


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
    n = xi.n
    return HeisenbergElement(-xi.mu.reshape(1, n), xi.lam.reshape(1, n),
                             np.array([[float(t)]]))


def sl2_on_xi(mat, xi: LatticePair) -> LatticePair:
    """Columnwise linear action (lam, mu) -> (a lam + b mu, c lam + d mu) of an
    SL(2, R) matrix; any other matrix raises DomainError."""
    a, b, c, d = _sl2_entries(mat)
    return LatticePair(a * xi.lam + b * xi.mu, c * xi.lam + d * xi.mu)


def theta_state(f: GaussianState, coords: IwasawaCoords, xi: LatticePair,
                t: float = 0.0) -> GaussianState:
    """The Gaussian state W((xi; t)) R~(tau, theta) f whose lattice sum is Theta_f,
    at the reduced angle theta in [0, 2 pi) stored in ``coords``."""
    if f.shape != (1, xi.n):
        raise DomainError("state shape must be (1, n) matching xi")
    one = np.eye(1)
    st = sw_iwasawa_apply(one, coords, f)
    return sw_heisenberg_apply(one, xi_to_heisenberg(xi, t), st)


def theta_sum_f(f: GaussianState, coords: IwasawaCoords, xi: LatticePair,
                t: float = 0.0, tol: float = 1e-10) -> ThetaValue:
    """Jacobi's theta sum: the certified lattice sum of ``theta_state``."""
    st = theta_state(f, coords, xi, t)
    return lattice_sum(st, np.eye(1), tol)


def gamma_n_generators(n: int):
    """The three generators of the invariance lattice group: (sigma, 0),
    (T, (s, 0)) with s = (1/2, ..., 1/2), and (I, alpha) unit translations."""
    sigma = np.array([[0.0, -1.0], [1.0, 0.0]])
    tmat = np.array([[1.0, 1.0], [0.0, 1.0]])
    s_half = np.full(n, 0.5)
    zero = np.zeros(n)
    gens = [
        ("sigma", sigma, LatticePair(zero, zero)),
        ("T_shift", tmat, LatticePair(s_half, zero)),
    ]
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        gens.append((f"unit_lam_{k}", np.eye(2), LatticePair(e, zero)))
        gens.append((f"unit_mu_{k}", np.eye(2), LatticePair(zero, e)))
    return gens


def gamma_transform(mat, xi0: LatticePair, coords: IwasawaCoords, xi: LatticePair):
    """Left action of (mat, xi0): (M.(tau, theta), xi0 + M xi)."""
    moved = sl2_on_xi(mat, xi)
    return sl2_act_circle(mat, coords), LatticePair(xi0.lam + moved.lam, xi0.mu + moved.mu)


def check_gamma_invariance(f: GaussianState, g: GaussianState, generator,
                           coords: IwasawaCoords, xi: LatticePair,
                           tol: float = 1e-12) -> float:
    """|Theta_f conj(Theta_g)(gamma . point) - Theta_f conj(Theta_g)(point)|."""
    mat, xi0 = generator
    v1 = theta_sum_f(f, coords, xi, tol=tol).value \
        * np.conj(theta_sum_f(g, coords, xi, tol=tol).value)
    coords2, xi2 = gamma_transform(mat, xi0, coords, xi)
    v2 = theta_sum_f(f, coords2, xi2, tol=tol).value \
        * np.conj(theta_sum_f(g, coords2, xi2, tol=tol).value)
    return float(abs(v1 - v2))


def asymptotic_main_term(f: GaussianState, g: GaussianState, coords: IwasawaCoords,
                         xi: LatticePair, tol: float = 1e-12):
    """Main term y^{n/2} sum_a f_th((a - mu) sqrt y) conj(g_th((a - mu) sqrt y))
    against the actual product Theta_f conj(Theta_g).

    f_th conj(g_th) is the Gaussian with A = A_f - conj(A_g) and
    B = B_f - conj(B_g); substituting x = (a - mu) sqrt y turns the main term
    into y^{n/2} times one certified lattice sum over a, summed at ``tol``.
    mu is first moved by its nearest integer point, which only relabels a, so
    that the amplitude of that sum does not underflow for large mu.
    Returns (main, actual, residual).
    """
    one = np.eye(1)
    y = coords.tau.imag
    f_th = sw_rotation_apply(one, coords.theta, f)
    g_th = sw_rotation_apply(one, coords.theta, g)
    a = f_th.a - np.conj(g_th.a)
    b = f_th.b - np.conj(g_th.b)
    mu = (xi.mu - np.round(xi.mu)).reshape(1, -1)
    ry = math.sqrt(y)
    shift = y * (mu @ a @ mu.T)[0, 0] - 2 * ry * (mu @ b.T)[0, 0]
    product = GaussianState(f_th.c * np.conj(g_th.c) * np.exp(1j * np.pi * shift),
                            y * a, ry * b - y * (mu @ a))
    main = y ** (xi.n / 2) * lattice_sum(product, one, tol).value
    actual = theta_sum_f(f, coords, xi, tol=tol).value \
        * np.conj(theta_sum_f(g, coords, xi, tol=tol).value)
    return complex(main), complex(actual), float(abs(actual - main))
