"""Scalar automorphy factors, cocycles and densities on the Siegel-Jacobi space.

Covers the classical factor J(g, Omega) = C Omega + D, the index-M Jacobi
factor and its half-weight variants, the gamma pairing and the unit cocycles
alpha / beta / epsilon it generates, the metaplectic double cover, the
classical theta multiplier on Gamma_0(4), the nonholomorphic weight-(k, m)
slash operator, and the invariant measure data.  A public function checks
each raw Omega once (``linalg._siegel_omega``); ``_name`` is the body of
``name`` at an Omega already checked, as a point's Omega is.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation, ResourceError, _integer
from .groups import (HeisenbergElement, JacobiElement, SiegelJacobiPoint,
                     SymplecticElement, _one_point, _sp_act)
from .linalg import _siegel_omega, holo_sqrt_det, principal_pow_half
from .states import index_matrix

COVER_TOL = 1e-10


def jfac(g: SymplecticElement, omega) -> np.ndarray:
    """C Omega + D."""
    _, _, c, d = g.blocks
    return c @ _siegel_omega(omega) + d


# a factor past the float range raises ResourceError, with no numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _index_factor(mm: np.ndarray, g: SymplecticElement, h: HeisenbergElement,
                  p: SiegelJacobiPoint, s: float = 1.0, eps=None, power: int = 0) -> complex:
    """The index-M exponentials exp(2 pi i s e1) exp(-2 pi i s e2), times
    J_half((g, eps), O)^power when the lift's eps is given, with M already checked: with
    W = Z + lam O + mu, e1 = tr(M W (CO+D)^{-1} C W^T) and
    e2 = tr(M(lam O lam^T + 2 lam Z^T + kappa + mu lam^T)).

    Raises ResourceError when the factor is not finite, as a theta sum does
    when its amplitude overflows; every finite factor keeps its bits."""
    lam, mu, kap = h.lam, h.mu, h.kappa
    omega, z = _one_point(p).omega, p.z
    _, _, c, d = g.blocks
    w = z + lam @ omega + mu
    e1 = np.trace(mm @ w @ np.linalg.inv(c @ omega + d) @ c @ w.T)
    e2 = np.trace(mm @ (lam @ omega @ lam.T + 2 * lam @ z.T + kap + mu @ lam.T))
    val = np.exp(2j * np.pi * s * e1) * np.exp(-2j * np.pi * s * e2)
    if eps is not None:
        val = val * _j_half(g, eps, omega) ** power
    if not cmath.isfinite(val):
        raise ResourceError(f"the index-M factor {complex(val)} is not finite")
    return complex(val)


def J_M(m_index, elt: JacobiElement, p: SiegelJacobiPoint) -> complex:
    """Index-M factor: exp(2 pi i tr(M[Z+lam O+mu](CO+D)^{-1}C)) *
    exp(-2 pi i tr(M(lam O lam^T + 2 lam Z^T + kappa + mu lam^T)))."""
    return _index_factor(index_matrix(m_index), elt.g, elt.h, p)


def gamma_pair(omega1, omega2) -> complex:
    """det^{-1/2}((O1 - conj(O2))/2i) (det Im O1)^{1/4} (det Im O2)^{1/4}; the
    argument's real part (Im O1 + Im O2)/2 is positive definite, so the
    holomorphic branch is unambiguous."""
    return _gamma(_siegel_omega(omega1), _siegel_omega(omega2))


def _gamma(omega1: np.ndarray, omega2: np.ndarray) -> complex:
    # a det Im O that overflows, or that an ill-conditioned Im O rounds to 0
    # or below, is refused before its quarter power
    y1, y2 = np.linalg.det(omega1.imag), np.linalg.det(omega2.imag)
    if not (0 < y1 < np.inf and 0 < y2 < np.inf):
        raise DomainError("det Im Omega must be positive and finite")
    return complex((y1 * y2) ** 0.25 / holo_sqrt_det((omega1 - omega2.conj()) / 2j))


def epsilon_g(g: SymplecticElement, omega1, omega2) -> complex:
    """gamma(g.O1, g.O2) / gamma(O1, O2); unit modulus."""
    return _epsilon(g, _siegel_omega(omega1), _siegel_omega(omega2))


def _epsilon(g: SymplecticElement, omega1: np.ndarray, omega2: np.ndarray) -> complex:
    val = _gamma(_sp_act(g, omega1), _sp_act(g, omega2)) / _gamma(omega1, omega2)
    if not abs(abs(val) - 1.0) <= 1e-8:
        raise InvariantViolation(f"epsilon modulus defect {abs(val) - 1.0:.2e}")
    return val / abs(val)


def epsilon_expanded(g: SymplecticElement, omega1, omega2) -> complex:
    """Equivalent expanded form of epsilon_g (cross-check route):
    det^{-1/2}((g.O1 - conj(g.O2))/2i) det^{1/2}((O1 - conj(O2))/2i)
    |det J(g,O1)|^{-1/2} |det J(g,O2)|^{-1/2}."""
    omega1, omega2 = _siegel_omega(omega1), _siegel_omega(omega2)
    num = holo_sqrt_det((omega1 - omega2.conj()) / 2j)
    den = holo_sqrt_det((_sp_act(g, omega1) - _sp_act(g, omega2).conj()) / 2j)
    _, _, c, d = g.blocks
    scale = (abs(np.linalg.det(c @ omega1 + d)) * abs(np.linalg.det(c @ omega2 + d))) ** -0.5
    return complex(num / den * scale)


def alpha_factor(g: SymplecticElement, omega) -> complex:
    """Determinant phase det J(g, O) / |det J(g, O)|."""
    return _alpha(g, _siegel_omega(omega))


def _alpha(g: SymplecticElement, omega: np.ndarray) -> complex:
    _, _, c, d = g.blocks
    det = np.linalg.det(c @ omega + d)
    return complex(det / abs(det))


def beta_cocycle(omega, g1: SymplecticElement, g2: SymplecticElement) -> complex:
    """beta_O(g1, g2) = epsilon(g1; O, g2.O)."""
    omega = _siegel_omega(omega)
    return _epsilon(g1, omega, _sp_act(g2, omega))


def fock_cocycle(m_index, omega, g1: SymplecticElement, g2: SymplecticElement) -> complex:
    """Fock-model cocycle (gamma(g2^-1 g1^-1.O, g2^-1.O) / gamma(g1^-1.O, O))^m.

    Empirically equals beta_O(g2^{-1}, g1^{-1})^{-m}: the Fock model composes
    through inverse actions (see tests).
    """
    mm = index_matrix(m_index)
    m, omega = mm.shape[0], _siegel_omega(omega)
    g1i, g2i = g1.inv(), g2.inv()
    num = _gamma(_sp_act(g2i @ g1i, omega), _sp_act(g2i, omega))
    den = _gamma(_sp_act(g1i, omega), omega)
    return complex((num / den) ** m)


# ---------------------------------------------------------------------------
# The metaplectic double cover G_* = {(g, eps) : eps^2 alpha_{iI}(g) = 1}


@dataclass(frozen=True)
class MetaplecticElement:
    g: SymplecticElement
    eps: complex

    def __post_init__(self):
        a, eps = _alpha(self.g, 1j * np.eye(self.g.n)), complex(self.eps)
        # not >, so that a NaN or infinite eps fails too; eps * eps overflows to
        # inf, where eps ** 2 raises OverflowError
        if not abs(eps * eps * a - 1.0) <= COVER_TOL:
            raise InvariantViolation("eps^2 must equal alpha_{iI}(g)^{-1}")
        object.__setattr__(self, "eps", eps)

    @property
    def n(self) -> int:
        return self.g.n

    def __matmul__(self, other: "MetaplecticElement") -> "MetaplecticElement":
        # cover product: (g1, e1)(g2, e2) = (g1 g2, e1 e2 beta_{iI}(g1, g2))
        ii = 1j * np.eye(self.n)
        beta = _epsilon(self.g, ii, _sp_act(other.g, ii))
        return MetaplecticElement(self.g @ other.g, self.eps * other.eps * beta)


def _principal_eps(g: SymplecticElement) -> complex:
    """eps0 = exp(-i arg(alpha_{iI}(g)) / 2), from one alpha: (g, eps0) is a lift."""
    return cmath.exp(-0.5j * cmath.phase(_alpha(g, 1j * np.eye(g.n))))


def metaplectic_lifts(g: SymplecticElement) -> tuple[MetaplecticElement, MetaplecticElement]:
    """The two lifts (g, ±eps0) with eps0 the principal root of alpha^{-1}."""
    eps0 = _principal_eps(g)
    return MetaplecticElement(g, eps0), MetaplecticElement(g, -eps0)


def J_half(elt: MetaplecticElement, omega) -> complex:
    """Half-weight factor eps^{-1} epsilon(g; O, iI) |det J(g, O)|^{1/2};
    squares to det(C O + D)."""
    return _j_half(elt.g, elt.eps, _siegel_omega(omega))


def _j_half(g: SymplecticElement, eps: complex, omega: np.ndarray) -> complex:
    _, _, c, d = g.blocks
    scale = abs(np.linalg.det(c @ omega + d)) ** 0.5
    e = _epsilon(g, omega, 1j * np.eye(g.n))
    return complex(eps ** -1 * e * scale)


@dataclass(frozen=True)
class HalfWeight:
    """Weight k/2 (k a positive integer) together with an index matrix."""

    k: int
    m_index: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _integer("weight numerator k", self.k, 1))
        object.__setattr__(self, "m_index", index_matrix(self.m_index))


def J_kM_half(weight: HalfWeight, elt: MetaplecticElement, h: HeisenbergElement,
              p: SiegelJacobiPoint) -> complex:
    """Half-integral Jacobi factor: the index-M exponentials times J_{1/2}^k."""
    return _index_factor(weight.m_index, elt.g, h, p, eps=elt.eps, power=weight.k)


def J_star_M(m_index, elt: MetaplecticElement, h: HeisenbergElement,
             p: SiegelJacobiPoint) -> complex:
    """Covariance factor: pi-i-normalized exponentials times J_{1/2}^m."""
    mm = index_matrix(m_index)
    return _index_factor(mm, elt.g, h, p, s=0.5, eps=elt.eps, power=mm.shape[0])


# ---------------------------------------------------------------------------
# Classical weight-1/2 theta multiplier on Gamma_0(4)


def kronecker_symbol(c: int, d: int) -> int:
    """Extended quadratic residue symbol (c/d) for odd d (Shimura convention).

    Multiplicative in d with (c/-1) = -1 iff c < 0, (0/±1) = 1, and the
    Jacobi symbol for positive odd d; zero when gcd(c, d) > 1.
    """
    c, d = _integer("c", c), _integer("d", d)
    if d % 2 == 0:
        raise DomainError("denominator must be odd")
    sign = 1
    if d < 0:
        d = -d
        if c < 0:
            sign = -1
    if d == 1:
        return sign
    if math.gcd(c, d) != 1:
        return 0
    c %= d
    result = 1
    while c:
        while c % 2 == 0:
            c //= 2
            if d % 8 in (3, 5):
                result = -result
        c, d = d, c
        if c % 4 == 3 and d % 4 == 3:
            result = -result
        c %= d
    return sign * result


def epsilon_d(d: int) -> complex:
    """1 for d = 1 mod 4, i for d = 3 mod 4."""
    r = _integer("d", d) % 4
    if r == 1:
        return 1.0 + 0j
    if r == 3:
        return 1j
    raise DomainError("d must be odd")


def theta_multiplier(gamma, tau: complex) -> complex:
    """Weight-1/2 multiplier (c/d) eps_d^{-1} ((c tau + d)/|c tau + d|)^{1/2}
    for gamma in Gamma_0(4); equals theta(gamma.tau)/theta(tau)."""
    gamma = np.asarray(gamma)
    if gamma.shape != (2, 2):
        raise DomainError("gamma must be a 2x2 matrix")
    entries = gamma.ravel().tolist()
    # each entry an int that is not a bool, or a float equal to an int (so finite)
    if not all(type(v) is int or isinstance(v, float) and v.is_integer() for v in entries):
        raise DomainError("gamma must be an integer matrix")
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise DomainError(f"tau must lie in the upper half plane, got {tau!r}")
    a, b, c, d = (int(v) for v in entries)
    if a * d - b * c != 1:
        raise DomainError("gamma must have determinant 1")
    if c % 4 != 0:
        raise DomainError("gamma must lie in Gamma_0(4)")
    j = c * tau + d
    return kronecker_symbol(c, d) / epsilon_d(d) * principal_pow_half(j / abs(j), 1)


# ---------------------------------------------------------------------------
# Nonholomorphic weight-(k, m) slash operator on H x C (n = 1, scalar index)


def jnh_factor(elt: JacobiElement, k: int, m: float, tau: complex, z: complex) -> complex:
    """exp(2 pi i m {kappa - c(z+lam tau+mu)^2/(c tau+d) + lam^2 tau + 2 lam z
    + lam mu}) ((c tau+d)/|c tau+d|)^{-k}."""
    if elt.n != 1 or elt.m != 1:
        raise DomainError("the nonholomorphic factor is defined for n = m = 1")
    a, b, c, d = elt.g.g.ravel()
    lam = float(elt.h.lam[0, 0])
    mu = float(elt.h.mu[0, 0])
    kap = float(elt.h.kappa[0, 0])
    w = z + lam * tau + mu
    brace = kap - c * w * w / (c * tau + d) + lam * lam * tau + 2 * lam * z + lam * mu
    j = c * tau + d
    return cmath.exp(2j * math.pi * m * brace) * (j / abs(j)) ** (-k)


def slash_km_nh(func, k: int, m: float, elt: JacobiElement):
    """(F |_{k,m} g)(tau, z) = j^{nh}_{k,m}(g, (tau, z)) F(g.(tau, z))."""
    a, b, c, d = elt.g.g.ravel()
    lam = float(elt.h.lam[0, 0])
    mu = float(elt.h.mu[0, 0])

    def slashed(tau: complex, z: complex) -> complex:
        j = c * tau + d
        tau2 = (a * tau + b) / j
        z2 = (z + lam * tau + mu) / j
        return jnh_factor(elt, k, m, tau, z) * func(tau2, z2)

    return slashed


# ---------------------------------------------------------------------------
# Densities


def kappa_density(m_index, p: SiegelJacobiPoint) -> float:
    """exp(-4 pi tr(V^T M V Y^{-1})) with V = Im Z, Y = Im Omega; in (0, 1]."""
    mm = index_matrix(m_index)
    v = _one_point(p).z.imag
    y = p.omega.imag
    return float(np.exp(-4 * np.pi * np.trace(v.T @ mm @ v @ np.linalg.inv(y))))


def invariant_volume_density(p: SiegelJacobiPoint) -> float:
    """(det Im Omega)^{-(n+m+1)}, the invariant density in the (X,Y,U,V) chart."""
    return float(np.linalg.det(_one_point(p).omega.imag) ** -(p.n + p.m + 1))
