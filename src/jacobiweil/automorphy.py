"""Scalar automorphy factors, cocycles and densities on the Siegel-Jacobi space.

Covers the classical factor J(g, Omega) = C Omega + D, the index-M Jacobi
factor and its half-weight variants, the gamma pairing and the unit cocycles
alpha / beta / epsilon it generates, the metaplectic double cover, the
classical theta multiplier on Gamma_0(4), the nonholomorphic weight-(k, m)
slash operator, and the invariant measure data.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation, _integer
from .groups import (HeisenbergElement, JacobiElement, SiegelJacobiPoint,
                     SymplecticElement, _one_point, sp_act)
from .linalg import complex_sym, holo_sqrt_det, principal_pow_half
from .states import index_matrix

COVER_TOL = 1e-10


def _finite_sym(omega) -> np.ndarray:
    """``complex_sym(omega)``, refused unless every entry is finite."""
    omega = complex_sym(omega)
    if not np.isfinite(omega).all():
        raise DomainError("Omega must have finite entries")
    return omega


def jfac(g: SymplecticElement, omega) -> np.ndarray:
    """C Omega + D; Omega must have finite entries."""
    omega = _finite_sym(omega)
    _, _, c, d = g.blocks
    return c @ omega + d


def _index_factor(mm: np.ndarray, g: SymplecticElement, h: HeisenbergElement,
                  p: SiegelJacobiPoint, s: float = 1.0, lift=None, power: int = 0) -> complex:
    """The index-M exponentials exp(2 pi i s e1) exp(-2 pi i s e2), times
    J_half(lift, O)^power when a lift is given, with M already checked: with
    W = Z + lam O + mu, e1 = tr(M W (CO+D)^{-1} C W^T) and
    e2 = tr(M(lam O lam^T + 2 lam Z^T + kappa + mu lam^T))."""
    lam, mu, kap = h.lam, h.mu, h.kappa
    omega, z = _one_point(p).omega, p.z
    _, _, c, d = g.blocks
    w = z + lam @ omega + mu
    e1 = np.trace(mm @ w @ np.linalg.inv(c @ omega + d) @ c @ w.T)
    e2 = np.trace(mm @ (lam @ omega @ lam.T + 2 * lam @ z.T + kap + mu @ lam.T))
    val = np.exp(2j * np.pi * s * e1) * np.exp(-2j * np.pi * s * e2)
    if lift is not None:
        val = val * J_half(lift, omega) ** power
    return complex(val)


def J_M(m_index, elt: JacobiElement, p: SiegelJacobiPoint) -> complex:
    """Index-M factor: exp(2 pi i tr(M[Z+lam O+mu](CO+D)^{-1}C)) *
    exp(-2 pi i tr(M(lam O lam^T + 2 lam Z^T + kappa + mu lam^T)))."""
    return _index_factor(index_matrix(m_index), elt.g, elt.h, p)


def gamma_pair(omega1, omega2) -> complex:
    """det^{-1/2}((O1 - conj(O2))/2i) (det Im O1)^{1/4} (det Im O2)^{1/4}.

    The determinant argument has real part (Im O1 + Im O2)/2, positive
    definite, so the holomorphic branch is unambiguous.  Each O must have
    finite entries, checked before any determinant, and each det Im O must be
    positive and finite; an indefinite Im O of positive determinant (n >= 2)
    is not caught.
    """
    omega1 = _finite_sym(omega1)
    omega2 = _finite_sym(omega2)
    arg = (omega1 - omega2.conj()) / 2j
    y1, y2 = np.linalg.det(omega1.imag), np.linalg.det(omega2.imag)
    if not (0 < y1 < np.inf and 0 < y2 < np.inf):
        raise DomainError("det Im Omega must be positive and finite")
    quarters = (y1 * y2) ** 0.25
    return complex(quarters / holo_sqrt_det(arg))


def epsilon_g(g: SymplecticElement, omega1, omega2) -> complex:
    """gamma(g.O1, g.O2) / gamma(O1, O2); unit modulus."""
    val = gamma_pair(sp_act(g, omega1), sp_act(g, omega2)) / gamma_pair(omega1, omega2)
    if not abs(abs(val) - 1.0) <= 1e-8:
        raise InvariantViolation(f"epsilon modulus defect {abs(val) - 1.0:.2e}")
    return val / abs(val)


def epsilon_expanded(g: SymplecticElement, omega1, omega2) -> complex:
    """Equivalent expanded form of epsilon_g (cross-check route):
    det^{-1/2}((g.O1 - conj(g.O2))/2i) det^{1/2}((O1 - conj(O2))/2i)
    |det J(g,O1)|^{-1/2} |det J(g,O2)|^{-1/2}."""
    omega1 = complex_sym(omega1)
    omega2 = complex_sym(omega2)
    go1, go2 = sp_act(g, omega1), sp_act(g, omega2)
    num = holo_sqrt_det((omega1 - omega2.conj()) / 2j)
    den = holo_sqrt_det((go1 - go2.conj()) / 2j)
    scale = (abs(np.linalg.det(jfac(g, omega1))) * abs(np.linalg.det(jfac(g, omega2)))) ** -0.5
    return complex(num / den * scale)


def alpha_factor(g: SymplecticElement, omega) -> complex:
    """Determinant phase det J(g, O) / |det J(g, O)|."""
    d = np.linalg.det(jfac(g, omega))
    return complex(d / abs(d))


def beta_cocycle(omega, g1: SymplecticElement, g2: SymplecticElement) -> complex:
    """beta_O(g1, g2) = epsilon(g1; O, g2.O)."""
    return epsilon_g(g1, omega, sp_act(g2, omega))


def fock_cocycle(m_index, omega, g1: SymplecticElement, g2: SymplecticElement) -> complex:
    """Fock-model cocycle (gamma(g2^-1 g1^-1.O, g2^-1.O) / gamma(g1^-1.O, O))^m.

    Empirically equals beta_O(g2^{-1}, g1^{-1})^{-m}: the Fock model composes
    through inverse actions (see tests).
    """
    mm = index_matrix(m_index)
    m = mm.shape[0]
    g1i, g2i = g1.inv(), g2.inv()
    num = gamma_pair(sp_act(g2i @ g1i, omega), sp_act(g2i, omega))
    den = gamma_pair(sp_act(g1i, omega), omega)
    return complex((num / den) ** m)


# ---------------------------------------------------------------------------
# The metaplectic double cover G_* = {(g, eps) : eps^2 alpha_{iI}(g) = 1}


@dataclass(frozen=True)
class MetaplecticElement:
    g: SymplecticElement
    eps: complex

    def __post_init__(self):
        n = self.g.n
        a = alpha_factor(self.g, 1j * np.eye(n))
        if abs(self.eps ** 2 * a - 1.0) > COVER_TOL:
            raise InvariantViolation("eps^2 must equal alpha_{iI}(g)^{-1}")
        object.__setattr__(self, "eps", complex(self.eps))

    @property
    def n(self) -> int:
        return self.g.n

    def __matmul__(self, other: "MetaplecticElement") -> "MetaplecticElement":
        # cover product: (g1, e1)(g2, e2) = (g1 g2, e1 e2 beta_{iI}(g1, g2))
        n = self.n
        beta = beta_cocycle(1j * np.eye(n), self.g, other.g)
        return MetaplecticElement(self.g @ other.g, self.eps * other.eps * beta)


def metaplectic_lifts(g: SymplecticElement) -> tuple[MetaplecticElement, MetaplecticElement]:
    """The two lifts (g, ±eps0) with eps0 the principal root of alpha^{-1}."""
    a = alpha_factor(g, 1j * np.eye(g.n))
    eps0 = cmath.exp(-0.5j * cmath.phase(a))
    return MetaplecticElement(g, eps0), MetaplecticElement(g, -eps0)


def J_half(elt: MetaplecticElement, omega) -> complex:
    """Half-weight factor eps^{-1} epsilon(g; O, iI) |det J(g, O)|^{1/2};
    squares to det(C O + D)."""
    scale = abs(np.linalg.det(jfac(elt.g, omega))) ** 0.5
    e = epsilon_g(elt.g, omega, 1j * np.eye(elt.n))
    return complex(elt.eps ** -1 * e * scale)


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
    return _index_factor(weight.m_index, elt.g, h, p, lift=elt, power=weight.k)


def J_star_M(m_index, elt: MetaplecticElement, h: HeisenbergElement,
             p: SiegelJacobiPoint) -> complex:
    """Covariance factor: pi-i-normalized exponentials times J_{1/2}^m."""
    mm = index_matrix(m_index)
    return _index_factor(mm, elt.g, h, p, s=0.5, lift=elt, power=mm.shape[0])


# ---------------------------------------------------------------------------
# Classical weight-1/2 theta multiplier on Gamma_0(4)


def kronecker_symbol(c: int, d: int) -> int:
    """Extended quadratic residue symbol (c/d) for odd d (Shimura convention).

    Multiplicative in d with (c/-1) = -1 iff c < 0, (0/±1) = 1, and the
    Jacobi symbol for positive odd d; zero when gcd(c, d) > 1.
    """
    c, d = int(c), int(d)
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
    r = int(d) % 4
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
    if not np.issubdtype(gamma.dtype, np.integer):
        if not np.allclose(gamma, np.round(gamma)):
            raise DomainError("gamma must be an integer matrix")
        gamma = np.round(gamma).astype(int)
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise DomainError(f"tau must lie in the upper half plane, got {tau!r}")
    a, b, c, d = (int(v) for v in gamma.ravel())
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
