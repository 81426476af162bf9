"""Invariant differential operators (numerical) and the weight multiplicity.

Derivatives are Wirtinger combinations of tensor-product central differences
of order-2 accuracy; the third-order stencil is the 5-point centered one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, InvariantViolation, _integer

_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}

# Wirtinger letters: (real index, imag index, sign of the i-part)
_LETTERS = {
    "t": (0, 1, -1j),
    "tb": (0, 1, 1j),
    "z": (2, 3, -1j),
    "zb": (2, 3, 1j),
}


def _real_partial(func, point, orders, h):
    total = 0j
    stencils = [_STENCILS[o] for o in orders]
    for offs in itertools.product(*[s.items() for s in stencils]):
        coeff = 1.0
        q = list(point)
        for axis, (shift, w) in enumerate(offs):
            coeff *= w
            q[axis] += shift * h
        total += coeff * func(complex(q[0], q[1]), complex(q[2], q[3]))
    return total / h ** sum(orders)


def wirtinger_partial(func, tau, z, letters, h):
    """Mixed Wirtinger partial of func(tau, z); letters like ("t", "zb", "zb")."""
    point = (tau.real, tau.imag, z.real, z.imag)
    terms = [((), 1.0 + 0j)]
    for name in letters:
        re_i, im_i, sgn = _LETTERS[name]
        terms = [t for mi, c in terms
                 for t in ((mi + (re_i,), 0.5 * c), (mi + (im_i,), 0.5 * c * sgn))]
    acc = {}
    for mi, c in terms:
        orders = [0, 0, 0, 0]
        for i in mi:
            orders[i] += 1
        key = tuple(orders)
        acc[key] = acc.get(key, 0) + c
    return sum(c * _real_partial(func, point, o, h) for o, c in acc.items())


def _check_step(h: float, tau: complex, reach: int) -> None:
    """The step rule of the finite differences: h in (0, inf), and a stencil
    that reaches ``reach`` steps from tau stays in the upper half plane."""
    if not 0 < h < math.inf:
        raise DomainError(f"step h must be positive and finite, got {h!r}")
    if tau.imag <= reach * h:
        raise DomainError("step too large relative to Im(tau)")


def laplace_beltrami_half(func, k: int, tau: complex, h: float = 1e-3) -> complex:
    """y^2 (f_xx + f_yy) - i (k - 1/2) y f_x by central differences."""
    _check_step(h, tau, 4)
    point = (tau.real, tau.imag, 0.0, 0.0)
    f2 = lambda t, _z: func(t)
    fxx = _real_partial(f2, point, (2, 0, 0, 0), h)
    fyy = _real_partial(f2, point, (0, 2, 0, 0), h)
    fx = _real_partial(f2, point, (1, 0, 0, 0), h)
    y = tau.imag
    return y * y * (fxx + fyy) - 1j * (k - 0.5) * y * fx


def casimir_km(func, k: int, m: int, tau: complex, z: complex, h: float = 1e-3) -> complex:
    """The third-order invariant operator of weight (k, m) on H x C.

    The F_{z zbar} coefficient is (k-1)(tau - taubar)/(4 pi i m).  The
    alternative coefficient k (see casimir_km_k_variant) fails the defining
    invariance under the lower-triangular and shift generators; a symbolic
    Lie-algebra solve over the 13-term ansatz isolates (k-1) as the unique
    invariant choice, all other coefficients being forced as written here.
    """
    if m <= 0:
        raise DomainError("index m must be positive")
    _check_step(h, tau, 8)
    d = lambda *letters: wirtinger_partial(func, tau, z, letters, h)
    tt = tau - np.conj(tau)
    zz = z - np.conj(z)
    c4 = 1 / (4j * np.pi * m)
    c8 = 1 / (8j * np.pi * m)
    return ((5 / 8) * func(tau, z)
            - 2 * tt ** 2 * d("t", "tb")
            - (k - 1) * tt * d("tb")
            - k * tt * d("t")
            + k * tt * c8 * d("z", "z")
            + tt ** 2 * c4 * d("tb", "z", "z")
            + (k - 1) * tt * c4 * d("z", "zb")
            + tt * zz * c4 * d("z", "z", "zb")
            - 2 * tt * zz * d("t", "zb")
            + tt ** 2 * c4 * d("t", "zb", "zb")
            + (zz ** 2 / 2 + k * tt * c8) * d("zb", "zb")
            + tt * zz * c4 * d("z", "zb", "zb"))


def casimir_km_k_variant(func, k: int, m: int, tau: complex, z: complex,
                         h: float = 1e-3) -> complex:
    """Variant with coefficient k on F_{z zbar}; a regression witness that
    this choice breaks the invariance property."""
    base = casimir_km(func, k, m, tau, z, h)
    corr = (tau - np.conj(tau)) / (4j * np.pi * m) * wirtinger_partial(func, tau, z, ("z", "zb"), h)
    return base + corr


def multiplicity(taus, m: int, n: int) -> int:
    """prod over 1 <= i < j <= m of (1 + (tau_i - tau_j)/(j - i)), exact.

    ``taus`` is the non-increasing non-negative integer vector of length
    s = min(m, n); entries beyond s are zero.  The product is the classical
    weight-multiplicity and must come out a positive integer.
    """
    m, n = _integer("m", m, 1), _integer("n", n, 1)
    s = min(m, n)
    taus = [_integer("tau entry", t, 0) for t in taus]
    if len(taus) > s:
        if any(t != 0 for t in taus[s:]):
            raise DomainError(f"tau entries beyond s = {s} must be zero")
        taus = taus[:s]
    if any(taus[i] < taus[i + 1] for i in range(len(taus) - 1)):
        raise DomainError("tau entries must be non-increasing")
    full = taus + [0] * (m - len(taus))
    prod = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            prod *= 1 + Fraction(full[i] - full[j], j - i)
    if prod.denominator != 1 or prod <= 0:
        raise InvariantViolation(f"multiplicity {prod} is not a positive integer")
    return int(prod)


# --- sample smooth functions for CLI/driver use -----------------------------


def sample_function(name: str):
    """Named smooth test functions (tau, z) -> C with generic derivatives."""
    if name == "poly-exp":
        return lambda tau, z: (tau.imag ** 1.3) * np.exp(
            0.31j * tau - 0.17j * np.conj(tau)
            + (0.21 + 0.11j) * z + 0.13 * np.conj(z) + 0.05 * z * z)
    if name == "gaussian-y":
        return lambda tau, z: np.exp(-0.5 * (tau.imag - 1.2) ** 2
                                     + 0.4j * tau.real + 0.3 * z - 0.2 * np.conj(z))
    if name == "constant":
        return lambda tau, z: 1.0 + 0j
    raise DomainError(f"unknown sample function {name!r}")
