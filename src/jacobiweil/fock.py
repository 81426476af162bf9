"""Fock-model Heisenberg action on polynomials with an exponential prefactor.

States are p(Z) * exp(tr(L Z^T)) * scalar with p a polynomial in the entries
of Z in C^(m,n) of total degree <= degree_cap.  The Heisenberg operator
(U(h) f)(Z) = J_M(h^{-1}, (Omega, Z))^{-1} f(Z - lam Omega - mu)
keeps the family closed: the factor is exp(affine-in-Z) and the shift is a
polynomial shift.  Unlike the projective Weil layer this is a true
representation of the Heisenberg group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _integer
from .groups import HeisenbergElement
from .linalg import _siegel_omega
from .states import index_matrix

DEGREE_CAP = 8


@dataclass(frozen=True)
class FockState:
    """scalar * exp(tr(L Z^T)) * sum_k coeffs[k] Z^k (multi-index k over entries)."""

    shape: tuple
    coeffs: dict = field(default_factory=dict)
    lin: np.ndarray | None = None
    scalar: complex = 1.0

    def __post_init__(self):
        m, n = self.shape
        lin = np.zeros((m, n), dtype=complex) if self.lin is None else np.asarray(self.lin, dtype=complex)
        if lin.shape != (m, n):
            raise DomainError("linear exponent must match the state shape")
        clean = {}
        for k, v in self.coeffs.items():
            k = tuple(_integer("multi-index entry", i, 0) for i in k)
            if len(k) != m * n:
                raise DomainError("multi-index must have one entry per Z coordinate")
            if sum(k) > DEGREE_CAP:
                raise DomainError(f"total degree {sum(k)} exceeds cap {DEGREE_CAP}")
            if v != 0:
                clean[k] = complex(v)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "scalar", complex(self.scalar))


def monomial(shape, k, coeff=1.0) -> FockState:
    return FockState(shape, {tuple(k): coeff})


def fock_evaluate(state: FockState, z) -> complex:
    z = np.asarray(z, dtype=complex)
    if z.shape != state.shape:
        raise DomainError("evaluation point must match the state shape")
    flat = z.ravel()
    poly = sum(v * np.prod(flat ** np.array(k)) for k, v in state.coeffs.items())
    return state.scalar * np.exp(np.trace(state.lin @ z.T)) * complex(poly)


def _shifted_coeffs(coeffs, shift):
    """Expand p(Z + s) coefficientwise (binomial per coordinate)."""
    from math import comb

    out = {}
    for k, v in coeffs.items():
        ranges = [range(ki + 1) for ki in k]
        for j in itertools.product(*ranges):
            w = v
            for ki, ji, si in zip(k, j, shift):
                w *= comb(ki, ji) * si ** (ki - ji)
            out[j] = out.get(j, 0) + w
    return {k: v for k, v in out.items() if v != 0}


def fock_apply(m_index, omega, h: HeisenbergElement, f: FockState) -> FockState:
    """(U(h) f)(Z) = J_M(h^{-1}, (Omega, Z))^{-1} f(Z - lam Omega - mu).

    For Heisenberg h the factor reduces to
    exp(2 pi i tr(M(lam Omega lam^T - 2 lam Z^T - kappa + mu lam^T))),
    an exponential of an affine function of Z.
    """
    mm = index_matrix(m_index)
    omega = _siegel_omega(omega)
    m, n = f.shape
    if h.shape != (m, n) or omega.shape != (n, n):
        raise DomainError("dimension mismatch")
    lam, mu, kap = h.lam, h.mu, h.kappa
    const = np.exp(2j * np.pi * np.trace(mm @ (lam @ omega @ lam.T - kap + mu @ lam.T)))
    # exp(-4 pi i tr(M lam Z^T)) joins the linear exponent
    lin2 = f.lin - 4j * np.pi * (mm @ lam)
    shift = -(lam @ omega + mu)
    # exp(tr(L (Z + shift)^T)) = exp(tr(L shift^T)) exp(tr(L Z^T))
    const2 = np.exp(np.trace(f.lin @ shift.T))
    coeffs = _shifted_coeffs(f.coeffs, shift.ravel())
    return FockState((m, n), coeffs, lin2, f.scalar * const * const2)
