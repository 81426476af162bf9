"""Lagrangian subspaces, Maslov triple/chain indices and metaplectic cocycles.

A Lagrangian is stored as a full-rank 2N x N basis matrix whose columns span
an isotropic subspace for B(v, w) = v^T J w.  The symplectic group acts on
column spans from the left.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation
from .groups import (SymplecticElement, _block, _sl2_entries, symplectic_form,
                     word_to_symplectic)
from .linalg import signature

ISO_TOL = 1e-10


@dataclass(frozen=True)
class Lagrangian:
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != 2 * b.shape[1]:
            raise DomainError(f"basis must be 2N x N, got {b.shape}")
        nn = b.shape[1]
        sv = np.linalg.svd(b, compute_uv=False)
        if sv[-1] <= 1e-9 * sv[0]:
            raise InvariantViolation("basis is rank deficient")
        j = symplectic_form(nn)
        iso = b.T @ j @ b
        if np.abs(iso).max() > ISO_TOL * max(1.0, sv[0] ** 2):
            raise InvariantViolation("subspace is not isotropic")
        object.__setattr__(self, "basis", b)

    @property
    def half_dim(self) -> int:
        return self.basis.shape[1]

    def transformed(self, g: SymplecticElement) -> "Lagrangian":
        return Lagrangian(g.g @ self.basis)


def coordinate_lagrangian(n: int) -> Lagrangian:
    """Span of the first coordinate block: the lambda-axis {(x, 0)}."""
    return Lagrangian(np.vstack([np.eye(n), np.zeros((n, n))]))


def momentum_lagrangian(n: int) -> Lagrangian:
    """Span of the second coordinate block: {(0, y)}."""
    return Lagrangian(np.vstack([np.zeros((n, n)), np.eye(n)]))


def intersection_dim(l1: Lagrangian, l2: Lagrangian) -> int:
    """dim(l1 ∩ l2) = 2N - rank([X1 | X2]) with a scaled singular-value cut."""
    if l1.half_dim != l2.half_dim:
        raise DomainError("dimension mismatch")
    cat = np.hstack([l1.basis, l2.basis])
    sv = np.linalg.svd(cat, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    return 2 * l1.half_dim - rank


def maslov3(l1: Lagrangian, l2: Lagrangian, l3: Lagrangian) -> int:
    """Triple Maslov index: signature of Q(x1+x2+x3) = B(x1,x2)+B(x2,x3)+B(x3,x1).

    The form is assembled on the 3N-dimensional direct sum of the basis
    coordinate spaces without quotienting out the radical; the signature is
    insensitive to it.
    """
    nn = l1.half_dim
    if not (l2.half_dim == nn and l3.half_dim == nn):
        raise DomainError("dimension mismatch")
    j = symplectic_form(nn)
    g12 = l1.basis.T @ j @ l2.basis
    g23 = l2.basis.T @ j @ l3.basis
    g31 = l3.basis.T @ j @ l1.basis
    gram = 0.5 * _block([[None, g12, g31.T], [g12.T, None, g23], [g31, g23.T, None]], nn)
    return signature(gram).net


def maslov_chain(ls) -> int:
    """Telescoped index tau(l1,...,lk) = sum_j tau(l1, l_j, l_{j+1}), k >= 3."""
    ls = list(ls)
    if len(ls) < 3:
        raise DomainError("chain needs at least three Lagrangians")
    return sum(maslov3(ls[0], ls[j], ls[j + 1]) for j in range(1, len(ls) - 1))


def tau_ell(l: Lagrangian, g1: SymplecticElement, g2: SymplecticElement) -> int:
    """tau_l(g1, g2) = tau(l, g1 l, g1 g2 l)."""
    return maslov3(l, l.transformed(g1), l.transformed(g1 @ g2))


def cocycle_clm(m: float, l: Lagrangian, g1: SymplecticElement, g2: SymplecticElement) -> complex:
    """Schrodinger-representation cocycle exp(-i pi m tau(l, g1 l, g1 g2 l) / 4)."""
    return cmath.exp(-1j * math.pi * m * tau_ell(l, g1, g2) / 4)


def cocycle_sl2(m1, m2, n: int = 1) -> complex:
    """SL(2) cocycle exp(-i pi n sign(c1 c2 c3)/4), lower-left entries c_i.

    sign(0) = 0, so the value is 1 whenever any of the three lower-left
    entries vanishes.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    c1, c2, c3 = _sl2_entries(m1)[2], _sl2_entries(m2)[2], (m1 @ m2)[1, 0]
    s = np.sign(c1) * np.sign(c2) * np.sign(c3)
    return cmath.exp(-1j * math.pi * n * s / 4)


def random_symplectic(rng: np.random.Generator, n: int) -> SymplecticElement:
    """Random word of 1 to 4 t/g/sigma generators with parameters at scale 0.6,
    multiplied out by ``word_to_symplectic``: exact group membership.
    """
    word = []
    for _ in range(rng.integers(1, 5)):
        kind = rng.choice(["t", "g", "sigma"])
        if kind == "t":
            b = rng.normal(size=(n, n)) * 0.6
            word.append(("t", 0.5 * (b + b.T)))
        elif kind == "g":
            al = np.eye(n) + 0.6 * rng.normal(size=(n, n))
            while abs(np.linalg.det(al)) < 0.3:
                al = np.eye(n) + 0.6 * rng.normal(size=(n, n))
            word.append(("g", al))
        else:
            word.append(("sigma", None))
    return word_to_symplectic(word, n)


def random_lagrangian(rng: np.random.Generator, n: int) -> Lagrangian:
    """Random symplectic image of the coordinate Lagrangian (isotropy exact)."""
    return coordinate_lagrangian(n).transformed(random_symplectic(rng, n))
