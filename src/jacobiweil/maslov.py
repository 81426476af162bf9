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
from .groups import (SymplecticElement, _block, _letter, _sl2_entries, _word_products,
                     symplectic_form)
from .linalg import _inertia

ISO_TOL = 1e-10


def _require_lagrangian(b: np.ndarray) -> None:
    """Check one 2N x N basis, or each basis of a stack (k, 2N, N), as
    ``Lagrangian`` checks its one basis: finite entries, full rank (least
    singular value above 1e-9 times the largest), and isotropy b^T J b = 0
    within ISO_TOL * max(1, largest singular value^2).

    Raises the error of the first basis that fails, for the first check it
    fails.  The isotropy threshold is at least ISO_TOL, so when a stack is
    finite, of full rank and isotropic within ISO_TOL, one stacked SVD and
    one reduction per check decide.  One basis, and a stack that this does
    not decide, are checked one basis at a time, in order.
    """
    nn = b.shape[-1]
    j = symplectic_form(nn)
    if b.ndim == 3 and abs(b).max() < math.inf:
        sv = np.linalg.svd(b, compute_uv=False)
        if ((sv[:, -1] > 1e-9 * sv[:, 0]).all()
                and abs(b.swapaxes(1, 2) @ j @ b).max() <= ISO_TOL):
            return
    for x in (b,) if b.ndim == 2 else b:
        if not abs(x).max() < math.inf:
            # a NaN entry makes the maximum NaN, which the checks below would pass
            raise DomainError("Lagrangian basis must have finite entries")
        sv = np.linalg.svd(x, compute_uv=False)
        if sv[-1] <= 1e-9 * sv[0]:
            raise InvariantViolation("basis is rank deficient")
        if abs(x.T @ j @ x).max() > ISO_TOL * max(1.0, sv[0] ** 2):
            raise InvariantViolation("subspace is not isotropic")


@dataclass(frozen=True)
class Lagrangian:
    """A checked Lagrangian: a finite, full-rank, isotropic 2N x N basis, N >= 1,
    checked by ``_require_lagrangian`` (its one-basis case).

    The checks run once, on every Lagrangian that is kept.  The Maslov
    functions below form images g L as plain basis arrays and build no
    ``Lagrangian`` for them.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != 2 * b.shape[1] or not b.size:
            raise DomainError(f"basis must be 2N x N with N >= 1, got {b.shape}")
        _require_lagrangian(b)
        object.__setattr__(self, "basis", b)

    @property
    def half_dim(self) -> int:
        return self.basis.shape[1]

    def transformed(self, g: SymplecticElement) -> "Lagrangian":
        """The image g L, checked like every ``Lagrangian``."""
        return Lagrangian(g.g @ self.basis)


def _coordinate_basis(n: int) -> np.ndarray:
    return np.vstack([np.eye(n), np.zeros((n, n))])


def coordinate_lagrangian(n: int) -> Lagrangian:
    """Span of the first coordinate block: the lambda-axis {(x, 0)}."""
    return Lagrangian(_coordinate_basis(n))


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


def _maslov_stack(x1, x2, x3) -> np.ndarray:
    """Triple Maslov indices of k triples in one numpy pass.

    ``x1``, ``x2`` and ``x3`` are stacks of k 2N x N bases of one N, each of
    shape (k, 2N, N).  Index i is the signature
    of Q(x1+x2+x3) = B(x1,x2)+B(x2,x3)+B(x3,x1) on triple i, assembled on the
    3N-dimensional direct sum of the basis coordinate spaces without
    quotienting out the radical; the signature is insensitive to it.  The
    three cross Grams are stacked matmuls and each Gram is 0.5 times the
    block matrix [[0, G12, G31^T], [G12^T, 0, G23], [G31, G23^T, 0]], filled
    by slices (``_block``); ``_inertia`` then makes one ``eigvalsh`` call for all k.
    Returns the k net indices as an integer array.
    """
    nn = x2.shape[-1]
    j = symplectic_form(nn)
    g12 = x1.swapaxes(-1, -2) @ j @ x2
    g23 = x2.swapaxes(-1, -2) @ j @ x3
    g31 = x3.swapaxes(-1, -2) @ j @ x1
    g21, g32, g13 = (g.swapaxes(-1, -2) for g in (g12, g23, g31))
    gram = _block([[None, g12, g13], [g21, None, g23], [g31, g32, None]], nn)
    pos, neg = _inertia(0.5 * gram)
    return pos - neg


def _bases(ls) -> np.ndarray:
    """The bases of Lagrangians of one dimension, as one (k, 2N, N) stack."""
    if len({l.half_dim for l in ls}) > 1:
        raise DomainError("dimension mismatch")
    return np.stack([l.basis for l in ls])


def maslov3(l1: Lagrangian, l2: Lagrangian, l3: Lagrangian) -> int:
    """Triple Maslov index tau(l1, l2, l3): the one-triple case of ``_maslov_stack``."""
    x = _bases((l1, l2, l3))
    return int(_maslov_stack(x[0:1], x[1:2], x[2:3])[0])


def _chain_triples(xs) -> list:
    """The k - 2 triples (x1, x_j, x_{j+1}), j = 2..k-1, of the chain x1..xk,
    whose indices sum to the chain index."""
    return [(xs[0], xs[j], xs[j + 1]) for j in range(1, len(xs) - 1)]


def maslov_chain(ls) -> int:
    """Telescoped index tau(l1,...,lk) = sum_j tau(l1, l_j, l_{j+1}), k >= 3,
    with its k - 2 triples (``_chain_triples``) in one ``_maslov_stack`` call."""
    ls = list(ls)
    if len(ls) < 3:
        raise DomainError("chain needs at least three Lagrangians")
    x1, x2, x3 = (np.array(xs) for xs in zip(*_chain_triples(_bases(ls))))
    return int(_maslov_stack(x1, x2, x3).sum())


def _tau_bases(basis: np.ndarray, g1: np.ndarray, g2: np.ndarray):
    """The triple (L, g1 L, g1 g2 L) of tau_L(g1, g2) as plain basis arrays,
    from the plain matrices g1 and g2."""
    return basis, g1 @ basis, (g1 @ g2) @ basis


def tau_ell(l: Lagrangian, g1: SymplecticElement, g2: SymplecticElement) -> int:
    """tau_l(g1, g2) = tau(l, g1 l, g1 g2 l).

    The images are plain bases (``_tau_bases``), not checked ``Lagrangian``s:
    the image of a checked Lagrangian under a checked symplectic element is
    Lagrangian up to rounding.
    """
    x1, x2, x3 = (x[None] for x in _tau_bases(l.basis, g1.g, g2.g))
    return int(_maslov_stack(x1, x2, x3)[0])


def cocycle_clm(m: float, l: Lagrangian, g1: SymplecticElement, g2: SymplecticElement) -> complex:
    """Schrodinger-representation cocycle exp(-i pi m tau(l, g1 l, g1 g2 l) / 4)."""
    return _cocycle_phase(m, tau_ell(l, g1, g2))


def _cocycle_phase(m: float, tau: int) -> complex:
    """The cocycle value exp(-i pi m tau / 4) of a Maslov index tau."""
    return cmath.exp(-1j * math.pi * m * tau / 4)


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


def _draw_word(rng: np.random.Generator, n: int) -> list:
    """The letters of a random word of 1 to 4 t/g/sigma generators with
    parameters at scale 0.6, each checked by ``_letter`` as it is drawn.

    A g candidate alpha = I + 0.6 N(0, 1) is redrawn while |det alpha| < 0.3,
    reading the determinant that ``_letter`` returns; a candidate that
    ``_letter`` refuses (|det alpha| < 1e-12) is redrawn too, as the 0.3 rule
    would redraw it, so the draws from ``rng`` do not depend on that check.
    """
    word = []
    for _ in range(rng.integers(1, 5)):
        kind = ("t", "g", "sigma")[rng.integers(3)]
        if kind == "t":
            b = rng.normal(size=(n, n)) * 0.6
            word.append(("t", _letter("t", 0.5 * (b + b.T), n)))
        elif kind == "g":
            while True:
                al = np.eye(n) + 0.6 * rng.normal(size=(n, n))
                try:
                    par = _letter("g", al, n)
                except DomainError:
                    continue
                if abs(par[1]) >= 0.3:
                    break
            word.append(("g", par))
        else:
            word.append(("sigma", None))
    return word


def random_symplectic(rng: np.random.Generator, n: int) -> SymplecticElement:
    """The product of one random word (``_draw_word``), by ``_word_products``:
    exact group membership, checked as a ``SymplecticElement``."""
    return SymplecticElement(_word_products([_draw_word(rng, n)], n)[0])


def random_lagrangian(rng: np.random.Generator, n: int) -> Lagrangian:
    """Random symplectic image of the coordinate Lagrangian (isotropy exact).

    The product of one random word is checked as a ``SymplecticElement``,
    and its image of the plain coordinate basis as the returned
    ``Lagrangian``, the only one built.
    """
    return Lagrangian(random_symplectic(rng, n).g @ _coordinate_basis(n))
