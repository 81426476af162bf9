"""Lagrangian subspaces, Maslov triple/chain indices and metaplectic cocycles.

A Lagrangian is stored as a full-rank 2N x N basis matrix whose columns span
an isotropic subspace for B(v, w) = v^T J w.  The symplectic group acts on
column spans from the left.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation
from .groups import (SymplecticElement, _block, _eye, _sl2_entries, _word_products,
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


def _indices(triples) -> list[int]:
    """The Maslov indices of k triples of 2N x N bases of one N, given as a
    sequence of (x1, x2, x3) or as one (k, 3, 2N, N) array, from one
    ``_maslov_stack`` call, the package's one entry into that kernel; no
    triples give no indices."""
    if not len(triples):
        return []
    xs = np.asarray(triples)
    return _maslov_stack(xs[:, 0], xs[:, 1], xs[:, 2]).tolist()


def maslov3(l1: Lagrangian, l2: Lagrangian, l3: Lagrangian) -> int:
    """Triple Maslov index tau(l1, l2, l3): the one-triple case of ``_indices``."""
    return _indices([tuple(_bases((l1, l2, l3)))])[0]


def _chain_triples(xs) -> list:
    """The k - 2 triples (x1, x_j, x_{j+1}), j = 2..k-1, of the chain x1..xk,
    whose indices sum to the chain index."""
    return [(xs[0], xs[j], xs[j + 1]) for j in range(1, len(xs) - 1)]


def maslov_chain(ls) -> int:
    """Telescoped index tau(l1,...,lk) = sum_j tau(l1, l_j, l_{j+1}), k >= 3,
    with its k - 2 triples (``_chain_triples``) in one ``_indices`` call."""
    ls = list(ls)
    if len(ls) < 3:
        raise DomainError("chain needs at least three Lagrangians")
    return sum(_indices(_chain_triples(_bases(ls))))


def _tau_bases(basis: np.ndarray, g1: np.ndarray, g2: np.ndarray):
    """The triple (L, g1 L, g1 g2 L) of tau_L(g1, g2) as plain basis arrays,
    from the plain matrices g1 and g2."""
    return basis, g1 @ basis, (g1 @ g2) @ basis


def tau_ell(l: Lagrangian, g1: SymplecticElement, g2: SymplecticElement) -> int:
    """tau_l(g1, g2) = tau(l, g1 l, g1 g2 l), the one-triple case of ``_indices``.

    The images are plain bases (``_tau_bases``), not checked ``Lagrangian``s:
    the image of a checked Lagrangian under a checked symplectic element is
    Lagrangian up to rounding.
    """
    return _indices([_tau_bases(l.basis, g1.g, g2.g)])[0]


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
    parameters at scale 0.6, built valid in ``_letter``'s output form, which
    that check would return bit for bit: a t letter 0.5 (b + b^T) is exactly
    symmetric, and a g candidate alpha = I + 0.6 N(0, 1), redrawn while
    |det alpha| < 0.3 (``_letter`` refuses below 1e-12), is (alpha, det alpha).
    Every candidate adds its noise to the one shared identity of ``_eye``.

    Letter by letter, one ``Generator`` call per step.  The suites draw their
    words in batches (``_draw_words``), from the same distribution in another
    order; ``random_symplectic`` and ``random_lagrangian`` keep this stream,
    because the seeded property tests are defined on it: on the batch
    stream, those tests would get other inputs, some of them past the float
    range.
    """
    word = []
    eye = _eye(n)
    for _ in range(rng.integers(1, 5)):
        kind = ("t", "g", "sigma")[rng.integers(3)]
        if kind == "t":
            b = rng.normal(size=(n, n)) * 0.6
            word.append(("t", 0.5 * (b + b.T)))
        elif kind == "g":
            while True:
                al = eye + 0.6 * rng.normal(size=(n, n))
                det = np.linalg.det(al)
                if abs(det) >= 0.3:
                    break
            word.append(("g", (al, det)))
        else:
            word.append(("sigma", None))
    return word


def _draw_words(rng: np.random.Generator, n: int, k: int) -> list:
    """k random words from ``_draw_word``'s distribution, its letters in
    the same form and with the same bits, drawn in a few numpy passes:

    1. the k lengths, ``rng.integers(1, 5, size=k)``;
    2. the kinds of all the letters, word after word, ``rng.integers(3,
       size=total)``, 0 for t, 1 for g and 2 for sigma;
    3. every t parameter, in letter order, as one block 0.6 N of shape
       (t letters, n, n), each letter 0.5 (b + b^T);
    4. every g candidate, in letter order, as one block I + 0.6 N with one
       stacked ``np.linalg.det`` (the single-matrix det's bits);
    5. redraw rounds: each round redraws every candidate with |det| < 0.3,
       in letter order, from one ``normal`` call, until none is left.
    """
    lengths = rng.integers(1, 5, size=k)
    kinds = rng.integers(3, size=int(lengths.sum()))
    ts, gs = np.flatnonzero(kinds == 0), np.flatnonzero(kinds == 1)
    b = 0.6 * rng.normal(size=(len(ts), n, n))
    b = 0.5 * (b + b.swapaxes(1, 2))
    eye = _eye(n)
    al = eye + 0.6 * rng.normal(size=(len(gs), n, n))
    det = np.linalg.det(al)
    redraw = np.flatnonzero(abs(det) < 0.3)
    while redraw.size:
        al[redraw] = eye + 0.6 * rng.normal(size=(redraw.size, n, n))
        det[redraw] = np.linalg.det(al[redraw])
        redraw = redraw[abs(det[redraw]) < 0.3]
    letters = [("sigma", None)] * len(kinds)
    for x, par in zip(ts.tolist(), b):
        letters[x] = ("t", par)
    for x, a, d in zip(gs.tolist(), al, det):
        letters[x] = ("g", (a, d))
    ends = itertools.accumulate(lengths.tolist())
    return [letters[end - length:end] for end, length in zip(ends, lengths.tolist())]


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
