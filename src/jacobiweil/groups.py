"""Symplectic, Heisenberg and Jacobi group elements and their actions.

Conventions (fixed package-wide):

* ``Sp(n, R) = {g : g^T J g = J}`` with ``J = [[0, I], [-I, 0]]``.
* Heisenberg elements ``(lam, mu; kappa)`` with ``lam, mu`` real (m, n)
  matrices and ``kappa`` real (m, m); constraint: ``kappa + mu lam^T``
  symmetric.
* Jacobi elements are pairs ``(g, h)`` multiplying by the semidirect law in
  which the symplectic part acts on Heisenberg rows from the right:
  ``(g, h)(g', h')`` has translation part ``(lam, mu) g'`` composed with
  ``h'``.  The pair ``(g, h)`` equals the product ``g * h`` in the group.
* The action on the Siegel-Jacobi space sends ``(Omega, Z)`` to
  ``(g.Omega, (Z + lam Omega + mu)(C Omega + D)^{-1})``.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvariantViolation
from .linalg import _require_siegel_pair, _siegel_omega, complex_sym, real_sym

SP_TOL = 1e-10
HEIS_TOL = 1e-10


_FORMS: dict[int, np.ndarray] = {}


def symplectic_form(n: int) -> np.ndarray:
    """``J = [[0, I], [-I, 0]]``: one shared, read-only array per n, built on first use."""
    j = _FORMS.get(n)
    if j is None:
        i = np.eye(n)
        j = _block([[None, i], [-i, None]], n)
        j.flags.writeable = False
        _FORMS[n] = j
    return j


@functools.cache
def _eye(n: int) -> np.ndarray:
    """The n x n identity: one shared, read-only array per n, built on first use."""
    i = np.eye(n)
    i.flags.writeable = False
    return i


def _block(rows, n: int) -> np.ndarray:
    """The block matrix of a square grid of n x n float blocks, ``None`` a zero block;
    for blocks that are stacks (..., n, n) of one leading shape, the stack of
    block matrices.

    Filled by slices into one preallocated array: the entries, signed zeros
    included, equal those of numpy's ``block``, without its generic shape
    handling, which dominated the cost of these small matrices.
    """
    lead = next(blk for row in rows for blk in row if blk is not None).shape[:-2]
    out = np.zeros(lead + (len(rows) * n, len(rows) * n))
    for r, row in enumerate(rows):
        for c, blk in enumerate(row):
            if blk is not None:
                out[..., r * n:(r + 1) * n, c * n:(c + 1) * n] = blk
    return out


def _require_symplectic(g: np.ndarray) -> None:
    """Check one 2n x 2n matrix, or each matrix of a stack (k, 2n, 2n),
    with scale = max(1, max|g|) per matrix: finite entries, g^T J g = J within
    SP_TOL * scale^2, and det g = 1 within 1e-8 * scale^(2n).

    Raises the error of the first matrix that fails, for the first check it
    fails.  Each threshold is at least its bare tolerance, so when a stack
    is finite and its largest defects are within those, one stacked
    reduction per check decides.  One matrix, and a stack that this does not
    decide, are checked one matrix at a time, in order.
    """
    n = g.shape[-1] // 2
    j = symplectic_form(n)
    if g.ndim == 3 and abs(g).max() < math.inf:
        form = abs(g.swapaxes(1, 2) @ j @ g - j).max()
        if form <= SP_TOL and abs(np.linalg.det(g) - 1.0).max() <= 1e-8:
            return
    for x in (g,) if g.ndim == 2 else g:
        top = abs(x).max()
        if not top < math.inf:
            # a NaN entry makes top NaN; every comparison with NaN is false,
            # so the checks below would pass it
            raise DomainError("symplectic matrix must have finite entries")
        # max(1, x)**k equals max(1, x**k), so one scale serves both thresholds
        scale = max(1.0, top)
        if abs(x.T @ j @ x - j).max() > SP_TOL * scale ** 2:
            raise InvariantViolation("matrix is not symplectic within tolerance")
        if abs(np.linalg.det(x) - 1.0) > 1e-8 * scale ** (2 * n):
            raise InvariantViolation("symplectic matrix must have determinant 1")


@dataclass(frozen=True)
class SymplecticElement:
    """A real 2n x 2n symplectic matrix, checked by ``_require_symplectic`` (its
    one-matrix case); block views are computed, not stored."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2:
            raise DomainError(f"symplectic matrix must be 2n x 2n, got {g.shape}")
        _require_symplectic(g)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.g.shape[0] // 2

    @property
    def blocks(self):
        n = self.n
        g = self.g
        return g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]

    def __matmul__(self, other: "SymplecticElement") -> "SymplecticElement":
        return SymplecticElement(self.g @ other.g)

    def inv(self) -> "SymplecticElement":
        # g^{-1} = J^T g^T J, exact up to rounding
        n = self.n
        j = symplectic_form(n)
        return SymplecticElement(j.T @ self.g.T @ j)


def sp_identity(n: int) -> SymplecticElement:
    return SymplecticElement(np.eye(2 * n))


def sp_generator(kind: str, parameter=None, n: int | None = None) -> SymplecticElement:
    """The standard generators of Sp(n, R).

    ``t(b)`` = [[I, b], [0, I]] for symmetric b; ``g(alpha)`` =
    [[alpha^T, 0], [0, alpha^{-1}]] for invertible alpha; ``sigma`` =
    [[0, -I], [I, 0]].  With n given, b or alpha must be n x n.  The letter is
    checked by ``_letter`` and its matrix built by ``_letter_matrices``; without
    n, the parameter's size gives it.
    """
    par = _letter(kind, parameter, n)
    if n is None:
        n = len(par if kind == "t" else par[0])
    return SymplecticElement(_letter_matrices([(kind, par)], n)[0])


def _letter(kind: str, parameter, n: int | None):
    """The checked parameter of a generator letter, for its matrix and its Weil
    operator alike: the symmetrized b of ``"t"`` (``real_sym``), ``(alpha, det
    alpha)`` for a square ``"g"`` with |det alpha| >= 1e-12, or None for
    ``"sigma"``, which takes no parameter (None, JSON null) and needs n.  b
    and alpha must have finite entries, checked before any arithmetic on
    them.  With n given, b or alpha must be n x n."""
    if kind == "sigma":
        if parameter is not None:
            raise DomainError("sigma generator takes no parameter")
        if n is None:
            raise DomainError("sigma generator needs the dimension n")
        return None
    if kind not in ("t", "g"):
        raise DomainError(f"unknown generator kind {kind!r}")
    par = np.asarray(parameter, dtype=float)
    if not np.isfinite(par).all():
        raise DomainError(f"{'b' if kind == 't' else 'alpha'} must have finite entries")
    if kind == "t":
        par = real_sym(par)
    else:
        if par.ndim != 2 or par.shape[0] != par.shape[1]:
            raise DomainError("alpha must be square")
        det = np.linalg.det(par)
        if abs(det) < 1e-12:
            raise DomainError("alpha must be invertible")
    if n is not None and par.shape[0] != n:
        raise DomainError(f"generator parameter must be {n} x {n}, got shape {par.shape}")
    return par if kind == "t" else (par, det)


_LETTER_KINDS = {"t": 0, "g": 1, "sigma": 2}


@functools.cache
def _letter_fixed(n: int) -> np.ndarray:
    """The parameter-free part of each letter kind's matrix, as one shared,
    read-only (3, 2n, 2n) stack in ``_LETTER_KINDS`` order: I for t (b goes
    into its top-right block), zero for g (its diagonal blocks are the
    parameter's) and sigma itself."""
    i = _eye(n)
    fixed = np.zeros((3, 2 * n, 2 * n))
    fixed[0, :n, :n] = fixed[0, n:, n:] = i
    fixed[2, :n, n:] = -i
    fixed[2, n:, :n] = i
    fixed.flags.writeable = False
    return fixed


def _letter_matrices(letters, n: int) -> np.ndarray:
    """The matrices of letters (kind, parameter) in ``_letter``'s output form,
    as one (k, 2n, 2n) stack: ``t(b)`` = [[I, b], [0, I]], ``g(alpha)`` =
    [[alpha^T, 0], [0, alpha^{-1}]] and ``sigma`` = [[0, -I], [I, 0]].

    Each letter's fixed part comes from one ``take`` (``_letter_fixed``), so
    only b and alpha^T are written letter by letter; the inverses of all the
    g letters come from one stacked ``inv``.
    """
    out = _letter_fixed(n).take([_LETTER_KINDS[kind] for kind, _ in letters], axis=0)
    gs = []
    for x, (kind, par) in enumerate(letters):
        if kind == "t":
            out[x, :n, n:] = par
        elif kind == "g":
            out[x, :n, :n] = par[0].T
            gs.append(x)
    if gs:
        out[gs, n:, n:] = np.linalg.inv(np.array([letters[x][1][0] for x in gs]))
    return out


def _word_products(words, n: int) -> np.ndarray:
    """The products, left to right, of k words whose letters are in ``_letter``'s
    output form (lists of (kind, parameter)), as one (k, 2n, 2n) stack.

    The words may differ in length, and an empty word gives I.  The letter
    matrices come from one ``_letter_matrices`` call; then letter p of every
    word that has one is multiplied in, over the stack, by one matmul
    (``g[rows] = g[rows] @ letters``, or the whole stack when every word has
    a letter p).  Each product has the bits of the one-word loop
    ``g = g @ letter`` from I.  The products are plain arrays: checking them
    is the caller's part.
    """
    lengths = [len(word) for word in words]
    mats = _letter_matrices([letter for word in words for letter in word], n)
    first = list(itertools.accumulate(lengths, initial=0))
    g = np.eye(2 * n)[None].repeat(len(words), axis=0)
    for p in range(max(lengths, default=0)):
        rows = [r for r, length in enumerate(lengths) if length > p]
        letters = mats.take([first[r] + p for r in rows], axis=0)
        if len(rows) == len(words):
            g = g @ letters
        else:
            g[rows] = g.take(rows, axis=0) @ letters
    return g


def word_to_symplectic(word, n: int) -> SymplecticElement:
    """Product of the generators in a word, left to right; the empty word gives I.

    The one-word case of ``_word_products``: each letter is checked against n
    by ``_letter``, the letters are multiplied as plain arrays, and only the
    product is checked, as a ``SymplecticElement``."""
    letters = [(kind, _letter(kind, par, n)) for kind, par in word]
    return SymplecticElement(_word_products([letters], n)[0])


@dataclass(frozen=True)
class HeisenbergElement:
    lam: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        if lam.shape != mu.shape or lam.ndim != 2:
            raise DomainError("lam and mu must be (m, n) matrices of equal shape")
        m = lam.shape[0]
        if kappa.shape != (m, m):
            raise DomainError(f"kappa must be ({m}, {m})")
        # checked before kappa + mu lam^T, which would turn inf into NaN with a warning
        if not all(np.isfinite(x).all() for x in (lam, mu, kappa)):
            raise DomainError("lam, mu and kappa must have finite entries")
        s = kappa + mu @ lam.T
        if np.max(np.abs(s - s.T), initial=0.0) > HEIS_TOL * max(1.0, np.max(np.abs(s), initial=0.0)):
            raise InvariantViolation("kappa + mu lam^T must be symmetric")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", kappa)

    @property
    def shape(self):
        return self.lam.shape

    def inv(self) -> "HeisenbergElement":
        lam, mu, kappa = self.lam, self.mu, self.kappa
        return HeisenbergElement(-lam, -mu, -kappa + lam @ mu.T - mu @ lam.T)


def heis_identity(m: int, n: int) -> HeisenbergElement:
    return HeisenbergElement(np.zeros((m, n)), np.zeros((m, n)), np.zeros((m, m)))


def heis_mul(h1: HeisenbergElement, h2: HeisenbergElement) -> HeisenbergElement:
    """(lam, mu; k)(lam', mu'; k') = (lam+lam', mu+mu'; k+k'+lam mu'^T - mu lam'^T)."""
    if h1.shape != h2.shape:
        raise DomainError("dimension mismatch")
    return HeisenbergElement(
        h1.lam + h2.lam,
        h1.mu + h2.mu,
        h1.kappa + h2.kappa + h1.lam @ h2.mu.T - h1.mu @ h2.lam.T,
    )


def heis_conjugate(g: SymplecticElement, h: HeisenbergElement) -> HeisenbergElement:
    """g h g^{-1}: rows (lam, mu) map to (lam, mu) g^{-1}, kappa unchanged."""
    n = g.n
    if h.shape[1] != n:
        raise DomainError("dimension mismatch")
    lm = np.hstack([h.lam, h.mu]) @ g.inv().g
    return HeisenbergElement(lm[:, :n], lm[:, n:], h.kappa)


@dataclass(frozen=True)
class JacobiElement:
    g: SymplecticElement
    h: HeisenbergElement

    def __post_init__(self):
        if self.h.shape[1] != self.g.n:
            raise DomainError("Heisenberg width must match symplectic dimension")

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def m(self) -> int:
        return self.h.shape[0]

    def inv(self) -> "JacobiElement":
        gi = self.g.inv()
        return JacobiElement(gi, heis_conjugate(self.g, self.h).inv())


def jacobi_identity(n: int, m: int) -> JacobiElement:
    return JacobiElement(sp_identity(n), heis_identity(m, n))


def jacobi_mul(a: JacobiElement, b: JacobiElement) -> JacobiElement:
    if a.n != b.n or a.m != b.m:
        raise DomainError("dimension mismatch")
    n = a.n
    lm = np.hstack([a.h.lam, a.h.mu]) @ b.g.g
    lt, mt = lm[:, :n], lm[:, n:]
    kappa = a.h.kappa + b.h.kappa + lt @ b.h.mu.T - mt @ b.h.lam.T
    return JacobiElement(a.g @ b.g, HeisenbergElement(lt + b.h.lam, mt + b.h.mu, kappa))


@dataclass(frozen=True)
class SiegelJacobiPoint:
    """A point (Omega, Z) with Omega in the Siegel upper half space, Omega
    complex symmetric n x n and Z complex (m, n), or a stack of k such points:
    Omega of shape (k, n, n) and Z of shape (k, m, n).  ``n`` and ``m`` come
    from the trailing axes.

    Omega and Z must have finite entries.  A stack is checked in one pass
    (``linalg._require_siegel_pair``, the check of a state's A and B too),
    and an error names its first bad point, counted from 0.  ``im_omega_min``
    is the least eigenvalue of Im Omega (an array of k for a stack), kept
    from that check.  ``theta_M`` accepts a stack; functions of one point
    refuse it (``_one_point``).
    """

    omega: np.ndarray
    z: np.ndarray
    im_omega_min: float | np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=complex)
        z = np.asarray(self.z, dtype=complex)
        if omega.ndim not in (2, 3) or omega.shape[-1] != omega.shape[-2]:
            raise DomainError(f"expected a square matrix, got shape {omega.shape}")
        if z.ndim != omega.ndim or z.shape[:-2] != omega.shape[:-2] or z.shape[-1] != omega.shape[-1]:
            raise DomainError("Z must be an (m, n) matrix matching Omega")
        omega, lam = _require_siegel_pair(omega, z, "Omega", "Omega and Z")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "im_omega_min", lam)

    @property
    def n(self) -> int:
        return self.omega.shape[-1]

    @property
    def m(self) -> int:
        return self.z.shape[-2]


def _one_point(p: SiegelJacobiPoint) -> SiegelJacobiPoint:
    """``p``; DomainError if it is a stack, which functions of one point refuse."""
    if p.omega.ndim != 2:
        raise DomainError(f"expected one point, got a stack of {len(p.omega)}")
    return p


def sp_act(g: SymplecticElement, omega) -> np.ndarray:
    """The fractional-linear action of Sp(n, R) on the Siegel upper half space."""
    return _sp_act(g, _siegel_omega(omega))


def _sp_act(g: SymplecticElement, omega: np.ndarray) -> np.ndarray:
    """``sp_act`` of an Omega already checked."""
    a, b, c, d = g.blocks
    return complex_sym((a @ omega + b) @ np.linalg.inv(c @ omega + d), defect_tol=1e-6)


def jacobi_act(elt: JacobiElement, p: SiegelJacobiPoint) -> SiegelJacobiPoint:
    _one_point(p)
    if elt.n != p.n or elt.m != p.m:
        raise DomainError("dimension mismatch")
    _, _, c, d = elt.g.blocks
    den = np.linalg.inv(c @ p.omega + d)
    z2 = (p.z + elt.h.lam @ p.omega + elt.h.mu) @ den
    return SiegelJacobiPoint(_sp_act(elt.g, p.omega), z2)


# ---------------------------------------------------------------------------
# SL(2, R): Iwasawa machinery and the embedding into Sp(n, R)


def _sl2_entries(mat) -> tuple[float, float, float, float]:
    """The entries (a, b, c, d) of a real 2 x 2 matrix whose determinant is 1 within 1e-10."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (2, 2):
        raise DomainError("expected a 2x2 matrix")
    # not <=, so that a NaN or infinite determinant fails too
    if not abs(np.linalg.det(mat) - 1.0) <= 1e-10:
        raise DomainError("matrix must have determinant 1")
    return tuple(mat.ravel())


@dataclass(frozen=True)
class IwasawaCoords:
    """(tau, theta) with M = translation(x) dilation(sqrt y) rotation(theta);
    tau and theta must be finite and Im(tau) positive."""

    tau: complex
    theta: float

    def __post_init__(self):
        # not <=, so that a NaN Im(tau) fails too
        if not self.tau.imag > 0:
            raise DomainError("Im(tau) must be positive")
        if not (cmath.isfinite(self.tau) and math.isfinite(self.theta)):
            raise DomainError(f"tau and theta must be finite, got {self.tau!r}, {self.theta!r}")
        object.__setattr__(self, "theta", float(self.theta) % (2 * math.pi))


def iwasawa_sl2(mat) -> IwasawaCoords:
    """Unique NAK coordinates of an SL(2, R) matrix.

    The bottom row (c, d) equals y^{-1/2}(sin theta, cos theta), so
    theta = atan2(c, d) reduced to [0, 2pi), y = 1/(c^2+d^2) and
    x = Re(M.i).
    """
    a, b, c, d = _sl2_entries(mat)
    den = c * c + d * d
    y = 1.0 / den
    x = (a * c + b * d) / den
    theta = math.atan2(c, d) % (2 * math.pi)
    return IwasawaCoords(complex(x, y), theta)


def iwasawa_matrix(coords: IwasawaCoords) -> np.ndarray:
    """Recompose the SL(2, R) matrix from its Iwasawa coordinates."""
    x, y = coords.tau.real, coords.tau.imag
    th = coords.theta
    nmat = np.array([[1.0, x], [0.0, 1.0]])
    amat = np.array([[math.sqrt(y), 0.0], [0.0, 1.0 / math.sqrt(y)]])
    kmat = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return nmat @ amat @ kmat


def sl2_act_circle(mat, coords: IwasawaCoords) -> IwasawaCoords:
    """Action on H_1 x [0, 2pi): (M.tau, theta + arg(c tau + d) mod 2pi)."""
    a, b, c, d = _sl2_entries(mat)
    tau = coords.tau
    j = c * tau + d
    tau2 = (a * tau + b) / j
    return IwasawaCoords(tau2, (coords.theta + math.atan2(j.imag, j.real)) % (2 * math.pi))


def embed_sl2(mat, n: int) -> SymplecticElement:
    """[[a, b], [c, d]] -> [[a I_n, b I_n], [c I_n, d I_n]]."""
    a, b, c, d = _sl2_entries(mat)
    i = np.eye(n)
    return SymplecticElement(_block([[a * i, b * i], [c * i, d * i]], n))
