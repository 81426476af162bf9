"""Representation operators on Gaussian states.

The module realizes three layers:

* ``schrodinger_apply``: the Heisenberg group acting on closed-form
  Gaussians, with an explicit ``scale`` on the exponent (1.0 is the classical
  e^{2 pi i} normalization; SW_SCALE = 0.5 is the normalization under which
  the covariant map transforms by the J* factor).
* the three Weil generator operators t(b), g(alpha), sigma_n, frozen at the
  calibrated SW normalization (see ``test_calibration_regression``);
* the Iwasawa operators: the ground-state-pinned rotation flow
  R~(i, theta) and the full R~(tau, theta), which is what the theta-sum
  machinery uses.  The rotation is applied in closed form, with
  D = cos theta I + sin theta A:  A -> (A cos theta - sin theta I) D^{-1},
  B -> B D^{-1}, c -> c det(D)^{-m/2} exp(-pi i sin theta tr(M B D^{-1} B^T)).
  The square root det(D)^{-m/2} takes the branch continued from theta = 0
  through the eigenvalues of A, which pins the ground-state eigenvalue to
  exp(-i m n theta / 2) and gives R~(theta + 2 pi) = (-1)^{mn} R~(theta)
  (see ``sw_rotation_apply``).  ``rotation_word`` is the same rotation as a
  t/g/sigma generator word, the reference the closed form is tested against.

Every operator acts through one letter loop, ``_apply_letters``: each public
operator call checks M and its letters once, the loop applies them, and the
state it returns is checked once, not each intermediate state.

Calibration note: the e^{2 pi i} Heisenberg/t(b) exponents and the
e^{-4 pi i} sigma kernel are mutually consistent as a projective package,
but the covariance relation against the pi-i-normalized covariant map and
J* factor forces the half-scaled package (exponents e^{pi i}, kernel
e^{-2 pi i}); the sigma prefactor (1/i)^{mn/2} (det M)^{n/2} is unchanged.
The constants below are frozen by a regression test against that relation.
"""

from __future__ import annotations

import math

import numpy as np

from .automorphy import MetaplecticElement, _index_factor, _principal_eps
from .errors import DomainError
from .groups import (HeisenbergElement, IwasawaCoords, JacobiElement, SiegelJacobiPoint,
                     SymplecticElement, _letter, _one_point, _word_products,
                     jacobi_act)
from .linalg import SYM_DEFECT_TOL, _sym, holo_sqrt_det, principal_pow_half
from .states import (GaussianState, _evaluate, covariant_map, index_matrix,
                     sample_grid)

# Exponent scales of the frozen Schroedinger-Weil package, in units of the
# classical normalization: Heisenberg and t(b) exponents carry
# exp(2 pi i * scale * ...); the sigma kernel is exp(-2 pi i tr(M y x^T)),
# half the classical -4 pi i.  Pinned by test_calibration_regression.
SW_SCALE = 0.5
T_SCALE = 0.5


def schrodinger_apply(m_index, h: HeisenbergElement, f: GaussianState,
                      scale: float = 1.0) -> GaussianState:
    """Apply the Heisenberg operator
    f(x) -> exp(2 pi i * scale * tr(M(kappa + mu lam^T + 2 x mu^T))) f(x + lam)
    and re-express the result in closed form (A is untouched), as the loop's
    one letter: M and h are checked once, and the state returned once.
    """
    return _apply_letters(index_matrix(m_index), [("heis", (h, scale))], f)


def weil_generator_apply(m_index, gen, f: GaussianState) -> GaussianState:
    """Apply one Weil generator ``("t", b)``, ``("g", alpha)`` or ``("sigma", None)``
    at the SW normalization: the one-letter word ``weil_apply_word(m_index, [gen], f)``."""
    return weil_apply_word(m_index, [gen], f)


def weil_apply_word(m_index, word, f: GaussianState) -> GaussianState:
    """Apply U(g_1) ... U(g_k) to f (rightmost letter acts first) and return the state.

    The word must be nonempty.  M and every letter are checked once, the letters
    left to right by ``groups._letter`` with n the width of f, before
    ``_apply_letters`` applies any operator and checks the state it returns."""
    if not word:
        raise DomainError("word must be nonempty")
    mm = index_matrix(m_index)
    n = f.shape[1]
    return _apply_letters(mm, [(kind, _letter(kind, par, n)) for kind, par in word], f)


def _apply_letters(mm: np.ndarray, letters, f: GaussianState) -> GaussianState:
    """Apply letters (kind, parameter), rightmost first, to f, with M already
    checked: the one loop of every operator in this package.  t/g/sigma
    parameters are in ``groups._letter``'s output form; the private kinds
    ("rot", theta) of ``sw_rotation_apply`` and ("heis", (h, scale)) of
    ``schrodinger_apply`` (h of f's shape) are built only in this package.

    * t(b): multiply by exp(2 pi i T_SCALE tr(M x b x^T)); A += 2 T_SCALE b.
    * g(alpha): (det alpha)^{m/2} f(x alpha^T); principal half-power branch.
    * sigma: the M-twisted Fourier kernel
      (1/i)^{mn/2} (det M)^{n/2} \\int f(y) exp(-2 pi i tr(M y x^T)) dy, in
      closed form; the prefactor holo_sqrt_det(-i (M kron A))^{-1} has an
      argument with positive definite real part M kron Im A.  A non-finite A
      is refused first.  sigma and rot leave the zero state as it is; rot
      reads its branch off Im A > 0, so it acts first, on the checked f.

    (c, A, B) are carried as arrays in the form each intermediate
    ``GaussianState`` gave them (so an asymmetry raises at the letter that
    made it); only the returned state is checked.  With no letter applied,
    f is returned.
    """
    m, n = f.shape
    c, a, b = f.c, f.a, f.b
    raw = False
    for kind, par in reversed(letters):
        if c == 0 and kind in ("sigma", "rot"):
            continue
        if raw:
            c, a, b = complex(c), _sym(a, SYM_DEFECT_TOL), np.asarray(b, dtype=complex)
        raw = True
        if kind == "t":
            a = a + 2 * T_SCALE * par
        elif kind == "g":
            al, det = par
            c, a, b = c * principal_pow_half(det, m), al.T @ a @ al, b @ al
        elif kind == "sigma":
            if not np.isfinite(a).all():
                raise DomainError("c, A and B must have finite entries")
            a_inv = np.linalg.inv(a)
            pref = principal_pow_half(1 / 1j, m * n) * np.linalg.det(mm) ** (n / 2)
            root = holo_sqrt_det(-1j * np.kron(mm, a))
            gauss = np.exp(-1j * np.pi * np.trace(mm @ b @ a_inv @ b.T))
            c, a, b = c * pref / root * gauss, -a_inv, b @ a_inv
        elif kind == "rot":
            cos, sin = math.cos(par), math.sin(par)
            d_inv = np.linalg.inv(cos * np.eye(n) + sin * a)
            k = math.floor(par / math.pi)
            th = par - k * math.pi
            phi = math.cos(th) + math.sin(th) * np.linalg.eigvals(a)
            arg = sum(k * math.pi + math.atan2(max(p.imag, 0.0), p.real) for p in phi)
            log_det = np.log(np.abs(phi)).sum() + 1j * arg
            b2 = b @ d_inv
            c = c * np.exp(-m / 2 * log_det - 1j * np.pi * sin * np.trace(mm @ b2 @ b.T))
            a, b = (cos * a - sin * np.eye(n)) @ d_inv, b2
        else:
            h, scale = par
            if h.shape != (m, n):
                raise DomainError("dimension mismatch")
            lam, mu, kap = h.lam, h.mu, h.kappa
            shift_phase = np.exp(1j * np.pi * np.trace(mm @ (lam @ a @ lam.T + 2 * lam @ b.T)))
            central = np.exp(2j * np.pi * scale * np.trace(mm @ (kap + mu @ lam.T)))
            c, b = c * central * shift_phase, b + lam @ a + 2 * scale * mu
    return GaussianState(c, a, b) if raw else f


# ---------------------------------------------------------------------------
# Rotation flow and Iwasawa operators (used by theta sums; m arbitrary)


def rotation_word(theta: float, n: int) -> list:
    """A generator word for the embedded SO(2) rotation k_theta.

    The angle is split into exact quarter turns (sigma letters) plus a
    remainder |th| <= pi/4 realized by the well-conditioned three-factor
    decomposition k_th = t(-tan(th/2)) nbar(sin th) t(-tan(th/2)) with
    nbar(u) = g(-I) sigma t(-u) sigma.  ``sw_rotation_apply`` applies the
    same rotation in closed form; the word is its test reference.
    """
    quarter = int(np.round(theta / (math.pi / 2)))
    th = theta - quarter * math.pi / 2
    word = [("sigma", None)] * (quarter % 4)
    if abs(th) > 1e-15:
        tn = -math.tan(th / 2) * np.eye(n)
        word += [("t", tn), ("g", -np.eye(n)), ("sigma", None),
                 ("t", -math.sin(th) * np.eye(n)), ("sigma", None), ("t", tn)]
    return word


def sw_rotation_apply(m_index, theta: float, f: GaussianState) -> GaussianState:
    """The pinned rotation operator R~(i, theta), in closed form.

    k_theta = [[cos I, -sin I], [sin I, cos I]] acts on the Gaussian through
    D = cos theta I + sin theta A:

        A' = (A cos theta - sin theta I) D^{-1},    B' = B D^{-1},
        c' = c det(D)^{-m/2} exp(-pi i sin theta tr(M B D^{-1} B^T)).

    The branch of det(D)^{-m/2} is continued from theta = 0, one eigenvalue
    lambda_j of A at a time (Im lambda_j > 0, so no factor of D crosses zero):
    with k = floor(theta / pi), theta' = theta - k pi and
    phi_j = cos theta' + lambda_j sin theta', which lies in the closed upper
    half plane,

        log det D = sum_j log|phi_j| + i sum_j (k pi + atan2(max(Im phi_j, 0), Re phi_j)).

    So the ground state is an eigenvector with eigenvalue exp(-i m n theta / 2)
    (the oscillator ground level), and unreduced theta keeps the double-cover
    behaviour R~(i, theta + 2 pi) = (-1)^{mn} R~(i, theta).  This is the
    generator word ``rotation_word`` pinned on the ground state, without
    applying the word.  M is checked once, and the loop applies the
    rotation as its one letter and checks the state it returns.
    """
    return _apply_letters(index_matrix(m_index), [("rot", theta)], f)


def sw_iwasawa_apply(m_index, coords: IwasawaCoords, f: GaussianState) -> GaussianState:
    """R~(tau, theta) = U(t(x I)) U(g(sqrt(y) I)) R~(i, theta).

    M is checked once, and the loop applies the letters of
    ``_iwasawa_letters`` as one list, checking only the state it returns.
    theta is the angle stored in ``coords``, reduced to [0, 2 pi); a caller
    that needs the unreduced (double cover) angle applies
    ``sw_rotation_apply`` at that angle itself.
    """
    return _apply_letters(index_matrix(m_index), _iwasawa_letters(coords, f.shape[1]), f)


def _iwasawa_letters(coords: IwasawaCoords, n: int) -> list:
    """The letters t(x I), g(sqrt(y) I), R~(i, theta) of R~(tau, theta) in
    ``_letter``'s output form: x I is exactly symmetric, as ``_letter`` would return
    it, and ``_letter`` checks sqrt(y) I, refusing it when y^{n/2} < 1e-12."""
    g = _letter("g", math.sqrt(coords.tau.imag) * np.eye(n), n)
    return [("t", coords.tau.real * np.eye(n)), ("g", g), ("rot", coords.theta)]


# ---------------------------------------------------------------------------
# Covariance check against the J* factor


def covariance_residual(m_index, word, h: HeisenbergElement, p: SiegelJacobiPoint,
                        branch: complex | str = "auto"):
    """Sup over ``sample_grid`` of |omega(g~) F_{O,Z}(x) - J*(g~,(O,Z))^{-1} F_{g~.(O,Z)}(x)|.

    The element is (word product, h) with a metaplectic branch.  M and each
    letter are checked once, before any operator runs, and the checked letters
    give both g (``groups._word_products``) and, after h, one letter list
    for ``_apply_letters``, which checks the state it returns once.
    ``"auto"`` takes the better of the lifts (g, +-eps0) of ``metaplectic_lifts``,
    +eps0 on a tie: J* holds eps^{-m}, so (g, -eps0) has (-1)^m times the J* of
    (g, eps0), and J* is evaluated once.  eps0 comes from one alpha, and an
    explicit branch is checked once, as a ``MetaplecticElement``.

    Returns (residual, eps_used).
    """
    mm = index_matrix(m_index)
    m, n = _one_point(p).m, p.n
    letters = [(kind, _letter(kind, par, n)) for kind, par in word]
    g = SymplecticElement(_word_products([letters], n)[0])
    st = _apply_letters(mm, letters + [("heis", (h, SW_SCALE))], covariant_map(p))
    target = covariant_map(jacobi_act(JacobiElement(g, h), p))
    grid = sample_grid(m, n)
    # each state once over the whole grid; the two lifts differ only in js
    lhs = _evaluate(st, mm, grid)
    rhs = _evaluate(target, mm, grid)
    eps = _principal_eps(g) if branch == "auto" else MetaplecticElement(g, complex(branch)).eps
    js = _index_factor(mm, g, h, p, s=0.5, eps=eps, power=m)
    res = float(np.abs(lhs - rhs / js).max())
    if branch == "auto":
        other = float(np.abs(lhs - rhs / ((-1) ** m * js)).max())
        if other < res:
            return other, -eps
    return res, eps
