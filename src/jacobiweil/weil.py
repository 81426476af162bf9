"""Representation operators on Gaussian states.

The module realizes three layers:

* ``schrodinger_apply``: the Heisenberg group acting on closed-form
  Gaussians, with an explicit ``scale`` on the exponent (1.0 is the classical
  e^{2 pi i} normalization; SW_SCALE = 0.5 is the normalization under which
  the covariant map transforms by the J* factor).
* the three Weil generator operators t(b), g(alpha), sigma_n, frozen at the
  calibrated SW normalization (see ``test_calibration_regression``), applied
  by one letter loop: a word's M and letters are checked once, then applied;
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

from .automorphy import J_star_M, MetaplecticElement, metaplectic_lifts
from .errors import DomainError
from .groups import (HeisenbergElement, IwasawaCoords, JacobiElement, SiegelJacobiPoint,
                     SymplecticElement, _letter, _one_point, _word_products,
                     jacobi_act)
from .linalg import holo_sqrt_det, principal_pow_half
from .states import (GaussianState, covariant_map, evaluate, index_matrix,
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
    and re-express the result in closed form (A is untouched).
    """
    mm = index_matrix(m_index)
    if h.shape != f.shape:
        raise DomainError("dimension mismatch")
    lam, mu, kap = h.lam, h.mu, h.kappa
    shift_phase = np.exp(1j * np.pi * np.trace(mm @ (lam @ f.a @ lam.T + 2 * lam @ f.b.T)))
    central = np.exp(2j * np.pi * scale * np.trace(mm @ (kap + mu @ lam.T)))
    return GaussianState(f.c * central * shift_phase, f.a, f.b + lam @ f.a + 2 * scale * mu)


def sw_heisenberg_apply(m_index, h: HeisenbergElement, f: GaussianState) -> GaussianState:
    """The Heisenberg action at the frozen SW normalization."""
    return schrodinger_apply(m_index, h, f, scale=SW_SCALE)


def weil_generator_apply(m_index, gen, f: GaussianState) -> GaussianState:
    """Apply one Weil generator ``("t", b)``, ``("g", alpha)`` or ``("sigma", None)``
    at the SW normalization: the one-letter word ``weil_apply_word(m_index, [gen], f)``."""
    return weil_apply_word(m_index, [gen], f)


def weil_apply_word(m_index, word, f: GaussianState) -> GaussianState:
    """Apply U(g_1) ... U(g_k) to f (rightmost letter acts first) and return the state.

    The word must be nonempty.  M and every letter are checked once, the letters
    left to right by ``groups._letter`` with n the width of f, before
    ``_apply_letters`` applies any operator."""
    if not word:
        raise DomainError("word must be nonempty")
    mm = index_matrix(m_index)
    n = f.shape[1]
    return _apply_letters(mm, [(kind, _letter(kind, par, n)) for kind, par in word], f)


def _apply_letters(mm: np.ndarray, letters, f: GaussianState) -> GaussianState:
    """Apply letters (kind, parameter) already checked by ``groups._letter``, with M
    already checked, to f, rightmost first; no letters leave f as it is.

    * t(b): multiply by exp(2 pi i T_SCALE tr(M x b x^T)); A += 2 T_SCALE b.
    * g(alpha): (det alpha)^{m/2} f(x alpha^T); principal half-power branch.
    * sigma: the M-twisted Fourier kernel
      (1/i)^{mn/2} (det M)^{n/2} \\int f(y) exp(-2 pi i tr(M y x^T)) dy,
      evaluated in closed form; the square-root prefactor is
      holo_sqrt_det(-i (M kron A))^{-1}, whose argument has positive
      definite real part M kron Im A.  It leaves the zero state as it is.
    """
    m, n = f.shape
    for kind, par in reversed(letters):
        if kind == "t":
            f = GaussianState(f.c, f.a + 2 * T_SCALE * par, f.b)
        elif kind == "g":
            al, det = par
            f = GaussianState(f.c * principal_pow_half(det, m), al.T @ f.a @ al, f.b @ al)
        elif f.c != 0:
            a_inv = np.linalg.inv(f.a)
            pref = principal_pow_half(1 / 1j, m * n) * np.linalg.det(mm) ** (n / 2)
            root = holo_sqrt_det(-1j * np.kron(mm, f.a))
            gauss = np.exp(-1j * np.pi * np.trace(mm @ f.b @ a_inv @ f.b.T))
            f = GaussianState(f.c * pref / root * gauss, -a_inv, f.b @ a_inv)
    return f


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
    applying the word.
    """
    mm = index_matrix(m_index)
    if f.c == 0:
        return f
    m, n = f.shape
    cos, sin = math.cos(theta), math.sin(theta)
    d_inv = np.linalg.inv(cos * np.eye(n) + sin * f.a)
    k = math.floor(theta / math.pi)
    th = theta - k * math.pi
    phi = math.cos(th) + math.sin(th) * np.linalg.eigvals(f.a)
    arg = sum(k * math.pi + math.atan2(max(p.imag, 0.0), p.real) for p in phi)
    log_det = np.log(np.abs(phi)).sum() + 1j * arg
    b2 = f.b @ d_inv
    c2 = f.c * np.exp(-m / 2 * log_det - 1j * np.pi * sin * np.trace(mm @ b2 @ f.b.T))
    return GaussianState(c2, (cos * f.a - sin * np.eye(n)) @ d_inv, b2)


def sw_iwasawa_apply(m_index, coords: IwasawaCoords, f: GaussianState) -> GaussianState:
    """R~(tau, theta) = U(t(x I)) U(g(sqrt(y) I)) R~(i, theta).

    After the rotation, t(x I) g(sqrt(y) I) is applied as one two-letter word
    by ``weil_apply_word``.  theta is the angle stored in ``coords``, reduced
    to [0, 2 pi); a caller that needs the unreduced (double cover) angle
    applies ``sw_rotation_apply`` at that angle itself.
    """
    n = f.shape[1]
    x, y = coords.tau.real, coords.tau.imag
    out = sw_rotation_apply(m_index, coords.theta, f)
    return weil_apply_word(m_index, [("t", x * np.eye(n)), ("g", math.sqrt(y) * np.eye(n))], out)


# ---------------------------------------------------------------------------
# Covariance check against the J* factor


def covariance_residual(m_index, word, h: HeisenbergElement, p: SiegelJacobiPoint,
                        branch: complex | str = "auto"):
    """Sup over ``sample_grid`` of |omega(g~) F_{O,Z}(x) - J*(g~,(O,Z))^{-1} F_{g~.(O,Z)}(x)|.

    The element is (word product, h) with a metaplectic branch.  M and each
    letter are checked once, before any operator runs, and the checked letters
    give both g (``groups._word_products``) and its operator (``_apply_letters``).
    ``"auto"`` takes the better of the lifts (g, +-eps0) of ``metaplectic_lifts``,
    +eps0 on a tie: J* holds eps^{-m}, so (g, -eps0) has (-1)^m times the J* of
    (g, eps0), and J* is evaluated once.

    Returns (residual, eps_used).
    """
    mm = index_matrix(m_index)
    m, n = _one_point(p).m, p.n
    letters = [(kind, _letter(kind, par, n)) for kind, par in word]
    g = SymplecticElement(_word_products([letters], n)[0])
    f = covariant_map(mm, p)
    st = _apply_letters(mm, letters, sw_heisenberg_apply(mm, h, f))
    target = covariant_map(mm, jacobi_act(JacobiElement(g, h), p))
    grid = sample_grid(m, n)
    # each state once over the whole grid; the two lifts differ only in js
    lhs = evaluate(st, mm, grid)
    rhs = evaluate(target, mm, grid)
    lift = metaplectic_lifts(g)[0] if branch == "auto" else MetaplecticElement(g, complex(branch))
    js = J_star_M(mm, lift, h, p)
    res = float(np.abs(lhs - rhs / js).max())
    if branch == "auto":
        other = float(np.abs(lhs - rhs / ((-1) ** m * js)).max())
        if other < res:
            return other, -lift.eps
    return res, lift.eps
