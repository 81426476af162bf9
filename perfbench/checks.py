"""Output checks behind ``failed_frac``.

Each check returns None when the output is right and otherwise a one-line
reason.  Theta values are checked against mpmath: with Omega diagonal the
index-[m] theta series factors into Jacobi ``jtheta(3, .)`` values.  The
allowed error is the job's certified ``tail_bound`` plus a roundoff allowance
proportional to the terms of the series and to the size of their exponents,
so any correct summation order passes, re-centred ones included.  The state
a theta-sum job sums comes from a closed form derived here, not from the
library's operators.

Covariance jobs are checked for ``passed`` and a finite residual only: the
residual is itself the distance between two library paths (the Weil
operators and the J* factor).  Casimir values are checked by the operator's
invariance under the Jacobi group.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

# Roundoff allowance of a lattice sum, in units of the double epsilon times
# sum_k |t_k| (1 + |z_k| + N) for terms t_k = exp(z_k): evaluating z_k carries
# an absolute error of a few eps |z_k|, which is a relative error of t_k, and
# summing N terms adds at most N eps sum_k |t_k|.
ROUNDOFF_ULPS = 8
GAMMA_TOL = 1e-8        # invariance defect of Theta_f conj(Theta_g)
FOURIER_TOL = 1e-9      # indicator Fourier coefficients are exactly 0 or 1
FOCK_TOL = 1e-10        # relative, against the defining formula
CASIMIR_TOL = 3e-4      # relative invariance defect; finite differences reach 6e-5
# the Jacobi element of the Casimir invariance check: SL2 part (a, b, c, d),
# Heisenberg lambda and mu
CASIMIR_G = ((1.0, 0.0, 0.12, 1.0), 0.1, 0.05)


def theta_oracle(c: complex, a_diag, b_row, mval: float):
    """c * prod_j sum_k exp(pi i mval (a_j k^2 + 2 b_j k)) from mpmath, and the
    roundoff a double-precision summation of the series may carry.

    The terms are counted over a window around each coordinate's peak
    k0 = -Im b_j / Im a_j wide enough that the terms outside it are below
    exp(-50) of the peak.  Over the product window, sum_k |t_k| is the product
    of the coordinates' sums and sum_k |t_k| |z_k| is at most that product
    times the sum of the coordinates' |t|-weighted means of |z|.
    """
    import mpmath

    value = mpmath.mpc(c)
    mass, mean_z, count = abs(c), 0.0, 1
    with mpmath.workdps(30):
        for a, b in zip(a_diag, b_row):
            q = mpmath.exp(1j * mpmath.pi * mval * mpmath.mpc(a))
            value *= mpmath.jtheta(3, mpmath.pi * mval * mpmath.mpc(b), q)
            k0 = -b.imag / a.imag
            half = math.ceil(math.sqrt(50 / (math.pi * mval * a.imag))) + 1
            k = np.arange(math.floor(k0) - half, math.ceil(k0) + half + 1)
            z = 1j * math.pi * mval * (a * k * k + 2 * b * k)
            t = np.exp(z.real)
            mass *= t.sum()
            mean_z += (t * np.abs(z)).sum() / t.sum()
            count *= k.size
    roundoff = ROUNDOFF_ULPS * np.finfo(float).eps * mass * (1 + mean_z + count)
    return complex(value), float(roundoff)


def _theta_error(got: complex, cert: dict, tol: float, oracle) -> str | None:
    want, roundoff = oracle
    if cert["tail_bound"] > tol:
        return f"tail bound {cert['tail_bound']:.3e} exceeds tol {tol:.1e}"
    allowed = cert["tail_bound"] + roundoff
    err = abs(got - want)
    if not err <= allowed:
        return f"value {got} is {err:.3e} from mpmath {want} (allowed {allowed:.3e})"
    return None


def _decode_cm(rows) -> np.ndarray:
    return np.array([[complex(*v) for v in row] for row in rows])


def _theta_state_closed_form(tau: complex, theta: float, lam, mu, t: float, c0: complex, b0):
    """Closed form of W((xi; t)) R~(tau, theta) f for f = c0 exp(pi i (i |x|^2 + 2 x b0)).

    Derived here, not taken from the library.  Per coordinate, f is a
    coherent state of the oscillator whose ground state is exp(-pi x^2), and
    the pinned rotation is exp(-i theta (N + 1/2)) (theta = pi/2 is the
    sigma letter, whose kernel is exp(-2 pi i x y) with prefactor (1/i)^{1/2}).
    With u = sqrt(2 pi) x and s = i b sqrt(pi/2), the Hermite generating
    function exp(-u^2/2 + 2 u s - s^2) shows that the rotation multiplies by
    exp(-i theta/2), turns s (so b) by exp(-i theta), and changes c by
    exp(s^2 - s'^2) = exp(-pi b^2 (1 - exp(-2 i theta)) / 2).  Then
    g(sqrt(y) I) multiplies c by y^{n/4} and B by sqrt(y), t(x I) sets
    A = tau I, and the Heisenberg element (-mu, lam; t) multiplies c by
    exp(pi i (t - lam mu + tau |mu|^2 - 2 mu B)) and shifts B by lam - mu tau.
    Returns (c, diag A, B row).
    """
    lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    b0 = np.asarray(b0, dtype=complex)
    n = lam.size
    th = theta % (2 * math.pi)
    turn = cmath.exp(-1j * th)
    b = b0 * turn * math.sqrt(tau.imag)
    c = (c0 * cmath.exp(-0.5j * n * th) * cmath.exp(-0.5 * math.pi * (b0 @ b0) * (1 - turn ** 2))
         * tau.imag ** (n / 4)
         * cmath.exp(1j * math.pi * (t - lam @ mu + tau * (mu @ mu) - 2 * (mu @ b))))
    return c, [tau] * n, list(b + lam - mu * tau)


def _theta_sum_state(params: dict):
    """(c, diag A, B row) of the state a theta-sum job sums."""
    n = int(params["n"])
    tau = complex(*params["tau"])
    theta, t = float(params.get("theta", 0.0)), float(params.get("t", 0.0))
    lam, mu = params.get("lambda", [0.0] * n), params.get("mu", [0.0] * n)
    if "f" not in params:
        return _theta_state_closed_form(tau, theta, lam, mu, t, 1.0, np.zeros(n))
    a, b = _decode_cm(params["f"]["A"]), _decode_cm(params["f"]["B"])
    if np.any(a != 1j * np.eye(n)):
        raise ValueError("only theta-sum states with A = i I have an oracle")
    return _theta_state_closed_form(tau, theta, lam, mu, t, complex(*params["f"]["c"]), b[0])


def _maslov_bound(params: dict) -> int:
    ls = params["lagrangians"]
    return (len(ls) - 2) * len(ls[0][0])


def check_cli(command: str, params: dict, tol, out: dict) -> str | None:
    """Check one CLI JobResult: exit 0, ``passed``, and the command's own output."""
    if out["code"] != 0 or out["result"] is None:
        return f"exit code {out['code']}: {out['result']}"
    res = out["result"]
    if res.get("passed") is not True:
        return "JobResult not passed"
    got = res["outputs"]
    if command == "theta":
        mm = params["M"]
        omega = _decode_cm(params["omega"])
        if len(mm) != 1 or np.count_nonzero(omega - np.diag(np.diag(omega))):
            return "no oracle for this theta job"
        oracle = theta_oracle(1.0, np.diag(omega), _decode_cm(params["z"])[0], mm[0][0])
        return _theta_error(complex(*got["value"]), res["certification"], tol, oracle)
    if command == "theta-sum":
        c, a_diag, b_row = _theta_sum_state(params)
        return _theta_error(complex(*got["value"]), res["certification"], tol,
                            theta_oracle(c, a_diag, b_row, 1.0))
    if command == "maslov":
        index = got["index"]
        if type(index) is not int:
            return f"Maslov index {index!r} is not an exact integer"
        if abs(index) > _maslov_bound(params):
            return f"Maslov index {index} exceeds its bound {_maslov_bound(params)}"
        return None
    if command == "cocycle":
        val = complex(*got["value"])
        if abs(val ** 8 - 1) > 1e-12:
            return f"cocycle value {val} is not an 8th root of unity"
        if params["type"] == "sl2":
            m1, m2 = np.array(params["M1"]), np.array(params["M2"])
            s = np.sign(m1[1, 0]) * np.sign(m2[1, 0]) * np.sign((m1 @ m2)[1, 0])
            want = cmath.exp(-1j * math.pi * params["n"] * s / 4)
            if abs(val - want) > 1e-12:
                return f"sl2 cocycle {val} != {want}"
        return None
    if command == "verify-suite":
        if got.get("failures"):
            return f"suite reported failures: {got['failures'][:1]}"
        return None
    if command == "covariance":
        return None if math.isfinite(got["residual"]) else "residual is not finite"
    if command == "casimir":
        return check_casimir(params, complex(*got["value"]))
    if command == "multiplicity":
        full = list(params["taus"]) + [0] * params["m"]
        want = Fraction(1)
        for i in range(params["m"]):
            for j in range(i + 1, params["m"]):
                want *= 1 + Fraction(full[i] - full[j], j - i)
        return None if got["multiplicity"] == want else f"multiplicity != {want}"
    return f"no check for command {command!r}"


def check_casimir(params: dict, value: complex) -> str | None:
    """Check the reported C(F)(tau0, z0) by the invariance of the operator.

    With g = (lower-triangular SL2 part, Heisenberg shift) and (tau, z) the
    point g takes to (tau0, z0), invariance reads
    C(F|g)(tau, z) = (C(F)|g)(tau, z) = j(g, (tau, z)) * value.  The left side
    applies the operator to another function at another point, so a wrong
    coefficient (for example k for k - 1 on F_{z zbar}) breaks the identity.
    """
    from jacobiweil import (HeisenbergElement, JacobiElement, SymplecticElement, casimir_km,
                            sample_function, slash_km_nh)

    if not cmath.isfinite(value):
        return "Casimir value not finite"
    (a, b, c, d), lam, mu = CASIMIR_G
    tau0, z0 = complex(*params["tau"]), complex(*params["z"])
    tau = (d * tau0 - b) / (a - c * tau0)
    z = (c * tau + d) * z0 - lam * tau - mu
    elt = JacobiElement(SymplecticElement(np.array([[a, b], [c, d]])),
                        HeisenbergElement(np.array([[lam]]), np.array([[mu]]), np.zeros((1, 1))))
    k, m = int(params["k"]), int(params["m"])
    func = sample_function(params.get("function", "poly-exp"))
    lhs = casimir_km(slash_km_nh(func, k, m, elt), k, m, tau, z, float(params.get("h", 1e-3)))
    rhs = slash_km_nh(lambda _t, _z: value, k, m, elt)(tau, z)
    defect = abs(lhs - rhs) / abs(rhs)
    if not defect <= CASIMIR_TOL:
        return f"C(F|g) = {lhs} but C(F)|g = {rhs} (relative defect {defect:.2e})"
    return None


def check_gamma(defect: float) -> str | None:
    return None if defect < GAMMA_TOL else f"invariance defect {defect:.3e}"


def check_fourier(t_coef: int, r_coef: int, out) -> str | None:
    want = 1.0 if r_coef % 2 == 0 and t_coef == (r_coef // 2) ** 2 else 0.0
    got = complex(*out)
    return None if abs(got - want) <= FOURIER_TOL else f"coefficient {got}, want {want}"


def check_fock(mm, omega, h, f, out) -> str | None:
    """Compare U(h) f with J_M(h^{-1}, (Omega, Z))^{-1} f(Z - lam Omega - mu) at
    three points."""
    from jacobiweil.fock import FockState, fock_evaluate

    g = FockState(f.shape, {tuple(k): complex(*v) for k, v in out["coeffs"]},
                  _decode_cm(out["lin"]), complex(*out["scalar"]))
    rng = np.random.default_rng(0)
    lam, mu, kap = h.lam, h.mu, h.kappa
    for _ in range(3):
        z = 0.7 * (rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape))
        factor = cmath.exp(2j * math.pi * np.trace(
            mm @ (lam @ omega @ lam.T - 2 * lam @ z.T - kap + mu @ lam.T)))
        want = factor * fock_evaluate(f, z - lam @ omega - mu)
        got = fock_evaluate(g, z)
        if abs(got - want) > FOCK_TOL * max(1.0, abs(want)):
            return f"U(h) f at {z.tolist()} is {got}, defining formula gives {want}"
    return None
