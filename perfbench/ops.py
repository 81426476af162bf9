"""Workloads: seeded lists of operations ("ops") run against the library.

An op is either a JobSpec run in-process through ``jacobiweil.cli.main``
(``--job -`` on a swapped stdin, stdout captured and parsed), or one call into
the public API where the CLI has no command for it.  Every op carries the
input it was built from (printed when it fails) and a check of its output.

Inputs come only from the seed.  Properties that set the amount of work
(dimension, word length, Im Omega, the Im Z drift, suite case counts) are fixed
per op slot, so every seed does the same work; the seed draws everything else
(real parts, signs, angles, matrices).  Suites draw their cases from their own
seed, so the suite seeds are fixed per slot too.  Spreads between seeds then
measure the machine, not the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import jacobiweil
import jacobiweil.cli as cli_mod
import jacobiweil.fock as fock_mod
import jacobiweil.jacobi_theta as jt_mod
import jacobiweil.theta as theta_mod

from . import checks

WORKLOADS = {
    "closed-form": (
        "Maslov/cocycle suites and jobs plus covariance, Casimir, multiplicity and Fock "
        "jobs: groups, linalg, maslov and the closed-form operators work; no lattice sums"),
    "theta-stress": (
        "theta and theta-sum jobs at small Im Omega with a large Im Z drift (half with "
        "--threads 2), theta-laws, and many small sums: lattice enumeration dominates"),
}

# Which per-layer metric should move which end-to-end metric, on which workload.
LAYER_MOVES = {
    "theta": (["ops_per_s", "op_p90_ms"], ["theta-stress"]),
    "groups": (["ops_per_s"], ["closed-form"]),
    "linalg": (["op_p50_ms"], ["closed-form", "theta-stress"]),
    "maslov": (["ops_per_s"], ["closed-form"]),
    "states": (["op_p50_ms"], ["closed-form", "theta-stress"]),
    "weil": (["op_p50_ms"], ["closed-form", "theta-stress"]),
    "automorphy": (["ops_per_s"], ["closed-form"]),
    "jacobi_theta": (["op_p50_ms"], ["theta-stress"]),
    "maass": (["ops_per_s"], ["closed-form"]),
    "fock": (["ops_per_s"], ["closed-form"]),
    "serialize": (["op_p50_ms", "setup_s"], list(WORKLOADS)),
    "cli": (["op_p50_ms", "setup_s"], list(WORKLOADS)),
    "suites": (["op_p50_ms", "setup_s"], list(WORKLOADS)),
}


@dataclass
class Op:
    kind: str                               # "theta", "verify-suite", "api:fock_apply", ...
    spec: dict                              # the input, JSON-ready
    run: Callable[[], object]               # returns a JSON-ready output
    check: Callable[[object], str | None]   # returns why the output is wrong, or None


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    setup_spec: str = ""                    # JobSpec text of the smallest CLI job


# --- running a JobSpec through the CLI ---------------------------------------


def run_cli(spec_text: str, threads: int = 1) -> dict:
    """Run one JobSpec through ``cli.main``; returns the exit code and the parsed
    JobResult without its ``wall_time``."""
    argv = ["--job", "-"] + (["--threads", str(threads)] if threads != 1 else [])
    saved = sys.stdin
    sys.stdin = io.StringIO(spec_text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            try:
                code = cli_mod.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    text = out.getvalue()
    result = json.loads(text) if text.strip() else None
    if isinstance(result, dict):
        result.pop("wall_time", None)
    return {"code": code, "result": result}


def _cli_op(workload: Workload, command: str, params: dict, tol=None, threads: int = 1,
            setup: bool = False) -> None:
    spec = {"command": command, "params": params, "tol": tol}
    text = json.dumps(spec)
    workload.ops.append(Op(command, spec, lambda: run_cli(text, threads),
                           lambda out: checks.check_cli(command, params, tol, out)))
    if setup:
        workload.setup_spec = text


# --- encodings and samplers ----------------------------------------------------


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cm(a) -> list:
    return [[_c(v) for v in row] for row in np.atleast_2d(a)]


def _rm(a) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def _sym(rng, n, scale):
    b = scale * rng.normal(size=(n, n))
    return 0.5 * (b + b.T)


def _alpha(rng, n, scale=0.45, lo=0.4, hi=2.5):
    while True:
        al = np.eye(n) + scale * rng.normal(size=(n, n))
        if lo < abs(np.linalg.det(al)) < hi:
            return al


def _symplectic(rng, n, letters=4):
    """Random product of t(b), g(alpha) and sigma generators, built in numpy."""
    eye, zero = np.eye(n), np.zeros((n, n))
    g = np.eye(2 * n)
    for _ in range(int(rng.integers(1, letters + 1))):
        kind = int(rng.integers(3))
        if kind == 0:
            g = g @ np.block([[eye, _sym(rng, n, 0.6)], [zero, eye]])
        elif kind == 1:
            al = _alpha(rng, n, 0.6, 0.3, 10.0)
            g = g @ np.block([[al.T, zero], [zero, np.linalg.inv(al)]])
        else:
            g = g @ np.block([[zero, -eye], [eye, zero]])
    return g


def _lagrangian(rng, n):
    return _symplectic(rng, n) @ np.vstack([np.eye(n), np.zeros((n, n))])


def _sl2(rng):
    while True:
        a, b, c = rng.normal(size=3)
        if abs(a) > 0.3:
            return np.array([[a, b], [c, (1 + b * c) / a]])


def _sign(rng) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def _signs(rng, n, scale=0.35):
    return scale * np.where(rng.random(n) < 0.5, -1.0, 1.0)


def _shifted_ground_state(rng, n):
    # A = i I is fixed by the rotation flow and |B| is fixed, so the summed
    # state's width and drift (and the lattice radius) barely depend on the seed
    b = 0.2 * np.exp(2j * np.pi * rng.random((1, n)))
    return jacobiweil.GaussianState(complex(*rng.normal(size=2)), 1j * np.eye(n), b)


def _siegel_point(rng, n):
    y = np.eye(n) + 0.2 * rng.normal(size=(n, n))
    omega = _sym(rng, n, 0.4) + 0.5j * (y @ y.T + y @ y.T)
    z = 0.3 * (rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n)))
    return omega, z


def _heisenberg(rng, n):
    lam, mu = 0.5 * rng.normal(size=(1, n)), 0.5 * rng.normal(size=(1, n))
    return lam, mu, np.array([[rng.normal()]])


# --- workloads -----------------------------------------------------------------


def _closed_form(w: Workload, rng) -> None:
    for slot in range(14):
        _cli_op(w, "verify-suite", {"name": "maslov-axioms", "seed": slot, "count": 5})
    for slot in range(8):
        _cli_op(w, "verify-suite", {"name": "cocycles", "seed": slot, "count": 15})
    for i in range(20):
        n, k = 1 + i % 3, 3 + i % 4
        _cli_op(w, "maslov", {"lagrangians": [_rm(_lagrangian(rng, n)) for _ in range(k)]})
    for i in range(10):
        _cli_op(w, "cocycle", {"type": "sl2", "M1": _rm(_sl2(rng)), "M2": _rm(_sl2(rng)),
                               "n": 1 + i % 3}, setup=i == 0)
    for i in range(10):
        n = 1 + i % 3
        _cli_op(w, "cocycle", {"type": "clm", "m": 1.0, "lagrangian": _rm(_lagrangian(rng, n)),
                               "g1": {"matrix": _rm(_symplectic(rng, n))},
                               "g2": {"matrix": _rm(_symplectic(rng, n))}})
    _jacobi_closed_form(w, rng)


def _theta_stress(w: Workload, rng) -> None:
    # n = 1: Im Omega down to 0.005, Im Z drift 0.1 to 0.5, every other job
    # with --threads 2.  The six jobs at (0.005, 0.5) are ranks 8 to 13 by
    # cost, so the 90th latency percentile of the 100 ops falls in the middle
    # of this cluster.  They all run with one thread: --threads 2 makes a job
    # about 15% slower, which would split the cluster in two.
    pairs = [(y, v) for y in (0.005, 0.007, 0.01, 0.014) for v in (0.1, 0.3, 0.5)]
    for slot, (y, v) in enumerate(pairs + [(0.005, 0.5)] * 5):
        params = {"n": 1, "m": 1, "M": [[1.0]],
                  "omega": _cm([[complex(rng.uniform(-0.5, 0.5), y)]]),
                  "z": _cm([[complex(rng.uniform(-0.5, 0.5), _sign(rng) * v)]])}
        threads = 2 if slot % 2 and slot < len(pairs) else 1
        _cli_op(w, "theta", params, 1e-10, threads=threads, setup=(y, v) == (0.014, 0.1))
    # n = 2: Im Omega = y I, drift v in both coordinates; every other job with
    # --threads 2, not the costliest, whose spread would dominate ops_per_s
    for slot, (y, v) in enumerate(((0.02, 0.3), (0.02, 0.1)) + ((0.03, 0.3),) * 4):
        omega = np.diag([complex(rng.uniform(-0.5, 0.5), y) for _ in range(2)])
        z = [[complex(rng.uniform(-0.5, 0.5), _sign(rng) * v) for _ in range(2)]]
        _cli_op(w, "theta", {"n": 2, "m": 1, "M": [[1.0]], "omega": _cm(omega), "z": _cm(z)},
                1e-10, threads=1 + slot % 2)
    # theta sums of the ground state at tau = x + i y, all with --threads 2, so
    # that 15 of these 29 jobs are threaded; the Heisenberg shift mu = v / y
    # puts an Im Z drift of v on the summed state
    for y, v in ((0.005, 0.1), (0.005, 0.3), (0.01, 0.2), (0.01, 0.4), (0.02, 0.3), (0.02, 0.5)):
        params = {"n": 1, "tau": _c(complex(rng.uniform(-0.5, 0.5), y)),
                  "theta": float(rng.uniform(0, 2 * math.pi)),
                  "lambda": [float(rng.uniform(-0.5, 0.5))], "mu": [_sign(rng) * v / y],
                  "t": float(rng.uniform(-1, 1))}
        _cli_op(w, "theta-sum", params, 1e-10, threads=2)
    _cli_op(w, "verify-suite", {"name": "theta-laws", "seed": 0, "count": 4})
    _small_theta_sums(w, rng)


def _jacobi_closed_form(w: Workload, rng) -> None:
    """Covariance, Casimir, multiplicity and Fock ops: no lattice sums."""
    for i in range(20):
        n = 1 + i % 2
        word = []
        for _ in range(1 + i % 6):
            kind = int(rng.integers(3))
            if kind == 0:
                word.append(["t", _rm(_sym(rng, n, 0.45))])
            elif kind == 1:
                al = _alpha(rng, n)
                word.append(["g", _rm(-al if rng.random() < 0.25 else al)])
            else:
                word.append(["sigma", None])
        lam, mu, kap = _heisenberg(rng, n)
        omega, z = _siegel_point(rng, n)
        _cli_op(w, "covariance", {
            "M": [[1.0 + 0.09 * rng.normal() ** 2]], "word": word,
            "heisenberg": {"lambda": _rm(lam), "mu": _rm(mu), "kappa": _rm(kap)},
            "point": {"omega": _cm(omega), "z": _cm(z)}})
    for i in range(4):
        params = {"function": ("poly-exp", "gaussian-y")[i % 2], "k": int(rng.integers(1, 4)),
                  "m": int(rng.integers(1, 3)),
                  "tau": _c(complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.3))),
                  "z": _c(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))}
        _cli_op(w, "casimir", params)
    for i in range(6):
        m = 2 + i % 3
        n = int(rng.integers(1, 5))
        taus = sorted((int(v) for v in rng.integers(0, 6, size=min(m, n))), reverse=True)
        _cli_op(w, "multiplicity", {"taus": taus, "m": m, "n": n})
    for i in range(8):
        n = 1 + i % 2
        coeffs = {tuple(int(v) for v in rng.integers(0, 3, size=n)): complex(*rng.normal(size=2))
                  for _ in range(3)}
        f = fock_mod.FockState((1, n), coeffs, 0.3 * (rng.normal(size=(1, n))
                                                      + 1j * rng.normal(size=(1, n))),
                               complex(*rng.normal(size=2)))
        lam, mu, kap = _heisenberg(rng, n)
        h = jacobiweil.HeisenbergElement(lam, mu, kap)
        mm = np.array([[1.0 + 0.09 * rng.normal() ** 2]])
        omega, _ = _siegel_point(rng, n)
        spec = {"M": _rm(mm), "omega": _cm(omega), "lambda": _rm(lam), "mu": _rm(mu),
                "kappa": _rm(kap), "coeffs": [[list(k), _c(v)] for k, v in coeffs.items()],
                "lin": _cm(f.lin), "scalar": _c(f.scalar)}
        w.ops.append(Op("api:fock_apply", spec,
                        lambda a=(mm, omega, h, f): _fock(*a),
                        lambda out, a=(mm, omega, h, f): checks.check_fock(*a, out)))


def _small_theta_sums(w: Workload, rng) -> None:
    """Many small lattice sums: theta sums at y = 1, theta at Im Omega = I,
    invariance checks and one Fourier coefficient (500 theta_M calls)."""
    for i in range(41):
        n = 1 + i % 2
        params = {"n": n, "tau": _c(complex(rng.uniform(-0.5, 0.5), 1.0)),
                  "theta": float(rng.uniform(0, 2 * math.pi)),
                  "lambda": list(_signs(rng, n)), "mu": list(_signs(rng, n)),
                  "t": float(rng.uniform(-1, 1))}
        if n == 1:
            f = _shifted_ground_state(rng, 1)
            params["f"] = {"c": _c(f.c), "A": _cm(f.a), "B": _cm(f.b)}
        _cli_op(w, "theta-sum", params, 1e-10)
    for n in (1, 2, 3, 4) * 5:
        omega = np.diag([complex(rng.uniform(-0.5, 0.5), 1.0) for _ in range(n)])
        z = [[complex(rng.uniform(-0.5, 0.5), _sign(rng) * 0.05) for _ in range(n)]]
        _cli_op(w, "theta", {"n": n, "m": 1, "M": [[1.0]], "omega": _cm(omega), "z": _cm(z)},
                1e-10)
    gens = [("sigma", [[0.0, -1.0], [1.0, 0.0]], 0), ("T_shift", [[1.0, 1.0], [0.0, 1.0]], 0),
            ("unit_lam", [[1.0, 0.0], [0.0, 1.0]], 1), ("unit_mu", [[1.0, 0.0], [0.0, 1.0]], 2)]
    for i, (gen, mat, unit) in enumerate(gens * 2):
        n = 1 + i // 2 % 2
        lam0, mu0 = np.zeros(n), np.zeros(n)
        if gen == "T_shift":
            lam0 = np.full(n, 0.5)
        elif unit:
            (lam0 if unit == 1 else mu0)[int(rng.integers(n))] = 1.0
        f, g = _shifted_ground_state(rng, n), _shifted_ground_state(rng, n)
        coords = jacobiweil.IwasawaCoords(complex(0.3 * _sign(rng), 1.0),
                                          2 * math.pi * rng.random())
        xi = jacobiweil.LatticePair(_signs(rng, n), _signs(rng, n))
        generator = (np.array(mat), jacobiweil.LatticePair(lam0, mu0))
        spec = {"generator": gen, "lambda0": list(lam0), "mu0": list(mu0),
                "f": [_c(f.c), _cm(f.a), _cm(f.b)], "g": [_c(g.c), _cm(g.a), _cm(g.b)],
                "tau": _c(coords.tau), "theta": coords.theta,
                "xi": [list(xi.lam), list(xi.mu)]}
        w.ops.append(Op("api:check_gamma_invariance", spec,
                        lambda a=(f, g, generator, coords, xi):
                        float(jt_mod.check_gamma_invariance(*a)),
                        checks.check_gamma))
    # Theta with M = [2] has Fourier coefficient 1 exactly at (T, R) = (xi^2, 2 xi)
    t_coef, r_coef = [(0, 0), (1, 2), (1, -2), (0, 2), (1, 0), (0, 1)][int(rng.integers(6))]
    w.ops.append(Op("api:fourier_coefficient", {"T": t_coef, "R": r_coef, "omega0": [0, 0.9]},
                    lambda: _fourier(t_coef, r_coef),
                    lambda out: checks.check_fourier(t_coef, r_coef, out)))


def _fourier(t_coef: int, r_coef: int) -> list:
    mm = np.array([[2.0]])
    p0 = jacobiweil.SiegelJacobiPoint(np.array([[0.9j]]), np.array([[0j]]))

    def theta_fn(omega, z):
        return theta_mod.theta_M(mm, jacobiweil.SiegelJacobiPoint(omega, z), 1e-13).value

    return _c(theta_mod.fourier_coefficient(theta_fn, np.array([[float(t_coef)]]),
                                            np.array([[float(r_coef)]]), p0, grid_points=10))


def _fock(mm, omega, h, f) -> dict:
    out = fock_mod.fock_apply(mm, omega, h, f)
    return {"coeffs": sorted([list(k), _c(v)] for k, v in out.coeffs.items()),
            "lin": _cm(out.lin), "scalar": _c(out.scalar)}


_WORKLOAD_OPS = {"closed-form": _closed_form, "theta-stress": _theta_stress}


def build(name: str, seed: int) -> Workload:
    """The op list of one pass of workload ``name``, generated from ``seed``."""
    w = Workload(name)
    _WORKLOAD_OPS[name](w, np.random.default_rng([seed, list(WORKLOADS).index(name)]))
    return w
