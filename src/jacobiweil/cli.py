"""Batch command-line front end with machine-readable JSON output.

A job is either a JSON JobSpec (via --job FILE or stdin) or a named
verification suite (--suite NAME --seed N --count N [--tol X]).  Output is a
single JSON object on stdout, strict JSON (no NaN or infinity); exit codes:
0 all residuals within tolerance, 1 residual exceeded, 2 usage error,
3 resource/convergence error, an overflow inside a job or a non-finite output.

JobSpec: {"command": <name>, "params": {...}, "tol": float, "seed": int}
with command one of theta, theta-sum, maslov, cocycle, covariance,
verify-suite, casimir, multiplicity.  Matrices are row-major nested arrays,
complex scalars [re, im].  Every real is a finite JSON number: a string, a bool,
NaN or infinity in its place is a usage error (see ``serialize.decode_real``).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, serialize
from .errors import (ConvergenceError, DomainError, EigenSolverError,
                     ResourceError, _integer)
from .groups import IwasawaCoords, SiegelJacobiPoint
from .states import ground_state

SCHEMA = "1"


@functools.cache
def _module(name: str):
    """The package module ``name``, imported on a job's first use of it.

    A job imports only the modules its command needs; the jobs look each
    function up on the cached module at call time, so a rebinding of the
    module's attribute (a tracer's wrapper, for one) is seen by the next call.
    """
    return importlib.import_module(f".{name}", __package__)


def _positive(name, value) -> float:
    value = serialize.decode_real(value)
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return value


def _real_vector(value) -> np.ndarray:
    """A JSON list of reals as a float vector; one bare real is a 1-vector."""
    return serialize.decode_real_matrix([value if isinstance(value, list) else [value]])[0]


def _certification(tv) -> dict:
    t = tv.truncation
    return {"radius": t.radius, "tail_bound": t.tail_bound, "terms": t.terms,
            "roundoff_bound": t.roundoff_bound}


def _job_theta(params, tol):
    tol = 1e-9 if tol is None else tol
    mm = serialize.decode_real_matrix(params["M"])
    m = _integer("m", params.get("m", mm.shape[0]))
    n = params.get("n")
    shape_o = shape_z = None
    if n is not None:
        n = _integer("n", n)
        shape_o, shape_z = (n, n), (m, n)
    p = SiegelJacobiPoint(serialize.decode_complex_matrix(params["omega"], shape_o),
                          serialize.decode_complex_matrix(params["z"], shape_z))
    tv = _module("theta").theta_M(mm, p, tol)
    return {"value": serialize.encode_complex(tv.value)}, _certification(tv), True


def _job_theta_sum(params, tol):
    tol = 1e-9 if tol is None else tol
    n = _integer("n", params["n"])
    f = serialize.decode_state(params["f"]) if "f" in params else ground_state(n)
    coords = IwasawaCoords(serialize.decode_complex(params["tau"]),
                           serialize.decode_real(params.get("theta", 0.0)))
    jt = _module("jacobi_theta")
    xi = jt.LatticePair(_real_vector(params.get("lambda", [0.0] * n)),
                        _real_vector(params.get("mu", [0.0] * n)))
    tv = jt.theta_sum_f(f, coords, xi, t=serialize.decode_real(params.get("t", 0.0)), tol=tol)
    return {"value": serialize.encode_complex(tv.value)}, _certification(tv), True


def _job_maslov(params, tol):
    maslov = _module("maslov")
    ls = [maslov.Lagrangian(serialize.decode_real_matrix(b)) for b in params["lagrangians"]]
    return {"index": maslov.maslov_chain(ls)}, {}, True


def _job_cocycle(params, tol):
    maslov = _module("maslov")
    variant = params.get("type", "sl2")
    if variant == "sl2":
        val = maslov.cocycle_sl2(serialize.decode_real_matrix(params["M1"]),
                                 serialize.decode_real_matrix(params["M2"]),
                                 _integer("n", params.get("n", 1)))
    elif variant == "clm":
        ell = maslov.Lagrangian(serialize.decode_real_matrix(params["lagrangian"]))
        val = maslov.cocycle_clm(serialize.decode_real(params.get("m", 1.0)), ell,
                                 serialize.decode_symplectic(params["g1"]),
                                 serialize.decode_symplectic(params["g2"]))
    else:
        raise DomainError(f"unknown cocycle type {variant!r}")
    return {"value": serialize.encode_complex(val)}, {}, True


def _job_covariance(params, tol):
    mm = serialize.decode_real_matrix(params["M"])
    word = serialize.decode_word(params["word"])
    h = serialize.decode_heisenberg(params["heisenberg"])
    p = serialize.decode_point(params["point"])
    branch = params.get("branch", "auto")
    if branch != "auto":
        branch = serialize.decode_complex(branch)
    res, eps = _module("weil").covariance_residual(mm, word, h, p, branch=branch)
    return ({"residual": res, "eps": serialize.encode_complex(eps)}, {},
            res <= (1e-9 if tol is None else tol))


def _job_casimir(params, tol):
    maass = _module("maass")
    func = maass.sample_function(params.get("function", "poly-exp"))
    h = _positive("h", params.get("h", 1e-3))
    val = maass.casimir_km(func, _integer("k", params["k"]), _integer("m", params["m"]),
                           serialize.decode_complex(params["tau"]),
                           serialize.decode_complex(params["z"]), h)
    return {"value": serialize.encode_complex(val)}, {"step": h}, True


def _job_multiplicity(params, tol):
    taus = params["taus"]
    if not isinstance(taus, list):
        raise DomainError("taus must be a list of integers")
    val = _module("maass").multiplicity(taus, params["m"], params["n"])
    return {"multiplicity": val}, {}, True


def _job_verify_suite(params, tol):
    report = _module("suites").run_suite(params["name"], params.get("seed", 0),
                                         params.get("count", 20), tol)
    cert = {"max_residual": report["max_residual"], "tol": report["tol"]}
    return report, cert, bool(report["passed"])


_COMMANDS = {
    "theta": _job_theta,
    "theta-sum": _job_theta_sum,
    "maslov": _job_maslov,
    "cocycle": _job_cocycle,
    "covariance": _job_covariance,
    "verify-suite": _job_verify_suite,
    "casimir": _job_casimir,
    "multiplicity": _job_multiplicity,
}


def run_job(spec: dict) -> tuple[dict, int]:
    """Execute a JobSpec; returns (JobResult dict, exit code)."""
    t0 = time.perf_counter()
    if not isinstance(spec, dict):
        raise DomainError("a JobSpec must be a JSON object")
    command = spec.get("command")
    if command not in _COMMANDS:
        raise DomainError(f"unknown command {command!r}; available: {sorted(_COMMANDS)}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise DomainError("params must be an object")
    tol = spec.get("tol")
    if tol is not None:
        _positive("tol", tol)
    seed = spec.get("seed")
    if seed is not None:
        _integer("seed", seed)
    outputs, certification, ok = _COMMANDS[command](params, tol)
    result = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "inputs": {"params": params, "tol": tol, "seed": seed},
        "outputs": outputs,
        "certification": certification,
        "passed": bool(ok),
        "wall_time": time.perf_counter() - t0,
    }
    return result, 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a DomainError, so that ``main``
    prints it as a usage error in JSON on stdout (argparse would print it on
    stderr and exit)."""

    def error(self, message):
        raise DomainError(message)


# built once: building it takes about ten times as long as one parse_args
_PARSER = _Parser(
    prog="jacobiweil",
    description="Evaluation and verification jobs with JSON output")
_PARSER.add_argument("--job", help="path to a JobSpec JSON file ('-' for stdin)")
_PARSER.add_argument("--suite", help="named verification suite")
_PARSER.add_argument("--seed", type=int, default=0)
_PARSER.add_argument("--count", type=int, default=20)
_PARSER.add_argument("--tol", type=float, default=None)
_PARSER.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.suite is not None:
            spec = {"command": "verify-suite", "tol": args.tol, "seed": args.seed,
                    "params": {"name": args.suite, "seed": args.seed,
                               "count": args.count}}
        elif args.job is not None:
            raw = sys.stdin.read() if args.job == "-" else Path(args.job).read_text()
            spec = json.loads(raw)
        else:
            raise DomainError("give a JobSpec with --job FILE or a suite with --suite NAME")
        result, code = run_job(spec)
    # LinAlgError subclasses ValueError, so the resource handler comes first
    except (ResourceError, ConvergenceError, EigenSolverError, np.linalg.LinAlgError,
            ArithmeticError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": f"resource: {exc}"}), file=sys.stdout)
        return 3
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": f"usage: {exc}"}), file=sys.stdout)
        return 2
    try:
        text = json.dumps(result, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        # strict JSON has no NaN or infinity: a non-finite result (an overflowed
        # theta value, for one) is reported like any other unreachable result
        print(json.dumps({"schema": SCHEMA, "error": f"resource: non-finite output ({exc})"}))
        return 3
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
