"""Every kind of failure record a suite can write is JSON-ready and fails its job.

Working code passes every suite, so each record is forced: the function that
``suites`` imports for the check is replaced (``monkeypatch``) by one whose
result is off, in the type the real function returns.  Each suite's report
must then pass strict ``json.dumps``, hold every kind of record the suite
writes, keep five failures at most, and make its ``verify-suite`` job exit 1.
"""

import dataclasses
import json

import numpy as np
import pytest

from jacobiweil import suites
from jacobiweil.cli import run_job
from jacobiweil.suites import run_suite


def _first_shifted(real, by):
    """``real`` with the first index of each call raised by ``by``: a shift of
    4 flips the phase exp(-i pi tau / 4) of that index."""
    def fake(triples):
        out = real(triples)
        return [v + by * (i == 0) for i, v in enumerate(out)]
    return fake


# suite: ({name imported by suites: fake from the real function}, record kinds)
BROKEN = {
    "maslov-axioms": ({"_indices": lambda real: lambda triples: [v + 1 for v in real(triples)]},
                      {"defects"}),
    "cocycles": ({"cocycle_sl2": lambda real: lambda *a: -real(*a),
                  "_indices": lambda real: _first_shifted(real, 4)},
                 {"sl2-match", "cocycle-condition"}),
    "theta-laws": ({"theta_multiplier": lambda real: lambda *a: -real(*a),
                    "siegel_theta": lambda real: lambda omega, tol: dataclasses.replace(
                        real(omega, tol), value=real(omega, tol).value + np.trace(omega))},
                   {"gamma", "theta-law"}),
    # + 1000 h moves every value (the relative defect) and the step ratio (Richardson)
    "casimir-invariance": ({"casimir_km": lambda real: lambda func, k, m, tau, z, h=1e-3:
                            real(func, k, m, tau, z, h) + 1000 * h},
                           {"relative_defect", "richardson"}),
}


def _kind(failure: dict) -> str:
    """A record's "kind", or else the key that only that record holds."""
    return failure.get("kind") or next(
        key for key in ("defects", "gamma", "relative_defect") if key in failure)


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_every_failure_record_is_json_ready(name, monkeypatch):
    fakes, kinds = BROKEN[name]
    for attr, make in fakes.items():
        monkeypatch.setattr(suites, attr, make(getattr(suites, attr)))
    report = run_suite(name, 0, 2)
    json.dumps(report, allow_nan=False)
    assert report["passed"] is False and 1 <= len(report["failures"]) <= 5
    assert {_kind(f) for f in report["failures"]} == kinds
    result, code = run_job({"command": "verify-suite",
                            "params": {"name": name, "seed": 0, "count": 2}})
    json.dumps(result, allow_nan=False)
    assert code == 1 and result["passed"] is False
