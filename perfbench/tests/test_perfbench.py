"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jacobiweil
from perfbench import checks, ops, run, tracing

ROOT = Path(__file__).resolve().parents[2]


def _one_pass(workload):
    outputs = run.Outputs(len(workload.ops))
    run.run_pass(workload.ops, [], outputs)
    return outputs


@pytest.mark.parametrize("name", sorted(ops.WORKLOADS))
def test_smoke_every_check_passes(name):
    workload = ops.build(name, 11)
    assert workload.setup_spec
    assert run.check_outputs(workload.ops, _one_pass(workload)) == 0


@pytest.mark.parametrize("name", sorted(ops.WORKLOADS))
def test_traced_outputs_match_untraced(name):
    workload = ops.build(name, 12)
    plain = _one_pass(workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _one_pass(workload)
    finally:
        tracer.uninstall()
    assert jacobiweil.theta.lattice_sum is tracer.originals["theta.lattice_sum"]
    assert json.dumps(plain.first, sort_keys=True) == json.dumps(traced.first, sort_keys=True)
    metrics = tracer.metrics(1)
    assert set(metrics) == set(tracing.per_layer_units()) - {"trace.overhead_frac",
                                                               "trace.op_s"}
    assert sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) > 0


@pytest.mark.parametrize("name", sorted(ops.WORKLOADS))
def test_seed_sets_the_inputs(name):
    def specs(seed):
        return json.dumps([op.spec for op in ops.build(name, seed).ops])

    assert specs(3) == specs(3)
    assert specs(3) != specs(4)


def test_self_time_subtracts_covered_child_time():
    tracer = tracing.Tracer()
    # span 1 [0, 10] with children [1, 4] and [3, 6] (overlapping, from two threads)
    tracer.spans[:] = [(2, 1, 0, 1.0, 4.0, 0), (3, 1, 0, 3.0, 6.0, 0), (1, 0, 0, 0.0, 10.0, 0)]
    assert tracer.self_times() == {2: 3.0, 3: 3.0, 1: 5.0}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed-form",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_a_pass_that_differs_from_the_first_fails():
    op = ops.Op("api:fake", {}, lambda: None, lambda out: None)
    outputs = run.Outputs(1)
    for out in (1.0, 1.0, 2.0):
        outputs.record(0, out)
    assert run.check_outputs([op], outputs) == 1


def test_theta_sum_closed_form_matches_the_library_state():
    from jacobiweil.jacobi_theta import LatticePair, theta_state

    b0 = 0.2 * np.exp(0.7j)
    params = {"n": 1, "tau": [0.3, 0.8], "theta": 2.1, "lambda": [0.2], "mu": [-0.3],
              "t": 0.4, "f": {"c": [0.6, -0.2], "A": [[[0.0, 1.0]]], "B": [[[b0.real, b0.imag]]]}}
    c, a_diag, b_row = checks._theta_sum_state(params)
    f = jacobiweil.GaussianState(0.6 - 0.2j, 1j * np.eye(1), np.array([[b0]]))
    st = theta_state(f, jacobiweil.IwasawaCoords(0.3 + 0.8j, 2.1), LatticePair([0.2], [-0.3]), 0.4)
    assert abs(c - st.c) < 1e-12
    assert abs(a_diag[0] - st.a[0, 0]) < 1e-12
    assert abs(b_row[0] - st.b[0, 0]) < 1e-12


def test_casimir_check_rejects_a_wrong_coefficient():
    from jacobiweil.maass import casimir_km, casimir_km_k_variant

    params = {"function": "poly-exp", "k": 3, "m": 2, "tau": [0.2, 1.1], "z": [0.25, 0.3]}
    args = (jacobiweil.sample_function("poly-exp"), 3, 2, 0.2 + 1.1j, 0.25 + 0.3j)
    assert checks.check_casimir(params, casimir_km(*args)) is None
    assert checks.check_casimir(params, casimir_km_k_variant(*args)) is not None
