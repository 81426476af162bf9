import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jacobiweil import DomainError, GaussianState, JacobiElement
from jacobiweil import serialize
from jacobiweil.cli import main, run_job
from jacobiweil.maslov import random_symplectic
from jacobiweil.suites import SUITES, rand_heisenberg, rand_point, rand_word, run_suite


def test_serialize_roundtrips(rng):
    h = rand_heisenberg(rng, 2, 2)
    h2 = serialize.decode_heisenberg(serialize.encode_heisenberg(h))
    assert np.allclose(h.kappa, h2.kappa)
    p = rand_point(rng, 2, 1)
    p2 = serialize.decode_point(serialize.encode_point(p))
    assert np.allclose(p.omega, p2.omega) and np.allclose(p.z, p2.z)
    elt = JacobiElement(random_symplectic(rng, 2), h)
    elt2 = serialize.decode_jacobi(serialize.encode_jacobi(elt))
    assert np.allclose(elt.g.g, elt2.g.g)
    f = GaussianState(0.3 - 0.2j, 1j * np.eye(2), np.ones((1, 2)) * (1 + 2j))
    f2 = serialize.decode_state(serialize.encode_state(f))
    assert f2.c == f.c and np.allclose(f2.a, f.a) and np.allclose(f2.b, f.b)
    word = rand_word(rng, 2)
    word2 = serialize.decode_word(json.loads(json.dumps(serialize.encode_word(word))))
    assert [k for k, _ in word2] == [k for k, _ in word]
    assert all((a is None and b is None) or np.array_equal(a, b)
               for (_, a), (_, b) in zip(word, word2))


@pytest.mark.parametrize("seed", [0, 7])
def test_covariance_suite_failures_replay_as_jobs(seed):
    # at tol 0 every case fails; a failure's M, word, heisenberg and point are
    # the params of a covariance JobSpec, whose residual has the same bits
    failures = json.loads(json.dumps(run_suite("covariance", seed, 3, 0.0)["failures"]))
    assert len(failures) == 3
    for failure in failures:
        params = {key: failure[key] for key in ("M", "word", "heisenberg", "point")}
        result, code = run_job({"command": "covariance", "params": params})
        assert code == 0 and result["outputs"]["residual"] == failure["residual"]


def test_run_job_theta():
    spec = {"command": "theta", "tol": 1e-9,
            "params": {"M": [[2.0]], "omega": [[[0.0, 1.0]]], "z": [[[0.0, 0.0]]]}}
    result, code = run_job(spec)
    assert code == 0
    assert result["outputs"]["value"][0] == pytest.approx(1.00373, abs=1e-5)
    assert result["certification"]["tail_bound"] <= 1e-9
    cert = result["certification"]
    assert cert["terms"] == 2 * cert["radius"] + 1 and 0 < cert["roundoff_bound"] < 1e-12
    assert result["schema"] == "1" and "version" in result


def test_run_job_maslov():
    spec = {"command": "maslov",
            "params": {"lagrangians": [[[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]]]}}
    result, code = run_job(spec)
    assert code == 0 and result["outputs"]["index"] == -1


def test_run_job_multiplicity():
    result, code = run_job({"command": "multiplicity",
                            "params": {"m": 2, "n": 2, "taus": [2, 0]}})
    assert code == 0 and result["outputs"]["multiplicity"] == 3


def test_run_job_cocycle_sl2():
    spec = {"command": "cocycle",
            "params": {"type": "sl2", "M1": [[0.0, -1.0], [1.0, 0.0]],
                       "M2": [[1.0, 0.0], [1.0, 1.0]], "n": 1}}
    result, code = run_job(spec)
    val = complex(*result["outputs"]["value"])
    assert code == 0
    assert val == pytest.approx(np.exp(-1j * np.pi / 4))


def test_run_job_covariance_exit_codes(rng):
    h = rand_heisenberg(rng, 1, 1)
    p = rand_point(rng, 1, 1)
    params = {"M": [[1.0]], "word": [["sigma", None], ["t", [[0.4]]]],
              "heisenberg": serialize.encode_heisenberg(h),
              "point": serialize.encode_point(p)}
    result, code = run_job({"command": "covariance", "params": params, "tol": 1e-9})
    assert code == 0 and result["outputs"]["residual"] < 1e-9
    result, code = run_job({"command": "covariance", "params": params, "tol": 1e-16})
    assert code == 1


def test_cli_usage_errors(tmp_path, capsys):
    assert main([]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--job", str(bad)]) == 2
    good = tmp_path / "unknown.json"
    good.write_text(json.dumps({"command": "fractal", "params": {}}))
    assert main(["--job", str(good)]) == 2
    capsys.readouterr()
    malformed = [
        {"command": "theta", "params": {"M": [[2.0, 1.0], [0.0, 2.0]], "n": 1,
                                        "omega": [[[0.0, 1.0]]],
                                        "z": [[[0.0, 0.0]], [[0.0, 0.0]]]}},
        {"command": "cocycle",
         "params": {"type": "clm", "lagrangian": [[1.0], [0.0]],
                    "g1": {"matrix": [[1.0, 1.0], [1.0, 1.0]]},
                    "g2": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}},
        {"command": "theta", "tol": "x",
         "params": {"M": [[2.0]], "omega": [[[0.0, 1.0]]], "z": [[[0.0, 0.0]]]}},
        {"command": "multiplicity", "params": {"m": "a", "n": 2, "taus": [2, 0]}},
        [{"command": "maslov"}],
        # integer fields are not truncated, and a bool is not an integer
        {"command": "multiplicity", "params": {"m": 2.7, "n": 2, "taus": [2, 0]}},
        {"command": "multiplicity", "params": {"m": True, "n": 2, "taus": [2, 0]}},
        {"command": "multiplicity", "params": {"m": 2, "n": 2, "taus": [2.5, 0]}},
        {"command": "verify-suite", "params": {"name": "cocycles", "seed": 1.5, "count": 2.9}},
        {"command": "theta-sum", "params": {"n": 1.9, "tau": [0.0, 1.0]}},
        {"command": "casimir", "params": {"function": "constant", "k": 2.0, "m": 1,
                                          "tau": [0.2, 1.1], "z": [0.1, 0.2]}},
        {"command": "casimir", "params": {"function": "constant", "k": 2, "m": 1, "h": False,
                                          "tau": [0.2, 1.1], "z": [0.1, 0.2]}},
        {"command": "covariance", "params": {"M": [[1.0]], "word": {"c": -1}}},
        # json reads NaN; a NaN matrix is a usage error, not an SVD failure (exit 3)
        {"command": "cocycle",
         "params": {"type": "clm", "lagrangian": [[1.0], [0.0]],
                    "g1": {"matrix": [[math.nan, math.nan], [math.nan, math.nan]]},
                    "g2": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}},
        # every real is a finite JSON number: no string, bool, NaN or infinity
        # (json.dumps writes math.nan and math.inf as the bare NaN and Infinity)
        {"command": "theta-sum", "params": {"n": 1, "tau": [0.0, 1.0], "t": "nan"}},
        {"command": "theta-sum", "params": {"n": 1, "tau": [0.0, 1.0], "t": math.nan}},
        {"command": "theta-sum", "params": {"n": 1, "tau": [0.0, 1.0], "lambda": ["inf"]}},
        {"command": "theta-sum", "params": {"n": 1, "tau": [0.0, 1.0], "mu": [math.inf]}},
        {"command": "theta-sum", "params": {"n": 1, "tau": [0.0, 1.0], "theta": True}},
        {"command": "theta-sum", "params": {"n": 1, "tau": [math.nan, 1.0]}},
        {"command": "theta", "params": {"M": [["2"]], "omega": [[[0.0, 1.0]]],
                                        "z": [[[0.0, 0.0]]]}},
        {"command": "theta", "params": {"M": [[2.0]], "omega": [[0.0, "1"]], "n": 1,
                                        "z": [[[0.0, 0.0]]]}},
        {"command": "cocycle",
         "params": {"type": "clm", "m": "nan", "lagrangian": [[1.0], [0.0]],
                    "g1": {"matrix": [[0.0, -1.0], [1.0, 0.0]]},
                    "g2": {"matrix": [[1.0, 0.0], [1.0, 1.0]]}}},
        {"command": "cocycle", "params": {"type": "sl2", "M1": [[1.0, 0.0], [0.0, "1"]],
                                          "M2": [[1.0, 0.0], [0.0, 1.0]]}},
        # an integer literal beyond the largest float
        {"command": "casimir", "params": {"function": "constant", "k": 2, "m": 1,
                                          "h": 10 ** 400, "tau": [0.2, 1.1], "z": [0.1, 0.2]}},
        # a malformed word letter is refused before any operator runs: alpha not
        # square, and a b of the wrong size for an n = 2 point
        {"command": "covariance",
         "params": dict(VALID_PARAMS["covariance"], word=[["g", [[1.0, 2.0]]]])},
        {"command": "covariance",
         "params": dict(VALID_PARAMS["covariance"], word=[["t", [[0.4]]]],
                        heisenberg={"lambda": [[0.1, 0.0]], "mu": [[0.2, 0.0]],
                                    "kappa": [[0.0]]},
                        point={"omega": [[[0.0, 1.0], 0.0], [0.0, [0.0, 1.0]]],
                               "z": [[0.0, 0.0]]})},
        # a sigma letter takes no parameter
        {"command": "covariance",
         "params": dict(VALID_PARAMS["covariance"], word=[["sigma", [[7.0, 3.0]]]])},
        # a suite with no cases would pass having checked nothing
        {"command": "verify-suite", "params": {"name": "maslov-axioms", "count": -5}},
        {"command": "verify-suite", "params": {"name": "cocycles", "count": 0}},
        {"command": "verify-suite", "params": {"name": "covariance", "count": -1}},
    ]
    for spec in malformed:
        bad.write_text(json.dumps(spec))
        assert main(["--job", str(bad)]) == 2, spec
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0]), spec


# One valid, cheap params object per command; the property test keeps, drops or
# replaces each field, so specs reach past the first check of every job.
VALID_PARAMS = {
    "theta": {"M": [[2.0]], "omega": [[[0.0, 1.0]]], "z": [[[0.0, 0.0]]], "n": 1, "m": 1},
    "theta-sum": {"n": 1, "tau": [0.0, 1.0], "theta": 0.0, "lambda": [0.0], "mu": [0.0],
                  "t": 0.0, "f": {"c": [1.0, 0.0], "A": [[[0.0, 1.0]]], "B": [[[0.0, 0.0]]]}},
    "maslov": {"lagrangians": [[[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]]]},
    "cocycle": {"type": "clm", "m": 1.0, "lagrangian": [[1.0], [0.0]], "n": 1,
                "M1": [[0.0, -1.0], [1.0, 0.0]], "M2": [[1.0, 0.0], [1.0, 1.0]],
                "g1": {"matrix": [[0.0, -1.0], [1.0, 0.0]]},
                "g2": {"matrix": [[1.0, 0.0], [1.0, 1.0]]}},
    "covariance": {"M": [[1.0]], "word": [["sigma", None], ["t", [[0.4]]], ["g", [[2.0]]]],
                   "heisenberg": {"lambda": [[0.1]], "mu": [[0.2]], "kappa": [[0.0]]},
                   "point": {"omega": [[[0.1, 1.2]]], "z": [[[0.1, 0.3]]]}, "branch": "auto"},
    "verify-suite": {"name": "cocycles", "seed": 1, "count": 2},
    "casimir": {"function": "constant", "k": 2, "m": 1, "tau": [0.2, 1.1], "z": [0.1, 0.2],
                "h": 1e-3},
    "multiplicity": {"m": 2, "n": 2, "taus": [2, 0]},
}
# JSON matrices and words that are not lists, with the usage message of each
_ROWS = "expected a matrix as a list of rows of equal length, got "
NOT_LISTS = [
    ({"M": 3}, _ROWS + "3"),
    ({"M": [[1.0], [1.0, 2.0]]}, _ROWS + "[[1.0], [1.0, 2.0]]"),
    ({"point": {"omega": 3, "z": [[[0.1, 0.3]]]}}, _ROWS + "3"),
    ({"point": {"omega": [[[0.1, 1.2]], []], "z": [[[0.1, 0.3]]]}}, _ROWS + "[[[0.1, 1.2]], []]"),
    ({"word": [["sigma", 0]]}, "sigma generator takes no parameter"),
]
_NOT_LIST_SPECS = [{"command": "covariance", "params": dict(VALID_PARAMS["covariance"], **change)}
                   for change, _ in NOT_LISTS]
# branches whose square is NaN or overflows: not a lift, so a usage error (exit 2)
_BRANCH_SPECS = [{"command": "covariance", "params": dict(VALID_PARAMS["covariance"], branch=eps)}
                 for eps in ([1e200, 1e200], [1e155, 0])]
_SCALARS = (st.none() | st.booleans() | st.integers(-4, 4) | st.floats(-4, 4)
            | st.sampled_from(["", "sl2", "clm", "t", "g", "sigma", "constant", *SUITES]))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(["c", "A", "B", "lambda", "mu", "kappa", "omega", "z", "matrix"]),
    inner, max_size=3), max_leaves=10)


@st.composite
def job_specs(draw):
    command = draw(st.sampled_from(sorted(VALID_PARAMS)))
    params = {}
    for key, value in VALID_PARAMS[command].items():
        action = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
        if action != "drop":
            params[key] = value if action == "keep" else draw(_JSON)
    spec = {"command": command, "params": params}
    if draw(st.booleans()):
        spec["tol"] = draw(_JSON | st.floats(1e-16, 1e-3))
    if draw(st.booleans()):
        spec["seed"] = draw(_JSON)
    return spec


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(job_specs())
# n = 0 is a usage error (exit 2); an overflow inside a job is a resource error (exit 3)
@example({"command": "theta-sum", "params": {"n": 0, "tau": [0.0, 1.0]}})
@example({"command": "theta", "params": {"n": 0, "m": 1, "M": [[1.0]], "omega": [], "z": [[]]}})
@example({"command": "casimir", "params": {"function": "poly-exp", "k": 2, "m": 1,
                                           "tau": [0.0, 1e300], "z": [0.1, 0.2]}})
@example({"command": "casimir", "params": {"k": 10 ** 400, "m": 1, "tau": [0.2, 1.1],
                                           "z": [0.1, 0.2]}})
@example(_NOT_LIST_SPECS[0])
@example(_NOT_LIST_SPECS[1])
@example(_NOT_LIST_SPECS[2])
@example(_NOT_LIST_SPECS[3])
@example(_NOT_LIST_SPECS[4])
@example(_BRANCH_SPECS[0])
@example(_BRANCH_SPECS[1])
def test_cli_contract_property(spec):
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(spec))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["--job", "-"])
    finally:
        sys.stdin = saved
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, lines
    doc = _strict_json(lines[0])
    assert isinstance(doc, dict)
    assert code in (0, 1, 2, 3)
    if "error" in doc:
        assert code in (2, 3)
    else:
        assert code == (0 if doc["passed"] else 1)


@pytest.mark.parametrize("k", range(len(NOT_LISTS)))
def test_cli_refuses_matrices_and_words_that_are_not_lists(k, capsys):
    sys.stdin, saved = io.StringIO(json.dumps(_NOT_LIST_SPECS[k])), sys.stdin
    try:
        assert main(["--job", "-"]) == 2
    finally:
        sys.stdin = saved
    error = f"usage: {NOT_LISTS[k][1]}"
    assert json.loads(capsys.readouterr().out) == {"schema": "1", "error": error}


@pytest.mark.parametrize("k", range(len(_BRANCH_SPECS)))
def test_cli_refuses_a_branch_that_is_not_a_lift(k, capsys):
    sys.stdin, saved = io.StringIO(json.dumps(_BRANCH_SPECS[k])), sys.stdin
    try:
        assert main(["--job", "-"]) == 2
    finally:
        sys.stdin = saved
    error = "usage: eps^2 must equal alpha_{iI}(g)^{-1}"
    assert json.loads(capsys.readouterr().out) == {"schema": "1", "error": error}


def test_serialize_refuses_matrices_and_words_that_are_not_lists():
    for decode in (serialize.decode_real_matrix, serialize.decode_complex_matrix):
        for rows in (3, [[1.0], [1.0, 2.0]], [1.0, 2.0], "ab"):
            with pytest.raises(DomainError) as info:
                decode(rows)
            assert str(info.value) == _ROWS + repr(rows)
    with pytest.raises(DomainError) as info:
        serialize.decode_complex_matrix([[0.0], [1.0, 2.0]], (1, 1))
    assert str(info.value) == _ROWS + "[[0.0], [1.0, 2.0]]"
    assert serialize.decode_word([["sigma", 0]]) == [("sigma", 0)]


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, as strict parsers do."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_cli_non_finite_result_is_a_resource_error(tmp_path):
    # the theta value is about e^785, which overflows a double: the sum comes
    # out NaN, and strict JSON has no way to print it
    spec = {"command": "theta", "tol": 1e-10,
            "params": {"M": [[1.0]], "omega": [[[-0.42, 0.001]]], "z": [[[0.3, 0.5]]]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), np.errstate(all="ignore"):
        code = main(["--job", str(path)])
    assert code == 3
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, lines
    doc = _strict_json(lines[0])
    assert set(doc) == {"schema", "error"}
    assert doc["error"].startswith("resource: ")


def test_cli_resource_exit(tmp_path):
    spec = {"command": "theta", "tol": 1e-12,
            "params": {"M": [[1.0]], "omega": [[[0.0, 1e-9]]], "z": [[[0.0, 0.0]]]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec))
    assert main(["--job", str(path)]) == 3


def _run_cli(args, env):
    proc = subprocess.run([sys.executable, "-m", "jacobiweil.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def test_cli_overflowing_covariance_factor_is_a_quiet_resource_error(cli_env):
    # at lambda = 16 the index-M factor exp(2 pi 16^2 / 2) is past the float
    # range: the job refuses it (exit 3) and prints no numpy warning
    spec = {"command": "covariance",
            "params": {"M": [[1.0]], "word": [],
                       "heisenberg": {"lambda": [[16.0]], "mu": [[0.0]], "kappa": [[0.0]]},
                       "point": {"omega": [[[0.0, 1.0]]], "z": [[[0.0, 0.0]]]}}}
    proc = subprocess.run([sys.executable, "-m", "jacobiweil.cli", "--job", "-"],
                          input=json.dumps(spec), capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 3 and proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "schema": "1", "error": "resource: the index-M factor (nan+nanj) is not finite"}


@pytest.mark.parametrize("argv, message", [
    (["--suite", "bogus"], "usage: unknown suite 'bogus'; available: " + str(sorted(SUITES))),
    (["--seed", "abc"], "usage: argument --seed: invalid int value: 'abc'"),
    (["--bogus-flag"], "usage: unrecognized arguments: --bogus-flag"),
    ([], "usage: give a JobSpec with --job FILE or a suite with --suite NAME"),
])
def test_cli_flag_errors_are_one_json_object(argv, message, capsys):
    # a malformed command line keeps the contract: one JSON object on stdout, exit 2
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"schema": "1", "error": message} and err == ""


# The jacobiweil modules that one cold job of each command loads.  Every job
# needs cli, errors and serialize, which loads groups, linalg and states.
_EVERY_JOB = {"cli", "errors", "serialize", "groups", "linalg", "states"}
FOOTPRINTS = {
    "theta": _EVERY_JOB | {"theta"},
    "theta-sum": _EVERY_JOB | {"jacobi_theta", "theta", "weil", "automorphy"},
    "maslov": _EVERY_JOB | {"maslov"},
    "cocycle": _EVERY_JOB | {"maslov"},
    "covariance": _EVERY_JOB | {"weil", "automorphy"},
    "verify-suite": _EVERY_JOB | {"suites", "automorphy", "maass", "maslov", "theta", "weil"},
    "casimir": _EVERY_JOB | {"maass"},
    "multiplicity": _EVERY_JOB | {"maass"},
}
# prints, on stderr, the submodules loaded by ``import jacobiweil`` and by one job
_FOOTPRINT_CHILD = """
import json, sys
def loaded():
    return sorted(k[len("jacobiweil."):] for k in sys.modules if k.startswith("jacobiweil."))
import jacobiweil
bare = loaded()
from jacobiweil.cli import main
code = main(sys.argv[1:])
print(json.dumps([bare, code, loaded()]), file=sys.stderr)
"""


@pytest.mark.parametrize("command", sorted(FOOTPRINTS))
def test_cold_job_loads_only_its_modules(command, cli_env):
    spec = json.dumps({"command": command, "params": VALID_PARAMS[command]})
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_CHILD, "--job", "-"], input=spec,
                          capture_output=True, text=True, env=cli_env)
    bare, code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert bare == [] and code == 0
    assert set(loaded) == FOOTPRINTS[command]


def test_cli_suite_determinism_across_threads(cli_env):
    outs = []
    for threads in ("1", "3"):
        code, out = _run_cli(["--suite", "cocycles", "--seed", "11",
                              "--count", "25", "--threads", threads], cli_env)
        assert code == 0
        doc = json.loads(out)
        doc.pop("wall_time", None)
        doc["outputs"].pop("wall_time", None)
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_job_replay_determinism(tmp_path, cli_env):
    spec = {"command": "theta", "tol": 1e-10, "seed": 5,
            "params": {"M": [[2.0]], "omega": [[[0.3, 1.1]]], "z": [[[0.1, 0.2]]]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec))
    outs = []
    for threads in ("1", "4"):
        code, out = _run_cli(["--job", str(path), "--threads", threads], cli_env)
        assert code == 0
        doc = json.loads(out)
        doc.pop("wall_time", None)
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_run_job_theta_sum():
    spec = {"command": "theta-sum", "tol": 1e-10,
            "params": {"n": 1, "tau": [0.0, 1.0], "theta": 0.0,
                       "lambda": [0.0], "mu": [0.0], "t": 0.0}}
    result, code = run_job(spec)
    assert code == 0
    assert result["outputs"]["value"][0] == pytest.approx(1.0864348112, abs=1e-9)


def test_run_job_casimir():
    result, code = run_job({"command": "casimir",
                            "params": {"function": "constant", "k": 2, "m": 1,
                                       "tau": [0.2, 1.1], "z": [0.1, 0.2]}})
    assert code == 0
    assert result["outputs"]["value"][0] == pytest.approx(5 / 8, abs=1e-9)


def test_cli_theta_flat_pair_shorthand(tmp_path, capsys):
    # with n and m given, flat scalars pair up as (re, im): [[0, 1]] is [[i]]
    def run(params):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"command": "theta", "tol": 1e-9,
                                    "params": dict(params, M=[[2.0]])}))
        code = main(["--job", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        return code, json.loads(lines[0])

    code, pair = run({"omega": [[[0, 1]]], "z": [[[0, 0]]]})
    assert code == 0
    code, flat = run({"omega": [[0, 1]], "z": [[0, 0]], "n": 1, "m": 1})
    assert code == 0
    assert flat["outputs"] == pair["outputs"]
    assert flat["certification"] == pair["certification"]
    # an odd number of scalars pairs up into no matrix
    code, doc = run({"omega": [[0, 1, 2]], "z": [[0, 0]], "n": 1, "m": 1})
    assert code == 2 and "cannot decode a (1, 1) complex matrix" in doc["error"]
    # without n the flat form is read strictly, as a 1 x 2 Omega
    code, doc = run({"omega": [[0, 1]], "z": [[0, 0]], "m": 1})
    assert code == 2 and "expected a square matrix, got shape (1, 2)" in doc["error"]


# The JobResult of each VALID_PARAMS spec (tol 1e-9 where the command reads one), as
# sorted-key JSON without wall_time, captured from the schema-1 CLI: a change to the
# output format changes this text on purpose.
JOB_BYTES = {
    "casimir": (
        '{"certification": {"step": 0.001}, "command": "casimir", '
        '"inputs": {"params": {"function": "constant", "h": 0.001, "k": 2, "m": 1, "tau": [0.2, '
        '1.1], "z": [0.1, 0.2]}, "seed": null, "tol": null}, "outputs": {"value": [0.625, 0.0]}, '
        '"passed": true, "schema": "1", "version": "0.1.0"}'),
    "cocycle": (
        '{"certification": {}, "command": "cocycle", "inputs": {"params": {"M1": [[0.0, -1.0], '
        '[1.0, 0.0]], "M2": [[1.0, 0.0], [1.0, 1.0]], "g1": {"matrix": [[0.0, -1.0], [1.0, '
        '0.0]]}, "g2": {"matrix": [[1.0, 0.0], [1.0, 1.0]]}, "lagrangian": [[1.0], [0.0]], '
        '"m": 1.0, "n": 1, "type": "clm"}, "seed": null, "tol": null}, '
        '"outputs": {"value": [0.7071067811865476, -0.7071067811865475]}, "passed": true, '
        '"schema": "1", "version": "0.1.0"}'),
    "covariance": (
        '{"certification": {}, "command": "covariance", "inputs": {"params": {"M": [[1.0]], '
        '"branch": "auto", "heisenberg": {"kappa": [[0.0]], "lambda": [[0.1]], "mu": [[0.2]]}, '
        '"point": {"omega": [[[0.1, 1.2]]], "z": [[[0.1, 0.3]]]}, "word": [["sigma", null], '
        '["t", [[0.4]]], ["g", [[2.0]]]]}, "seed": null, "tol": 1e-09}, '
        '"outputs": {"eps": [0.7414525335518785, -0.6710053207609464], '
        '"residual": 2.482534153247273e-16}, "passed": true, "schema": "1", "version": "0.1.0"}'),
    "maslov": (
        '{"certification": {}, "command": "maslov", '
        '"inputs": {"params": {"lagrangians": [[[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]]]}, '
        '"seed": null, "tol": null}, "outputs": {"index": -1}, "passed": true, "schema": "1", '
        '"version": "0.1.0"}'),
    "multiplicity": (
        '{"certification": {}, "command": "multiplicity", "inputs": {"params": {"m": 2, "n": 2, '
        '"taus": [2, 0]}, "seed": null, "tol": null}, "outputs": {"multiplicity": 3}, '
        '"passed": true, "schema": "1", "version": "0.1.0"}'),
    "theta": (
        '{"certification": {"radius": 1, "roundoff_bound": 4.931885090601649e-15, '
        '"tail_bound": 4.864622683763728e-11, "terms": 3}, "command": "theta", '
        '"inputs": {"params": {"M": [[2.0]], "m": 1, "n": 1, "omega": [[[0.0, 1.0]]], '
        '"z": [[[0.0, 0.0]]]}, "seed": null, "tol": 1e-09}, '
        '"outputs": {"value": [1.003734885463416, 0.0]}, "passed": true, "schema": "1", '
        '"version": "0.1.0"}'),
    "theta-sum": (
        '{"certification": {"radius": 2, "roundoff_bound": 8.292521477328689e-15, '
        '"tail_bound": 2.1021940704025817e-12, "terms": 5}, "command": "theta-sum", '
        '"inputs": {"params": {"f": {"A": [[[0.0, 1.0]]], "B": [[[0.0, 0.0]]], "c": [1.0, 0.0]}, '
        '"lambda": [0.0], "mu": [0.0], "n": 1, "t": 0.0, "tau": [0.0, 1.0], "theta": 0.0}, '
        '"seed": null, "tol": 1e-09}, "outputs": {"value": [1.086434811212257, 0.0]}, '
        '"passed": true, "schema": "1", "version": "0.1.0"}'),
    "verify-suite": (
        '{"certification": {"max_residual": 0.0, "tol": 1e-09}, "command": "verify-suite", '
        '"inputs": {"params": {"count": 2, "name": "cocycles", "seed": 1}, "seed": null, '
        '"tol": 1e-09}, "outputs": {"count": 2, "failures": [], "max_residual": 0.0, '
        '"passed": true, "seed": 1, "suite": "cocycles", "tol": 1e-09}, "passed": true, '
        '"schema": "1", "version": "0.1.0"}'),
}


@pytest.mark.parametrize("command", sorted(VALID_PARAMS))
def test_each_command_keeps_its_bytes(command):
    spec = {"command": command, "params": VALID_PARAMS[command]}
    if command in ("theta", "theta-sum", "covariance", "verify-suite"):
        spec["tol"] = 1e-9
    result, code = run_job(spec)
    del result["wall_time"]
    assert code == 0
    assert json.dumps(result, sort_keys=True) == JOB_BYTES[command]
