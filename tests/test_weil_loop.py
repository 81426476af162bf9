"""The one Weil operator loop: each public operator call applied in one
``weil._apply_letters`` pass equals, bit for bit, the chain of one-operator
calls that builds a checked state after every operator; the letters of
R~(tau, theta) are in ``_letter``'s output form; M and the state are checked
once per call; the loop is the one place that builds a state; and the Jacobi
theta checks make one M check and one lattice-kernel call each."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiweil import (DomainError, GaussianState, HeisenbergElement, IwasawaCoords,
                        LatticePair, SiegelJacobiPoint, asymptotic_main_term,
                        check_gamma_invariance, covariance_residual, gamma_n_generators,
                        state_distance, sw_heisenberg_apply, sw_iwasawa_apply,
                        sw_rotation_apply, theta_state, theta_sum_f, weil_apply_word,
                        weil_generator_apply, xi_to_heisenberg)
from jacobiweil import states, theta
from jacobiweil.groups import _letter
from jacobiweil.weil import _iwasawa_letters

SRC = Path(__file__).resolve().parents[1] / "src" / "jacobiweil"


def _same(got: GaussianState, want: GaussianState):
    assert got.shape == want.shape
    assert repr(got.c) == repr(want.c)
    assert got.a.tobytes() == want.a.tobytes() and got.b.tobytes() == want.b.tobytes()
    assert repr(got.im_a_min) == repr(want.im_a_min)


def _case(seed: int, n: int, m: int):
    """A random state, word of 1..6 letters, index, Heisenberg element and coordinates."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n))
    a = 0.4 * (x + x.T) + 1j * (np.eye(n) + 0.3 * x @ x.T / n)
    if rng.random() < 0.3:
        # exact zeros off the diagonal, whose signs the loop must keep
        a = 1j * np.diag(rng.uniform(0.5, 2.0, n))
    b = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    f = GaussianState(complex(*rng.normal(size=2)), a, b)
    word = []
    for _ in range(rng.integers(1, 7)):
        kind = ("t", "g", "sigma")[rng.integers(3)]
        if kind == "t":
            y = rng.normal(size=(n, n))
            word.append(("t", 0.5 * (y + y.T)))
        elif kind == "g":
            word.append(("g", rng.choice([-1.0, 1.0]) * np.eye(n) + 0.4 * rng.normal(size=(n, n))))
        else:
            word.append(("sigma", None))
    q = rng.normal(size=(m, m))
    mm = np.eye(m) + 0.3 * q @ q.T
    lam, mu = rng.normal(size=(m, n)), rng.normal(size=(m, n))
    k = rng.normal(size=(m, m))
    h = HeisenbergElement(lam, mu, 0.5 * (k + k.T) - 0.5 * (mu @ lam.T - lam @ mu.T))
    coords = IwasawaCoords(complex(2 * rng.normal(), math.exp(rng.normal())),
                           rng.uniform(-10, 10))
    return f, word, 0.5 * (mm + mm.T), h, coords


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 2))
def test_one_call_chains_match_one_operator_chains(seed, n, m):
    f, word, mm, h, coords = _case(seed, n, m)
    # a word against a fold of one-letter calls, rightmost letter first
    folded = f
    for gen in reversed(word):
        folded = weil_generator_apply(mm, gen, folded)
    _same(weil_apply_word(mm, word, f), folded)
    # R~(tau, theta) against the rotation followed by the word t(x I) g(sqrt(y) I)
    x, y = coords.tau.real, coords.tau.imag
    steps = weil_apply_word(mm, [("t", x * np.eye(n)), ("g", math.sqrt(y) * np.eye(n))],
                            sw_rotation_apply(mm, coords.theta, f))
    _same(sw_iwasawa_apply(mm, coords, f), steps)
    if m == 1:
        xi = LatticePair(h.lam[0], h.mu[0])
        one = np.eye(1)
        steps = sw_heisenberg_apply(one, xi_to_heisenberg(xi, 0.3),
                                    sw_iwasawa_apply(one, coords, f))
        _same(theta_state(f, coords, xi, 0.3), steps)


@settings(max_examples=40, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.integers(1, 3))
def test_iwasawa_letters_are_in_letter_output_form(x, y, n):
    (t_kind, b), (g_kind, (al, det)), (r_kind, theta) = _iwasawa_letters(
        IwasawaCoords(complex(x, y), 1.0), n)
    assert (t_kind, g_kind, r_kind, theta) == ("t", "g", "rot", 1.0)
    ref_b = _letter("t", x * np.eye(n), n)
    ref_al, ref_det = _letter("g", math.sqrt(y) * np.eye(n), n)
    assert b.dtype == ref_b.dtype and b.tobytes() == ref_b.tobytes()
    assert al.dtype == ref_al.dtype and al.tobytes() == ref_al.tobytes()
    assert repr(det) == repr(ref_det)
    # and refused where _letter refuses sqrt(y) I: y^{n/2} < 1e-12
    with pytest.raises(DomainError, match="alpha must be invertible"):
        _iwasawa_letters(IwasawaCoords(0.3 + 1e-9j, 1.0), 3)


def test_weil_chains_solve_few_eigenvalue_problems(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or original(a))
    f = GaussianState(0.6 - 0.2j, 1j * np.eye(1), [[0.1 + 0.2j]])
    coords, xi = IwasawaCoords(0.3 + 0.005j, 2.1), LatticePair([0.2], [-0.3])
    calls.clear()
    theta_sum_f(f, coords, xi, 0.4)
    # the returned state and M in lattice_sum; M = 1 is checked at import
    # (8 with a check per operator, 3 with M checked in theta_state)
    assert len(calls) <= 2
    calls.clear()
    sw_iwasawa_apply(np.eye(1), coords, f)
    assert len(calls) <= 2


def test_an_intermediate_overflow_still_raises():
    f = GaussianState(1.0, 1j * np.eye(1), [[0.1]])
    # g(1e200 I) makes Im A infinite; the sigma after it refuses the state
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        weil_apply_word(np.eye(1), [("sigma", None), ("g", 1e200 * np.eye(1))], f)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        weil_apply_word(np.eye(1), [("g", 1e200 * np.eye(1))], f)


def _calls(path: Path, names) -> list:
    """(enclosing function, called name) for each call of one of ``names`` in a module."""
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                out.append((getattr(scope, "name", None), name, parents[node]))
    return out


def test_weil_builds_a_state_only_at_the_loop_return():
    calls = _calls(SRC / "weil.py", {"GaussianState"})
    assert [(scope, name) for scope, name, _ in calls] == [("_apply_letters", "GaussianState")]
    assert isinstance(calls[0][2], (ast.Return, ast.IfExp))


@pytest.mark.parametrize("module", ["weil.py", "jacobi_theta.py", "states.py", "automorphy.py"])
def test_each_function_checks_m_at_most_once(module):
    scopes = [scope for scope, _, _ in _calls(SRC / module, {"index_matrix", "_index_matrix"})]
    assert scopes and len(scopes) == len(set(scopes)), scopes


def test_only_groups_refuses_a_singular_alpha():
    # weil takes its g(sqrt(y) I) letter from _letter rather than checking alpha itself
    holders = sorted(path.name for path in SRC.glob("*.py")
                     if any(isinstance(node, ast.Constant) and node.value == "alpha must be invertible"
                            for node in ast.walk(ast.parse(path.read_text()))))
    assert holders == ["groups.py"]
    assert ("_iwasawa_letters", "_letter") in [
        (scope, name) for scope, name, _ in _calls(SRC / "weil.py", {"_letter"})]


def test_only_linalg_reads_the_positive_definiteness_tolerance():
    readers = sorted(path.name for path in SRC.glob("*.py")
                     if any(isinstance(node, (ast.Name, ast.alias)) and "PD_TOL" in
                            (getattr(node, "id", None), getattr(node, "name", None))
                            for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == ["linalg.py"]


def test_jacobi_theta_checks_make_one_m_check_and_few_eigenvalue_problems(monkeypatch):
    counts = {"eigvalsh": 0, "index": 0}

    def counted(key, original):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    for module in (states, theta):
        monkeypatch.setattr(module, "_index_matrix", counted("index", module._index_matrix))
    f = GaussianState(0.6 - 0.2j, 1j * np.eye(2), [[0.1 + 0.2j, -0.3j]])
    g = GaussianState(0.2 + 0.9j, [[0.3 + 1.2j, 0.1], [0.1, -0.2 + 0.8j]], [[0.2, 0.1j]])
    coords, xi = IwasawaCoords(0.3 + 1.1j, 2.1), LatticePair([0.2, 0.1], [-0.3, 0.4])
    # 8 index-matrix checks and 12 eigvalsh calls with four theta_sum_f calls
    for _, mat, xi0 in gamma_n_generators(2):
        counts.update(eigvalsh=0, index=0)
        check_gamma_invariance(f, g, (mat, xi0), coords, xi)
        assert counts["index"] == 1 and counts["eigvalsh"] <= 5, counts
    # 7 and 12 with the rotations and sums checking M each
    counts.update(eigvalsh=0, index=0)
    asymptotic_main_term(f, g, IwasawaCoords(0.3 + 4j, 0.7), xi)
    assert counts["index"] == 1 and counts["eigvalsh"] <= 6, counts


def test_jacobi_theta_sums_each_function_through_one_kernel_call():
    path = SRC / "jacobi_theta.py"
    assert [scope for scope, _, _ in _calls(path, {"index_matrix", "_index_matrix"})] == [None]
    sums = [scope for scope, _, _ in _calls(path, {"lattice_sum", "_lattice_sums"})]
    assert sums and len(sums) == len(set(sums)), sums
    avoided = {"theta_sum_f", "sw_rotation_apply"}
    assert [scope for scope, _, _ in _calls(path, avoided)
            if scope in ("check_gamma_invariance", "asymptotic_main_term")] == []


def test_covariance_and_state_distance_make_one_m_check(monkeypatch):
    count, index_check = [0], states._index_matrix

    def counted(m):
        count[0] += 1
        return index_check(m)

    monkeypatch.setattr(states, "_index_matrix", counted)
    mm = [[1.0, 0.2], [0.2, 0.8]]
    p = SiegelJacobiPoint([[0.1 + 1.2j, 0.2], [0.2, -0.3 + 0.9j]], [[0.1 + 0.3j, 0.2], [0.0, -0.1j]])
    lam, mu = np.array([[0.1, 0.0], [0.2, -0.1]]), np.array([[0.2, 0.1], [0.0, 0.3]])
    h = HeisenbergElement(lam, mu, 0.5 * (lam @ mu.T - mu @ lam.T))
    word = [("sigma", None), ("t", [[0.4, 0.1], [0.1, 0.0]]), ("g", [[2.0, 0.0], [0.5, 1.0]])]
    # with J*, evaluate and covariant_map checking M each, 6 per covariance call and 2 per distance
    _, eps = covariance_residual(mm, word, h, p)
    assert count[0] == 1
    count[0] = 0
    covariance_residual(mm, word, h, p, -eps)
    assert count[0] == 1
    count[0] = 0
    state_distance(states.covariant_map(p), GaussianState(0.5, p.omega, p.z), mm)
    assert count[0] == 1
