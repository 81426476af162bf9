"""Stacked lattice sums: ``theta_M`` on a stack of points against one-point
sums, the one-state engine pinned bit for bit, zero states in a stack, the
tol check, the call protocol of ``fourier_coefficient`` and its count of
eigenvalue solves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiweil import (DomainError, GaussianState, SiegelJacobiPoint,
                        fourier_coefficient, lattice_sum, siegel_theta, theta_M)
from jacobiweil.states import _index_matrix
from jacobiweil.theta import _lattice_sums

# (c, A, B, M, tol) and (Re value, Im value, radius, terms, tail_bound,
# roundoff_bound), the floats as float.hex: n = 1..3, m = 1..2, from the
# engine before sums were stacked, and last the stress case Im Omega = 0.005
# with drift 0.5, whose terms reach e^157.  The first five have shift 0 and
# keep those bits; the last is re-centred at k = -100, and its value is
# within tail_bound + roundoff_bound of a 60-digit mpmath jtheta
# (test_theta.py::test_roundoff_bound_covers_stress_case)
GOLDEN = [
    ((1.0, [[0.3 + 1.0j]], [[0.2 + 0.1j]], [[1.0]], 1e-12),
     ("0x1.10410241731cfp+0", "-0x1.a15b4c332d779p-8", 3, 7,
      "0x1.13ec7b0b7e359p-67", "0x1.9a1774059b667p-47")),
    ((0.7 - 0.2j, [[0.1 + 0.9j, 0.2 + 0.1j], [0.2 + 0.1j, -0.3 + 1.1j]],
      [[0.4 - 0.2j, -0.1 + 0.3j]], [[2.0]], 1e-10),
     ("0x1.78bcb0face1efp-1", "-0x1.f6ef6bd1adc9ap-3", 2, 25,
      "0x1.51b8c4785373ep-37", "0x1.2353f0af79460p-45")),
    ((1.0, [[0.2 + 0.8j, 0.1, -0.1 + 0.05j], [0.1, -0.4 + 0.9j, 0.3],
            [-0.1 + 0.05j, 0.3, 0.5 + 1.2j]],
      [[0.1 + 0.2j, -0.3 - 0.1j, 0.25]], [[1.5]], 1e-9),
     ("0x1.29988f624f17ap+0", "0x1.6c359d8018e2dp-5", 3, 343,
      "0x1.620189b9a38b1p-55", "0x1.8c96d7561dc74p-41")),
    ((-0.5 + 1.5j, [[-0.2 + 0.7j]], [[0.1 + 0.2j], [0.3 - 0.1j]],
      [[2.0, 0.5], [0.5, 1.0]], 1e-11),
     ("-0x1.adbb2e4972344p-2", "0x1.3d0e74843fe7fp+0", 5, 121,
      "0x1.243ff9cd2a82fp-56", "0x1.fce5276bff697p-42")),
    ((1.0, [[0.4 + 1.0j, -0.2 + 0.1j], [-0.2 + 0.1j, 0.1 + 0.8j]],
      [[0.2 + 0.1j, -0.3], [0.05 - 0.2j, 0.4 + 0.1j]], [[1.0, 0.2], [0.2, 1.5]], 1e-8),
     ("0x1.e9fc68b938f08p-1", "0x1.29ac3453bd537p-4", 4, 6561,
      "0x1.1d42967d1f4e8p-35", "0x1.50359657fd84ep-36")),
    ((1.0, [[-0.42 + 0.005j]], [[0.3 + 0.5j]], [[1.0]], 1e-10),
     ("0x1.9c400df1d4d12p+226", "0x1.aa77eb34b1dfap+226", 107, 215,
      "0x1.39296030d89c5p-36", "0x1.7dac92013c862p+193")),
]


@pytest.mark.parametrize("case, want", GOLDEN)
def test_one_state_sum_is_pinned(case, want):
    c, a, b, mm, tol = case
    tv = lattice_sum(GaussianState(c, np.array(a), np.array(b)), np.array(mm), tol)
    t = tv.truncation
    assert type(tv.value) is complex
    assert (tv.value.real.hex(), tv.value.imag.hex(), t.radius, t.terms,
            t.tail_bound.hex(), t.roundoff_bound.hex()) == want


@st.composite
def _stacks(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    k = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shared_y, shared_v = draw(st.booleans()), draw(st.booleans())
    x = rng.uniform(-0.5, 0.5, size=(k, n, n))
    y = np.eye(n) * rng.uniform(1.2, 2.0, size=(1 if shared_y else k, 1, 1))
    y = y + 0.1 * rng.uniform(-1, 1, size=(1, n, n)) * (1 - np.eye(n))
    omega = 0.5 * (x + x.transpose(0, 2, 1)) + 1j * 0.5 * (y + y.transpose(0, 2, 1))
    v = rng.uniform(-0.4, 0.4, size=(1 if shared_v else k, m, n))
    z = rng.uniform(-1, 1, size=(k, m, n)) + 1j * v
    q = rng.normal(size=(m, m))
    mm = np.eye(m) + 0.2 * (q @ q.T)
    tol = float(10.0 ** draw(st.sampled_from([-6, -9, -12])))
    return mm, np.broadcast_to(omega, (k, n, n)), np.broadcast_to(z, (k, m, n)), tol


@settings(max_examples=25, deadline=None)
@given(_stacks())
def test_stack_matches_one_point_sums(case):
    mm, omega, z, tol = case
    stack = theta_M(mm, SiegelJacobiPoint(omega, z), tol)
    cut = stack.truncation
    ones = [theta_M(mm, SiegelJacobiPoint(o, w), tol) for o, w in zip(omega, z)]
    assert cut.radius == max(one.truncation.radius for one in ones)
    assert cut.terms == (2 * cut.radius + 1) ** (z.shape[1] * z.shape[2])
    for i, one in enumerate(ones):
        assert cut.tail_bound[i] <= tol
        assert cut.tail_bound[i] <= one.truncation.tail_bound
        # the stack sums the larger box, whose extra terms the one-point tail covers
        allowed = (cut.roundoff_bound[i] + one.truncation.roundoff_bound
                   + one.truncation.tail_bound)
        assert abs(stack.value[i] - one.value) <= allowed


def test_stacked_theta_value_shapes():
    omega = np.array([[[0.1 + 1.0j]], [[0.2 + 0.9j]], [[0.3 + 1.1j]]])
    z = np.array([[[0.0j]], [[0.1 + 0.05j]], [[-0.2j]]])
    tv = theta_M(np.array([[2.0]]), SiegelJacobiPoint(omega, z), 1e-10)
    t = tv.truncation
    assert tv.value.shape == t.tail_bound.shape == t.roundoff_bound.shape == (3,)
    assert isinstance(t.radius, int) and isinstance(t.terms, int)
    empty = theta_M(np.array([[2.0]]), SiegelJacobiPoint(omega[:0], z[:0]), 1e-10)
    assert empty.value.shape == (0,) and empty.truncation.terms == 0


def _kernel(states, mm, tol):
    """The kernel's values, radius, tail bounds, terms and roundoff bounds."""
    tv = _lattice_sums(np.array([s.c for s in states]), np.array([s.a for s in states]),
                       np.array([s.b for s in states]), np.array([s.im_a_min for s in states]),
                       *_index_matrix(np.array(mm)), tol)
    t = tv.truncation
    return tv.value, t.radius, t.tail_bound, t.terms, t.roundoff_bound


def _golden_state(i):
    c, a, b, mm, _ = GOLDEN[i][0]
    return GaussianState(c, np.array(a), np.array(b)), mm


# zero states whose Im A is negative definite: a term of one evaluated at the
# radius of the others would overflow
ZEROS = {1: GaussianState(0, [[0.3 - 2j]], [[0.1 + 0.2j]]),
         2: GaussianState(0, [[0.2 - 1j, 0.1], [0.1, -0.5 - 3j]], [[0.4 + 0.1j, -0.2j]])}


@pytest.mark.parametrize("pair", [(0, 5), (5, 0), (1, 1)])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_zero_states_sum_nothing_anywhere_in_a_stack(pair, at):
    (s1, mm), (s2, _) = _golden_state(pair[0]), _golden_state(pair[1])
    if pair == (1, 1):
        s2 = GaussianState(0.3 + 0.4j, s1.a + 0.2j * np.eye(2), s1.b[:, ::-1])
    zero = ZEROS[s1.shape[1]]
    value, radius, tail, terms, roundoff = _kernel([s1, s2][:at] + [zero] + [s1, s2][at:], mm, 1e-10)
    want = _kernel([s1, s2], mm, 1e-10)
    assert (radius, terms) == want[1::2]
    assert (value[at], tail[at], roundoff[at]) == (0, 0, 0)
    for got, ref in zip((value, tail, roundoff), want[::2]):
        assert got.dtype == ref.dtype and np.delete(got, at).tobytes() == ref.tobytes()


def test_a_stack_of_zero_states_sums_nothing():
    value, radius, tail, terms, roundoff = _kernel([ZEROS[1]] * 3, [[1.0]], 1e-10)
    assert (radius, terms) == (0, 0)
    for x in (value, tail, roundoff):
        assert x.shape == (3,) and not x.any()
    tv = lattice_sum(ZEROS[2], np.eye(1), 1e-10)
    zero = np.zeros((1, 2), int)
    assert (tv.value, tv.truncation) == (0j, type(tv.truncation)(0, 0.0, 0, 0.0, zero))
    assert (tv.truncation.shift == zero).all()


@pytest.mark.parametrize("state", [
    ZEROS[1], ZEROS[2], GaussianState(0.7 - 0.2j, [[0.1 + 1j]], [[0.2 + 0.02j]]),
    GaussianState(1.3 + 0.4j, [[-0.3 + 2.0j]], [[0.2 + 3.7j]]),
    GaussianState(0.5j, [[0.2 + 2.2j, 0.1], [0.1, 0.4 + 2.1j]], [[0.3 + 2.9j, -0.1 - 4.2j]])])
def test_one_state_sums_hold_python_scalars(state):
    # zero, unshifted and shifted states: the kernel's one result, as lattice_sum returns it
    tv = lattice_sum(state, np.eye(1), 1e-10)
    t = tv.truncation
    assert type(tv.value) is complex
    assert type(t.tail_bound) is float and type(t.roundoff_bound) is float
    assert type(t.radius) is int and type(t.terms) is int and t.shift.shape == state.shape


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10])
def test_tol_is_checked_before_any_work(tol):
    with pytest.raises(DomainError) as info:
        siegel_theta(1j * np.eye(1), tol)
    assert str(info.value) == f"tol must be positive, got {tol!r}"
    omega = np.array([[[1.0j]], [[0.5 + 1.0j]]])
    with pytest.raises(DomainError):
        theta_M(np.eye(1), SiegelJacobiPoint(omega, np.zeros((2, 1, 1))), tol)


def test_fourier_func_must_return_one_value_per_sample():
    p0 = SiegelJacobiPoint(np.array([[1j]]), np.array([[0j]]))
    for func in (lambda omega, z: 1.0 + 0j, lambda omega, z: np.ones(len(omega) - 1),
                 lambda omega, z: np.ones((len(omega), 1))):
        with pytest.raises(DomainError, match="func must return an array of the 64"):
            fourier_coefficient(func, np.zeros((1, 1)), np.zeros((1, 1)), p0, grid_points=4)


def test_fourier_coefficient_solves_few_eigenproblems(monkeypatch):
    # the benchmark's Fourier op: 400 samples, once 1201 eigvalsh calls
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    mm = np.array([[2.0]])
    p0 = SiegelJacobiPoint(np.array([[0.9j]]), np.array([[0j]]))

    def theta_fn(omega, z):
        return theta_M(mm, SiegelJacobiPoint(omega, z), 1e-13).value

    got = fourier_coefficient(theta_fn, np.array([[1.0]]), np.array([[2.0]]), p0, grid_points=10)
    assert len(calls) <= 5, calls
    assert got == pytest.approx(1.0, abs=1e-9)
