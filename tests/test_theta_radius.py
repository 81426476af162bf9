"""The radius search of the lattice sums: the upward scan against the
bracket-and-bisect search it replaced, and an infinite or tiny tol."""

import itertools
import math

import numpy as np
import pytest

from jacobiweil import (GaussianState, ResourceError, SiegelJacobiPoint, lattice_sum,
                        theta_M, theta_weight_quarter)
from jacobiweil import theta as theta_mod
from jacobiweil.theta import RADIUS_CAP, _least_radius, _tail_majorant


def _bracket_and_bisect(tol, dim, amp, decay, drift, log_amp):
    """``_least_radius`` as it was first written: the same start below the
    root, then a bracket whose steps double, then bisection."""
    if amp == 0:
        return 0
    failed, radius, step = 0, 1, 1
    c = log_amp + math.log(4 * dim * amp / tol)
    if c > 16 * decay:
        root = (drift + math.sqrt(drift * drift + 4 * decay * c)) / (2 * decay)
        if root < RADIUS_CAP + 2:
            failed = math.floor(root) - 2
            radius = failed + 1
    while not amp * _tail_majorant(radius, dim, decay, drift, log_amp) <= tol:
        if radius >= RADIUS_CAP:
            raise ResourceError(f"tolerance {tol} unreachable within radius cap {RADIUS_CAP}")
        failed, radius, step = radius, min(radius + step, RADIUS_CAP), 2 * step
    while radius - failed > 1:
        mid = (failed + radius) // 2
        if amp * _tail_majorant(mid, dim, decay, drift, log_amp) <= tol:
            radius = mid
        else:
            failed = mid
    return radius


def _radius_or_refusal(search, *args):
    try:
        return search(*args)
    except ResourceError:
        return "refused"


GRID = list(itertools.product(
    [1e-13, 1e-6, 1e-2],                 # tol
    range(1, 7),                         # dim
    [0.0, 1e-300, 0.3, 1.0, 1e300],      # amp
    [1e-4, 1e-2, 0.05, 1.0, 10.0],       # decay
    [0.0, 0.01, 0.5, 5.0, 50.0],         # drift
    [-50.0, 0.0, 150.0],                 # log_amp
))


def test_scan_finds_the_radius_of_the_bisection():
    # the predicate is monotone, so the first radius the scan passes is the
    # one the bisection finds, and both refuse the same points at the cap
    assert len(GRID) == 6750
    got = [_radius_or_refusal(_least_radius, *args) for args in GRID]
    want = [_radius_or_refusal(_bracket_and_bisect, *args) for args in GRID]
    assert got == want
    assert "refused" in got and 0 in got and max(r for r in got if r != "refused") > 100


def test_tiny_tol_keeps_the_radius():
    # at tol = 5e-324, 4 d amp / tol overflows; the scan's start does not, and
    # the radius stays the one the bisection finds from 1
    for dim, decay in itertools.product(range(1, 7), [0.05, 1.0, 10.0]):
        args = (5e-324, dim, 1.0, decay, 0.5, 0.0)
        assert _least_radius(*args) == _bracket_and_bisect(*args)


def test_infinite_tol_gives_radius_one():
    assert _least_radius(math.inf, 3, 1.0, 0.05, 0.5, 0.0) == 1
    one = lattice_sum(GaussianState(1.0, [[0.3 + 1.0j]], [[0.2 + 0.1j]]), np.array([[1.0]]),
                      math.inf)
    assert one.truncation.radius == 1
    stack = SiegelJacobiPoint(np.array([[[1j]], [[0.2 + 0.5j]]]), np.array([[[0.1j]], [[0.3]]]))
    assert theta_M(np.array([[2.0]]), stack, math.inf).truncation.radius == 1
    assert math.isfinite(abs(theta_weight_quarter(0.1 + 1j, math.inf)))



def test_an_unreachable_radius_is_refused_without_a_scan(monkeypatch):
    # an infinite drift, or a root of the docstring's bound past the cap, shows
    # that no radius up to the cap can pass: the refusal takes no majorant for
    # that state, where the scan took one per radius up to the cap
    calls = []
    majorant = theta_mod._tail_majorant
    monkeypatch.setattr(theta_mod, "_tail_majorant",
                        lambda *args: calls.append(args[0]) or majorant(*args))
    refusal = f"^tolerance {{}} unreachable within radius cap {RADIUS_CAP}$"
    for args in ((1e-10, 1, 1.0, 0.1, math.inf, 0.0), (1e-10, 1, 1.0, 0.1, 0.0, math.inf),
                 (1e-10, 1, 1.0, 0.1, math.nan, 0.0), (1e-10, 1, 1.0, 1e-9, 0.0, 100.0)):
        calls.clear()
        with pytest.raises(ResourceError, match=refusal.format(1e-10)):
            _least_radius(*args)
        assert calls == []
    # two points, the second with a drift past the float range: only the
    # first point's radii 1 and 2 are tried
    calls.clear()
    stack = SiegelJacobiPoint(np.array([[[1j]], [[1j]]]), np.array([[[0.1]], [[1e300 + 1e300j]]]))
    with pytest.raises(ResourceError, match=refusal.format(1e-09)):
        theta_M(np.eye(1), stack, 1e-9)
    assert calls == [1, 2]
