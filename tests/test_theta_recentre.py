"""Re-centred lattice sums: drifted sums against mpmath within their bounds,
and unshifted states beside shifted ones in a stack."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacobiweil import GaussianState, lattice_sum
from jacobiweil.theta import _lattice_sums

# the log of the peak term, pi M sum_j (Im z_j)^2 / Im omega_j, is kept below
# this, so that every value is a finite double
PEAK_LOG = 600


@st.composite
def _drifted_points(draw):
    """c, M = [1] or [2], and a diagonal (Omega, Z) with n = 1 or 2,
    Im Omega_jj in [0.003, 0.05] and Im Z_j drifting by up to 1."""
    n = draw(st.integers(1, 2))
    mval = draw(st.sampled_from([1.0, 2.0]))
    omegas, zs = [], []
    for _ in range(n):
        y = draw(st.floats(0.003, 0.05))
        cap = min(1.0, math.sqrt(PEAK_LOG / n * y / (math.pi * mval)))
        omegas.append(complex(draw(st.floats(-0.5, 0.5)), y))
        zs.append(complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-cap, cap))))
    c = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    tol = draw(st.sampled_from([1e-6, 1e-10, 1e-13]))
    return c, mval, omegas, zs, tol


@settings(max_examples=40, deadline=None)
@given(_drifted_points())
@example((0j, 1.0, [0.03125j], [1j], 1e-06))
def test_drifted_sums_match_mpmath_within_their_bounds(case):
    c, mval, omegas, zs, tol = case
    tv = lattice_sum(GaussianState(c, np.diag(omegas), np.array([zs])), np.array([[mval]]), tol)
    cut = tv.truncation
    # the index-[M] series of a diagonal Omega is a product of Jacobi thetas
    with mpmath.workdps(40):
        want = mpmath.mpc(c)
        for om, z in zip(omegas, zs):
            q = mpmath.exp(1j * mpmath.pi * mval * mpmath.mpc(om))
            want *= mpmath.jtheta(3, mpmath.pi * mval * mpmath.mpc(z), q)
        err = float(abs(mpmath.mpc(tv.value) - want))
    assert cut.tail_bound <= tol
    assert err <= cut.tail_bound + cut.roundoff_bound
    assert cut.shift.shape == (1, len(zs))
    if c == 0:
        # a zero state has no peak: value 0, both bounds 0, radius 0 and shift 0
        assert tv.value == 0 and cut.tail_bound == cut.roundoff_bound == 0
        assert cut.radius == 0 and not cut.shift.any()
    else:
        # the shift is the lattice point nearest the peak -Im Z / Im Omega
        centre = [-z.imag / om.imag for om, z in zip(omegas, zs)]
        assert np.abs(cut.shift - centre).max() <= 0.5 + 1e-9


def _kernel(states, mm, tol):
    return _lattice_sums(np.array([s.c for s in states]), np.array([s.a for s in states]),
                         np.array([s.b for s in states]), np.array([s.im_a_min for s in states]),
                         np.array(mm), tol)


# (M, unshifted state, shifted state): the shifted state decays faster, so a
# stack of both has the unshifted state's radius; n = 1 and n = 2
MIXED = [
    ([[1.0]], GaussianState(0.7 - 0.2j, [[0.1 + 0.1j]], [[0.2 + 0.02j]]),
     GaussianState(1.3 + 0.4j, [[-0.3 + 2.0j]], [[0.2 + 3.7j]])),
    ([[2.0]], GaussianState(1.0, [[0.1 + 0.15j, 0.05], [0.05, -0.2 + 0.2j]], [[0.1 + 0.02j, -0.3]]),
     GaussianState(0.5j, [[0.2 + 2.2j, 0.1], [0.1, 0.4 + 2.1j]], [[0.3 + 2.9j, -0.1 - 4.2j]])),
]


@pytest.mark.parametrize("mm, still, moved", MIXED)
@pytest.mark.parametrize("at", [0, 1])
def test_unshifted_states_keep_their_bits_beside_shifted_ones(mm, still, moved, at):
    tol = 1e-12
    alone, apart = lattice_sum(still, np.array(mm), tol), lattice_sum(moved, np.array(mm), tol)
    stack = [moved, moved]
    stack[at] = still
    value, radius, tail, terms, roundoff, shift = _kernel(stack, mm, tol)
    assert radius == alone.truncation.radius > apart.truncation.radius
    assert not shift[at].any() and not alone.truncation.shift.any()
    assert (shift[1 - at] == apart.truncation.shift).all() and shift[1 - at].any()
    # the unshifted state: the bytes of its one-state sum
    cut = alone.truncation
    assert np.array([value[at], tail[at], roundoff[at]]).tobytes() == \
        np.array([alone.value, cut.tail_bound, cut.roundoff_bound]).tobytes()
    # the shifted state, summed at the larger radius: within both sums' bounds
    bound = (tail[1 - at] + roundoff[1 - at] + apart.truncation.tail_bound
             + apart.truncation.roundoff_bound)
    assert abs(value[1 - at] - apart.value) <= bound
