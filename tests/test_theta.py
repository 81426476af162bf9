"""Lattice sums: frozen oracle anchors, transformation laws, certified tails.

Anchor values were computed with the direct high-radius summation oracle
(`_oracle_sum`), then frozen; the engine must reproduce them within its own
certified tail bound.
"""

import itertools
import math

import numpy as np
import pytest

from jacobiweil import (DomainError, ResourceError, SiegelJacobiPoint,
                        fourier_coefficient, lattice_sum, siegel_theta,
                        theta_M, theta_weight_quarter)
from jacobiweil.errors import AsymmetryError
from jacobiweil.states import GaussianState
from jacobiweil import theta as theta_mod
from jacobiweil.theta import _cube_blocks, _tail_majorant
from jacobiweil.suites import rand_point

THETA_M2_AT_I = 1.0037348854877393      # M = [2], Omega = i, Z = 0
SIEGEL_AT_I = 1.0864348112133082        # n = 1, Omega = i
QUARTER_AT_I = 1.0037348854877393       # y^{1/4} sum exp(2 pi i n^2 i)


def _oracle_sum(mm, omega, z, radius):
    """Direct lattice summation, no tail control; the independent oracle."""
    m, n = z.shape
    total = 0j
    for pt in itertools.product(range(-radius, radius + 1), repeat=m * n):
        xi = np.array(pt, dtype=float).reshape(m, n)
        total += np.exp(1j * np.pi * np.trace(mm @ (xi @ omega @ xi.T + 2 * xi @ z.T)))
    return total


def test_theta_M_anchor():
    mm = np.array([[2.0]])
    p = SiegelJacobiPoint(np.array([[1j]]), np.array([[0j]]))
    oracle = _oracle_sum(mm, p.omega, p.z, 30)
    assert oracle.real == pytest.approx(THETA_M2_AT_I, abs=1e-14)
    tv = theta_M(mm, p, 1e-5)
    assert abs(tv.value - THETA_M2_AT_I) < 1e-5
    tv = theta_M(mm, p, 1e-12)
    assert abs(tv.value - THETA_M2_AT_I) < 1e-12


def test_theta_M_certified_tail(rng):
    # doubling the radius moves the value by less than the reported bound
    for _ in range(10):
        mm = np.array([[float(rng.integers(1, 4))]])
        p = rand_point(rng, int(rng.choice([1, 2])), 1)
        tv = theta_M(mm, p, 1e-8)
        bigger = _oracle_sum(mm, p.omega, p.z, 2 * max(tv.truncation.radius, 3))
        assert abs(tv.value - bigger) <= tv.truncation.tail_bound + 1e-13
        assert tv.truncation.tail_bound <= 1e-8


def test_theta_M_lattice_translation(rng):
    mm = np.array([[2.0]])
    for _ in range(10):
        p = rand_point(rng, 1, 1)
        shift = float(rng.integers(-3, 4))
        v1 = theta_M(mm, p, 1e-13).value
        v2 = theta_M(mm, SiegelJacobiPoint(p.omega, p.z + shift), 1e-13).value
        assert abs(v1 - v2) < 1e-12


def test_theta_M_z_negation(rng):
    mm = np.array([[2.0]])
    p = rand_point(rng, 2, 1)
    v1 = theta_M(mm, p, 1e-12).value
    v2 = theta_M(mm, SiegelJacobiPoint(p.omega, -p.z), 1e-12).value
    assert abs(v1 - v2) < 1e-12


def test_theta_M_resource_error():
    mm = np.array([[1.0]])
    p = SiegelJacobiPoint(np.array([[1e-9j]]), np.array([[0j]]))
    with pytest.raises(ResourceError):
        theta_M(mm, p, 1e-12)


def test_siegel_theta_anchor():
    v = siegel_theta(np.array([[1j]]), 1e-12)
    assert abs(v.value - SIEGEL_AT_I) < 1e-9
    oracle = _oracle_sum(np.eye(1), np.array([[1j]]), np.zeros((1, 1)), 40)
    assert oracle.real == pytest.approx(SIEGEL_AT_I, abs=1e-13)
    # outside the Siegel upper half space, and not symmetric
    with pytest.raises(DomainError):
        siegel_theta(np.array([[1j, 0.0], [0.0, -0.5j]]), 1e-12)
    with pytest.raises(AsymmetryError):
        siegel_theta(np.array([[1j, 0.3], [0.0, 1j]]), 1e-12)


def test_siegel_theta_even_translation(rng):
    for n in (1, 2):
        p = rand_point(rng, n, 1)
        b = rng.integers(-2, 3, size=(n, n))
        b = b + b.T
        v1 = siegel_theta(p.omega, 1e-13).value
        v2 = siegel_theta(p.omega + 2 * b, 1e-13).value
        assert abs(v1 - v2) < 1e-12


def test_siegel_theta_inversion():
    for y in (2.0, 3.0, 5.0):
        lhs = siegel_theta(np.array([[1j / y]]), 1e-12).value
        rhs = math.sqrt(y) * siegel_theta(np.array([[1j * y]]), 1e-12).value
        assert abs(lhs - rhs) < 1e-9


def test_quarter_weight_anchor():
    assert abs(theta_weight_quarter(1j, 1e-13) - QUARTER_AT_I) < 1e-12
    # oracle: y^{1/4} direct sum
    oracle = sum(math.exp(-2 * math.pi * k * k) for k in range(-30, 31))
    assert oracle == pytest.approx(QUARTER_AT_I, abs=1e-14)


def test_quarter_weight_periodicity(rng):
    for _ in range(5):
        tau = complex(rng.normal(), 0.5 + rng.random())
        assert abs(theta_weight_quarter(tau + 1, 1e-13)
                   - theta_weight_quarter(tau, 1e-13)) < 1e-12


def test_quarter_weight_domain():
    with pytest.raises(DomainError):
        theta_weight_quarter(1.0 - 0.5j, 1e-10)
    with pytest.raises(DomainError):
        theta_weight_quarter(0.3, 1e-10)


def test_lattice_sum_repeat_determinism(rng):
    p = rand_point(rng, 2, 1)
    state = GaussianState(1.0, p.omega, p.z)
    vals = [lattice_sum(state, np.eye(1), 1e-11).value for _ in range(3)]
    assert vals[0] == vals[1] == vals[2]


def test_cube_blocks_match_itertools_cube(monkeypatch):
    for budget in (1, 7, 4096):
        monkeypatch.setattr(theta_mod, "_BLOCK_TERMS", budget)
        for dim in range(1, 5):
            for radius in range(7):
                blocks = list(_cube_blocks(radius, dim))
                assert all(b.shape[0] == dim and 1 <= b.shape[1] <= budget for b in blocks)
                cube = itertools.product(range(-radius, radius + 1), repeat=dim)
                assert np.hstack(blocks).T.tolist() == [list(pt) for pt in cube]


def _walk_by_sup_norm(radius, dim, lo, hi):
    """Points of the cube walk of the given radius whose sup norm (the r_k of
    ``zeta_k`` in the roundoff bound) lies in [lo, hi], in walk order."""
    pts = np.hstack(list(_cube_blocks(radius, dim)))
    r = np.abs(pts).max(axis=0)
    return pts[:, (lo <= r) & (r <= hi)].T.tolist()


def test_lattice_shell_matches_cube_filter(monkeypatch):
    # each shell, cut from a larger cube walk split into small blocks
    monkeypatch.setattr(theta_mod, "_BLOCK_TERMS", 7)
    for dim in range(1, 5):
        for radius in range(7):
            cube = itertools.product(range(-radius, radius + 1), repeat=dim)
            expected = [pt for pt in cube if max(map(abs, pt)) == radius]
            assert _walk_by_sup_norm(radius + 1, dim, radius, radius) == [list(pt) for pt in expected]


def test_lattice_annulus_matches_cube_filter(monkeypatch):
    monkeypatch.setattr(theta_mod, "_BLOCK_TERMS", 7)
    for dim in range(1, 5):
        for r0, r1 in [(0, 0), (0, 3), (1, 4), (2, 3), (3, 5)]:
            cube = itertools.product(range(-r1, r1 + 1), repeat=dim)
            expected = [pt for pt in cube if r0 <= max(map(abs, pt)) <= r1]
            assert _walk_by_sup_norm(r1 + 1, dim, r0, r1) == [list(pt) for pt in expected]


def test_lattice_sum_zero_state():
    tv = lattice_sum(GaussianState(0.0, 1j * np.eye(1), np.zeros((1, 1))),
                     np.eye(1), 1e-10)
    assert tv.value == 0


def test_lattice_sum_index_shape():
    state = GaussianState(1.0, 1j * np.eye(2), np.zeros((1, 2)))
    with pytest.raises(DomainError):
        lattice_sum(state, np.eye(2), 1e-10)


# --- the block engine against an independent per-shell loop ---------------------


def _per_shell_reference(state, mm, truncation):
    """Per-shell summation sharing no code with the engine: each sup-norm shell
    around the engine's centre ``truncation.shift`` filtered from an itertools
    cube, the terms of the state as given, one einsum/exp/sum round per
    shell, shells added in increasing radius."""
    m, n = state.shape
    total = 0j
    for r in range(truncation.radius + 1):
        cube = itertools.product(range(-r, r + 1), repeat=m * n)
        shell = [pt for pt in cube if max(map(abs, pt)) == r]
        xs = np.array(shell, dtype=float).reshape(-1, m, n) + truncation.shift
        quad = np.einsum("kij,jl,kml,im->k", xs, state.a, xs, mm)
        lin = 2 * np.einsum("kij,lj,il->k", xs, state.b, mm)
        vals = state.c * np.exp(1j * np.pi * (quad + lin))
        total += complex(np.sum(vals))
    return total


def _random_state(rng, n, y, drift):
    x = rng.normal(scale=0.5, size=(n, n))
    a = (x + x.T) / 2 + 1j * y * np.eye(n)
    b = rng.normal(size=(1, n)) + 1j * drift * rng.uniform(0.5, 1.0, size=(1, n))
    return GaussianState(complex(rng.normal(), rng.normal()), a, b)


# Im Omega per n: benign, then small enough to stress the radius
ENGINE_Y = {1: (1.0, 0.005), 2: (1.0, 0.02), 3: (0.8, 0.15), 4: (0.8, 0.4)}


def test_engine_matches_per_shell_reference(rng):
    for n, ys in ENGINE_Y.items():
        for y in ys:
            for drift in (0.0, 0.25, 0.5):
                state = _random_state(rng, n, y, drift)
                tv = lattice_sum(state, np.eye(1), 1e-8)
                ref = _per_shell_reference(state, np.eye(1), tv.truncation)
                assert tv.truncation.terms == (2 * tv.truncation.radius + 1) ** n
                assert abs(tv.value - ref) <= tv.truncation.roundoff_bound


def test_engine_block_budget(rng, monkeypatch):
    cases = [(_random_state(rng, 1, 0.005, 0.5), np.eye(1)),
             (_random_state(rng, 2, 0.02, 0.3), np.eye(1)),
             (_random_state(rng, 3, 0.3, 0.2), np.eye(1)),
             (GaussianState(0.7, 0.3j * np.eye(1) + 0.1, np.array([[0.2 + 0.1j], [0.4]])),
              np.array([[2.0, 0.5], [0.5, 1.0]]))]
    for state, mm in cases:
        runs = {}
        for budget in (1, 10 ** 9):
            monkeypatch.setattr(theta_mod, "_BLOCK_TERMS", budget)
            first, again = lattice_sum(state, mm, 1e-9), lattice_sum(state, mm, 1e-9)
            assert first == again
            runs[budget] = first
        one, whole = runs[1], runs[10 ** 9]
        assert one.truncation.radius == whole.truncation.radius
        assert abs(one.value - whole.value) <= min(one.truncation.roundoff_bound,
                                                   whole.truncation.roundoff_bound)


def test_radius_is_least_certified(rng):
    for _ in range(40):
        n = int(rng.integers(1, 4))
        state = _random_state(rng, n, float(rng.uniform(0.01, 1.0)), float(rng.uniform(0, 0.5)))
        tol = float(10.0 ** rng.uniform(-13, -4))
        tv = lattice_sum(state, np.eye(1), tol)
        radius = tv.truncation.radius
        assert tv.truncation.tail_bound <= tol
        if radius == 1:
            continue
        # the shifted frame: B + kA, and the amplitude |c| exp(Re log_scale)
        k = tv.truncation.shift
        b = state.b + k @ state.a
        log_amp = -math.pi * np.trace(k @ state.a.imag @ k.T + 2 * k @ state.b.imag.T)
        decay = math.pi * np.linalg.eigvalsh(state.a.imag).min()
        drift = 2 * math.pi * np.linalg.norm(b.imag) * math.sqrt(n)
        assert abs(state.c) * _tail_majorant(radius - 1, n, decay, drift, log_amp) > tol


def test_roundoff_bound_covers_stress_case():
    # terms reach e^157 around xi = -100, and Re Omega makes them oscillate
    import mpmath

    omega, z = -0.42 + 0.005j, 0.3 + 0.5j
    p = SiegelJacobiPoint(np.array([[omega]]), np.array([[z]]))
    tv = theta_M(np.eye(1), p, 1e-10)
    with mpmath.workdps(60):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(omega))
        want = complex(mpmath.jtheta(3, mpmath.pi * mpmath.mpc(z), q))
    assert tv.truncation.roundoff_bound > 1e50
    assert abs(tv.value - want) <= tv.truncation.tail_bound + tv.truncation.roundoff_bound


# --- Fourier coefficients ------------------------------------------------------


def test_fourier_constant_function():
    p0 = SiegelJacobiPoint(np.array([[1j]]), np.array([[0j]]))
    one = lambda omega, z: np.ones(len(omega), complex)
    assert fourier_coefficient(one, np.array([[0.0]]), np.array([[0.0]]), p0,
                               grid_points=8) == pytest.approx(1.0)
    assert abs(fourier_coefficient(one, np.array([[1.0]]), np.array([[0.0]]), p0,
                                   grid_points=8)) < 1e-12
    for bad in (0, -3, 2.5, 2.0, True):
        with pytest.raises(DomainError):
            fourier_coefficient(one, np.array([[0.0]]), np.array([[0.0]]), p0, grid_points=bad)


def test_fourier_takes_a_numpy_integer_grid():
    # 2 * np.uint8(128) would wrap to 0: the grid is doubled as a Python int
    p0 = SiegelJacobiPoint(np.array([[1j]]), np.array([[0j]]))
    one = lambda omega, z: np.ones(len(omega), complex)
    for grid in (np.int64(8), np.uint8(128)):
        assert fourier_coefficient(one, np.array([[0.0]]), np.array([[0.0]]), p0,
                                   grid_points=grid) == pytest.approx(1.0)


def test_fourier_theta_indicator_coefficients():
    # Theta with M = [2] has c(T, R) = 1 exactly at (T, R) = (xi^2, 2 xi)
    mm = np.array([[2.0]])
    p0 = SiegelJacobiPoint(np.array([[0.9j]]), np.array([[0j]]))

    def theta_fn(omega, z):
        return theta_M(mm, SiegelJacobiPoint(omega, z), 1e-13).value

    got = fourier_coefficient(theta_fn, np.array([[1.0]]), np.array([[2.0]]), p0,
                              grid_points=10)
    assert got == pytest.approx(1.0, abs=1e-9)
    # positivity block violated: 4 T < R^2 forces a vanishing coefficient
    got0 = fourier_coefficient(theta_fn, np.array([[0.0]]), np.array([[2.0]]), p0,
                               grid_points=10)
    assert abs(got0) < 1e-9
    # brute-force match against the defining sum: (T, R) = (4, 4) is xi = 2;
    # smaller Im(Omega) keeps the e^{2 pi tr(T Y)} compensation well-conditioned
    p_small = SiegelJacobiPoint(np.array([[0.25j]]), np.array([[0j]]))
    got2 = fourier_coefficient(theta_fn, np.array([[4.0]]), np.array([[4.0]]),
                               p_small, grid_points=12)
    assert got2 == pytest.approx(1.0, abs=1e-7)


# --- functional equation and extracted characters --------------------------------


def _character_ratio(mm, g, lift, h, p):
    from jacobiweil import JacobiElement, jacobi_act
    from jacobiweil.automorphy import J_star_M

    num = theta_M(mm, jacobi_act(JacobiElement(g, h), p), 1e-13).value
    den = J_star_M(mm, lift, h, p) * theta_M(mm, p, 1e-13).value
    return num / den


def test_functional_equation_constant_character(rng):
    """The transformation defect is an exactly constant unit phase per
    generator, for generators that preserve the lattice sum.

    Tested generator sets (documented per index): M = [2] admits the tau
    translation t(1) and every integral Heisenberg element (character 1);
    the embedded sigma preserves the sum for M = [1] only, where the
    character is the principal eighth root paired with the chosen lift.
    """
    from jacobiweil import (HeisenbergElement, SymplecticElement,
                            heis_identity, metaplectic_lifts, sp_generator)

    m2 = np.array([[2.0]])
    h0 = heis_identity(1, 1)
    ident = SymplecticElement(np.eye(2))
    cases = [
        (m2, sp_generator("t", np.array([[1.0]])), h0),
        (m2, ident, HeisenbergElement(np.array([[1.0]]), np.zeros((1, 1)),
                                      np.zeros((1, 1)))),
        (m2, ident, HeisenbergElement(np.array([[2.0]]), np.array([[3.0]]),
                                      np.array([[1.0]]))),
        (np.eye(1), sp_generator("sigma", n=1), h0),
    ]
    for mm, g, h in cases:
        lift = metaplectic_lifts(g)[0]
        vals = [_character_ratio(mm, g, lift, h, rand_point(rng, 1, 1))
                for _ in range(50)]
        vals = np.asarray(vals)
        mean = vals.mean()
        assert abs(abs(mean) - 1) < 1e-10
        assert np.max(np.abs(vals - mean)) < 1e-9


def test_functional_equation_characters_are_unity_for_translations(rng):
    from jacobiweil import heis_identity, metaplectic_lifts, sp_generator

    mm = np.array([[2.0]])
    g = sp_generator("t", np.array([[1.0]]))
    lift = metaplectic_lifts(g)[0]
    val = _character_ratio(mm, g, lift, heis_identity(1, 1), rand_point(rng, 1, 1))
    assert val == pytest.approx(1.0, abs=1e-11)


def test_siegel_theta_extracted_multiplier(rng):
    # Theta(sigma.O) = zeta det(O)^{1/2} Theta(O): zeta constant with zeta^8 = 1
    from jacobiweil import sp_act, sp_generator
    from jacobiweil.linalg import holo_sqrt_det

    for n in (1, 2):
        sigma = sp_generator("sigma", n=n)
        vals = []
        for _ in range(10):
            p = rand_point(rng, n, 1)
            det_half = holo_sqrt_det(p.omega / 1j) * np.exp(1j * np.pi * n / 4)
            vals.append(siegel_theta(sp_act(sigma, p.omega), 1e-12).value
                        / (det_half * siegel_theta(p.omega, 1e-12).value))
        vals = np.asarray(vals)
        zeta = vals.mean()
        assert np.max(np.abs(vals - zeta)) < 1e-9
        assert abs(zeta ** 8 - 1) < 1e-9


def test_fourier_non_convergence_diagnostic():
    # a function that is not 1-periodic makes refinements disagree
    from jacobiweil.errors import ConvergenceError

    p0 = SiegelJacobiPoint(np.array([[1j]]), np.array([[0j]]))
    drift = lambda omega, z: omega.real[:, 0, 0] * 1.0
    with pytest.raises(ConvergenceError):
        fourier_coefficient(drift, np.array([[0.0]]), np.array([[0.0]]), p0,
                            grid_points=8)


def test_certified_tail_with_imaginary_z_drift(rng):
    # dim > 1 with nonzero Im Z stresses the drift part of the majorant;
    # the certificate covers truncation, so allow float noise at the value scale
    mm = np.array([[1.5]])
    for _ in range(6):
        omega = np.eye(2) * (0.6 + 0.3 * rng.random()) * 1j + 0.2 * np.eye(2)
        z = rng.normal(size=(1, 2)) + 1j * (0.5 + 0.3 * rng.random()) * np.ones((1, 2))
        p = SiegelJacobiPoint(omega, z)
        tv = theta_M(mm, p, 1e-7)
        oracle = _oracle_sum(mm, p.omega, p.z, 2 * tv.truncation.radius + 6)
        assert abs(tv.value - oracle) <= tv.truncation.tail_bound + 1e-12 * abs(tv.value)
        assert tv.truncation.tail_bound <= 1e-7
