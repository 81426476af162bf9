import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacobiweil import (DomainError, HalfWeight, HeisenbergElement,
                        J_half, J_kM_half, J_M, J_star_M, JacobiElement,
                        MetaplecticElement, ResourceError, SiegelJacobiPoint,
                        SymplecticElement, alpha_factor, beta_cocycle,
                        epsilon_g, fock_cocycle, gamma_pair,
                        invariant_volume_density, jacobi_act, jacobi_mul,
                        jfac, kappa_density, kronecker_symbol,
                        metaplectic_lifts, slash_km_nh, sp_act, sp_generator,
                        theta_multiplier)
from jacobiweil.automorphy import epsilon_expanded, jnh_factor
from jacobiweil.errors import InvariantViolation
from jacobiweil.maslov import random_symplectic
from jacobiweil.suites import (rand_gamma04, rand_heisenberg, rand_index,
                               rand_point, rand_sl2)
from jacobiweil.theta import theta_weight_quarter


def rand_jacobi(rng, n, m):
    return JacobiElement(random_symplectic(rng, n), rand_heisenberg(rng, n, m))


def rand_omega(rng, n):
    return rand_point(rng, n, 1).omega


# --- J(g, Omega) ----------------------------------------------------------------


def test_jfac_examples(rng):
    n = 2
    omega = rand_omega(rng, n)
    assert np.allclose(jfac(SymplecticElement(np.eye(4)), omega), np.eye(2))
    sigma = sp_generator("sigma", n=n)
    assert np.allclose(jfac(sigma, 1j * np.eye(n)), 1j * np.eye(n))


def test_jfac_chain_rule(rng):
    for _ in range(25):
        n = int(rng.choice([1, 2]))
        g1, g2 = random_symplectic(rng, n), random_symplectic(rng, n)
        omega = rand_omega(rng, n)
        lhs = jfac(g1 @ g2, omega)
        rhs = jfac(g1, sp_act(g2, omega)) @ jfac(g2, omega)
        assert np.allclose(lhs, rhs, atol=1e-10)


# --- J_M --------------------------------------------------------------------------


def test_J_M_identity(rng):
    p = rand_point(rng, 2, 1)
    from jacobiweil import jacobi_identity
    assert J_M(rand_index(rng, 1), jacobi_identity(2, 1), p) == pytest.approx(1.0)


def test_J_M_block_upper(rng):
    # C = 0 and trivial Heisenberg part: both traces vanish
    mm = rand_index(rng, 1)
    b = 0.5 * rng.normal(size=(2, 2))
    elt = JacobiElement(sp_generator("t", b + b.T),
                        HeisenbergElement(np.zeros((1, 2)), np.zeros((1, 2)),
                                          np.zeros((1, 1))))
    assert J_M(mm, elt, rand_point(rng, 2, 1)) == pytest.approx(1.0)


def test_J_M_cocycle(rng):
    for _ in range(200):
        n, m = int(rng.choice([1, 2])), int(rng.choice([1, 2]))
        mm = rand_index(rng, m)
        a, b = rand_jacobi(rng, n, m), rand_jacobi(rng, n, m)
        p = rand_point(rng, n, m)
        lhs = J_M(mm, jacobi_mul(a, b), p)
        rhs = J_M(mm, a, jacobi_act(b, p)) * J_M(mm, b, p)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_index_factors_refuse_an_overflow():
    # at Omega = i and C = 0, the factor is exp(2 pi s lambda^2): finite at
    # lambda = 10 and s = 1, past the float range at lambda = 11 (s = 1) and
    # at lambda = 16 (s = 1/2, J*), where it raises ResourceError with no
    # numpy warning
    p = SiegelJacobiPoint([[1j]], [[0j]])
    one = MetaplecticElement(SymplecticElement(np.eye(2)), 1.0)
    heis = [HeisenbergElement([[lam]], [[0.0]], [[0.0]]) for lam in (10.0, 11.0, 16.0)]
    value = J_M(np.eye(1), JacobiElement(one.g, heis[0]), p)
    assert value == pytest.approx(math.exp(200 * math.pi), rel=1e-12)
    for call in (lambda: J_M(np.eye(1), JacobiElement(one.g, heis[1]), p),
                 lambda: J_kM_half(HalfWeight(1, np.eye(1)), one, heis[1], p),
                 lambda: J_star_M(np.eye(1), one, heis[2], p)):
        with pytest.raises(ResourceError, match="^the index-M factor .* is not finite$"):
            call()


# --- gamma / epsilon / alpha / beta ----------------------------------------------


def test_gamma_pair_examples():
    n = 2
    assert gamma_pair(1j * np.eye(n), 1j * np.eye(n)) == pytest.approx(1.0)
    for y in (0.5, 2.0, 7.0):
        assert gamma_pair(1j * y * np.eye(n), 1j * y * np.eye(n)) == pytest.approx(1.0)


def test_gamma_pair_contraction(rng):
    for _ in range(40):
        o1, o2 = rand_omega(rng, 2), rand_omega(rng, 2)
        v = abs(gamma_pair(o1, o2))
        assert v <= 1.0 + 1e-12
    o = rand_omega(rng, 2)
    assert abs(gamma_pair(o, o)) == pytest.approx(1.0)


def test_epsilon_unit_and_expanded(rng):
    for _ in range(30):
        n = int(rng.choice([1, 2]))
        g = random_symplectic(rng, n)
        o1, o2 = rand_omega(rng, n), rand_omega(rng, n)
        e = epsilon_g(g, o1, o2)
        assert abs(abs(e) - 1) < 1e-10
        assert abs(e - epsilon_expanded(g, o1, o2)) < 1e-10
    assert epsilon_g(SymplecticElement(np.eye(4)), rand_omega(rng, 2),
                     rand_omega(rng, 2)) == pytest.approx(1.0)


def test_alpha_examples(rng):
    n = 2
    assert alpha_factor(SymplecticElement(np.eye(4)), rand_omega(rng, n)) == pytest.approx(1.0)
    assert alpha_factor(sp_generator("sigma", n=n), 1j * np.eye(n)) == pytest.approx(1j ** n)


def test_factors_refuse_a_bad_omega():
    # Im Omega = -0.5 and Im Omega = 0 (a NaN Omega) lie outside the Siegel upper half space
    t1 = sp_generator("t", [[1.0]])
    bad = {
        "gamma_pair": (lambda: gamma_pair([[-0.5j]], [[2j]]),
                       "Im(Omega) must be positive definite"),
        "epsilon_g": (lambda: epsilon_g(t1, [[-0.5j]], [[2j]]),
                      "Im(Omega) must be positive definite"),
        # a NaN entry is refused before np.linalg.det could warn on it
        "gamma_pair NaN": (lambda: gamma_pair([[math.nan]], [[1j]]),
                           "Im(Omega) must be positive definite"),
        "epsilon_g NaN": (lambda: epsilon_g(t1, [[math.nan]], [[1j]]),
                          "Im(Omega) must be positive definite"),
        "alpha_factor": (lambda: alpha_factor(t1, [[math.nan]]), "Im(Omega) must be positive definite"),
        "J_half": (lambda: J_half(metaplectic_lifts(t1)[0], [[math.nan]]),
                   "Im(Omega) must be positive definite"),
    }
    for name, (call, message) in bad.items():
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message, name


@pytest.mark.parametrize("eps", [math.nan, complex(math.inf, 0.0), 1e200 + 1e200j, 1e155])
def test_metaplectic_element_refuses_an_eps_that_is_not_a_root(eps):
    # eps^2 is NaN or overflows: eps * eps is formed, which gives inf where eps ** 2
    # raises OverflowError, and a NaN fails the check
    with pytest.raises(InvariantViolation) as info:
        MetaplecticElement(sp_generator("t", [[0.5]]), eps)
    assert str(info.value) == "eps^2 must equal alpha_{iI}(g)^{-1}"
    assert MetaplecticElement(sp_generator("t", [[0.5]]), -1.0).eps == -1.0


def test_beta_squared_alpha_relation(rng):
    for _ in range(30):
        n = int(rng.choice([1, 2]))
        omega = rand_omega(rng, n)
        g1, g2 = random_symplectic(rng, n), random_symplectic(rng, n)
        lhs = beta_cocycle(omega, g1, g2) ** 2
        rhs = alpha_factor(g2, omega) / alpha_factor(g1 @ g2, omega) * alpha_factor(g1, omega)
        assert abs(lhs - rhs) < 1e-9


def test_beta_cocycle_condition(rng):
    for _ in range(20):
        n = int(rng.choice([1, 2]))
        omega = rand_omega(rng, n)
        g1, g2, g3 = (random_symplectic(rng, n) for _ in range(3))
        lhs = beta_cocycle(omega, g1 @ g2, g3) * beta_cocycle(omega, g1, g2)
        rhs = beta_cocycle(omega, g1, g2 @ g3) * beta_cocycle(omega, g2, g3)
        assert abs(lhs - rhs) < 1e-9


def test_beta_identity_left(rng):
    omega = rand_omega(rng, 2)
    assert beta_cocycle(omega, SymplecticElement(np.eye(4)),
                        random_symplectic(rng, 2)) == pytest.approx(1.0)


def test_fock_cocycle_vs_beta(rng):
    # hat-c(g1, g2) = beta_O(g2^{-1}, g1^{-1})^{-m}: the Fock model composes
    # through inverse actions
    for m in (1, 2, 3):
        mm = np.eye(m)
        for _ in range(10):
            n = int(rng.choice([1, 2]))
            omega = rand_omega(rng, n)
            g1, g2 = random_symplectic(rng, n), random_symplectic(rng, n)
            chat = fock_cocycle(mm, omega, g1, g2)
            beta = beta_cocycle(omega, g2.inv(), g1.inv())
            assert abs(chat - beta ** (-m)) < 1e-9


def test_fock_cocycle_condition(rng):
    mm = np.eye(2)
    omega = rand_omega(rng, 1)
    for _ in range(15):
        g1, g2, g3 = (random_symplectic(rng, 1) for _ in range(3))
        lhs = fock_cocycle(mm, omega, g1 @ g2, g3) * fock_cocycle(mm, omega, g1, g2)
        rhs = fock_cocycle(mm, omega, g1, g2 @ g3) * fock_cocycle(mm, omega, g2, g3)
        assert abs(lhs - rhs) < 1e-9


# --- the double cover and half weights --------------------------------------------


def test_metaplectic_membership():
    g = sp_generator("sigma", n=1)
    plus, minus = metaplectic_lifts(g)
    assert plus.eps == pytest.approx(cmath.exp(-1j * math.pi / 4))
    with pytest.raises(InvariantViolation):
        MetaplecticElement(g, 1.0)


def test_J_half_identity(rng):
    ident = MetaplecticElement(SymplecticElement(np.eye(4)), 1.0)
    assert J_half(ident, rand_omega(rng, 2)) == pytest.approx(1.0)


def test_J_half_square_law(rng):
    for _ in range(40):
        n = int(rng.choice([1, 2]))
        g = random_symplectic(rng, n)
        omega = rand_omega(rng, n)
        for lift in metaplectic_lifts(g):
            val = J_half(lift, omega) ** 2
            assert abs(val - np.linalg.det(jfac(g, omega))) < 1e-9 * max(
                1.0, abs(np.linalg.det(jfac(g, omega))))


def test_J_half_chain_rule(rng):
    for _ in range(40):
        n = int(rng.choice([1, 2]))
        omega = rand_omega(rng, n)
        a = metaplectic_lifts(random_symplectic(rng, n))[int(rng.integers(2))]
        b = metaplectic_lifts(random_symplectic(rng, n))[int(rng.integers(2))]
        lhs = J_half(a @ b, omega)
        rhs = J_half(a, sp_act(b.g, omega)) * J_half(b, omega)
        assert abs(lhs - rhs) < 1e-9


def test_J_half_path_continuity():
    # continuous lift along a rotation path: phase steps below pi/2
    from jacobiweil import embed_sl2
    omega = np.array([[0.3 + 1.2j]])
    prev = None
    eps = 1.0 + 0j
    prev_g = None
    for k in range(0, 60):
        th = 0.05 * k
        g = embed_sl2(np.array([[math.cos(th), -math.sin(th)],
                                [math.sin(th), math.cos(th)]]), 1)
        plus, minus = metaplectic_lifts(g)
        if prev is not None:
            # choose the lift continuing the previous eps
            lift = min((plus, minus), key=lambda l: abs(l.eps - eps))
        else:
            lift = plus
        eps = lift.eps
        val = J_half(lift, omega)
        if prev is not None:
            assert abs(cmath.phase(val / prev)) < math.pi / 2
        prev = val


def test_J_kM_half_identity(rng):
    w = HalfWeight(3, rand_index(rng, 1))
    ident = MetaplecticElement(SymplecticElement(np.eye(4)), 1.0)
    h0 = HeisenbergElement(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 1)))
    assert J_kM_half(w, ident, h0, rand_point(rng, 2, 1)) == pytest.approx(1.0)


def test_J_kM_half_lattice_translation(rng):
    # integral Heisenberg translation at Z = 0: unit-modulus exponential
    mm = np.array([[1.0]])
    w = HalfWeight(1, mm)
    ident = MetaplecticElement(SymplecticElement(np.eye(2)), 1.0)
    h = HeisenbergElement(np.array([[2.0]]), np.array([[1.0]]), np.array([[0.0]]))
    p = SiegelJacobiPoint(np.array([[0.37 + 0.9j]]), np.zeros((1, 1)))
    val = J_kM_half(w, ident, h, p)
    assert abs(val) == pytest.approx(abs(cmath.exp(-2j * math.pi * (4 * p.omega[0, 0] + 2))))
    direct = cmath.exp(-2j * math.pi * (4 * p.omega[0, 0] + 0 + 2))
    assert val == pytest.approx(direct)


def test_J_kM_half_cocycle(rng):
    # under the covering-group product paired with the semidirect law
    mm = rand_index(rng, 1)
    w = HalfWeight(3, mm)
    worst = 0.0
    for _ in range(25):
        n = int(rng.choice([1, 2]))
        p = rand_point(rng, n, 1)
        a = metaplectic_lifts(random_symplectic(rng, n))[int(rng.integers(2))]
        b = metaplectic_lifts(random_symplectic(rng, n))[int(rng.integers(2))]
        ha, hb = rand_heisenberg(rng, n, 1), rand_heisenberg(rng, n, 1)
        ab = a @ b
        hab = jacobi_mul(JacobiElement(a.g, ha), JacobiElement(b.g, hb)).h
        lhs = J_kM_half(w, ab, hab, p)
        pb = jacobi_act(JacobiElement(b.g, hb), p)
        rhs = J_kM_half(w, a, ha, pb) * J_kM_half(w, b, hb, p)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-9


def test_J_star_pure_heisenberg(rng):
    mm = rand_index(rng, 1)
    p = rand_point(rng, 2, 1)
    h = rand_heisenberg(rng, 2, 1)
    ident = MetaplecticElement(SymplecticElement(np.eye(4)), 1.0)
    val = J_star_M(mm, ident, h, p)
    direct = cmath.exp(-1j * math.pi * np.trace(mm @ (
        h.lam @ p.omega @ h.lam.T + 2 * h.lam @ p.z.T + h.kappa + h.mu @ h.lam.T)))
    assert val == pytest.approx(direct)


# --- Kronecker symbol and theta multiplier -----------------------------------------


def test_epsilon_d_table():
    from jacobiweil.automorphy import epsilon_d
    for d in (1, 5, -3, 9, 13):
        assert epsilon_d(d) == 1
    for d in (3, 7, -1, -5, 11):
        assert epsilon_d(d) == 1j
    for d in (1, 3, -7, 15):
        assert epsilon_d(d) ** 4 == pytest.approx(1.0)
    with pytest.raises(DomainError):
        epsilon_d(4)


def test_kronecker_base_cases():
    assert kronecker_symbol(0, 1) == 1
    assert kronecker_symbol(0, -1) == 1
    assert kronecker_symbol(3, -1) == 1
    assert kronecker_symbol(-3, -1) == -1
    assert kronecker_symbol(2, 15) == 1
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(2, 5) == -1
    assert kronecker_symbol(4, 6 + 1) == kronecker_symbol(4, 7)
    with pytest.raises(DomainError):
        kronecker_symbol(1, 4)


@given(st.integers(-60, 60), st.integers(-25, 25), st.integers(-25, 25))
def test_kronecker_multiplicative_in_denominator(c, d1, d2):
    d1 = 2 * d1 + 1
    d2 = 2 * d2 + 1
    assert kronecker_symbol(c, d1 * d2) == kronecker_symbol(c, d1) * kronecker_symbol(c, d2)


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-25, 25))
def test_kronecker_multiplicative_in_numerator(c1, c2, d):
    d = 2 * d + 1
    if d < 0 and (c1 == 0 or c2 == 0) and c1 + c2 < 0:
        return  # 0 carries positive sign; the unit rule is not multiplicative there
    assert kronecker_symbol(c1 * c2, d) == kronecker_symbol(c1, d) * kronecker_symbol(c2, d)


def test_theta_multiplier_examples():
    assert theta_multiplier(np.eye(2, dtype=int), 0.3 + 1.1j) == pytest.approx(1.0)
    assert theta_multiplier(np.array([[1, 1], [0, 1]]), 0.3 + 1.1j) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        theta_multiplier(np.array([[1, 0], [2, 1]]), 1j)
    # tau off the upper half plane: on the real line c tau + d can vanish
    for tau in (-0.25, 0.3 - 1j, complex(math.nan, 1.0), complex(0.0, math.inf)):
        with pytest.raises(DomainError) as info:
            theta_multiplier(np.array([[1, 0], [4, 1]]), tau)
        assert str(info.value) == f"tau must lie in the upper half plane, got {tau!r}"


def test_theta_multiplier_quotient_oracle(rng):
    # j(gamma, tau) = theta(gamma.tau) / theta(tau)
    for _ in range(25):
        gam = rand_gamma04(rng)
        tau = complex(rng.normal() * 0.7, 0.6 + rng.random())
        a, b, c, d = (float(v) for v in gam.ravel())
        tau2 = (a * tau + b) / (c * tau + d)
        quot = theta_weight_quarter(tau2, 1e-13) / theta_weight_quarter(tau, 1e-13)
        assert abs(quot - theta_multiplier(gam, tau)) < 1e-10
        assert abs(abs(theta_multiplier(gam, tau)) - 1) < 1e-12


def test_rand_gamma04_draws_lie_in_gamma0_4():
    # seeds 413 and 1148 take the c = 0 branch, which 4 of seeds 0-2999 reach
    for seed in (413, 1148, *range(40)):
        gam = rand_gamma04(np.random.default_rng(seed))
        (a, b), (c, d) = gam.tolist()
        assert a * d - b * c == 1 and c % 4 == 0 and -52 <= c <= 48
        assert max(abs(a), abs(b), abs(d)) <= 50
        assert (c == 0) == (seed in (413, 1148))


def test_theta_multiplier_c_zero_negative_d():
    gam = np.array([[-1, 3], [0, -1]])
    tau = 0.2 + 0.9j
    quot = theta_weight_quarter((-tau + 3) / -1, 1e-13) / theta_weight_quarter(tau, 1e-13)
    assert abs(quot - theta_multiplier(gam, tau)) < 1e-10


# --- slash operator -----------------------------------------------------------------


def _rand_jacobi11(rng, scale=0.5):
    mat = rand_sl2(rng)
    lam, mu, kap = (scale * float(v) for v in rng.normal(size=3))
    return JacobiElement(SymplecticElement(mat),
                         HeisenbergElement(np.array([[lam]]), np.array([[mu]]),
                                           np.array([[kap]])))


def test_slash_identity(rng):
    from jacobiweil import jacobi_identity
    func = lambda tau, z: cmath.exp(0.2j * tau + 0.3 * z)
    slashed = slash_km_nh(func, 3, 1, jacobi_identity(1, 1))
    assert slashed(0.2 + 1.1j, 0.3 - 0.2j) == pytest.approx(func(0.2 + 1.1j, 0.3 - 0.2j))


def test_slash_composition(rng):
    func = lambda tau, z: (tau.imag ** 0.7) * cmath.exp(0.2j * tau + (0.3 + 0.1j) * z)
    for _ in range(20):
        a, b = _rand_jacobi11(rng), _rand_jacobi11(rng)
        lhs = slash_km_nh(slash_km_nh(func, 3, 2, a), 3, 2, b)
        rhs = slash_km_nh(func, 3, 2, jacobi_mul(a, b))
        for (tau, z) in ((0.2 + 1.1j, 0.3 + 0.4j), (-0.4 + 0.8j, -0.2 + 0.1j)):
            assert abs(lhs(tau, z) - rhs(tau, z)) < 1e-9 * max(1.0, abs(rhs(tau, z)))


def test_jnh_modulus():
    # purely imaginary exponent cases: lam = 0 and c = 0 leave brace = kappa real
    elt = JacobiElement(SymplecticElement(np.array([[1.0, 0.7], [0.0, 1.0]])),
                        HeisenbergElement(np.zeros((1, 1)), np.array([[0.4]]),
                                          np.array([[0.9]])))
    val = jnh_factor(elt, 5, 2, 0.3 + 1.2j, 0.1 - 0.4j)
    assert abs(abs(val) - 1.0) < 1e-12


def test_jnh_modulus_general(rng):
    # |j| = exp(-2 pi m Im brace) always; spot-check the assembled formula
    elt = _rand_jacobi11(rng)
    a, b, c, d = elt.g.g.ravel()
    lam = elt.h.lam[0, 0]
    mu = elt.h.mu[0, 0]
    kap = elt.h.kappa[0, 0]
    tau, z = 0.2 + 1.3j, 0.4 + 0.2j
    w = z + lam * tau + mu
    brace = kap - c * w * w / (c * tau + d) + lam * lam * tau + 2 * lam * z + lam * mu
    assert abs(jnh_factor(elt, 4, 3, tau, z)) == pytest.approx(
        math.exp(-2 * math.pi * 3 * brace.imag))


# --- densities -----------------------------------------------------------------------


def test_kappa_density_examples():
    mm = np.array([[1.0]])
    p_real = SiegelJacobiPoint(np.array([[0.2 + 0.8j]]), np.array([[0.5 + 0j]]))
    assert kappa_density(mm, p_real) == pytest.approx(1.0)
    p = SiegelJacobiPoint(np.array([[1j]]), np.array([[1j]]))
    assert kappa_density(mm, p) == pytest.approx(math.exp(-4 * math.pi))


def test_kappa_density_monotone():
    mm = np.array([[1.0]])
    vals = [kappa_density(mm, SiegelJacobiPoint(np.array([[1j]]),
                                                np.array([[1j * v]])))
            for v in (0.0, 0.3, 0.8, 1.5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_volume_density_examples():
    p = SiegelJacobiPoint(1j * np.eye(2), np.zeros((1, 2)))
    assert invariant_volume_density(p) == pytest.approx(1.0)
    p = SiegelJacobiPoint(np.array([[2j]]), np.zeros((1, 1)))
    assert invariant_volume_density(p) == pytest.approx(2.0 ** -3)


def _point_to_coords(p):
    n, m = p.n, p.m
    xs = [p.omega.real[i, j] for i in range(n) for j in range(i, n)]
    ys = [p.omega.imag[i, j] for i in range(n) for j in range(i, n)]
    return np.array(xs + ys + list(p.z.real.ravel()) + list(p.z.imag.ravel()))


def _coords_to_point(v, n, m):
    k = n * (n + 1) // 2
    x = np.zeros((n, n))
    y = np.zeros((n, n))
    idx = 0
    for i in range(n):
        for j in range(i, n):
            x[i, j] = x[j, i] = v[idx]
            y[i, j] = y[j, i] = v[k + idx]
            idx += 1
    u = v[2 * k: 2 * k + m * n].reshape(m, n)
    w = v[2 * k + m * n:].reshape(m, n)
    return SiegelJacobiPoint(x + 1j * y, u + 1j * w)


def test_volume_density_invariance_fd(rng):
    # density(g.p) |Jacobian| = density(p), Jacobian by central differences
    for (n, m) in ((1, 1), (2, 1)):
        elt = rand_jacobi(rng, n, m)
        p = rand_point(rng, n, m)
        v0 = _point_to_coords(p)
        dim = v0.size
        hstep = 1e-5
        jac = np.zeros((dim, dim))
        for j in range(dim):
            vp, vm = v0.copy(), v0.copy()
            vp[j] += hstep
            vm[j] -= hstep
            fp = _point_to_coords(jacobi_act(elt, _coords_to_point(vp, n, m)))
            fm = _point_to_coords(jacobi_act(elt, _coords_to_point(vm, n, m)))
            jac[:, j] = (fp - fm) / (2 * hstep)
        lhs = invariant_volume_density(jacobi_act(elt, p)) * abs(np.linalg.det(jac))
        rhs = invariant_volume_density(p)
        assert abs(lhs - rhs) < 1e-5 * abs(rhs)
