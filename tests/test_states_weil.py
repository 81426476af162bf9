"""Gaussian-state calculus: oracles first, then operator properties.

The two independent oracles here are pointwise evaluation (for the closed
forms of the Heisenberg action) and direct numerical quadrature (for the
sigma kernel); neither shares code with the closed-form path it checks.
"""

import cmath
import math

import numpy as np
import pytest

from jacobiweil import (DomainError, GaussianState, HeisenbergElement,
                        SiegelJacobiPoint, SymplecticElement, covariant_map,
                        covariance_residual, evaluate, ground_state,
                        l2_norm_sq, sample_grid, schrodinger_apply,
                        sp_generator, state_distance, sw_heisenberg_apply,
                        theta_M, weil_apply_word, weil_generator_apply)
from jacobiweil.automorphy import metaplectic_lifts
from jacobiweil.groups import word_to_symplectic
from jacobiweil.maslov import cocycle_sl2
from jacobiweil.suites import (rand_heisenberg, rand_index, rand_point,
                               rand_word)
from jacobiweil.weil import SW_SCALE, T_SCALE


def rand_state(rng, n, m):
    a = 0.3 * rng.normal(size=(n, n))
    a = a + a.T
    y = np.eye(n) + 0.2 * rng.normal(size=(n, n))
    y = y @ y.T
    b = 0.4 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    c = complex(*rng.normal(size=2))
    return GaussianState(c, a + 1j * y, b)


# --- states -------------------------------------------------------------------


def test_covariant_map_at_base_point():
    f = covariant_map(SiegelJacobiPoint(1j * np.eye(1), np.zeros((1, 1))))
    # the standard Gaussian exp(-pi x^2)
    for x in (0.0, 0.5, -1.2):
        assert evaluate(f, np.eye(1), np.array([[x]])) == pytest.approx(math.exp(-math.pi * x * x))


def test_covariant_map_domain(rng):
    p = rand_point(rng, 2, 2)
    f = covariant_map(p)
    assert np.allclose(f.a, p.omega)
    assert np.allclose(f.b, p.z)
    assert np.linalg.eigvalsh(f.a.imag).min() > 0


def test_covariant_map_lattice_sum_is_theta(rng):
    mm = rand_index(rng, 1)
    p = rand_point(rng, 1, 1)
    f = covariant_map(p)
    direct = sum(evaluate(f, mm, np.array([[float(a)]])) for a in range(-25, 26))
    tv = theta_M(mm, p, 1e-11)
    assert abs(direct - tv.value) < 1e-10


def _sample_grid_as_a_list(m, n):
    """``sample_grid`` as it was first written: a list of 17 points, one at a time."""
    pts = [np.zeros((m, n))]
    for j in range(1, 17):
        vec = np.cos(1.7 * j + 0.9 * np.arange(m * n)) * (0.15 + 0.06 * j)
        pts.append(vec.reshape(m, n))
    return pts


def test_sample_grid_is_the_list_grid_bit_for_bit():
    for m in range(1, 9):
        for n in range(1, 17):
            grid, ref = sample_grid(m, n), np.array(_sample_grid_as_a_list(m, n))
            assert grid.shape == (17, m, n) and grid.dtype == ref.dtype
            assert grid.tobytes() == ref.tobytes()


def test_evaluate_stack_matches_points(rng):
    for _ in range(30):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        f = rand_state(rng, n, m)
        mm = rand_index(rng, m)
        grid = sample_grid(m, n)
        stacked = evaluate(f, mm, grid)
        assert stacked.shape == (len(grid),)
        for x, value in zip(grid, stacked):
            single = evaluate(f, mm, x)
            assert isinstance(single, complex)
            assert abs(value - single) <= 1e-15 * abs(single)
        # any leading shape: the values come back in the same layout
        block = np.stack(grid[:12]).reshape(3, 4, m, n)
        assert np.array_equal(evaluate(f, mm, block).ravel(), evaluate(f, mm, grid[:12]))


def test_evaluate_rejects_wrong_point_shape(rng):
    f = rand_state(rng, 2, 1)
    for bad in (np.zeros((2, 1)), np.zeros(2), np.zeros((5, 1, 3)), 0.0):
        with pytest.raises(DomainError):
            evaluate(f, np.eye(1), bad)


def test_state_rejects_bad_quadratic():
    with pytest.raises(DomainError):
        GaussianState(1.0, -1j * np.eye(2), np.zeros((1, 2)))


def test_l2_norm_closed_form_vs_quadrature(rng):
    f = rand_state(rng, 1, 1)
    mm = rand_index(rng, 1)
    xs = np.linspace(-9, 9, 4001)
    vals = np.array([abs(evaluate(f, mm, np.array([[x]]))) ** 2 for x in xs])
    quad = np.trapezoid(vals, xs)
    assert l2_norm_sq(f, mm) == pytest.approx(quad, rel=1e-9)


# --- Heisenberg action ---------------------------------------------------------


def test_schrodinger_central_character(rng):
    # (0, 0; kappa) scales the amplitude by exp(2 pi i tr(M kappa))
    mm = rand_index(rng, 2)
    f = rand_state(rng, 2, 2)
    kap = rng.normal(size=(2, 2))
    kap = kap + kap.T
    h = HeisenbergElement(np.zeros((2, 2)), np.zeros((2, 2)), kap)
    out = schrodinger_apply(mm, h, f)
    expect = cmath.exp(2j * math.pi * np.trace(mm @ kap))
    assert out.c == pytest.approx(f.c * expect)
    assert np.allclose(out.a, f.a)
    assert np.allclose(out.b, f.b)


def test_schrodinger_identity(rng):
    f = rand_state(rng, 2, 1)
    out = schrodinger_apply(rand_index(rng, 1), HeisenbergElement(
        np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 1))), f)
    assert state_distance(out, f, rand_index(rng, 1)) < 1e-14


def test_schrodinger_pointwise_oracle(rng):
    # closed form vs direct evaluation of exp(2 pi i s tr(...)) f(x + lam)
    for scale in (1.0, SW_SCALE):
        for _ in range(10):
            n, m = int(rng.choice([1, 2])), int(rng.choice([1, 2]))
            mm = rand_index(rng, m)
            f = rand_state(rng, n, m)
            h = rand_heisenberg(rng, n, m)
            out = schrodinger_apply(mm, h, f, scale=scale)
            for x in sample_grid(m, n):
                direct = cmath.exp(2j * math.pi * scale * np.trace(
                    mm @ (h.kappa + h.mu @ h.lam.T + 2 * x @ h.mu.T))) \
                    * evaluate(f, mm, x + h.lam)
                assert abs(evaluate(out, mm, x) - direct) < 1e-12


def test_schrodinger_is_representation_at_sw_scale(rng):
    mm = rand_index(rng, 2)
    f = rand_state(rng, 2, 2)
    h1, h2 = rand_heisenberg(rng, 2, 2), rand_heisenberg(rng, 2, 2)
    from jacobiweil import heis_mul
    lhs = sw_heisenberg_apply(mm, h1, sw_heisenberg_apply(mm, h2, f))
    rhs = sw_heisenberg_apply(mm, heis_mul(h1, h2), f)
    assert state_distance(lhs, rhs, mm) < 1e-11


# --- Weil generators ------------------------------------------------------------


def test_generator_identities(rng):
    f = rand_state(rng, 2, 1)
    mm = rand_index(rng, 1)
    for gen in (("t", np.zeros((2, 2))), ("g", np.eye(2))):
        out = weil_generator_apply(mm, gen, f)
        assert state_distance(out, f, mm) == 0


def test_sigma_quadrature_oracle(rng):
    # closed form vs direct integration of the kernel, n = m = 1
    for trial in range(5):
        mm = rand_index(rng, 1)
        f = rand_state(rng, 1, 1)
        out = weil_generator_apply(mm, ("sigma", None), f)
        pref = cmath.exp(-1j * math.pi / 4) * mm[0, 0] ** 0.5
        ys = np.linspace(-10, 10, 8001)
        fy = np.array([evaluate(f, mm, np.array([[y]])) for y in ys])
        for x in (0.0, 0.4, -0.9):
            kernel = np.exp(-2j * math.pi * mm[0, 0] * ys * x)
            direct = pref * np.trapezoid(fy * kernel, ys)
            assert abs(evaluate(out, mm, np.array([[x]])) - direct) < 1e-9


def test_sigma_fixes_base_gaussian():
    # the covariant state at (iI, 0) is a sigma eigenvector (J*-factor phase)
    for n in (1, 2):
        f = ground_state(n)
        out = weil_generator_apply(np.eye(1), ("sigma", None), f)
        assert np.allclose(out.a, f.a, atol=1e-12)
        assert np.allclose(out.b, 0)
        assert abs(out.c) == pytest.approx(1.0)
        assert out.c == pytest.approx(cmath.exp(-1j * math.pi * n / 4))


def test_g_alpha_transports_covariant_state(rng):
    # matches the action on (Omega, Z) up to the covariance factor
    mm = rand_index(rng, 1)
    p = rand_point(rng, 2, 1)
    al = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
    out = weil_generator_apply(mm, ("g", al), covariant_map(p))
    assert np.allclose(out.a, al.T @ p.omega @ al, atol=1e-12)
    assert np.allclose(out.b, p.z @ al, atol=1e-12)


def test_generator_unitarity(rng):
    for _ in range(15):
        n, m = int(rng.choice([1, 2])), int(rng.choice([1, 2]))
        mm = rand_index(rng, m)
        f = rand_state(rng, n, m)
        norm = l2_norm_sq(f, mm)
        for gen in rand_word(rng, n, 3):
            f = weil_generator_apply(mm, gen, f)
            assert l2_norm_sq(f, mm) == pytest.approx(norm, rel=1e-10)


def test_parity_commutes_with_generators(rng):
    for _ in range(15):
        n, m = int(rng.choice([1, 2])), int(rng.choice([1, 2]))
        mm = rand_index(rng, m)
        f = rand_state(rng, n, m)
        word = rand_word(rng, n, 4)
        a = weil_apply_word(mm, word, f.parity_flip())
        b = weil_apply_word(mm, word, f)
        assert state_distance(a, b.parity_flip(), mm) < 1e-12


def test_word_phase_log(rng):
    mm = rand_index(rng, 1)
    f = ground_state(1)
    out = weil_apply_word(mm, [("t", np.zeros((1, 1)))], f)
    assert state_distance(out, f, mm) == 0
    with pytest.raises(DomainError):
        weil_apply_word(mm, [], f)


# --- projective structure -------------------------------------------------------


def test_sigma_squared_vs_g_minus_one(rng):
    # [sigma, sigma] vs g(-I): same state up to a unit phase; the phase is
    # plus or minus the sl2 cocycle value (deck ambiguity of the branch)
    mm = np.eye(1)
    f = rand_state(rng, 1, 1)
    two = weil_apply_word(mm, [("sigma", None), ("sigma", None)], f)
    one = weil_apply_word(mm, [("g", -np.eye(1))], f)
    ratio = two.c / one.c
    assert abs(abs(ratio) - 1) < 1e-12
    assert state_distance(two.scaled(1 / ratio), one, mm) < 1e-12
    sigma = np.array([[0.0, -1.0], [1.0, 0.0]])
    c = cocycle_sl2(sigma, sigma, 1)
    assert min(abs(ratio - c), abs(ratio + c)) < 1e-12


def _phi_word(word):
    """Predicted accumulated phase prod c(P_j, g_{j+1})^{-1} for the canonical
    per-element realization (valid when every g-letter has positive det)."""
    def sl2_of(gen):
        kind, par = gen
        if kind == "t":
            return np.array([[1.0, par[0, 0]], [0.0, 1.0]])
        if kind == "g":
            return np.array([[par[0, 0], 0.0], [0.0, 1.0 / par[0, 0]]])
        return np.array([[0.0, -1.0], [1.0, 0.0]])

    prod = sl2_of(word[0])
    phi = 1.0 + 0j
    for gen in word[1:]:
        nxt = sl2_of(gen)
        phi /= cocycle_sl2(prod, nxt, 1)
        prod = prod @ nxt
    return phi, prod


def test_projective_multiplier_matches_sl2_cocycle(rng):
    # pairs of words with equal products: extracted phase ratio = predicted
    mm = np.eye(1)
    f = ground_state(1)
    worst = 0.0
    for _ in range(120):
        b = 0.5 * float(rng.normal())
        a = 1.0 + 0.4 * float(rng.normal())
        while abs(a) < 0.25:
            a = 1.0 + 0.4 * float(rng.normal())
        a = abs(a)
        w_a = [("t", np.array([[b]])), ("g", np.array([[a]]))]
        w_b = [("g", np.array([[a]])), ("t", np.array([[b / a ** 2]]))]
        prefix = rand_word(rng, 1, 3, allow_neg_g=False)
        for gen in prefix:  # force positive-determinant g letters
            if gen[0] == "g":
                gen[1][0, 0] = abs(gen[1][0, 0])
        w1, w2 = prefix + w_a, prefix + w_b
        phi1, p1 = _phi_word(w1)
        phi2, p2 = _phi_word(w2)
        assert np.allclose(p1, p2, atol=1e-9)
        u1 = weil_apply_word(mm, w1, f)
        u2 = weil_apply_word(mm, w2, f)
        ratio = u1.c / u2.c
        worst = max(worst, abs(ratio - phi1 / phi2))
    assert worst < 1e-9


# --- intertwining and covariance -------------------------------------------------


def test_stone_von_neumann_intertwining(rng):
    from jacobiweil import heis_conjugate
    worst = 0.0
    for _ in range(40):
        n, m = int(rng.choice([1, 2])), int(rng.choice([1, 2]))
        mm = rand_index(rng, m)
        word = rand_word(rng, n, 5)
        g = word_to_symplectic(word, n)
        h = rand_heisenberg(rng, n, m)
        f = rand_state(rng, n, m)
        lhs = weil_apply_word(mm, word, sw_heisenberg_apply(mm, h, f))
        moved = heis_conjugate(g, h)
        base = weil_apply_word(mm, word, f)
        rhs = sw_heisenberg_apply(mm, moved, base)
        worst = max(worst, state_distance(lhs, rhs, mm))
    assert worst < 1e-10


def test_covariance_identity_element(rng):
    p = rand_point(rng, 1, 1)
    h = HeisenbergElement(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    assert covariance_residual(np.eye(1), [], h, p)[0] < 1e-14


def test_covariance_pure_heisenberg(rng):
    for _ in range(15):
        n, m = int(rng.choice([1, 2])), int(rng.choice([1, 2]))
        mm = rand_index(rng, m)
        assert covariance_residual(mm, [], rand_heisenberg(rng, n, m),
                                   rand_point(rng, n, m))[0] < 1e-10


def test_covariance_sigma_at_base_point():
    p = SiegelJacobiPoint(1j * np.eye(1), np.zeros((1, 1)))
    h = HeisenbergElement(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    assert covariance_residual(np.eye(1), [("sigma", None)], h, p)[0] < 1e-9


def test_covariance_fixed_branch_selects(rng):
    mm = rand_index(rng, 1)
    p = rand_point(rng, 1, 1)
    h = rand_heisenberg(rng, 1, 1)
    word = rand_word(rng, 1, 4)
    res, eps = covariance_residual(mm, word, h, p)
    assert res < 1e-10
    # the reported branch reproduces the residual; the other one fails
    assert covariance_residual(mm, word, h, p, branch=eps)[0] == pytest.approx(res)
    assert covariance_residual(mm, word, h, p, branch=-eps)[0] > 0.1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_covariance_auto_branch_is_the_better_lift(n, m):
    # "auto" evaluates J* once and takes the other lift's as (-1)^m times it;
    # it must return exactly what the better explicit branch returns, +eps0 on a tie
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mm = rand_index(rng, m)
        word = rand_word(rng, n)
        h = rand_heisenberg(rng, n, m)
        p = rand_point(rng, n, m)
        eps0 = metaplectic_lifts(word_to_symplectic(word, n))[0].eps
        plus = covariance_residual(mm, word, h, p, branch=eps0)
        minus = covariance_residual(mm, word, h, p, branch=-eps0)
        expected = minus if minus[0] < plus[0] else plus
        got = covariance_residual(mm, word, h, p)
        assert got == expected and repr(got) == repr(expected), (n, m, seed)


def test_calibration_regression(rng):
    """The frozen scale constants are the unique ones making covariance hold.

    Doubling either exponent (the classical normalization) must break the
    covariance relation; the frozen package must satisfy it.
    """
    assert SW_SCALE == 0.5 and T_SCALE == 0.5
    mm = rand_index(rng, 1)
    p = rand_point(rng, 2, 1)
    h = rand_heisenberg(rng, 2, 1)
    assert covariance_residual(mm, [("t", np.eye(2) * 0.4)], h, p)[0] < 1e-10
    # classical-scale Heisenberg action fails covariance: x-dependent defect
    f = covariant_map(p)
    from jacobiweil import JacobiElement, SymplecticElement, jacobi_act
    st = schrodinger_apply(mm, h, f, scale=1.0)
    elt = JacobiElement(SymplecticElement(np.eye(4)), h)
    target = covariant_map(jacobi_act(elt, p))
    from jacobiweil.automorphy import J_star_M, metaplectic_lifts
    lift, _ = metaplectic_lifts(SymplecticElement(np.eye(4)))
    js = J_star_M(mm, lift, h, p)
    grid = sample_grid(1, 2)
    res = max(abs(evaluate(st, mm, x) - evaluate(target, mm, x) / js) for x in grid)
    assert res > 1e-3


def _word_product_per_letter(word, n):
    """The word product as it was first written: a checked element per
    generator and per partial product."""
    g = SymplecticElement(np.eye(2 * n))
    for kind, par in word:
        g = g @ sp_generator(kind, par, n=n)
    return g


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_to_symplectic_matches_per_letter_product(n):
    for seed in range(50):
        word = rand_word(np.random.default_rng(seed), n)
        g = word_to_symplectic(word, n)
        expected = _word_product_per_letter(word, n)
        assert isinstance(g, SymplecticElement)
        assert g.g.shape == expected.g.shape
        assert g.g.tobytes() == expected.g.tobytes()
    assert word_to_symplectic([], n).g.tobytes() == np.eye(2 * n).tobytes()
