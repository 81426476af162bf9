import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiweil import (DomainError, GaussianState, IwasawaCoords, LatticePair,
                        asymptotic_main_term, check_gamma_invariance,
                        gamma_n_generators, ground_state, lattice_sum, rotation_word,
                        state_distance, sw_rotation_apply, theta_state, theta_sum_f,
                        weil_apply_word)
from jacobiweil import jacobi_theta, weil
from jacobiweil.jacobi_theta import gamma_transform
from jacobiweil.states import _index_matrix
from jacobiweil.theta import _lattice_sums

SIEGEL_AT_I = 1.0864348112133082


def rand_schwartz_state(rng, n):
    a = 0.25 * rng.normal(size=(n, n))
    a = a + a.T
    y = np.eye(n) + 0.15 * rng.normal(size=(n, n))
    y = y @ y.T
    b = 0.3 * (rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n)))
    return GaussianState(complex(*rng.normal(size=2)), a + 1j * y, b)


def rand_sample(rng, n):
    coords = IwasawaCoords(complex(0.6 * rng.normal(), 0.8 + 0.6 * rng.random()),
                           2 * math.pi * rng.random())
    xi = LatticePair(0.7 * rng.normal(size=n), 0.7 * rng.normal(size=n))
    return coords, xi


def test_reduces_to_siegel_theta():
    f = ground_state(1)
    val = theta_sum_f(f, IwasawaCoords(1j, 0.0), LatticePair([0.0], [0.0]),
                      tol=1e-12)
    assert val.value == pytest.approx(SIEGEL_AT_I, abs=1e-10)


def test_t_variable_only_phases(rng):
    # the product Theta_f conj(Theta_g) is independent of t
    f, g = rand_schwartz_state(rng, 1), rand_schwartz_state(rng, 1)
    coords, xi = rand_sample(rng, 1)
    prods = []
    for t in (0.0, 0.37, -1.4):
        vf = theta_sum_f(f, coords, xi, t=t, tol=1e-12).value
        vg = theta_sum_f(g, coords, xi, t=t, tol=1e-12).value
        prods.append(vf * np.conj(vg))
    assert abs(prods[0] - prods[1]) < 1e-12
    assert abs(prods[0] - prods[2]) < 1e-12


def test_rotation_additivity(rng):
    one = np.eye(1)
    for n in (1, 2):
        f = rand_schwartz_state(rng, n)
        for _ in range(6):
            th1, th2 = 2 * math.pi * rng.random(), 2 * math.pi * rng.random()
            lhs = sw_rotation_apply(one, th1, sw_rotation_apply(one, th2, f))
            rhs = sw_rotation_apply(one, th1 + th2, f)
            assert state_distance(lhs, rhs, one) < 1e-8


def test_rotation_ground_state_eigenvector(rng):
    one = np.eye(1)
    for n in (1, 2):
        f = ground_state(n)
        for th in (0.3, 1.1, 2.7, 4.9):
            out = sw_rotation_apply(one, th, f)
            target = f.scaled(cmath.exp(-1j * n * th / 2))
            assert state_distance(out, target, one) < 1e-8


def test_rotation_double_cover_sign():
    one = np.eye(1)
    f = ground_state(1)
    out = sw_rotation_apply(one, 2 * math.pi, f)
    assert state_distance(out, f.scaled(-1.0), one) < 1e-10


def _word_rotation_reference(m_index, theta, f):
    """The pinned rotation as a generator word applied twice: once to the
    ground state, whose amplitude fixes the pin exp(-i m n theta / 2), then
    to f.  Reference for the closed form of sw_rotation_apply."""
    m, n = f.shape
    word = rotation_word(theta, n)
    pin = cmath.exp(-1j * m * n * theta / 2)
    if not word:
        return f.scaled(pin)
    zeta = weil_apply_word(m_index, word, ground_state(n, m))
    out = weil_apply_word(m_index, word, f)
    return out.scaled(pin / zeta.c)


def _rand_index(rng, m):
    x = rng.normal(size=(m, m))
    return x @ x.T + 0.5 * np.eye(m)


def _rand_state(rng, m, n):
    f = rand_schwartz_state(rng, n)
    b = 0.3 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    return GaussianState(f.c, f.a, b)


def test_rotation_closed_form_matches_word_reference(rng):
    # tolerances fixed from float64 before the closed form was written:
    # relative 1e-10 on the amplitude, 1e-12 (relative to max(1, |entry|)) on A and B
    quarters = [k * math.pi / 2 for k in range(-8, 9)]
    ulps = [np.nextafter(q, s) for q in quarters for s in (-math.inf, math.inf)]
    for n in (1, 2, 3):
        for m in (1, 2):
            thetas = quarters + ulps + list(rng.uniform(-4 * math.pi, 4 * math.pi, 30))
            for theta in thetas:
                mm = _rand_index(rng, m)
                f = _rand_state(rng, m, n)
                got = sw_rotation_apply(mm, theta, f)
                ref = _word_rotation_reference(mm, theta, f)
                case = (n, m, theta)
                assert abs(got.c - ref.c) <= 1e-10 * abs(ref.c), case
                for x, y in ((got.a, ref.a), (got.b, ref.b)):
                    assert np.abs(x - y).max() <= 1e-12 * max(1.0, np.abs(y).max()), case
    # the zero state may carry a real A, for which D is singular at theta = pi/2
    zero = GaussianState(0.0, np.zeros((1, 1)), np.zeros((1, 1)))
    assert sw_rotation_apply(np.eye(1), math.pi / 2, zero).c == 0


def test_rotation_applies_no_generator(monkeypatch, rng):
    letters = []
    original = weil._apply_letters
    monkeypatch.setattr(weil, "_apply_letters",
                        lambda mm, word, f: letters.extend(word) or original(mm, word, f))
    f = rand_schwartz_state(rng, 2)
    generators = lambda: [kind for kind, _ in letters if kind in ("t", "g", "sigma")]
    weil.sw_rotation_apply(np.eye(1), 1.3, f)
    assert generators() == []
    # the letter loop sees the two letters that follow the rotation in R~(tau, theta)
    weil.sw_iwasawa_apply(np.eye(1), IwasawaCoords(0.3 + 1.2j, 1.3), f)
    assert len(generators()) == 2


def test_gamma_invariance_all_generators(rng):
    for n in (1, 2):
        f, g = rand_schwartz_state(rng, n), rand_schwartz_state(rng, n)
        for gen_name, mat, xi0 in gamma_n_generators(n):
            for _ in range(3):
                coords, xi = rand_sample(rng, n)
                defect = check_gamma_invariance(f, g, (mat, xi0), coords, xi)
                assert defect < 1e-8, (gen_name, n, defect)


def test_gamma_invariance_fails_without_twist(rng):
    # sanity: the sigma generator genuinely discriminates the coordinates
    from jacobiweil.jacobi_theta import gamma_transform, theta_sum_f as tsf
    f = ground_state(1)
    coords = IwasawaCoords(0.4 + 1.1j, 1.0)
    xi = LatticePair([0.6], [0.25])
    sigma = np.array([[0.0, -1.0], [1.0, 0.0]])
    coords2, xi2 = gamma_transform(sigma, LatticePair([0.0], [0.0]), coords, xi)
    good = abs(tsf(f, coords2, xi2, tol=1e-12).value
               * np.conj(tsf(f, coords2, xi2, tol=1e-12).value)
               - tsf(f, coords, xi, tol=1e-12).value
               * np.conj(tsf(f, coords, xi, tol=1e-12).value))
    # wrong coordinates: treat (lam, mu) directly as (arg-shift, modulation)
    swapped = LatticePair(xi2.mu, -xi2.lam)
    bad = abs(tsf(f, coords2, swapped, tol=1e-12).value
              * np.conj(tsf(f, coords2, swapped, tol=1e-12).value)
              - tsf(f, coords, xi, tol=1e-12).value
              * np.conj(tsf(f, coords, xi, tol=1e-12).value))
    assert good < 1e-10
    assert bad > 1e-3


def test_asymptotic_main_term_example():
    f = ground_state(1)
    coords = IwasawaCoords(0.37 + 16j, 0.0)
    xi = LatticePair([0.23], [0.5])
    main, actual, resid = asymptotic_main_term(f, f, coords, xi)
    assert resid < 1e-6
    # alpha = 0 term dominates for mu away from the lattice at large y
    assert actual.real > 0


def test_asymptotic_decay_rate():
    for xi in (LatticePair([0.23], [0.5]), LatticePair([0.23, -0.4], [0.5, 0.3])):
        f = ground_state(xi.n)
        resid = {}
        for y in (4.0, 16.0, 64.0):
            coords = IwasawaCoords(0.37 + 1j * y, 0.0)
            resid[y] = asymptotic_main_term(f, f, coords, xi)[2]
        assert resid[16.0] < resid[4.0] * (4.0 / 16.0) ** 3
        assert resid[64.0] < resid[16.0] * (16.0 / 64.0) ** 3


def test_asymptotic_main_term_integer_shift_of_mu():
    # shifting mu by an integer only relabels the lattice in the main term
    f = GaussianState(1.0, np.array([[0.2 + 1.4j]]), np.array([[0.15 + 0.1j]]))
    coords = IwasawaCoords(0.21 + 4j, 1.3)
    base = asymptotic_main_term(f, f, coords, LatticePair([0.31], [0.3]))[0]
    for shift in (-8.0, 3.0, 12.0):
        moved = asymptotic_main_term(f, f, coords, LatticePair([0.31], [0.3 + shift]))[0]
        assert moved == pytest.approx(base, rel=1e-12)


def test_asymptotic_main_term_large_y_dominant():
    # mu = 0: the alpha = 0 term y^{n/2} f(0) conj(g(0)) dominates
    f = ground_state(1)
    coords = IwasawaCoords(0.1 + 25j, 0.0)
    xi = LatticePair([0.0], [0.0])
    main, actual, resid = asymptotic_main_term(f, f, coords, xi)
    assert main.real == pytest.approx(math.sqrt(25.0), rel=1e-5)
    assert abs(actual - main) < 1e-8 * abs(main)


def _main_term_rotating_twice(f, g, coords, xi, tol=1e-12):
    """The reference: ``asymptotic_main_term`` as it was, with the Theta states
    built by ``theta_state`` and the main-term states rotated again."""
    th_f, th_g = theta_state(f, coords, xi), theta_state(g, coords, xi)
    y = coords.tau.imag
    f_th, g_th = (weil._apply_letters(jacobi_theta._M_ONE, [("rot", coords.theta)], h)
                  for h in (f, g))
    a, b = f_th.a - np.conj(g_th.a), f_th.b - np.conj(g_th.b)
    mu = (xi.mu - np.round(xi.mu)).reshape(1, -1)
    ry = math.sqrt(y)
    shift = y * (mu @ a @ mu.T)[0, 0] - 2 * ry * (mu @ b.T)[0, 0]
    product = GaussianState(f_th.c * np.conj(g_th.c) * np.exp(1j * np.pi * shift),
                            y * a, ry * b - y * (mu @ a))
    total, vf, vg = jacobi_theta._stack_sums([product, th_f, th_g], tol).value
    main, actual = y ** (xi.n / 2) * total, vf * np.conj(vg)
    return complex(main), complex(actual), float(abs(actual - main))


def test_asymptotic_main_term_rotates_each_state_once(monkeypatch):
    rng = np.random.default_rng(7)
    cases = []
    for i in range(24):
        n = 1 + i % 3
        f, g = rand_schwartz_state(rng, n), rand_schwartz_state(rng, n)
        coords, xi = rand_sample(rng, n)
        coords = IwasawaCoords(complex(coords.tau.real, 1 + 8 * rng.random()), coords.theta)
        cases.append((f, g, coords, xi))
    # the same states, so the same sums: main, actual and residual keep their bits
    for case in cases:
        assert repr(asymptotic_main_term(*case)) == repr(_main_term_rotating_twice(*case))
    rotations = []
    apply = weil._apply_letters

    def counted(mm, letters, f):
        rotations.extend(kind for kind, _ in letters if kind == "rot")
        return apply(mm, letters, f)

    monkeypatch.setattr(jacobi_theta, "_apply_letters", counted)
    asymptotic_main_term(*cases[0])
    assert len(rotations) == 2


def test_asymptotic_decay_with_rotation(rng):
    # a non-ground state so the rotation genuinely mixes the profile
    f = GaussianState(1.0, np.array([[0.2 + 1.4j]]), np.array([[0.15 + 0.1j]]))
    xi = LatticePair([0.31], [0.5])
    resid = {}
    for y in (4.0, 16.0, 64.0):
        coords = IwasawaCoords(0.21 + 1j * y, 1.3)
        resid[y] = asymptotic_main_term(f, f, coords, xi)[2]
    assert resid[16.0] < resid[4.0] * (4.0 / 16.0) ** 3
    assert resid[64.0] < max(resid[16.0] * (16.0 / 64.0) ** 3, 1e-60)


def _plain_rotation_quadrature(theta, f, x):
    """|sin|^{-1/2} integral of exp(pi i [(x^2+y^2)cos - 2xy]/sin) f(y) dy."""
    s, c = math.sin(theta), math.cos(theta)
    ys = np.linspace(-12, 12, 16001)
    fy = f.c * np.exp(1j * np.pi * (f.a[0, 0] * ys ** 2 + 2 * f.b[0, 0] * ys))
    ker = np.exp(1j * np.pi * ((x * x + ys * ys) * c - 2 * x * ys) / s)
    return abs(s) ** -0.5 * np.trapezoid(fy * ker, ys)


def _staircase(theta):
    nu = int(math.floor(theta / math.pi))
    return 2 * nu if abs(theta - nu * math.pi) < 1e-12 else 2 * nu + 1


def test_rotation_matches_explicit_kernel_with_staircase_phase():
    """The pinned rotation flow equals the explicit integral operator with
    the staircase phase exp(-i pi n sigma_theta / 4), where sigma_theta is
    2 nu on theta = nu pi and 2 nu + 1 on (nu pi, (nu+1) pi)."""
    from jacobiweil import evaluate
    one = np.eye(1)
    f = GaussianState(0.7 - 0.2j, np.array([[0.3 + 1.2j]]), np.array([[0.25 - 0.4j]]))
    for theta in (0.4, 2.2, math.pi + 0.5, 4.9, 2 * math.pi + 0.7, -0.8):
        out = sw_rotation_apply(one, theta, f)
        pref = np.exp(-1j * np.pi * _staircase(theta) / 4)
        for x in (0.0, 0.35, -0.8):
            lhs = evaluate(out, one, np.array([[x]]))
            rhs = pref * _plain_rotation_quadrature(theta, f, x)
            assert abs(lhs - rhs) < 1e-8


# The stacked sums of check_gamma_invariance and asymptotic_main_term against
# the one-state sums they replace.  A value v with error bound e (tail bound +
# roundoff bound) makes the product bound |a| e_b + |b| e_a + e_a e_b; two
# evaluations of one product agree within the sum of their bounds.


def _stack(states, tol):
    """The values and error bounds of states summed as one stack at M = 1."""
    tv = _lattice_sums(np.array([s.c for s in states]), np.array([s.a for s in states]),
                       np.array([s.b for s in states]), np.array([s.im_a_min for s in states]),
                       *_index_matrix(np.eye(1)), tol)
    return tv.value, tv.truncation.tail_bound + tv.truncation.roundoff_bound


def _one(state, tol):
    tv = lattice_sum(state, np.eye(1), tol)
    return tv.value, tv.truncation.tail_bound + tv.truncation.roundoff_bound


def _product_bound(a, ea, b, eb):
    return abs(a) * eb + abs(b) * ea + ea * eb


# the final products and differences round too: a few ulps of the values
_ULPS = 8 * np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.integers(0, 3))
def test_stacked_invariance_check_agrees_with_one_state_sums(seed, n, pick):
    rng = np.random.default_rng(seed)
    f, g = rand_schwartz_state(rng, n), rand_schwartz_state(rng, n)
    _, mat, xi0 = gamma_n_generators(n)[pick % (2 + 2 * n)]
    coords, xi = rand_sample(rng, n)
    coords2, xi2 = gamma_transform(mat, xi0, coords, xi)
    tol = 1e-12
    states = [theta_state(h, c, x) for c, x in ((coords, xi), (coords2, xi2)) for h in (f, g)]
    # the reference: four one-state sums, as theta_sum_f takes them
    ref = [_one(s, tol) for s in states]
    values, errors = _stack(states, tol)
    new = list(zip(values, errors))
    got = check_gamma_invariance(f, g, (mat, xi0), coords, xi, tol)
    assert got == abs(values[0] * np.conj(values[1]) - values[2] * np.conj(values[3]))
    want = abs(ref[0][0] * np.conj(ref[1][0]) - ref[2][0] * np.conj(ref[3][0]))
    bound = sum(_product_bound(*side[i], *side[i + 1]) for side in (ref, new) for i in (0, 2))
    bound += _ULPS * sum(abs(v) for v, _ in ref)
    assert abs(got - want) <= bound, (got, want, bound)


def _main_term_product(f, g, coords, xi):
    """The main term's Gaussian, built as asymptotic_main_term builds it, from
    the public rotation operator."""
    one = np.eye(1)
    y = coords.tau.imag
    f_th = sw_rotation_apply(one, coords.theta, f)
    g_th = sw_rotation_apply(one, coords.theta, g)
    a, b = f_th.a - np.conj(g_th.a), f_th.b - np.conj(g_th.b)
    mu = (xi.mu - np.round(xi.mu)).reshape(1, -1)
    ry = math.sqrt(y)
    shift = y * (mu @ a @ mu.T)[0, 0] - 2 * ry * (mu @ b.T)[0, 0]
    return GaussianState(f_th.c * np.conj(g_th.c) * np.exp(1j * np.pi * shift),
                         y * a, ry * b - y * (mu @ a))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.floats(1.0, 30.0))
def test_stacked_main_term_agrees_with_one_state_sums(seed, n, y):
    rng = np.random.default_rng(seed)
    f, g = rand_schwartz_state(rng, n), rand_schwartz_state(rng, n)
    coords, xi = rand_sample(rng, n)
    coords = IwasawaCoords(complex(coords.tau.real, y), coords.theta)
    tol = 1e-12
    states = [_main_term_product(f, g, coords, xi),
              theta_state(f, coords, xi), theta_state(g, coords, xi)]
    ref = [_one(s, tol) for s in states]
    values, errors = _stack(states, tol)
    main, actual, resid = asymptotic_main_term(f, g, coords, xi, tol)
    scale = y ** (n / 2)
    assert main == complex(scale * values[0])
    assert actual == complex(values[1] * np.conj(values[2]))
    assert resid == abs(actual - main)
    main_bound = scale * (errors[0] + ref[0][1]) + _ULPS * abs(main)
    assert abs(main - scale * ref[0][0]) <= main_bound
    want = ref[1][0] * np.conj(ref[2][0])
    bound = (_product_bound(*ref[1], *ref[2]) + _product_bound(values[1], errors[1],
                                                               values[2], errors[2])
             + _ULPS * abs(want))
    assert abs(actual - want) <= bound


# c = 0 with Im A < 0: no term of it may be evaluated (e^{2 pi r^2} overflows)
ZERO = GaussianState(0, [[0.3 - 2j]], [[0.1 + 0.2j]])


def test_zero_state_in_the_invariance_stack():
    coords, xi = IwasawaCoords(0.2 + 0.01j, 0.7), LatticePair([0.3], [0.2])
    for _, mat, xi0 in gamma_n_generators(1):
        assert check_gamma_invariance(ZERO, ground_state(1), (mat, xi0), coords, xi) == 0.0
        assert check_gamma_invariance(ground_state(1), ZERO, (mat, xi0), coords, xi) == 0.0
    got = asymptotic_main_term(ZERO, ground_state(1), coords, xi)
    assert got == (0j, 0j, 0.0)
    assert all(type(v) is t for v, t in zip(got, (complex, complex, float)))


def test_generator_translation_must_match_xi():
    coords, xi = IwasawaCoords(0.2 + 1j, 0.3), LatticePair([0.1, 0.2], [0.3, 0.4])
    xi0 = LatticePair([1.0], [0.0])
    with pytest.raises(DomainError, match="xi0 and xi must have equal length"):
        gamma_transform(np.eye(2), xi0, coords, xi)
    with pytest.raises(DomainError, match="xi0 and xi must have equal length"):
        check_gamma_invariance(ground_state(2), ground_state(2), (np.eye(2), xi0), coords, xi)


@pytest.mark.parametrize("nf, ng, nxi", [(1, 2, 1), (2, 1, 1), (1, 1, 2)])
def test_main_term_refuses_a_shape_mismatch(nf, ng, nxi):
    coords = IwasawaCoords(0.2 + 4j, 0.7)
    xi = LatticePair(np.full(nxi, 0.1), np.full(nxi, 0.2))
    with pytest.raises(DomainError, match=r"state shape must be \(1, n\) matching xi"):
        asymptotic_main_term(ground_state(nf), ground_state(ng), coords, xi)
