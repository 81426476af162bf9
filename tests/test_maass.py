import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacobiweil import (DomainError, HeisenbergElement, JacobiElement,
                        SymplecticElement, casimir_km, laplace_beltrami_half,
                        multiplicity, sample_function, slash_km_nh)
from jacobiweil.maass import casimir_km_k_variant, wirtinger_partial


# --- Wirtinger machinery --------------------------------------------------------


def test_wirtinger_against_symbolic():
    # F = tau^2 conj(tau) z conj(z)^2: all needed partials known in closed form
    f = lambda t, z: t * t * np.conj(t) * z * np.conj(z) ** 2
    tau, z = 0.4 + 1.2j, 0.3 - 0.5j
    cases = {
        ("t",): 2 * tau * np.conj(tau) * z * np.conj(z) ** 2,
        ("tb",): tau ** 2 * z * np.conj(z) ** 2,
        ("t", "tb"): 2 * tau * z * np.conj(z) ** 2,
        ("z", "zb"): tau ** 2 * np.conj(tau) * 2 * np.conj(z),
        ("zb", "zb"): tau ** 2 * np.conj(tau) * z * 2,
        ("z", "zb", "zb"): tau ** 2 * np.conj(tau) * 2,
        ("tb", "z", "z"): 0.0,
        ("t", "zb", "zb"): 2 * tau * np.conj(tau) * z * 2,
    }
    for letters, exact in cases.items():
        got = wirtinger_partial(f, tau, z, letters, 1e-3)
        assert abs(got - exact) < 2e-6


# --- Laplace-Beltrami -------------------------------------------------------------


def test_laplace_constant():
    assert abs(laplace_beltrami_half(lambda t: 1.0 + 0j, 3, 0.2 + 1.1j)) < 1e-9


def test_laplace_power_of_y():
    # f = y^s has Delta f = s(s-1) y^s (x-derivative vanishes)
    s = 1.7
    f = lambda t: t.imag ** s
    tau = 0.3 + 1.4j
    got = laplace_beltrami_half(f, 2, tau)
    assert got == pytest.approx(s * (s - 1) * tau.imag ** s, rel=1e-6)


def test_laplace_exponential_sample():
    # f = e^{2 pi i x} e^{-2 pi y}: Delta_{k-1/2} f = 2 pi (k - 1/2) y f
    k = 3
    f = lambda t: cmath.exp(2j * math.pi * t.real) * math.exp(-2 * math.pi * t.imag)
    tau = 1j
    got = laplace_beltrami_half(f, k, tau, h=5e-4)
    expect = 2 * math.pi * (k - 0.5) * tau.imag * f(tau)
    assert abs(got - expect) < 1e-5 * abs(expect)


def test_laplace_step_guard():
    with pytest.raises(DomainError):
        laplace_beltrami_half(lambda t: 1.0, 2, 0.2 + 0.001j, h=1e-3)
    # the step rule of casimir_km: h = 0 would divide by zero, and h = nan gives nan
    for h in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(DomainError) as info:
            laplace_beltrami_half(lambda t: 1.0, 2, 0.2 + 1.1j, h)
        assert str(info.value) == f"step h must be positive and finite, got {h!r}"


# --- Casimir ------------------------------------------------------------------------


def test_casimir_constant():
    val = casimir_km(lambda t, z: 1.0 + 0j, 4, 1, 0.2 + 1.1j, 0.3 + 0.2j)
    assert val == pytest.approx(5 / 8, abs=1e-10)


def test_casimir_linearity(rng):
    f = sample_function("poly-exp")
    g = sample_function("gaussian-y")
    a, b = 1.3 - 0.2j, -0.7 + 0.45j
    combo = lambda t, z: a * f(t, z) + b * g(t, z)
    tau, z = 0.15 + 1.2j, 0.2 - 0.1j
    lhs = casimir_km(combo, 3, 2, tau, z)
    rhs = a * casimir_km(f, 3, 2, tau, z) + b * casimir_km(g, 3, 2, tau, z)
    # third-order stencils at h = 1e-3 leave ~1e-8 of roundoff noise
    assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))


def _near_identity_element(rng, e=0.06):
    mat = np.eye(2) + e * rng.normal(size=(2, 2))
    mat[1, 1] = (1 + mat[0, 1] * mat[1, 0]) / mat[0, 0]
    lam, mu, kap = (e * float(v) for v in rng.normal(size=3))
    return JacobiElement(SymplecticElement(mat),
                         HeisenbergElement(np.array([[lam]]), np.array([[mu]]),
                                           np.array([[kap]])))


def test_casimir_invariance(rng):
    func = sample_function("poly-exp")
    k, m = 3, 2
    worst = 0.0
    for i in range(10):
        elt = _near_identity_element(rng)
        tau = 0.3 * rng.normal() + 1j * (1 + 0.3 * rng.random())
        z = 0.3 * (rng.normal() + 1j * rng.normal())
        lhs = casimir_km(slash_km_nh(func, k, m, elt), k, m, tau, z)
        cf = lambda t, w: casimir_km(func, k, m, t, w)
        rhs = slash_km_nh(cf, k, m, elt)(tau, z)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-4


def test_casimir_k_variant_fails_invariance(rng):
    # coefficient k instead of (k-1) on F_{z zbar} breaks invariance
    func = sample_function("poly-exp")
    k, m = 3, 2
    elt = JacobiElement(SymplecticElement(np.array([[1.0, 0.0], [0.12, 1.0]])),
                        HeisenbergElement(np.array([[0.1]]), np.array([[0.0]]),
                                          np.array([[0.0]])))
    tau, z = 0.2 + 1.1j, 0.25 + 0.3j
    lhs = casimir_km_k_variant(slash_km_nh(func, k, m, elt), k, m, tau, z)
    cf = lambda t, w: casimir_km_k_variant(func, k, m, t, w)
    rhs = slash_km_nh(cf, k, m, elt)(tau, z)
    assert abs(lhs - rhs) / abs(rhs) > 1e-3


def test_casimir_richardson():
    func = sample_function("poly-exp")
    tau, z = 0.2 + 1.1j, 0.25 + 0.3j
    vals = [casimir_km(func, 3, 2, tau, z, h) for h in (4e-3, 2e-3, 1e-3)]
    ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
    assert 3.5 <= ratio <= 4.5


# --- multiplicity --------------------------------------------------------------------


def test_multiplicity_examples():
    assert multiplicity([3, 3], 2, 2) == 1
    assert multiplicity([4], 1, 5) == 1
    assert multiplicity([2, 0], 2, 2) == 3


def test_multiplicity_zero_padding_symmetric():
    assert multiplicity([2, 1], 3, 2) == multiplicity([2, 1, 0], 3, 3)


def test_multiplicity_validation():
    with pytest.raises(DomainError):
        multiplicity([1, 2], 2, 2)
    with pytest.raises(DomainError):
        multiplicity([-1], 1, 1)
    with pytest.raises(DomainError):
        multiplicity([0, 3], 2, 1)


def test_multiplicity_integer_taus():
    # numpy integers are integers; 2.7 is not truncated to 2, and a bool is refused
    assert multiplicity(np.array([2, 0]), 2, 2) == 3
    for taus in ([2.7, 0], [2.0, 0], [True, 0], ["2", 0]):
        with pytest.raises(DomainError):
            multiplicity(taus, 2, 2)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=4), st.integers(1, 4))
def test_multiplicity_always_positive_integer(taus, m):
    taus = sorted(taus, reverse=True)[:m]
    n = max(len(taus), 1)
    val = multiplicity(taus, m, max(n, len(taus)))
    assert isinstance(val, int) and val >= 1


def test_casimir_step_guard():
    with pytest.raises(DomainError):
        casimir_km(sample_function("constant"), 2, 1, 0.1 + 0.005j, 0.0j, h=1e-3)
    with pytest.raises(DomainError):
        casimir_km(sample_function("constant"), 2, 0, 1j, 0.0j, h=1e-3)
    # the step must be positive and finite; h = 0 would divide by zero
    for h in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(DomainError) as info:
            casimir_km(sample_function("constant"), 2, 1, 0.2 + 1.1j, 0.1 + 0.2j, h)
        assert str(info.value) == f"step h must be positive and finite, got {h!r}"


def _ssyt_count(shape, m):
    """Semistandard tableaux with entries in 1..m: rows weakly increase,
    columns strictly increase.  Independent combinatorial oracle for the
    multiplicity product."""
    rows = [r for r in shape if r > 0]
    if not rows:
        return 1

    def gen_rows(length, lows):
        def rec(i, prev):
            if i == length:
                yield ()
                return
            for v in range(max(prev, lows[i] + 1), m + 1):
                for rest in rec(i + 1, v):
                    yield (v,) + rest
        yield from rec(0, 1)

    def count(r, prev_row):
        if r == len(rows):
            return 1
        length = rows[r]
        lows = [prev_row[i] if i < len(prev_row) else 0 for i in range(length)]
        if r == 0:
            lows = [0] * length
        return sum(count(r + 1, row) for row in gen_rows(length, lows))

    return count(0, ())


def test_multiplicity_vs_tableaux_oracle():
    import itertools
    for m in (1, 2, 3, 4):
        for taus in itertools.product(range(4), repeat=m):
            if any(taus[i] < taus[i + 1] for i in range(m - 1)):
                continue
            assert multiplicity(list(taus), m, m) == _ssyt_count(list(taus), m)
