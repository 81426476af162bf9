import math

import numpy as np
import pytest

from jacobiweil import (DomainError, HeisenbergElement, IwasawaCoords,
                        JacobiElement, SiegelJacobiPoint, SymplecticElement,
                        embed_sl2, heis_conjugate, heis_identity, heis_mul,
                        is_positive_definite, iwasawa_matrix, iwasawa_sl2,
                        jacobi_act, jacobi_identity, jacobi_mul, sl2_act_circle,
                        sp_generator, symplectic_form)
from jacobiweil.errors import InvariantViolation
from jacobiweil.linalg import real_sym
from jacobiweil.suites import rand_heisenberg, rand_point, rand_sl2
from jacobiweil.maslov import random_symplectic


def rand_jacobi(rng, n, m):
    return JacobiElement(random_symplectic(rng, n), rand_heisenberg(rng, n, m))


# --- Heisenberg --------------------------------------------------------------


def test_heis_identity_law(rng):
    h = rand_heisenberg(rng, 2, 2)
    e = heis_identity(2, 2)
    for a, b in ((h, e), (e, h)):
        prod = heis_mul(a, b)
        assert np.allclose(prod.lam, h.lam)
        assert np.allclose(prod.mu, h.mu)
        assert np.allclose(prod.kappa, h.kappa)


def test_heis_inverse_m1(rng):
    # for m = 1 the inverse is plain negation: cross terms cancel
    h = rand_heisenberg(rng, 3, 1)
    direct = HeisenbergElement(-h.lam, -h.mu, -h.kappa)
    prod = heis_mul(h, direct)
    assert np.allclose(prod.lam, 0) and np.allclose(prod.kappa, 0)
    prod2 = heis_mul(h, h.inv())
    assert np.allclose(prod2.lam, 0) and np.allclose(prod2.mu, 0)
    assert np.allclose(prod2.kappa, 0)


def test_heis_inverse_general(rng):
    h = rand_heisenberg(rng, 2, 3)
    prod = heis_mul(h.inv(), h)
    assert np.allclose(prod.kappa, 0, atol=1e-12)


def test_heis_commutator():
    e1 = np.array([[1.0]])
    a = HeisenbergElement(e1, np.zeros((1, 1)), np.zeros((1, 1)))
    b = HeisenbergElement(np.zeros((1, 1)), e1, np.zeros((1, 1)))
    comm = heis_mul(heis_mul(a, b), heis_mul(a.inv(), b.inv()))
    assert np.allclose(comm.lam, 0) and np.allclose(comm.mu, 0)
    assert comm.kappa[0, 0] == pytest.approx(2.0)


def test_heis_associative(rng):
    for _ in range(30):
        hs = [rand_heisenberg(rng, 2, 2) for _ in range(3)]
        left = heis_mul(heis_mul(hs[0], hs[1]), hs[2])
        right = heis_mul(hs[0], heis_mul(hs[1], hs[2]))
        assert np.allclose(left.kappa, right.kappa, atol=1e-10)
        assert np.allclose(left.lam, right.lam)


def test_heis_invariant_rejected():
    lam = np.array([[1.0, 0.0], [0.0, 0.0]])
    mu = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(Exception):
        HeisenbergElement(lam, mu, np.zeros((2, 2)))


# --- Jacobi group ------------------------------------------------------------


def test_jacobi_identity_and_inverse(rng):
    a = rand_jacobi(rng, 2, 2)
    e = jacobi_identity(2, 2)
    prod = jacobi_mul(a, e)
    assert np.allclose(prod.g.g, a.g.g)
    assert np.allclose(prod.h.mu, a.h.mu)
    both = jacobi_mul(a, a.inv())
    assert np.allclose(both.g.g, np.eye(4), atol=1e-10)
    assert np.allclose(both.h.lam, 0, atol=1e-10)
    assert np.allclose(both.h.kappa, 0, atol=1e-10)


def test_jacobi_pure_heisenberg_reduces(rng):
    h1, h2 = rand_heisenberg(rng, 2, 1), rand_heisenberg(rng, 2, 1)
    a = JacobiElement(SymplecticElement(np.eye(4)), h1)
    b = JacobiElement(SymplecticElement(np.eye(4)), h2)
    prod = jacobi_mul(a, b)
    direct = heis_mul(h1, h2)
    assert np.allclose(prod.h.kappa, direct.kappa)
    assert np.allclose(prod.h.lam, direct.lam)


def test_jacobi_semidirect_conjugation(rng):
    # (g, 0)(I, h) = (I, g h g^{-1}-conjugated)(g, 0) per the semidirect law
    for _ in range(20):
        n, m = 2, 2
        g = random_symplectic(rng, n)
        h = rand_heisenberg(rng, n, m)
        lhs = jacobi_mul(JacobiElement(g, heis_identity(m, n)),
                         JacobiElement(SymplecticElement(np.eye(2 * n)), h))
        conj = heis_conjugate(g, h)
        rhs = jacobi_mul(JacobiElement(SymplecticElement(np.eye(2 * n)), conj),
                         JacobiElement(g, heis_identity(m, n)))
        assert np.allclose(lhs.g.g, rhs.g.g, atol=1e-10)
        assert np.allclose(lhs.h.lam, rhs.h.lam, atol=1e-10)
        assert np.allclose(lhs.h.mu, rhs.h.mu, atol=1e-10)
        assert np.allclose(lhs.h.kappa, rhs.h.kappa, atol=1e-9)


def test_jacobi_associative(rng):
    for _ in range(25):
        xs = [rand_jacobi(rng, 2, 2) for _ in range(3)]
        left = jacobi_mul(jacobi_mul(xs[0], xs[1]), xs[2])
        right = jacobi_mul(xs[0], jacobi_mul(xs[1], xs[2]))
        assert np.allclose(left.g.g, right.g.g, atol=1e-10)
        assert np.allclose(left.h.kappa, right.h.kappa, atol=1e-9)


def test_heisenberg_normal(rng):
    # conjugates of Heisenberg elements stay Heisenberg (constraint holds)
    for _ in range(20):
        g = random_symplectic(rng, 2)
        h = rand_heisenberg(rng, 2, 2)
        conj = heis_conjugate(g, h)
        s = conj.kappa + conj.mu @ conj.lam.T
        assert np.allclose(s, s.T, atol=1e-9)


# --- action on the Siegel-Jacobi space ---------------------------------------


def test_action_identity(rng):
    p = rand_point(rng, 2, 1)
    q = jacobi_act(jacobi_identity(2, 1), p)
    assert np.allclose(q.omega, p.omega)
    assert np.allclose(q.z, p.z)


def test_action_sigma_fixed_point():
    n = 2
    sigma = sp_generator("sigma", n=n)
    p = SiegelJacobiPoint(1j * np.eye(n), np.zeros((1, n)))
    q = jacobi_act(JacobiElement(sigma, heis_identity(1, n)), p)
    assert np.allclose(q.omega, 1j * np.eye(n), atol=1e-12)
    assert np.allclose(q.z, 0)


def test_action_translation(rng):
    p = rand_point(rng, 2, 2)
    h = rand_heisenberg(rng, 2, 2)
    elt = JacobiElement(SymplecticElement(np.eye(4)), h)
    q = jacobi_act(elt, p)
    assert np.allclose(q.omega, p.omega)
    assert np.allclose(q.z, p.z + h.lam @ p.omega + h.mu)


def test_action_is_left_action(rng):
    for _ in range(20):
        n, m = int(rng.choice([1, 2, 3])), int(rng.choice([1, 2]))
        a, b = rand_jacobi(rng, n, m), rand_jacobi(rng, n, m)
        p = rand_point(rng, n, m)
        q1 = jacobi_act(a, jacobi_act(b, p))
        q2 = jacobi_act(jacobi_mul(a, b), p)
        assert np.allclose(q1.omega, q2.omega, atol=1e-9)
        assert np.allclose(q1.z, q2.z, atol=1e-9)


def test_action_preserves_domain(rng):
    for _ in range(20):
        a = rand_jacobi(rng, 2, 1)
        q = jacobi_act(a, rand_point(rng, 2, 1))
        assert is_positive_definite(q.omega.imag)


# --- generators ---------------------------------------------------------------


def test_generator_trivial_cases():
    assert np.allclose(sp_generator("t", np.zeros((2, 2))).g, np.eye(4))
    assert np.allclose(sp_generator("g", np.eye(2)).g, np.eye(4))
    assert np.allclose(sp_generator("sigma", n=1).g, np.array([[0, -1], [1, 0]]))


def test_generator_validation():
    with pytest.raises(Exception):
        sp_generator("t", np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        sp_generator("g", np.zeros((2, 2)))


# --- SL(2) machinery ----------------------------------------------------------


def test_iwasawa_examples():
    c = iwasawa_sl2(np.eye(2))
    assert c.tau == pytest.approx(1j)
    assert c.theta == pytest.approx(0.0)
    c = iwasawa_sl2(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert c.tau == pytest.approx(1j)
    assert c.theta == pytest.approx(math.pi / 2)
    c = iwasawa_sl2(np.array([[1.0, 0.7], [0.0, 1.0]]))
    assert c.tau == pytest.approx(0.7 + 1j)
    assert c.theta == pytest.approx(0.0)


def test_iwasawa_recomposition(rng):
    for _ in range(50):
        mat = rand_sl2(rng)
        assert np.allclose(iwasawa_matrix(iwasawa_sl2(mat)), mat, atol=1e-10)


def test_iwasawa_rejects_nonunimodular():
    with pytest.raises(DomainError):
        iwasawa_sl2(2 * np.eye(2))


def test_sl2_act_circle_examples():
    c = IwasawaCoords(1j, 0.3)
    same = sl2_act_circle(np.eye(2), c)
    assert same.tau == pytest.approx(1j) and same.theta == pytest.approx(0.3)
    moved = sl2_act_circle(np.array([[1.0, 1.0], [0.0, 1.0]]), IwasawaCoords(1j, 0.0))
    assert moved.tau == pytest.approx(1 + 1j)
    assert moved.theta == pytest.approx(0.0)


def test_sl2_act_circle_compatible(rng):
    # M . iwasawa(M') = iwasawa(M M')
    for _ in range(40):
        m1, m2 = rand_sl2(rng), rand_sl2(rng)
        lhs = sl2_act_circle(m1, iwasawa_sl2(m2))
        rhs = iwasawa_sl2(m1 @ m2)
        assert lhs.tau == pytest.approx(rhs.tau, abs=1e-9)
        assert math.isclose((lhs.theta - rhs.theta) % (2 * math.pi), 0.0,
                            abs_tol=1e-9) or math.isclose(
            (lhs.theta - rhs.theta) % (2 * math.pi), 2 * math.pi, abs_tol=1e-9)


def test_embed_sl2(rng):
    assert np.allclose(embed_sl2(np.eye(2), 3).g, np.eye(6))
    sigma = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(embed_sl2(sigma, 2).g, sp_generator("sigma", n=2).g)
    for _ in range(20):
        m1, m2 = rand_sl2(rng), rand_sl2(rng)
        lhs = embed_sl2(m1, 2) @ embed_sl2(m2, 2)
        assert np.allclose(lhs.g, embed_sl2(m1 @ m2, 2).g, atol=1e-10)


# --- construction: validation and block assembly ------------------------------


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_symplectic_element_validates():
    with pytest.raises(InvariantViolation):
        SymplecticElement(np.diag([2.0, 2.0]))
    with pytest.raises(DomainError):
        SymplecticElement(np.eye(3))
    # NaN fails every comparison, so only an explicit finiteness check refuses it
    for bad in (np.full((2, 2), np.nan), np.array([[1.0, np.inf], [0.0, 1.0]])):
        with pytest.raises(DomainError):
            SymplecticElement(bad)


def test_symplectic_form_is_shared_and_read_only():
    j = symplectic_form(2)
    assert symplectic_form(2) is j
    with pytest.raises(ValueError):
        j[0, 0] = 1.0
    assert np.array_equal(j, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


def test_block_assembly_matches_np_block(rng):
    # bit-identical to np.block, signed zeros of -I and of c * I included
    for n in range(1, 5):
        z, i = np.zeros((n, n)), np.eye(n)
        assert same_bits(symplectic_form(n), np.block([[z, i], [-i, z]]))
        b = rng.normal(size=(n, n))
        b = b + b.T
        ref = np.block([[i, real_sym(b)], [z, i]])
        assert same_bits(sp_generator("t", b).g, ref)
        al = i + 0.3 * rng.normal(size=(n, n))
        ref = np.block([[al.T, z], [z, np.linalg.inv(al)]])
        assert same_bits(sp_generator("g", al).g, ref)
        assert same_bits(sp_generator("sigma", n=n).g, np.block([[z, -i], [i, z]]))
        for m in (rand_sl2(rng), np.array([[-1.0, 0.0], [0.0, -1.0]])):
            a, bb, c, d = m.ravel()
            ref = np.block([[a * i, bb * i], [c * i, d * i]])
            assert same_bits(embed_sl2(m, n).g, ref)
