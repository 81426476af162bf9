"""Acceptance criteria, one test per criterion, stated tolerances pinned.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from jacobiweil import (GaussianState, HeisenbergElement, IwasawaCoords,
                        JacobiElement, LatticePair, SymplecticElement,
                        asymptotic_main_term, casimir_km,
                        check_gamma_invariance, cocycle_clm, cocycle_sl2,
                        coordinate_lagrangian, covariance_residual,
                        gamma_n_generators,
                        ground_state, jfac, metaplectic_lifts, multiplicity,
                        sample_function, siegel_theta, slash_km_nh,
                        state_distance, sw_heisenberg_apply, sw_rotation_apply,
                        theta_M, theta_multiplier, theta_weight_quarter,
                        weil_apply_word)
from jacobiweil.automorphy import J_half, alpha_factor, beta_cocycle
from jacobiweil.groups import SiegelJacobiPoint, heis_conjugate, sp_act, word_to_symplectic
from jacobiweil.maslov import random_symplectic
from jacobiweil.suites import (rand_gamma04, rand_heisenberg, rand_index,
                               rand_point, rand_sl2, rand_word,
                               suite_maslov_axioms)


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_acceptance_01_maslov_axioms():
    t0 = time.perf_counter()
    report = suite_maslov_axioms(seed=101, count=1000)
    elapsed = time.perf_counter() - t0
    ok = report["passed"] and report["max_residual"] == 0 and elapsed < 30
    _report(1, "maslov-axioms", ok,
            f"checks={report['checks']} max={report['max_residual']} time={elapsed:.1f}s")


def test_acceptance_02_cocycle_crosscheck():
    rng = np.random.default_rng(102)
    l1 = coordinate_lagrangian(1)
    worst_pair = 0.0
    for _ in range(1000):
        m1, m2 = rand_sl2(rng), rand_sl2(rng)
        d = abs(cocycle_clm(1.0, l1, SymplecticElement(m1), SymplecticElement(m2))
                - cocycle_sl2(m1, m2, 1))
        worst_pair = max(worst_pair, d)
    l2 = coordinate_lagrangian(2)
    worst_triple = 0.0
    for _ in range(200):
        g1, g2, g3 = (random_symplectic(rng, 2) for _ in range(3))
        lhs = cocycle_clm(1.0, l2, g1 @ g2, g3) * cocycle_clm(1.0, l2, g1, g2)
        rhs = cocycle_clm(1.0, l2, g1, g2 @ g3) * cocycle_clm(1.0, l2, g2, g3)
        worst_triple = max(worst_triple, abs(lhs - rhs))
    ok = worst_pair < 1e-12 and worst_triple < 1e-12
    _report(2, "cocycle-crosscheck", ok,
            f"pair={worst_pair:.2e} triple={worst_triple:.2e}")


def test_acceptance_03_covariance():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        for _ in range(25):
            mm = rand_index(rng, 1)
            word = rand_word(rng, n, 6)
            h = rand_heisenberg(rng, n, 1)
            for _ in range(5):
                p = rand_point(rng, n, 1)
                worst = max(worst, covariance_residual(mm, word, h, p)[0])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 60
    _report(3, "schrodinger-weil-covariance", ok,
            f"max residual={worst:.2e} time={elapsed:.1f}s")


def test_acceptance_04_intertwining():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n, m = int(rng.choice([1, 2])), int(rng.choice([1, 2]))
        mm = rand_index(rng, m)
        word = rand_word(rng, n, 5)
        g = word_to_symplectic(word, n)
        h = rand_heisenberg(rng, n, m)
        p = rand_point(rng, n, m)
        f = GaussianState(1.0, p.omega, p.z)
        lhs = weil_apply_word(mm, word, sw_heisenberg_apply(mm, h, f))
        base = weil_apply_word(mm, word, f)
        rhs = sw_heisenberg_apply(mm, heis_conjugate(g, h), base)
        worst = max(worst, state_distance(lhs, rhs, mm))
    ok = worst < 1e-10
    _report(4, "stone-von-neumann-intertwining", ok, f"max={worst:.2e}")


def test_acceptance_05_theta_laws():
    rng = np.random.default_rng(105)
    worst_translate = 0.0
    for _ in range(20):
        n = int(rng.choice([1, 2]))
        p = rand_point(rng, n, 1)
        b = rng.integers(-2, 3, size=(n, n))
        b = b + b.T
        worst_translate = max(worst_translate, abs(
            siegel_theta(p.omega, 1e-13).value
            - siegel_theta(p.omega + 2 * b, 1e-13).value))
    worst_invert = 0.0
    for y in (2.0, 3.0, 5.0):
        worst_invert = max(worst_invert, abs(
            siegel_theta(np.array([[1j / y]]), 1e-13).value
            - math.sqrt(y) * siegel_theta(np.array([[1j * y]]), 1e-13).value))
    mm = np.array([[2.0]])
    worst_lattice = 0.0
    for _ in range(20):
        p = rand_point(rng, 1, 1)
        shift = float(rng.integers(-3, 4))
        worst_lattice = max(worst_lattice, abs(
            theta_M(mm, p, 1e-13).value
            - theta_M(mm, SiegelJacobiPoint(p.omega, p.z + shift), 1e-13).value))
    worst_mult = 0.0
    for _ in range(100):
        gam = rand_gamma04(rng)
        tau = complex(rng.normal() * 0.8, 0.5 + rng.random())
        a, b, c, d = (float(v) for v in gam.ravel())
        quot = theta_weight_quarter((a * tau + b) / (c * tau + d), 1e-13) \
            / theta_weight_quarter(tau, 1e-13)
        worst_mult = max(worst_mult, abs(quot - theta_multiplier(gam, tau)))
    ok = (worst_translate < 1e-12 and worst_invert < 1e-9
          and worst_lattice < 1e-12 and worst_mult < 1e-10)
    _report(5, "theta-laws", ok,
            f"translate={worst_translate:.2e} invert={worst_invert:.2e} "
            f"lattice={worst_lattice:.2e} multiplier={worst_mult:.2e}")


def test_acceptance_06_jacobi_theta_sums():
    rng = np.random.default_rng(106)
    worst_inv = 0.0
    samples = 0
    for n in (1, 2):
        a0 = 0.25 * rng.normal(size=(n, n))
        y0 = np.eye(n) + 0.15 * rng.normal(size=(n, n))
        f = GaussianState(1.0, a0 + a0.T + 1j * (y0 @ y0.T),
                          0.3 * (rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))))
        g = ground_state(n)
        gens = gamma_n_generators(n)
        while samples < (10 if n == 1 else 20):
            coords = IwasawaCoords(complex(0.6 * rng.normal(),
                                           0.8 + 0.6 * rng.random()),
                                   2 * math.pi * rng.random())
            xi = LatticePair(0.7 * rng.normal(size=n), 0.7 * rng.normal(size=n))
            gen = gens[samples % len(gens)]
            worst_inv = max(worst_inv, check_gamma_invariance(
                f, g, (gen[1], gen[2]), coords, xi))
            samples += 1
    # asymptotic decay faster than y^{-3}
    f0 = ground_state(1)
    xi = LatticePair([0.23], [0.5])
    resid = {y: asymptotic_main_term(f0, f0, IwasawaCoords(0.37 + 1j * y, 0.0), xi)[2]
             for y in (4.0, 16.0, 64.0)}
    decay_ok = (resid[16.0] < resid[4.0] * (4 / 16) ** 3
                and resid[64.0] < resid[16.0] * (16 / 64) ** 3)
    # rotation additivity
    one = np.eye(1)
    worst_rot = 0.0
    for n in (1, 2):
        f = ground_state(n)
        fr = GaussianState(1.0, 0.2 * np.eye(n) + 1.3j * np.eye(n),
                           0.2 * np.ones((1, n)) + 0.1j * np.ones((1, n)))
        for _ in range(5):
            th1, th2 = 2 * math.pi * rng.random(), 2 * math.pi * rng.random()
            lhs = sw_rotation_apply(one, th1, sw_rotation_apply(one, th2, fr))
            rhs = sw_rotation_apply(one, th1 + th2, fr)
            worst_rot = max(worst_rot, state_distance(lhs, rhs, one))
    ok = worst_inv < 1e-8 and decay_ok and worst_rot < 1e-8
    _report(6, "jacobi-theta-sums", ok,
            f"invariance={worst_inv:.2e} decay={decay_ok} rotation={worst_rot:.2e}")


def test_acceptance_07_automorphy_identities():
    rng = np.random.default_rng(107)
    worst_sq = worst_chain = worst_beta = 0.0
    for _ in range(200):
        n = int(rng.choice([1, 2]))
        p = rand_point(rng, n, 1)
        omega = p.omega
        ga = metaplectic_lifts(random_symplectic(rng, n))[int(rng.integers(2))]
        gb = metaplectic_lifts(random_symplectic(rng, n))[int(rng.integers(2))]
        det = np.linalg.det(jfac(ga.g, omega))
        worst_sq = max(worst_sq, abs(J_half(ga, omega) ** 2 - det) / max(1.0, abs(det)))
        lhs = J_half(ga @ gb, omega)
        rhs = J_half(ga, sp_act(gb.g, omega)) * J_half(gb, omega)
        worst_chain = max(worst_chain, abs(lhs - rhs) / max(1.0, abs(lhs)))
        worst_beta = max(worst_beta, abs(
            beta_cocycle(omega, ga.g, gb.g) ** 2
            - alpha_factor(gb.g, omega) / alpha_factor(ga.g @ gb.g, omega)
            * alpha_factor(ga.g, omega)))
    # invariant volume vs finite-difference Jacobian
    from tests_fd_helper import volume_invariance_defect
    worst_vol = max(volume_invariance_defect(rng, 1, 1),
                    volume_invariance_defect(rng, 2, 1))
    ok = worst_sq < 1e-9 and worst_chain < 1e-9 and worst_beta < 1e-9 and worst_vol < 1e-5
    _report(7, "automorphy-identities", ok,
            f"square={worst_sq:.2e} chain={worst_chain:.2e} beta2={worst_beta:.2e} "
            f"volume={worst_vol:.2e}")


def test_acceptance_08_casimir_invariance():
    rng = np.random.default_rng(108)
    func = sample_function("poly-exp")
    k, m = 3, 2
    base_points = [(0.2 + 1.1j, 0.25 + 0.3j), (-0.3 + 0.9j, 0.1 - 0.2j),
                   (0.05 + 1.4j, -0.3 + 0.15j), (0.4 + 1.0j, 0.2 + 0.05j),
                   (-0.15 + 1.2j, -0.1 - 0.1j)]
    worst = 0.0
    for _ in range(20):
        e = 0.06
        mat = np.eye(2) + e * rng.normal(size=(2, 2))
        mat[1, 1] = (1 + mat[0, 1] * mat[1, 0]) / mat[0, 0]
        lam, mu, kap = (e * float(v) for v in rng.normal(size=3))
        elt = JacobiElement(SymplecticElement(mat),
                            HeisenbergElement(np.array([[lam]]), np.array([[mu]]),
                                              np.array([[kap]])))
        for tau, z in base_points:
            lhs = casimir_km(slash_km_nh(func, k, m, elt), k, m, tau, z, 1e-3)
            cf = lambda t, w: casimir_km(func, k, m, t, w, 1e-3)
            rhs = slash_km_nh(cf, k, m, elt)(tau, z)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    tau, z = 0.2 + 1.1j, 0.25 + 0.3j
    vals = [casimir_km(func, k, m, tau, z, h) for h in (4e-3, 2e-3, 1e-3)]
    ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
    ok = worst < 1e-4 and 3.5 <= ratio <= 4.5
    _report(8, "casimir-invariance", ok, f"max rel={worst:.2e} richardson={ratio:.3f}")


def test_acceptance_09_multiplicity():
    import itertools
    bad = 0
    total = 0
    for m in range(1, 5):
        n = m
        s = min(m, n)
        for taus in itertools.product(range(6), repeat=s):
            if any(taus[i] < taus[i + 1] for i in range(s - 1)):
                continue
            total += 1
            val = multiplicity(list(taus), m, n)
            if not (isinstance(val, int) and val >= 1):
                bad += 1
    ok = bad == 0
    _report(9, "multiplicity-formula", ok, f"{total} vectors, {bad} failures")


def test_acceptance_10_determinism(cli_env):
    suites = ["maslov-axioms", "cocycles", "covariance", "theta-laws",
              "casimir-invariance"]
    counts = {"maslov-axioms": 40, "cocycles": 40, "covariance": 8,
              "theta-laws": 10, "casimir-invariance": 3}
    mismatches = []
    for name in suites:
        outs = []
        for threads in ("1", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "jacobiweil.cli", "--suite", name,
                 "--seed", "42", "--count", str(counts[name]),
                 "--threads", threads],
                capture_output=True, text=True, env=cli_env)
            assert proc.returncode == 0, (name, proc.stdout, proc.stderr)
            doc = json.loads(proc.stdout)
            doc.pop("wall_time", None)
            doc.get("outputs", {}).pop("wall_time", None)
            outs.append(json.dumps(doc, sort_keys=True).encode())
        if outs[0] != outs[1]:
            mismatches.append(name)
    ok = not mismatches
    _report(10, "determinism", ok, f"mismatches={mismatches}")
