import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from jacobiweil import (DomainError, Lagrangian, SymplecticElement,
                        cocycle_clm, cocycle_sl2, coordinate_lagrangian,
                        intersection_dim, maslov3, maslov_chain,
                        momentum_lagrangian, random_lagrangian,
                        random_symplectic, signature, sp_generator, sp_identity,
                        tau_ell, word_to_symplectic)
import jacobiweil.maslov as maslov_mod
import jacobiweil.suites as suites_mod
from jacobiweil.errors import InvariantViolation
from jacobiweil.groups import _letter, _word_products
from jacobiweil.serialize import encode_matrix
from jacobiweil.suites import (SUITES, _report, rand_sl2, rand_sym, rand_word,
                               suite_cocycles, suite_maslov_axioms)


def span(*cols):
    return Lagrangian(np.array(cols, dtype=float).T)


def test_triple_on_equal_arguments(rng):
    l = random_lagrangian(rng, 2)
    assert maslov3(l, l, l) == 0


def test_triple_plane_example():
    # R^2: tau(e1, e2, e1+e2) = signature of ab - bc - ca = -1
    e1, e2, diag = span([1, 0]), span([0, 1]), span([1, 1])
    assert maslov3(e1, e2, diag) == -1


def test_triple_antisymmetry(rng):
    for _ in range(40):
        n = int(rng.choice([1, 2, 3]))
        l1, l2, l3 = (random_lagrangian(rng, n) for _ in range(3))
        t = maslov3(l1, l2, l3)
        assert maslov3(l2, l1, l3) == -t
        assert maslov3(l1, l3, l2) == -t


def test_triple_range(rng):
    for _ in range(30):
        n = int(rng.choice([1, 2, 3]))
        t = maslov3(*(random_lagrangian(rng, n) for _ in range(3)))
        assert -3 * n <= t <= 3 * n


def test_chain_reduces_and_degenerates(rng):
    l = random_lagrangian(rng, 2)
    assert maslov_chain([l, l, l, l, l]) == 0
    l1, l2, l3 = (random_lagrangian(rng, 2) for _ in range(3))
    assert maslov_chain([l1, l2, l3]) == maslov3(l1, l2, l3)
    with pytest.raises(DomainError):
        maslov_chain([l1, l2])


def test_chain_circular(rng):
    for _ in range(20):
        ls = [random_lagrangian(rng, 2) for _ in range(5)]
        rotated = ls[1:] + ls[:1]
        assert maslov_chain(ls) == maslov_chain(rotated)


def test_axiom_suite_clean():
    report = suite_maslov_axioms(seed=7, count=120)
    assert report["passed"], report["failures"][:2]
    assert report["max_residual"] == 0


def test_lagrangian_rejects_non_isotropic():
    with pytest.raises(InvariantViolation):
        Lagrangian(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_intersection_dim(rng):
    n = 2
    assert intersection_dim(coordinate_lagrangian(n), coordinate_lagrangian(n)) == n
    assert intersection_dim(coordinate_lagrangian(n), momentum_lagrangian(n)) == 0


# --- cocycles -----------------------------------------------------------------


def test_cocycle_clm_identity_left(rng):
    l = coordinate_lagrangian(2)
    g2 = random_symplectic(rng, 2)
    ident = SymplecticElement(np.eye(4))
    assert cocycle_clm(1.0, l, ident, g2) == pytest.approx(1.0)


def test_cocycle_clm_inverse_pair(rng):
    l = coordinate_lagrangian(2)
    for _ in range(20):
        g = random_symplectic(rng, 2)
        # tau with repeated outer entry vanishes
        assert tau_ell(l, g, g.inv()) == 0
        assert cocycle_clm(1.0, l, g, g.inv()) == pytest.approx(1.0)


def test_cocycle_sl2_examples():
    sigma = np.array([[0.0, -1.0], [1.0, 0.0]])
    lower = np.array([[1.0, 0.0], [1.0, 1.0]])
    upper = np.array([[1.0, 0.5], [0.0, 1.0]])
    assert cocycle_sl2(sigma, sigma) == pytest.approx(1.0)
    assert cocycle_sl2(sigma, lower, 1) == pytest.approx(cmath.exp(-1j * math.pi / 4))
    assert cocycle_sl2(upper, rand_sl2(np.random.default_rng(0))) == pytest.approx(1.0)


def test_cocycle_clm_matches_sl2_example():
    l = coordinate_lagrangian(1)
    sigma = np.array([[0.0, -1.0], [1.0, 0.0]])
    lower = np.array([[1.0, 0.0], [1.0, 1.0]])
    val = cocycle_clm(1.0, l, SymplecticElement(sigma), SymplecticElement(lower))
    assert val == pytest.approx(cmath.exp(-1j * math.pi / 4))


def test_cocycle_clm_matches_sl2_random(rng):
    l = coordinate_lagrangian(1)
    for _ in range(300):
        m1, m2 = rand_sl2(rng), rand_sl2(rng)
        lhs = cocycle_clm(1.0, l, SymplecticElement(m1), SymplecticElement(m2))
        assert abs(lhs - cocycle_sl2(m1, m2, 1)) < 1e-12


def test_cocycle_clm_matches_sl2_degenerate(rng):
    # whenever some c_i = 0 both sides equal 1 (resolves the sign(0) question)
    l = coordinate_lagrangian(1)
    sigma = np.array([[0.0, -1.0], [1.0, 0.0]])
    minus = -np.eye(2)
    cases = [(sigma, sigma), (sigma, minus), (minus, minus),
             (np.array([[2.0, 0.3], [0.0, 0.5]]), rand_sl2(rng))]
    for m1, m2 in cases:
        lhs = cocycle_clm(1.0, l, SymplecticElement(m1), SymplecticElement(m2))
        rhs = cocycle_sl2(m1, m2, 1)
        assert abs(lhs - rhs) < 1e-12


def test_cocycle_condition(rng):
    l = coordinate_lagrangian(2)
    for _ in range(40):
        g1, g2, g3 = (random_symplectic(rng, 2) for _ in range(3))
        lhs = cocycle_clm(1.0, l, g1 @ g2, g3) * cocycle_clm(1.0, l, g1, g2)
        rhs = cocycle_clm(1.0, l, g1, g2 @ g3) * cocycle_clm(1.0, l, g2, g3)
        assert abs(lhs - rhs) < 1e-12


def _ref_gram(x1, x2, x3):
    """The Gram matrix of one triple as first written: per-triple products and np.block."""
    n = x1.shape[1]
    z, i = np.zeros((n, n)), np.eye(n)
    j = np.block([[z, i], [-i, z]])
    g12, g23, g31 = x1.T @ j @ x2, x2.T @ j @ x3, x3.T @ j @ x1
    return 0.5 * np.block([[z, g12, g31.T], [g12.T, z, g23], [g31, g23.T, z]])


def test_maslov3_gram_matches_np_block(rng, monkeypatch):
    grams = []
    real_inertia = maslov_mod._inertia

    def capture(gram):
        grams.append(gram)
        return real_inertia(gram)

    monkeypatch.setattr(maslov_mod, "_inertia", capture)
    for n in range(1, 5):
        triples = [[random_lagrangian(rng, n) for _ in range(3)] for _ in range(5)]
        x1, x2, x3 = (np.array([t[k].basis for t in triples]) for k in range(3))
        indices = maslov_mod._maslov_stack(x1, x2, x3)
        stack = grams[-1]
        assert stack.shape == (5, 3 * n, 3 * n)
        for t, ls in enumerate(triples):
            ref = _ref_gram(*(l.basis for l in ls))
            assert stack[t].tobytes() == ref.tobytes()
            assert indices[t] == signature(ref).net
            assert maslov3(*ls) == signature(ref).net
            assert grams[-1][0].tobytes() == ref.tobytes()


def _degenerate_triples(rng, n):
    """Random triples, triples with repeated Lagrangians, and triples of L with g L."""
    ls = [random_lagrangian(rng, n) for _ in range(3)]
    g = random_symplectic(rng, n)
    gl = [g.g @ l.basis for l in ls]
    x = [l.basis for l in ls]
    coord, mom = coordinate_lagrangian(n).basis, momentum_lagrangian(n).basis
    return [tuple(x), (x[0], x[0], x[1]), (x[0], x[1], x[0]), (x[1], x[0], x[0]),
            (x[2], x[2], x[2]), (x[0], gl[0], x[1]), (x[1], gl[1], gl[0]),
            (coord, mom, coord), (coord, mom, x[2]), (coord, g.g @ coord, g.g @ g.g @ coord)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maslov_stack_matches_per_triple_signature(rng, n):
    for _ in range(10):
        triples = _degenerate_triples(rng, n)
        x1, x2, x3 = (np.array(xs) for xs in zip(*triples))
        indices = maslov_mod._maslov_stack(x1, x2, x3)
        assert indices.shape == (len(triples),)
        assert indices.tolist() == [signature(_ref_gram(*t)).net for t in triples]
        # a chain's k - 2 triples in one call give the per-triple sum
        ls = [Lagrangian(x) for x in (x1[0], x2[0], x3[0], x3[5], x2[9], x3[9])]
        expected = sum(signature(_ref_gram(ls[0].basis, ls[j].basis, ls[j + 1].basis)).net
                       for j in range(1, len(ls) - 1))
        assert maslov_chain(ls) == expected


def _random_symplectic_per_letter(rng, n, letters=4, scale=0.6):
    """The word product as it was first written: a checked element per
    generator and per partial product."""
    g = sp_identity(n)
    for _ in range(rng.integers(1, letters + 1)):
        kind = rng.choice(["t", "g", "sigma"])
        if kind == "t":
            b = rng.normal(size=(n, n)) * scale
            g = g @ sp_generator("t", 0.5 * (b + b.T))
        elif kind == "g":
            al = np.eye(n) + scale * rng.normal(size=(n, n))
            while abs(np.linalg.det(al)) < 0.3:
                al = np.eye(n) + scale * rng.normal(size=(n, n))
            g = g @ sp_generator("g", al)
        else:
            g = g @ sp_generator("sigma", n=n)
    return g


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_symplectic_matches_per_letter_product(n):
    # the same matrix bit for bit, and the same draws from the generator, so
    # seeded suites replay the same cases
    for seed in range(50):
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        g = random_symplectic(fast, n)
        expected = _random_symplectic_per_letter(ref, n)
        assert isinstance(g, SymplecticElement)
        assert g.g.shape == expected.g.shape
        assert g.g.tobytes() == expected.g.tobytes()
        assert fast.random() == ref.random()


def _rand_word_with_choice(rng, n, max_len=6, scale=0.45, allow_neg_g=True):
    """``suites.rand_word`` as it was written with ``rng.choice`` over a list."""
    word = []
    for _ in range(rng.integers(1, max_len + 1)):
        kind = rng.choice(["t", "g", "sigma"])
        if kind == "t":
            word.append(("t", rand_sym(rng, n, scale)))
        elif kind == "g":
            al = np.eye(n) + scale * rng.normal(size=(n, n))
            while not (0.4 < abs(np.linalg.det(al)) < 2.5):
                al = np.eye(n) + scale * rng.normal(size=(n, n))
            if allow_neg_g and rng.random() < 0.25:
                al = -al
            word.append(("g", al))
        else:
            word.append(("sigma", None))
    return word


@pytest.mark.parametrize("n", [1, 2])
def test_rand_word_matches_choice_draws(n):
    # the same words bit for bit, and the same draws from the generator
    for seed in range(50):
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        word, expected = rand_word(fast, n), _rand_word_with_choice(ref, n)
        assert [kind for kind, _ in word] == [kind for kind, _ in expected]
        for (kind, par), (_, want) in zip(word, expected):
            if want is None:
                assert par is None
            else:
                assert par.shape == want.shape and par.tobytes() == want.tobytes()
        assert fast.random() == ref.random()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_products_match_per_word(n):
    # k words of mixed lengths, the empty word among them, multiplied in one
    # stack: each product has the bits of its one-word product
    for seed in range(50):
        rng = np.random.default_rng(seed)
        words = [rand_word(rng, n) for _ in range(int(rng.integers(1, 8)))]
        words.insert(int(rng.integers(len(words) + 1)), [])
        letters = [[(kind, _letter(kind, par, n)) for kind, par in w] for w in words]
        stack = _word_products(letters, n)
        assert stack.shape == (len(words), 2 * n, 2 * n)
        for word, g in zip(words, stack):
            ref = np.eye(2 * n)
            for kind, par in word:
                ref = ref @ sp_generator(kind, par, n).g
            assert g.tobytes() == ref.tobytes()
            assert g.tobytes() == word_to_symplectic(word, n).g.tobytes()


# --- the suites against their case-by-case form --------------------------------


def _random_lagrangian_per_letter(rng, n):
    return Lagrangian(_random_symplectic_per_letter(rng, n).g
                      @ np.vstack([np.eye(n), np.zeros((n, n))]))


def _maslov_axioms_case_by_case(rng, count):
    """``suite_maslov_axioms`` as it was written: each draw checked on its own
    and each index from the public one-triple or one-chain functions."""
    failures, worst, checks = [], 0, 0
    for i in range(count):
        n = (1, 2, 3)[rng.integers(3)]
        ls = [_random_lagrangian_per_letter(rng, n) for _ in range(6)]
        g = _random_symplectic_per_letter(rng, n)
        d = int(rng.integers(3, 7))
        aux = ls[-1] if d < 6 else _random_lagrangian_per_letter(rng, n)
        g1, g2, g3 = (_random_symplectic_per_letter(rng, n) for _ in range(3))
        l1, l2, l3, l4 = ls[:4]
        chain = ls[:d]
        o = coordinate_lagrangian(n)
        t123 = maslov3(l1, l2, l3)
        defects = {
            "g_invariance": maslov3(*(l.transformed(g) for l in (l1, l2, l3))) - t123,
            "antisym_12": maslov3(l2, l1, l3) + t123,
            "antisym_23": maslov3(l1, l3, l2) + t123,
            "cocycle4": (t123 - maslov3(l1, l2, l4) - maslov3(l2, l3, l4)
                         - maslov3(l3, l1, l4)),
            "chain_circular": maslov_chain([l1, l2, l3, l4]) - maslov_chain([l2, l3, l4, l1]),
            "chain_reverse_pair": (maslov_chain([l1, l2, l3, l4])
                                   + maslov_chain([l2, l1, l4, l3])),
            "chain_aux": (maslov_chain(chain)
                          - sum(maslov3(chain[j], chain[j + 1], aux)
                                for j in range(len(chain) - 1))
                          - maslov3(chain[-1], chain[0], aux)),
            "tau_cocycle": (tau_ell(o, g1 @ g2, g3) + tau_ell(o, g1, g2)
                            - tau_ell(o, g1, g2 @ g3) - tau_ell(o, g2, g3)),
        }
        checks += len(defects)
        bad = {k: v for k, v in defects.items() if v != 0}
        worst = max(worst, max(abs(v) for v in defects.values()))
        if bad:
            failures.append({"case": i, "n": n, "defects": bad,
                             "lagrangians": [encode_matrix(l.basis) for l in ls],
                             "g": encode_matrix(g.g)})
    return worst, failures, {"checks": checks}


def _cocycles_case_by_case(rng, count, tol=1e-12):
    """``suite_cocycles`` as it was written: one ``cocycle_clm`` call, and so one
    Maslov kernel call, per value."""
    failures, worst = [], 0.0
    l1 = coordinate_lagrangian(1)
    for i in range(count):
        m1, m2 = rand_sl2(rng), rand_sl2(rng)
        g1, g2 = SymplecticElement(m1), SymplecticElement(m2)
        d = abs(cocycle_clm(1, l1, g1, g2) - cocycle_sl2(m1, m2, 1))
        worst = max(worst, d)
        if d > tol:
            failures.append({"case": i, "kind": "sl2-match", "m1": encode_matrix(m1),
                             "m2": encode_matrix(m2), "defect": d})
    l2 = coordinate_lagrangian(2)
    for i in range(max(1, count // 5)):
        g1, g2, g3 = (_random_symplectic_per_letter(rng, 2) for _ in range(3))
        lhs = cocycle_clm(1.0, l2, g1 @ g2, g3) * cocycle_clm(1.0, l2, g1, g2)
        rhs = cocycle_clm(1.0, l2, g1, g2 @ g3) * cocycle_clm(1.0, l2, g2, g3)
        d = abs(lhs - rhs)
        worst = max(worst, d)
        if d > tol:
            failures.append({"case": i, "kind": "cocycle-condition", "defect": d})
    return worst, failures, {}


@pytest.mark.parametrize("name, suite, case_by_case, count, tol", [
    ("maslov-axioms", suite_maslov_axioms, _maslov_axioms_case_by_case, 1, 0.0),
    ("maslov-axioms", suite_maslov_axioms, _maslov_axioms_case_by_case, 5, 0.0),
    ("maslov-axioms", suite_maslov_axioms, _maslov_axioms_case_by_case, 17, 0.0),
    ("cocycles", suite_cocycles, _cocycles_case_by_case, 15, 1e-12),
])
def test_suite_matches_case_by_case(monkeypatch, name, suite, case_by_case, count, tol):
    # the same report, and the same draws from the generator
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed)) or made[-1])
    for seed in range(40):
        report = suite(seed, count)
        ref = default_rng(seed)
        worst, failures, extras = case_by_case(ref, count)
        assert report == _report(name, seed, count, worst, tol, failures, **extras)
        assert made[-1].random() == ref.random()


def _maslov_axioms_drawing(monkeypatch, seed, count):
    """Run ``suite_maslov_axioms(seed, count)``; the dimension of each word it
    draws, in the order drawn."""
    dims = []
    draw = suites_mod._draw_word
    monkeypatch.setattr(suites_mod, "_draw_word", lambda rng, n: dims.append(n) or draw(rng, n))
    suite_maslov_axioms(seed, count)
    monkeypatch.setattr(suites_mod, "_draw_word", draw)
    return dims


@pytest.mark.parametrize("count", [1, 5, 17])
def test_maslov_axioms_makes_one_kernel_call_per_dimension(monkeypatch, count):
    # one product, one symplectic check, one Lagrangian check and one index
    # call for all the cases of each dimension drawn, n = 1, 2, 3 in turn
    dim_of = {"_word_products": lambda words, n: n,
              "_require_symplectic": lambda g: g.shape[-1] // 2,
              "_require_lagrangian": lambda b: b.shape[-1],
              "_indices": lambda triples: np.shape(triples)[-1]}
    calls = {name: [] for name in dim_of}
    for name, dim in dim_of.items():
        fn = getattr(suites_mod, name)
        monkeypatch.setattr(suites_mod, name, lambda *args, fn=fn, dim=dim, seen=calls[name]:
                            seen.append(dim(*args)) or fn(*args))
    for seed in range(10):
        for seen in calls.values():
            seen.clear()
        dims = sorted(set(_maslov_axioms_drawing(monkeypatch, seed, count)))
        assert calls == {name: dims for name in dim_of}


def test_maslov_axioms_checks_exactly_each_cases_lagrangians(monkeypatch):
    # each dimension's one Lagrangian check gets, in case order, each case's
    # l1..l6 and, when d = 6, its auxiliary Lagrangian (word 7); word 7 of a
    # case with d < 6 is g1, whose image of o is Lagrangian too, and is not
    # checked
    seen = []
    check = suites_mod._require_lagrangian
    monkeypatch.setattr(suites_mod, "_require_lagrangian", lambda b: seen.append(b) or check(b))
    chain_lengths = set()
    for count in (1, 5, 17):
        for seed in range(10):
            seen.clear()
            suite_maslov_axioms(seed, count)
            rng = np.random.default_rng(seed)
            kept = {1: [], 2: [], 3: []}
            for _ in range(count):
                n = (1, 2, 3)[rng.integers(3)]
                words = [maslov_mod._draw_word(rng, n) for _ in range(7)]
                d = int(rng.integers(3, 7))
                words += [maslov_mod._draw_word(rng, n) for _ in range(4 if d == 6 else 3)]
                kept[n] += words[:6] + words[7:8] * (d == 6)
                chain_lengths.add(d)
            want = [_word_products(ws, n) @ maslov_mod._coordinate_basis(n)
                    for n, ws in kept.items() if ws]
            assert [b.shape for b in seen] == [b.shape for b in want]
            assert all((b == w).all() for b, w in zip(seen, want))
    assert chain_lengths == {3, 4, 5, 6}

def test_axiom_templates_index_each_triple_once():
    # (l1, l2, l3) and the triples that the chain checks share are indexed once
    for d, size in ((3, 18), (4, 19), (5, 21), (6, 23)):
        triples, terms = suites_mod._axiom_terms(d)
        assert triples.shape == (size, 3)
        assert len({tuple(t) for t in triples.tolist()}) == size
        assert sorted({t for ts in terms.values() for _, t in ts}) == list(range(size))


def test_maslov_axioms_raises_the_first_cases_error(monkeypatch):
    # the Lagrangian check fails for a case of dimension n0 and for a later
    # case of a lower dimension, which a pass by dimension would reach first;
    # the suite raises the first case's error, as one case at a time would
    for seed in range(100):
        dims = _maslov_axioms_drawing(monkeypatch, seed, 5)
        if min(dims) < dims[0]:
            break
    assert min(dims) < dims[0]
    bad = {dims[0], min(dims)}
    check = suites_mod._require_lagrangian

    def failing(b):
        if b.shape[-1] in bad:
            raise InvariantViolation(f"n = {b.shape[-1]}")
        check(b)

    monkeypatch.setattr(suites_mod, "_require_lagrangian", failing)
    with pytest.raises(InvariantViolation, match=f"^n = {dims[0]}$"):
        suite_maslov_axioms(seed, 5)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_refuse_no_cases(monkeypatch, name):
    # a suite with no cases would pass having checked nothing; it refuses the
    # count before it builds its generator
    made = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed))
    for count in (0, -1):
        with pytest.raises(DomainError) as info:
            SUITES[name](0, count)
        assert str(info.value) == f"count must be a positive integer, got {count}"
    assert made == []


def test_maslov_zero_rule_has_a_wide_margin(monkeypatch):
    # every eigenvalue of the suites' Grams is far from the zero threshold
    # 1e-9 * scale, on both sides, so last-bit changes in the stacked
    # products cannot flip an index
    grams = []
    inertia = maslov_mod._inertia
    monkeypatch.setattr(maslov_mod, "_inertia", lambda q: grams.append(q) or inertia(q))
    kernel_calls = 0
    for seed in range(10):
        # one kernel call per dimension drawn in a maslov-axioms suite, two per
        # cocycles suite
        kernel_calls += len(set(_maslov_axioms_drawing(monkeypatch, seed, 5))) + 2
        suite_cocycles(seed, 15)
    assert len(grams) == kernel_calls
    for q in grams:
        a = abs(np.linalg.eigvalsh(0.5 * (q + q.swapaxes(-1, -2))))
        threshold = np.broadcast_to(1e-9 * np.maximum(1.0, a.max(axis=-1, keepdims=True)),
                                    a.shape)
        nonzero = a > threshold
        assert (a[nonzero] > 100 * threshold[nonzero]).all()
        assert (a[~nonzero] < 0.01 * threshold[~nonzero]).all()


# --- one way into the kernel, and letters drawn valid as built ------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_drawn_letters_are_in_letter_form(n):
    # every letter _draw_word builds equals, bit for bit, what the outside-input
    # check _letter returns for it, so that check would change nothing
    for seed in range(200):
        rng = np.random.default_rng(seed)
        for kind, par in (letter for _ in range(3) for letter in maslov_mod._draw_word(rng, n)):
            if kind == "sigma":
                assert par is None and _letter(kind, par, n) is None
            elif kind == "t":
                want = _letter(kind, par, n)
                assert par.dtype == want.dtype and par.shape == want.shape == (n, n)
                assert par.tobytes() == want.tobytes()
            else:
                (al, det), (al_want, det_want) = par, _letter(kind, par[0], n)
                assert al.dtype == al_want.dtype and al.shape == al_want.shape == (n, n)
                assert al.tobytes() == al_want.tobytes()
                assert type(det) is type(det_want) and det.tobytes() == det_want.tobytes()
                assert abs(det) >= 0.3


def test_indices_of_no_triples():
    assert maslov_mod._indices([]) == []


def test_maslov_kernel_has_one_caller():
    # in the package, only maslov._indices calls _maslov_stack, and maslov
    # builds its letters without the outside-input check _letter
    callers = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "jacobiweil").glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "_maslov_stack":
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                callers.append((path.stem, getattr(scope, "name", None)))
    assert callers == [("maslov", "_indices")]
    assert not hasattr(maslov_mod, "_letter")
