"""Randomized verification suites behind the CLI and the acceptance tests.

Each suite runs ``count`` >= 1 cases from a seeded generator and returns a plain
dict (JSON-ready) with the worst residual, its tolerance, a pass flag and
replay data for any failures.  All sampling is tamed to the moderate regime
in which absolute residual gates are meaningful for double precision
(Gaussian magnitudes stay around 1; see the sampling helpers).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import serialize
from .automorphy import slash_km_nh, theta_multiplier
from .errors import DomainError, _integer
from .groups import (HeisenbergElement, JacobiElement, SiegelJacobiPoint,
                     SymplecticElement, _require_symplectic, _word_products)
from .maass import casimir_km, sample_function
from .maslov import (_chain_triples, _cocycle_phase, _coordinate_basis, _draw_words,
                     _indices, _require_lagrangian, _tau_bases, cocycle_sl2)
from .theta import siegel_theta, theta_M, theta_weight_quarter
from .weil import covariance_residual


# --- tamed samplers ---------------------------------------------------------


def rand_sym(rng, n, scale):
    b = scale * rng.normal(size=(n, n))
    return 0.5 * (b + b.T)


def rand_word(rng, n, max_len=6, allow_neg_g=True):
    word = []
    for _ in range(rng.integers(1, max_len + 1)):
        kind = ("t", "g", "sigma")[rng.integers(3)]
        if kind == "t":
            word.append(("t", rand_sym(rng, n, 0.45)))
        elif kind == "g":
            al = np.eye(n) + 0.45 * rng.normal(size=(n, n))
            while not (0.4 < abs(np.linalg.det(al)) < 2.5):
                al = np.eye(n) + 0.45 * rng.normal(size=(n, n))
            if allow_neg_g and rng.random() < 0.25:
                al = -al
            word.append(("g", al))
        else:
            word.append(("sigma", None))
    return word


def rand_point(rng, n, m) -> SiegelJacobiPoint:
    x = rand_sym(rng, n, 0.4)
    y = np.eye(n) + 0.2 * rng.normal(size=(n, n))
    y = y @ y.T
    z = 0.3 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    return SiegelJacobiPoint(x + 1j * 0.5 * (y + y.T), z)


def rand_heisenberg(rng, n, m) -> HeisenbergElement:
    lam = 0.5 * rng.normal(size=(m, n))
    mu = 0.5 * rng.normal(size=(m, n))
    kap = rand_sym(rng, m, 1.0) + 0.5 * (lam @ mu.T - mu @ lam.T)
    return HeisenbergElement(lam, mu, kap)


def rand_index(rng, m):
    q = 0.3 * rng.normal(size=(m, m))
    mm = np.eye(m) + q @ q.T
    return 0.5 * (mm + mm.T)


def rand_sl2(rng):
    while True:
        a, b, c = rng.normal(size=3)
        if abs(a) > 1e-3:
            return np.array([[a, b], [c, (1 + b * c) / a]])


def rand_gamma04(rng):
    """Random element of Gamma_0(4): c in 4 [-13, 12], the other entries in [-50, 50]."""
    while True:
        c = 4 * int(rng.integers(-50 // 4, 50 // 4 + 1))
        d = int(rng.integers(-50, 51))
        if math.gcd(c, d) != 1:  # so d is odd (4 | c), and d = +-1 when c = 0
            continue
        if c == 0:
            b = int(rng.integers(-50, 51))
            a = d  # ad = 1 with c = 0
            return np.array([[a, b * d], [0, d]])
        # solve a d - b c = 1 with minimal |a|
        a = pow(d, -1, abs(c))
        # center a
        if a > abs(c) // 2:
            a -= abs(c)
        b = (a * d - 1) // c  # exact: a d = 1 (mod |c|)
        if max(abs(a), abs(b)) <= 50:
            return np.array([[a, b], [c, d]])


# --- suites -----------------------------------------------------------------


def _draws(seed: int, count: int):
    """Every suite's first step: ``seed`` >= 0 and ``count`` >= 1 as Python ints
    (``errors._integer``; a suite with no cases would pass having checked
    nothing), and the generator of ``seed``."""
    seed, count = _integer("seed", seed, 0), _integer("count", count, 1)
    return seed, count, np.random.default_rng(seed)


def _report(suite, seed, count, worst, tol, failures, **extras) -> dict:
    """One suite's report with its own ``extras``; five failures at most are kept."""
    return {"suite": suite, "seed": seed, "count": count, "max_residual": float(worst),
            "tol": tol, "passed": not failures, "failures": failures[:5], **extras}


# A case's bases, by slot: l1..l6 (0-5), the auxiliary Lagrangian drawn when
# d = 6 (6; unread when d < 6), g l1..g l3 (7-9), the coordinate basis o (10),
# and the images of o under g1, g2, g1 g2, g2 g3, (g1 g2) g3 and g1 (g2 g3) (11-16).
_AXIOM_SLOTS = 17


@functools.cache
def _axiom_terms(d: int):
    """The template of the axiom checks of a case with chain length d: the
    distinct triples they need, as a (k, 3) array of slots, and each check
    as signed positions in it, whose indices' signed sum is its defect.

    A triple that two checks share, such as (l1, l2, l3), is indexed once;
    the auxiliary Lagrangian is l6 unless d = 6.
    """
    triples = {}

    def tau(*xs):
        return triples.setdefault(xs, len(triples))

    def chain_tau(xs):
        return [tau(*t) for t in _chain_triples(xs)]

    l1, l2, l3, l4 = range(4)
    chain, aux = list(range(d)), 6 if d == 6 else 5
    gl1, gl2, gl3, o, g1, g2, g12, g23, g12_3, g1_23 = range(7, _AXIOM_SLOTS)
    t123 = tau(l1, l2, l3)
    c1234 = chain_tau([l1, l2, l3, l4])
    terms = {
        "g_invariance": [(1, tau(gl1, gl2, gl3)), (-1, t123)],
        "antisym_12": [(1, tau(l2, l1, l3)), (1, t123)],
        "antisym_23": [(1, tau(l1, l3, l2)), (1, t123)],
        "cocycle4": [(1, t123), (-1, tau(l1, l2, l4)), (-1, tau(l2, l3, l4)),
                     (-1, tau(l3, l1, l4))],
        "chain_circular": ([(1, t) for t in c1234]
                           + [(-1, t) for t in chain_tau([l2, l3, l4, l1])]),
        "chain_reverse_pair": ([(1, t) for t in c1234]
                               + [(1, t) for t in chain_tau([l2, l1, l4, l3])]),
        # (d): chain decomposition against an auxiliary Lagrangian
        "chain_aux": ([(1, t) for t in chain_tau(chain)]
                      + [(-1, tau(chain[j], chain[j + 1], aux)) for j in range(d - 1)]
                      + [(-1, tau(chain[-1], chain[0], aux))]),
        # (g): additive cocycle identity for tau_l, each triple (L, g L, g g' L)
        # as in ``_tau_bases``
        "tau_cocycle": [(1, tau(o, g12, g12_3)), (1, tau(o, g1, g12)),
                        (-1, tau(o, g1, g1_23)), (-1, tau(o, g2, g23))],
    }
    template = np.array(list(triples))
    template.flags.writeable = False  # shared by every case of this d
    return template, terms


def _axiom_pass(n: int, cases) -> list:
    """Defects, Lagrangians l1..l6 and g of each case (d, words) of dimension n.

    One ``_word_products`` call multiplies every word; one
    ``_require_symplectic`` call checks the products with every g1 g2 and
    g2 g3.  Each case's bases fill one (k, ``_AXIOM_SLOTS``, 2n, n) array in
    the slots of ``_axiom_terms``; slots 0-6 are the coordinate basis o under
    words 0-5 and 7, which is the auxiliary Lagrangian when d = 6 and g1,
    read by no template, otherwise.  One ``_require_lagrangian`` call checks
    slots 0-5 of every case, and slot 6 where d = 6; one ``maslov._indices``
    call indexes the triples of every case's template.  Images under g are
    plain bases, as in ``tau_ell``.
    """
    k = len(cases)
    sizes = np.array([len(words) for _, words in cases])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    prods = _word_products([word for _, words in cases for word in words], n)
    g, g1, g2, g3 = prods[starts + 6], prods[ends - 3], prods[ends - 2], prods[ends - 1]
    pairs = np.concatenate([g1, g2]) @ np.concatenate([g2, g3])  # every g1 g2, then every g2 g3
    _require_symplectic(np.concatenate([prods, pairs]))
    triple = (np.concatenate([pairs[:k], g1])
              @ np.concatenate([g3, pairs[k:]]))  # (g1 g2) g3, then g1 (g2 g3)
    o = _coordinate_basis(n)
    bases = np.empty((k, _AXIOM_SLOTS, 2 * n, n))
    bases[:, :7] = prods[starts[:, None] + (0, 1, 2, 3, 4, 5, 7)] @ o
    bases[:, 10] = o
    bases[:, 11:] = np.stack([g1, g2, pairs[:k], pairs[k:], triple[:k], triple[k:]], axis=1) @ o
    kept = np.ones((k, 7), dtype=bool)
    kept[:, 6] = [d == 6 for d, _ in cases]
    _require_lagrangian(bases[:, :7][kept])
    bases[:, 7:10] = g[:, None] @ bases[:, :3]
    templates = [_axiom_terms(d) for d, _ in cases]
    index = _indices(np.concatenate([b[triples] for b, (triples, _) in zip(bases, templates)]))
    out, at = [], 0
    for b, gb, (triples, terms) in zip(bases, g, templates):
        defects = {key: sum(sign * index[at + t] for sign, t in ts) for key, ts in terms.items()}
        out.append((defects, b[:6], gb))
        at += len(triples)
    return out


def suite_maslov_axioms(seed: int, count: int, tol: float = 0.0) -> dict:
    """Lemma-style axioms for the triple/chain index, exact integer equality.

    Every case is drawn first: the dimension n of every case
    (``rng.integers(1, 4, size=count)``), the chain length d of every case
    (``rng.integers(3, 7, size=count)``), then, for each dimension drawn,
    n = 1, 2, 3 in turn, the words of its cases in case order from one
    ``maslov._draw_words`` call.  A case's words are six Lagrangians, g, an
    auxiliary Lagrangian when d = 6, then g1, g2 and g3.  Then each dimension
    drawn has one stacked pass (``_axiom_pass``): one product, one symplectic
    and one Lagrangian check, and one Maslov kernel call for all of its
    cases.  When a stacked check raises, the cases are run again one at a
    time, in order, so the error is the first case's, as one case at a time
    would raise it.
    """
    seed, count, rng = _draws(seed, count)
    dims = rng.integers(1, 4, size=count).tolist()
    chains = rng.integers(3, 7, size=count).tolist()
    by_dim = {n: [i for i, dim in enumerate(dims) if dim == n] for n in sorted(set(dims))}
    cases = [None] * count
    for n, ids in by_dim.items():
        sizes = [11 if chains[i] == 6 else 10 for i in ids]
        words = iter(_draw_words(rng, n, sum(sizes)))
        for i, size in zip(ids, sizes):
            cases[i] = (n, chains[i], list(itertools.islice(words, size)))
    results = {}
    try:
        for n, ids in by_dim.items():
            results.update(zip(ids, _axiom_pass(n, [cases[i][1:] for i in ids])))
    except (ValueError, RuntimeError):
        # the package's errors, numpy's LinAlgError among them; a stacked
        # check raises the first error of its dimension, not of the suite
        for n, d, words in cases:
            _axiom_pass(n, [(d, words)])
        raise
    failures = []
    worst = 0
    checks = 0
    for i, (n, _, _) in enumerate(cases):
        defects, lag, g = results[i]
        checks += len(defects)
        bad = {k: v for k, v in defects.items() if v != 0}
        worst = max(worst, max((abs(v) for v in defects.values()), default=0))
        if bad:
            failures.append({"case": i, "n": n, "defects": bad,
                             "lagrangians": [serialize.encode_matrix(b) for b in lag],
                             "g": serialize.encode_matrix(g)})
    return _report("maslov-axioms", seed, count, worst, tol, failures, checks=checks)


def suite_cocycles(seed: int, count: int, tol: float = 1e-12) -> dict:
    """cocycle_clm vs cocycle_sl2 on SL(2) pairs; the cocycle condition on Sp(2).

    Every case is drawn first, in order: ``count`` SL(2) pairs, then the
    3 max(1, count // 5) words at n = 2 of the word triples, from one
    ``maslov._draw_words`` call.  One
    ``_require_symplectic`` call checks the pairs, and one the word products
    with g1 g2 and g2 g3; the Maslov indices of each dimension come from one
    ``maslov._indices`` call, and each becomes a ``cocycle_clm`` value by
    ``_cocycle_phase``.
    """
    seed, count, rng = _draws(seed, count)
    failures = []
    worst = 0.0
    ms = np.array([rand_sl2(rng) for _ in range(2 * count)])
    _require_symplectic(ms)
    pairs = ms.reshape(count, 2, 2, 2)
    o1 = _coordinate_basis(1)
    taus = _indices([_tau_bases(o1, m1, m2) for m1, m2 in pairs])
    for i, ((m1, m2), tau) in enumerate(zip(pairs, taus)):
        d = abs(_cocycle_phase(1, tau) - cocycle_sl2(m1, m2, 1))
        worst = max(worst, d)
        if d > tol:
            failures.append({"case": i, "kind": "sl2-match",
                             "m1": serialize.encode_matrix(m1),
                             "m2": serialize.encode_matrix(m2), "defect": d})
    cases = max(1, count // 5)
    prods = _word_products(_draw_words(rng, 2, 3 * cases), 2)
    g1, g2, g3 = prods.reshape(cases, 3, 4, 4).swapaxes(0, 1)
    g12, g23 = g1 @ g2, g2 @ g3
    _require_symplectic(np.concatenate([prods, g12, g23]))
    o2 = _coordinate_basis(2)
    # per case: tau(g1 g2, g3), tau(g1, g2), tau(g1, g2 g3), tau(g2, g3)
    taus = _indices([t for c in range(cases)
                     for t in (_tau_bases(o2, g12[c], g3[c]), _tau_bases(o2, g1[c], g2[c]),
                               _tau_bases(o2, g1[c], g23[c]), _tau_bases(o2, g2[c], g3[c]))])
    mval = 1.0
    for i in range(cases):
        t12_3, t1_2, t1_23, t2_3 = taus[4 * i:4 * i + 4]
        lhs = _cocycle_phase(mval, t12_3) * _cocycle_phase(mval, t1_2)
        rhs = _cocycle_phase(mval, t1_23) * _cocycle_phase(mval, t2_3)
        d = abs(lhs - rhs)
        worst = max(worst, d)
        if d > tol:
            failures.append({"case": i, "kind": "cocycle-condition", "defect": d})
    return _report("cocycles", seed, count, worst, tol, failures)


def suite_covariance(seed: int, count: int, tol: float = 1e-9) -> dict:
    """Covariance residuals for random generator words at random points."""
    seed, count, rng = _draws(seed, count)
    failures = []
    worst = 0.0
    for i in range(count):
        n = (1, 2)[rng.integers(2)]
        m = 1
        mm = rand_index(rng, m)
        word = rand_word(rng, n)
        h = rand_heisenberg(rng, n, m)
        p = rand_point(rng, n, m)
        res, eps = covariance_residual(mm, word, h, p)
        worst = max(worst, res)
        if res > tol:
            # M, word, heisenberg and point are the params of a covariance JobSpec
            failures.append({"case": i, "n": n, "residual": res,
                             "M": serialize.encode_matrix(mm),
                             "word": serialize.encode_word(word),
                             "heisenberg": serialize.encode_heisenberg(h),
                             "point": serialize.encode_point(p)})
    return _report("covariance", seed, count, worst, tol, failures)


def suite_theta_laws(seed: int, count: int, tol: float = 1e-10) -> dict:
    """Siegel-theta translation/inversion laws and the Gamma_0(4) multiplier."""
    seed, count, rng = _draws(seed, count)
    failures = []
    worst_translate = 0.0
    worst_invert = 0.0
    worst_mult = 0.0
    # translation invariance Omega -> Omega + 2b, integral symmetric b
    for i in range(max(3, count // 4)):
        n = (1, 2)[rng.integers(2)]
        p = rand_point(rng, n, 1)
        b = rng.integers(-2, 3, size=(n, n))
        b = b + b.T
        v1 = siegel_theta(p.omega, 1e-13).value
        v2 = siegel_theta(p.omega + 2 * b, 1e-13).value
        worst_translate = max(worst_translate, abs(v1 - v2))
        mm = np.array([[2.0]])
        q = SiegelJacobiPoint(p.omega, rng.normal(size=(1, n)) * 0.4 + 0.2j * rng.normal(size=(1, n)))
        shift = rng.integers(-2, 3, size=(1, n)).astype(float)
        w1 = theta_M(mm, q, 1e-13).value
        w2 = theta_M(mm, SiegelJacobiPoint(q.omega, q.z + shift), 1e-13).value
        worst_translate = max(worst_translate, abs(w1 - w2))
    # n = 1 inversion
    for y in (2.0, 3.0, 5.0):
        v1 = siegel_theta(np.array([[1j / y]]), 1e-13).value
        v2 = math.sqrt(y) * siegel_theta(np.array([[1j * y]]), 1e-13).value
        worst_invert = max(worst_invert, abs(v1 - v2))
    # theta multiplier quotient
    for i in range(count):
        gam = rand_gamma04(rng)
        tau = complex(rng.normal() * 0.8, 0.5 + rng.random())
        a, b, c, d = (float(v) for v in gam.ravel())
        tau2 = (a * tau + b) / (c * tau + d)
        quot = theta_weight_quarter(tau2, 1e-13) / theta_weight_quarter(tau, 1e-13)
        d_mult = abs(quot - theta_multiplier(gam, tau))
        worst_mult = max(worst_mult, d_mult)
        if d_mult > tol:
            failures.append({"case": i, "gamma": serialize.encode_matrix(gam),
                             "tau": serialize.encode_complex(tau), "defect": d_mult})
    worst = max(worst_translate, worst_invert, worst_mult)
    if worst_translate > 1e-12 or worst_invert > 1e-9:
        failures.append({"kind": "theta-law", "translate": worst_translate,
                         "invert": worst_invert})
    return _report("theta-laws", seed, count, worst, tol, failures,
                   details={"translate": worst_translate, "invert": worst_invert,
                            "multiplier": worst_mult})


def suite_casimir_invariance(seed: int, count: int, tol: float = 1e-4) -> dict:
    """Relative invariance defect of the weight-(k, m) Casimir at h = 1e-3."""
    seed, count, rng = _draws(seed, count)
    func = sample_function("poly-exp")
    k, m = 3, 2
    failures = []
    worst = 0.0
    base_points = [(0.2 + 1.1j, 0.25 + 0.3j), (-0.3 + 0.9j, 0.1 - 0.2j),
                   (0.05 + 1.4j, -0.3 + 0.15j), (0.4 + 1.0j, 0.2 + 0.05j),
                   (-0.15 + 1.2j, -0.1 - 0.1j)]
    for i in range(count):
        e = 0.06
        mat = np.eye(2) + e * rng.normal(size=(2, 2))
        mat[1, 1] = (1 + mat[0, 1] * mat[1, 0]) / mat[0, 0]
        lam, mu, kap = (e * float(v) for v in rng.normal(size=3))
        elt = JacobiElement(SymplecticElement(mat),
                            HeisenbergElement(np.array([[lam]]), np.array([[mu]]),
                                              np.array([[kap]])))
        tau, z = base_points[i % len(base_points)]
        lhs = casimir_km(slash_km_nh(func, k, m, elt), k, m, tau, z)
        cf = lambda t, w: casimir_km(func, k, m, t, w)
        rhs = slash_km_nh(cf, k, m, elt)(tau, z)
        rel = abs(lhs - rhs) / max(1e-12, abs(rhs))
        worst = max(worst, rel)
        if rel > tol:
            failures.append({"case": i, "relative_defect": rel,
                             "element": serialize.encode_jacobi(elt)})
    # Richardson consistency on the truncation-dominated step range
    tau, z = 0.2 + 1.1j, 0.25 + 0.3j
    vals = [casimir_km(func, k, m, tau, z, h) for h in (4e-3, 2e-3, 1e-3)]
    ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
    if not (3.5 <= ratio <= 4.5):
        failures.append({"kind": "richardson", "ratio": ratio})
    return _report("casimir-invariance", seed, count, worst, tol, failures,
                   details={"richardson_ratio": float(ratio)})


SUITES = {
    "maslov-axioms": suite_maslov_axioms,
    "cocycles": suite_cocycles,
    "covariance": suite_covariance,
    "theta-laws": suite_theta_laws,
    "casimir-invariance": suite_casimir_invariance,
}


def run_suite(name: str, seed: int, count: int, tol: float | None = None) -> dict:
    """The report of suite ``name``; the suite itself checks ``seed`` and ``count``."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    fn = SUITES[name]
    if tol is None:
        return fn(seed, count)
    return fn(seed, count, tol)
