"""The shared domain checks: one positive-definiteness decision behind five
entry points, one SL(2, R) membership check behind five more, one generator
letter check behind five more, one reader of JSON reals, the finite-entry
check of a Lagrangian, and the stacked symplectic and Lagrangian rules, which
decide each matrix of a stack as the one-object constructors do."""

import json
import math

import numpy as np
import pytest

from jacobiweil import (AsymmetryError, DomainError, GaussianState, HalfWeight,
                        HeisenbergElement, IwasawaCoords, Lagrangian, LatticePair,
                        SiegelJacobiPoint, covariance_residual, embed_sl2,
                        fourier_coefficient, ground_state, heis_identity, holo_sqrt_det,
                        index_matrix, iwasawa_sl2, multiplicity, sl2_act_circle,
                        sp_generator, weil_apply_word, weil_generator_apply,
                        word_to_symplectic)
import jacobiweil.groups as groups_mod
import jacobiweil.maslov as maslov_mod
from jacobiweil.errors import InvariantViolation
from jacobiweil.fock import FockState, fock_apply
from jacobiweil.groups import SymplecticElement, symplectic_form
from jacobiweil.jacobi_theta import sl2_on_xi
from jacobiweil.maslov import cocycle_sl2
from jacobiweil.serialize import decode_real
from jacobiweil.suites import SUITES, run_suite

# each entry point fed the symmetric matrix q as the part it checks
PD_ENTRY_POINTS = {
    "index_matrix": lambda q: index_matrix(q),
    "GaussianState": lambda q: GaussianState(1.0, 1j * q, np.zeros((1, 2))),
    "SiegelJacobiPoint": lambda q: SiegelJacobiPoint(1j * q, np.zeros((1, 2))),
    "fock_apply": lambda q: fock_apply(np.eye(1), 1j * q, heis_identity(1, 2), FockState((1, 2))),
    "holo_sqrt_det": lambda q: holo_sqrt_det(q + 0j),
}
PD_MESSAGES = {
    "index_matrix": "index matrix must be positive definite",
    "GaussianState": "Im(A) must be positive definite",
    "SiegelJacobiPoint": "Im(Omega) must be positive definite",
    "fock_apply": "Omega must lie in the Siegel upper half space",
    "holo_sqrt_det": "Re(S) must be positive definite",
}
PD_CASES = {
    "indefinite": np.diag([1.0, -1.0]),
    "nan": np.array([[math.nan, 0.0], [0.0, 1.0]]),
    "asymmetric": np.array([[1.0, 1.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("case", sorted(PD_CASES))
@pytest.mark.parametrize("entry", sorted(PD_ENTRY_POINTS))
def test_positive_definiteness_checks(entry, case):
    if case == "asymmetric":
        kind, message = AsymmetryError, "asymmetry defect 1.000e+00 exceeds 1.0e-08"
    else:
        kind, message = DomainError, PD_MESSAGES[entry]
    with np.errstate(all="ignore"), pytest.raises(kind) as info:
        PD_ENTRY_POINTS[entry](PD_CASES[case])
    assert type(info.value) is kind and str(info.value) == message
    # the same entry point accepts the identity
    PD_ENTRY_POINTS[entry](np.eye(2))


SL2_ENTRY_POINTS = {
    "iwasawa_sl2": lambda mat: iwasawa_sl2(mat),
    "sl2_act_circle": lambda mat: sl2_act_circle(mat, IwasawaCoords(0.3 + 1.2j, 0.4)),
    "embed_sl2": lambda mat: embed_sl2(mat, 2),
    "cocycle_sl2 (first)": lambda mat: cocycle_sl2(mat, np.eye(2)),
    "cocycle_sl2 (second)": lambda mat: cocycle_sl2(np.eye(2), mat),
    "sl2_on_xi": lambda mat: sl2_on_xi(mat, LatticePair([0.1], [0.2])),
}


@pytest.mark.parametrize("mat, message", [
    (np.eye(3), "expected a 2x2 matrix"),
    (np.diag([2.0, 1.0]), "matrix must have determinant 1"),
    (np.ones(4), "expected a 2x2 matrix"),
    # a NaN determinant compares false with any bound
    (np.array([[math.nan, 0.0], [0.0, math.nan]]), "matrix must have determinant 1"),
])
@pytest.mark.parametrize("entry", sorted(SL2_ENTRY_POINTS))
def test_sl2_membership_checks(entry, mat, message):
    with np.errstate(all="ignore"), pytest.raises(DomainError) as info:
        SL2_ENTRY_POINTS[entry](mat)
    assert type(info.value) is DomainError and str(info.value) == message
    # a determinant within 1e-10 of 1 is accepted
    SL2_ENTRY_POINTS[entry](np.diag([1.0 + 5e-11, 1.0]))


# each entry point fed the one letter (kind, par) at n = 2
LETTER_ENTRY_POINTS = {
    "sp_generator": lambda kind, par: sp_generator(kind, par, n=2),
    "word_to_symplectic": lambda kind, par: word_to_symplectic([(kind, par)], 2),
    "weil_generator_apply": lambda kind, par: weil_generator_apply(
        np.eye(1), (kind, par), ground_state(2)),
    "weil_apply_word": lambda kind, par: weil_apply_word(
        np.eye(1), [(kind, par)], ground_state(2)),
    "covariance_residual": lambda kind, par: covariance_residual(
        np.eye(1), [(kind, par)], heis_identity(1, 2),
        SiegelJacobiPoint(1j * np.eye(2), np.zeros((1, 2)))),
}
BAD_LETTERS = {
    "unknown kind": (("x", np.eye(2)), "unknown generator kind 'x'"),
    "alpha not square": (("g", [[1.0, 2.0]]), "alpha must be square"),
    "alpha singular": (("g", [[1.0, 2.0], [2.0, 4.0]]), "alpha must be invertible"),
    "alpha wrong size": (("g", np.eye(3)),
                         "generator parameter must be 2 x 2, got shape (3, 3)"),
    "b wrong size": (("t", [[0.5]]), "generator parameter must be 2 x 2, got shape (1, 1)"),
    "b asymmetric": (("t", [[0.0, 1.0], [0.0, 0.0]]),
                     "asymmetry defect 1.000e+00 exceeds 1.0e-08"),
    "sigma with a parameter": (("sigma", [[5.0, 1.0], [1.0, 5.0]]),
                               "sigma generator takes no parameter"),
}
# a non-finite b or alpha is refused before any arithmetic on it
for _name, _bad in (("NaN", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
    BAD_LETTERS[f"b {_name}"] = (("t", [[0.5, 0.0], [0.0, _bad]]), "b must have finite entries")
    BAD_LETTERS[f"alpha {_name}"] = (("g", [[1.0, _bad], [0.0, 1.0]]),
                                     "alpha must have finite entries")


@pytest.mark.parametrize("case", sorted(BAD_LETTERS))
@pytest.mark.parametrize("entry", sorted(LETTER_ENTRY_POINTS))
def test_generator_letter_checks(entry, case):
    (kind, par), message = BAD_LETTERS[case]
    error = AsymmetryError if case == "b asymmetric" else DomainError
    with pytest.raises(error) as info:
        LETTER_ENTRY_POINTS[entry](kind, par)
    assert type(info.value) is error and str(info.value) == message
    # the same entry point accepts well-formed letters of each kind
    for kind, par in (("t", 0.5 * np.eye(2)), ("g", 2.0 * np.eye(2)), ("sigma", None)):
        LETTER_ENTRY_POINTS[entry](kind, par)


@pytest.mark.parametrize("basis", [[[math.inf], [0.0]], [[math.nan], [0.0]]])
def test_lagrangian_refuses_non_finite_entries(basis):
    with pytest.raises(DomainError) as info:
        Lagrangian(basis)
    assert str(info.value) == "Lagrangian basis must have finite entries"


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("tau, theta, message", [
    # not <=: a NaN Im(tau) compares false with 0
    (complex(0.3, math.nan), 0.4, "Im(tau) must be positive"),
    (complex(0.3, -1.0), 0.4, "Im(tau) must be positive"),
    (complex(0.3, math.inf), 0.4, "tau and theta must be finite"),
    (complex(math.inf, 1.0), 0.4, "tau and theta must be finite"),
    (complex(-math.inf, 1.0), 0.4, "tau and theta must be finite"),
    (complex(math.nan, 1.0), 0.4, "tau and theta must be finite"),
] + [(0.3 + 1.2j, theta, "tau and theta must be finite") for theta in NON_FINITE])
def test_iwasawa_coords_refuse_bad_input(tau, theta, message):
    with pytest.raises(DomainError) as info:
        IwasawaCoords(tau, theta)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("part", ["lam", "mu", "kappa"])
def test_heisenberg_element_refuses_non_finite_entries(part, bad):
    # with a zero partner entry too, where mu lam^T would read 0 * inf
    parts = {"lam": np.array([[0.5, 0.0]]), "mu": np.array([[0.0, -0.3]]),
             "kappa": np.array([[0.2]])}
    for entry in ((0, 0), (0, 1)) if part != "kappa" else ((0, 0),):
        bent = dict(parts, **{part: parts[part].copy()})
        bent[part][entry] = bad
        with pytest.raises(DomainError) as info:
            HeisenbergElement(**bent)
        assert str(info.value) == "lam, mu and kappa must have finite entries"
    HeisenbergElement(**parts)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_lattice_pair_refuses_non_finite_entries(bad):
    for lam, mu in (([bad, 0.1], [0.2, 0.3]), ([0.1, 0.2], [0.3, bad]), (bad, 0.5)):
        with pytest.raises(DomainError) as info:
            LatticePair(lam, mu)
        assert str(info.value) == "lam and mu must have finite entries"


@pytest.mark.parametrize("bad", NON_FINITE)
def test_point_and_state_refuse_non_finite_entries(bad):
    good_omega, good_z = np.array([[0.3 + 0.9j]]), np.array([[0.1 + 0.2j]])
    for z in ([[bad]], [[1j * bad]]):
        with pytest.raises(DomainError) as info:
            SiegelJacobiPoint(good_omega, z)
        assert str(info.value) == "Omega and Z must have finite entries"
    # symmetrizing a non-finite Re Omega spreads a NaN into Im Omega (0.5 is
    # multiplied as 0.5 + 0j); the check reads Im Omega off the input, so the
    # point is refused for its entries, and a NaN in Im Omega for Im Omega
    with np.errstate(invalid="ignore"), pytest.raises(DomainError) as info:
        SiegelJacobiPoint([[bad + 0.9j]], good_z)
    assert str(info.value) == "Omega and Z must have finite entries"
    with np.errstate(invalid="ignore"), pytest.raises(DomainError) as info:
        SiegelJacobiPoint([[complex(0.3, math.nan)]], good_z)
    assert str(info.value) == "Im(Omega) must be positive definite"
    for c, b in ((bad, good_z), (1.0, [[bad]]), (complex(1.0, bad), good_z)):
        with pytest.raises(DomainError) as info:
            GaussianState(c, good_omega, b)
        assert str(info.value) == "c, A and B must have finite entries"
    with np.errstate(invalid="ignore"), pytest.raises(DomainError) as info:
        GaussianState(1.0, [[bad + 0.9j]], good_z)
    assert str(info.value) == "c, A and B must have finite entries"
    with np.errstate(invalid="ignore"), pytest.raises(DomainError) as info:
        GaussianState(1.0, [[complex(0.3, math.nan)]], good_z)
    assert str(info.value) == "Im(A) must be positive definite"
    # a zero state does not check Im A, but its entries must still be finite
    with pytest.raises(DomainError):
        GaussianState(0.0, good_omega, [[bad]])
    SiegelJacobiPoint(good_omega, good_z)
    GaussianState(1.0, good_omega, good_z)


def _stack(k=4, n=2, m=1):
    omega = np.array([(0.1 * i) * np.ones((n, n)) + 1j * np.eye(n) for i in range(k)])
    return omega, np.full((k, m, n), 0.2 + 0.1j)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_stacked_point_names_the_first_bad_point(bad):
    omega, z = _stack()
    z[2, 0, 1] = bad
    with pytest.raises(DomainError) as info:
        SiegelJacobiPoint(omega, z)
    assert str(info.value) == "point 2: Omega and Z must have finite entries"
    omega, z = _stack()
    omega[3] = -omega[3]
    omega[1, 0, 0] = 0.5 + 1j * bad
    with np.errstate(invalid="ignore"), pytest.raises(DomainError) as info:
        SiegelJacobiPoint(omega, z)
    assert str(info.value).startswith("point 1: ")


def test_stacked_point_validation():
    omega, z = _stack(k=3, n=2, m=2)
    p = SiegelJacobiPoint(omega, z)
    assert (p.n, p.m) == (2, 2)
    assert p.im_omega_min.shape == (3,)
    for i in range(3):
        one = SiegelJacobiPoint(omega[i], z[i])
        assert p.im_omega_min[i] == one.im_omega_min
        assert np.array_equal(p.omega[i], one.omega)
    bent = omega.copy()
    bent[1] = 1j * np.diag([1.0, -1.0])
    with pytest.raises(DomainError) as info:
        SiegelJacobiPoint(bent, z)
    assert str(info.value) == "point 1: Im(Omega) must be positive definite"
    bent = omega.copy()
    bent[2, 0, 1] += 1.0
    with pytest.raises(AsymmetryError) as info:
        SiegelJacobiPoint(bent, z)
    assert str(info.value) == "point 2: asymmetry defect 1.000e+00 exceeds 1.0e-08"
    for zz in (z[:2], z[..., :1], z[0], np.zeros((3, 2))):
        with pytest.raises(DomainError):
            SiegelJacobiPoint(omega, zz)
    with pytest.raises(DomainError, match="expected a square matrix"):
        SiegelJacobiPoint(np.ones((2, 3, 2, 2)), np.ones((2, 3, 1, 2)))


def _single_point_calls():
    from jacobiweil import (J_M, J_kM_half, J_star_M, covariant_map, fourier_coefficient,
                            invariant_volume_density, jacobi_act, jacobi_identity,
                            kappa_density, metaplectic_lifts)
    from jacobiweil.serialize import encode_point

    n, m, mm = 2, 1, np.eye(1)
    elt = jacobi_identity(n, m)
    lift = metaplectic_lifts(elt.g)[0]
    h = heis_identity(m, n)
    return {
        "jacobi_act": lambda p: jacobi_act(elt, p),
        "J_M": lambda p: J_M(mm, elt, p),
        "J_kM_half": lambda p: J_kM_half(HalfWeight(1, mm), lift, h, p),
        "J_star_M": lambda p: J_star_M(mm, lift, h, p),
        "kappa_density": lambda p: kappa_density(mm, p),
        "invariant_volume_density": lambda p: invariant_volume_density(p),
        "covariant_map": lambda p: covariant_map(p),
        "encode_point": lambda p: encode_point(p),
        "covariance_residual": lambda p: covariance_residual(mm, [("sigma", None)], h, p),
        "fourier_coefficient": lambda p: fourier_coefficient(
            lambda o, z: np.ones(len(o), complex), np.zeros((n, n)), np.zeros((n, m)), p, 1),
    }


@pytest.mark.parametrize("name", sorted(_single_point_calls()))
def test_functions_of_one_point_refuse_a_stack(name):
    call = _single_point_calls()[name]
    omega, z = _stack(k=2)
    with pytest.raises(DomainError) as info:
        call(SiegelJacobiPoint(omega, z))
    assert str(info.value) == "expected one point, got a stack of 2"
    call(SiegelJacobiPoint(omega[1], z[1]))


@pytest.mark.parametrize("k", [2.7, 3.0, True, False, "3", None, 0, -1, np.float64(2.0)])
def test_half_weight_takes_integer_k_only(k):
    # errors._integer: an int or numpy integer that is not a bool, here >= 1
    with pytest.raises(DomainError) as info:
        HalfWeight(k, np.eye(1))
    assert str(info.value) == f"weight numerator k must be an integer >= 1, got {k!r}"
    for good in (1, 3, np.int64(2)):
        w = HalfWeight(good, np.eye(1))
        assert w.k == good and type(w.k) is int


@pytest.mark.parametrize("count", [2.5, 2.0, True, False, "2", None, 0, -1, np.float64(2.0)])
def test_suites_take_integer_count_only(count):
    # errors._integer: an int or numpy integer that is not a bool, here >= 1
    with pytest.raises(DomainError) as info:
        run_suite("cocycles", 0, count)
    assert str(info.value) == f"count must be an integer >= 1, got {count!r}"
    assert run_suite("cocycles", 0, np.int64(2)) == run_suite("cocycles", 0, 2)


def _one(omega, z):
    return np.ones(len(omega), complex)


# the other inputs under errors._integer (HalfWeight's k and a suite's count
# have the two tests above): its name in the message, its least value, and a
# call that passes it in
INTEGER_INPUTS = {
    "suite seed": ("seed", 0, lambda v: run_suite("cocycles", v, 2)),
    "grid_points": ("grid_points", 1, lambda v: fourier_coefficient(
        _one, np.zeros((1, 1)), np.zeros((1, 1)),
        SiegelJacobiPoint(np.array([[1j]]), np.array([[0j]])), v)),
    "tau entry": ("tau entry", 0, lambda v: multiplicity([v, 0], 2, 2)),
    "multiplicity m": ("m", 1, lambda v: multiplicity([0], v, 2)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2", None, np.float64(2.0), "low"])
@pytest.mark.parametrize("field", sorted(INTEGER_INPUTS))
def test_integer_inputs_take_one_rule(field, value):
    name, low, call = INTEGER_INPUTS[field]
    if value == "low":
        value = low - 1
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer >= {low}, got {value!r}"
    # a numpy integer passes as the Python int of the same value
    for good in (low, low + 2):
        assert call(np.int64(good)) == call(good)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_reports_are_json_ready_at_numpy_integers(name):
    report = run_suite(name, np.int64(3), np.int64(2))
    assert json.loads(json.dumps(report)) == report == run_suite(name, 3, 2)
    assert type(report["seed"]) is int and type(report["count"]) is int


def test_points_and_states_need_n_at_least_one():
    # a zero state (c = 0) skips the positive-definiteness check, not this one
    refusals = [
        (lambda: SiegelJacobiPoint(np.zeros((0, 0)), np.zeros((1, 0))), "Omega", (0, 0)),
        (lambda: SiegelJacobiPoint(np.zeros((3, 0, 0)), np.zeros((3, 1, 0))), "Omega", (3, 0, 0)),
        (lambda: GaussianState(0, np.zeros((0, 0)), np.zeros((1, 0))), "A", (0, 0)),
        (lambda: ground_state(0), "A", (0, 0)),
    ]
    for build, matrix, shape in refusals:
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == f"{matrix} must be n x n with n >= 1, got {shape}"


def test_decode_real():
    assert decode_real(2) == 2.0 and type(decode_real(2)) is float
    assert decode_real(-0.5) == -0.5 and decode_real(1.7e308) == 1.7e308
    for bad in (True, False, "1", "nan", None, [1.0], math.nan, math.inf, -math.inf,
                10 ** 400, -(10 ** 400)):
        with pytest.raises(DomainError):
            decode_real(bad)


# --- the stacked symplectic and Lagrangian rules ------------------------------


def _symplectic_as_written(g):
    """``SymplecticElement``'s checks as they were written for one matrix."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2:
        raise DomainError(f"symplectic matrix must be 2n x 2n, got {g.shape}")
    top = np.abs(g).max()
    if not top < math.inf:
        raise DomainError("symplectic matrix must have finite entries")
    n = g.shape[0] // 2
    j = symplectic_form(n)
    scale = max(1.0, top)
    if np.abs(g.T @ j @ g - j).max() > 1e-10 * scale ** 2:
        raise InvariantViolation("matrix is not symplectic within tolerance")
    if abs(np.linalg.det(g) - 1.0) > 1e-8 * scale ** (2 * n):
        raise InvariantViolation("symplectic matrix must have determinant 1")


def _lagrangian_as_written(b):
    """``Lagrangian``'s checks as they were written for one basis."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != 2 * b.shape[1] or not b.size:
        raise DomainError(f"basis must be 2N x N with N >= 1, got {b.shape}")
    if not np.abs(b).max() < math.inf:
        raise DomainError("Lagrangian basis must have finite entries")
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[-1] <= 1e-9 * sv[0]:
        raise InvariantViolation("basis is rank deficient")
    iso = b.T @ symplectic_form(b.shape[1]) @ b
    if np.abs(iso).max() > 1e-10 * max(1.0, sv[0] ** 2):
        raise InvariantViolation("subspace is not isotropic")


def _verdict(check, x):
    """None when ``check`` accepts x, else the type and message of its error."""
    try:
        check(x)
    except (DomainError, InvariantViolation) as exc:
        return type(exc), str(exc)
    return None


def _with(m, index, value):
    m = np.array(m, dtype=float)
    m[index] = value
    return m


# 4 x 4 matrices: good ones at several scales, and one of each fault
_SP_GOOD = {
    "identity": np.eye(4),
    "word": word_to_symplectic([("t", [[0.3, 0.1], [0.1, -0.2]]), ("g", [[1.2, 0.4], [0.0, 0.9]]),
                                ("sigma", None)], 2).g,
    # max|g| = 1e3, so its thresholds are 1e6 times the bare tolerances
    "large": embed_sl2([[1e3, 0.0], [0.0, 1e-3]], 2).g,
}
_SP_BAD = {
    "nan": _with(np.eye(4), (1, 2), math.nan),
    "inf": _with(np.eye(4), (0, 0), math.inf),
    "not symplectic": _with(np.eye(4), (0, 0), 1.5),
    "det -1": np.diag([-1.0, 1.0, 1.0, 1.0]),
    # a form defect of 1e-8 at scale 1: refused, though it is far within the
    # threshold of the large matrix
    "slightly off": _with(np.eye(4), (0, 1), 1e-8),
}
_LAG_GOOD = {
    "coordinate": np.vstack([np.eye(2), np.zeros((2, 2))]),
    "image": _SP_GOOD["word"][:, :2],
    # largest singular value 1e3: its isotropy threshold is 1e6 ISO_TOL
    "large": 1e3 * np.vstack([np.zeros((2, 2)), np.eye(2)]),
}
_LAG_BAD = {
    "nan": _with(_LAG_GOOD["coordinate"], (3, 1), math.nan),
    "inf": _with(_LAG_GOOD["coordinate"], (0, 0), -math.inf),
    "rank deficient": np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
    "not isotropic": np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
    # B(e1, e2 + 1e-8 e3) = 1e-8 at scale 1: refused, though it is far within
    # the threshold of the large basis
    "slightly off": _with(_LAG_GOOD["coordinate"], (2, 1), 1e-8),
}
_RULES = {
    "symplectic": (SymplecticElement, _symplectic_as_written, groups_mod._require_symplectic,
                   _SP_GOOD, _SP_BAD),
    "lagrangian": (Lagrangian, _lagrangian_as_written, maslov_mod._require_lagrangian,
                   _LAG_GOOD, _LAG_BAD),
}
_WRONG_SHAPES = {
    "symplectic": [np.eye(3), np.ones((2, 4)), np.ones(4), np.ones((1, 2, 2)), 1.0],
    "lagrangian": [np.ones((3, 1)), np.ones((2, 2)), np.ones(2), np.ones((1, 2, 1)),
                   np.zeros((0, 0))],
}


@pytest.mark.parametrize("rule", sorted(_RULES))
def test_stacked_rule_decides_each_object_as_written(rule):
    element, as_written, stacked, good, bad = _RULES[rule]
    for name, x in {**good, **bad}.items():
        want = _verdict(as_written, x)
        assert (name in good) == (want is None), name
        assert _verdict(element, x) == want, name
        assert _verdict(stacked, x) == want, name
        assert _verdict(stacked, x[None]) == want, name
    for x in _WRONG_SHAPES[rule]:
        want = _verdict(as_written, x)
        assert want is not None and want[0] is DomainError
        assert _verdict(element, x) == want


@pytest.mark.parametrize("rule", sorted(_RULES))
def test_stacked_rule_raises_the_first_offender(rule):
    _, as_written, stacked, good, bad = _RULES[rule]
    cases = list(good.values()) + list(bad.values())
    for a in cases:
        for b in cases:
            for stack in ([a, b], [b, a, b], list(good.values()) + [a, b]):
                verdicts = [_verdict(as_written, x) for x in stack]
                want = next((v for v in verdicts if v is not None), None)
                assert _verdict(stacked, np.array(stack)) == want


@pytest.mark.parametrize("rule", sorted(_RULES))
def test_stacked_rule_scales_each_object_on_its_own(rule):
    # one scale for the whole stack would let the small faulty object pass
    # under the large good one's threshold
    _, as_written, stacked, good, bad = _RULES[rule]
    want = _verdict(as_written, bad["slightly off"])
    assert want is not None and want[0] is InvariantViolation
    as_written(good["large"])
    for stack in ([good["large"], bad["slightly off"]], [bad["slightly off"], good["large"]]):
        assert _verdict(stacked, np.array(stack)) == want
