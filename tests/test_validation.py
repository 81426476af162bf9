"""The shared domain checks: one positive-definiteness decision behind five
entry points, one SL(2, R) membership check behind five more, one generator
letter check behind five more, one reader of JSON reals, the finite-entry
check of a Lagrangian, and the stacked symplectic and Lagrangian rules, which
decide each matrix of a stack as the one-object constructors do."""

import math

import numpy as np
import pytest

from jacobiweil import (AsymmetryError, DomainError, GaussianState, IwasawaCoords,
                        Lagrangian, LatticePair, SiegelJacobiPoint, covariance_residual,
                        embed_sl2, ground_state, heis_identity, holo_sqrt_det,
                        index_matrix, iwasawa_sl2, sl2_act_circle, sp_generator,
                        weil_apply_word, weil_generator_apply, word_to_symplectic)
import jacobiweil.groups as groups_mod
import jacobiweil.maslov as maslov_mod
from jacobiweil.errors import InvariantViolation
from jacobiweil.fock import FockState, fock_apply
from jacobiweil.groups import SymplecticElement, symplectic_form
from jacobiweil.jacobi_theta import sl2_on_xi
from jacobiweil.maslov import cocycle_sl2
from jacobiweil.serialize import decode_real

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
