"""The shared domain checks: one positive-definiteness decision behind five
entry points, one SL(2, R) membership check behind five more, one generator
letter check behind five more, one reader of JSON reals, and the finite-entry
check of a Lagrangian."""

import math

import numpy as np
import pytest

from jacobiweil import (AsymmetryError, DomainError, GaussianState, IwasawaCoords,
                        Lagrangian, LatticePair, SiegelJacobiPoint, covariance_residual,
                        embed_sl2, ground_state, heis_identity, holo_sqrt_det,
                        index_matrix, iwasawa_sl2, sl2_act_circle, sp_generator,
                        weil_apply_word, weil_generator_apply, word_to_symplectic)
from jacobiweil.fock import FockState, fock_apply
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
