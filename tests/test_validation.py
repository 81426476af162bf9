"""The shared domain checks: one positive-definiteness decision behind five
entry points, one SL(2, R) membership check behind five more, and one reader
of JSON reals."""

import math

import numpy as np
import pytest

from jacobiweil import (AsymmetryError, DomainError, GaussianState, IwasawaCoords,
                        LatticePair, SiegelJacobiPoint, embed_sl2, heis_identity,
                        holo_sqrt_det, index_matrix, iwasawa_sl2, sl2_act_circle)
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
])
@pytest.mark.parametrize("entry", sorted(SL2_ENTRY_POINTS))
def test_sl2_membership_checks(entry, mat, message):
    with pytest.raises(DomainError) as info:
        SL2_ENTRY_POINTS[entry](mat)
    assert type(info.value) is DomainError and str(info.value) == message
    # a determinant within 1e-10 of 1 is accepted
    SL2_ENTRY_POINTS[entry](np.diag([1.0 + 5e-11, 1.0]))


def test_decode_real():
    assert decode_real(2) == 2.0 and type(decode_real(2)) is float
    assert decode_real(-0.5) == -0.5 and decode_real(1.7e308) == 1.7e308
    for bad in (True, False, "1", "nan", None, [1.0], math.nan, math.inf, -math.inf,
                10 ** 400, -(10 ** 400)):
        with pytest.raises(DomainError):
            decode_real(bad)
