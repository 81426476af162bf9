"""The package root exports every public name, each loaded on first use.

``PUBLIC`` pins, by defining module, the names that ``jacobiweil`` exported
when its ``__init__`` imported every submodule eagerly: none may be dropped,
and each must be the very object its module holds.
"""

import importlib
import sys

import pytest

import jacobiweil

PUBLIC = {
    "automorphy": "HalfWeight J_M J_half J_kM_half J_star_M MetaplecticElement alpha_factor "
                  "beta_cocycle epsilon_g fock_cocycle gamma_pair invariant_volume_density jfac "
                  "kappa_density kronecker_symbol metaplectic_lifts slash_km_nh theta_multiplier",
    "errors": "AsymmetryError ConvergenceError DomainError EigenSolverError InvariantViolation "
              "ResourceError",
    "fock": "FockState fock_apply fock_evaluate monomial",
    "groups": "HeisenbergElement IwasawaCoords JacobiElement SiegelJacobiPoint SymplecticElement "
              "embed_sl2 heis_conjugate heis_identity heis_mul iwasawa_matrix iwasawa_sl2 "
              "jacobi_act jacobi_identity jacobi_mul sl2_act_circle sp_act sp_generator "
              "sp_identity symplectic_form word_to_symplectic",
    "jacobi_theta": "LatticePair asymptotic_main_term check_gamma_invariance gamma_n_generators "
                    "theta_state theta_sum_f xi_to_heisenberg",
    "linalg": "Signature complex_sym holo_sqrt_det is_positive_definite principal_pow_half "
              "real_sym signature",
    "maass": "casimir_km laplace_beltrami_half multiplicity sample_function wirtinger_partial",
    "maslov": "Lagrangian cocycle_clm cocycle_sl2 coordinate_lagrangian intersection_dim maslov3 "
              "maslov_chain momentum_lagrangian random_lagrangian random_symplectic tau_ell",
    "states": "GaussianState covariant_map evaluate ground_state index_matrix l2_norm_sq "
              "sample_grid state_distance",
    "theta": "ThetaValue Truncation fourier_coefficient lattice_sum siegel_theta theta_M "
             "theta_weight_quarter",
    "weil": "SW_SCALE covariance_residual rotation_word schrodinger_apply sw_heisenberg_apply "
            "sw_iwasawa_apply sw_rotation_apply weil_apply_word weil_generator_apply",
}
DEFINED_IN = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_all_lists_every_public_name():
    assert sorted(jacobiweil.__all__) == sorted(DEFINED_IN)
    assert set(DEFINED_IN) <= set(dir(jacobiweil))


def test_each_name_is_its_defining_modules_object():
    star = {}
    exec("from jacobiweil import *", star)
    for name, module in DEFINED_IN.items():
        obj = getattr(importlib.import_module(f"jacobiweil.{module}"), name)
        single = {}
        exec(f"from jacobiweil import {name}", single)
        assert getattr(jacobiweil, name) is obj, name
        assert single[name] is obj, name
        assert star[name] is obj, name


def test_defining_modules_are_attributes():
    for module in PUBLIC:
        assert getattr(jacobiweil, module) is sys.modules[f"jacobiweil.{module}"]


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jacobiweil.no_such_name
    with pytest.raises(ImportError):
        exec("from jacobiweil import no_such_name", {})
    assert not hasattr(jacobiweil, "cli_main")
