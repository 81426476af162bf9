"""Numerical Weil and Schrödinger-Weil representations of the Jacobi group.

Every public name is loaded lazily (PEP 562, as in Scientific Python SPEC 1).
``_NAMES`` maps each name to the submodule that defines it; ``import
jacobiweil`` imports no submodule, and the first ``jacobiweil.<name>`` (or
``from jacobiweil import <name>``) imports that one module and caches the
object here, so later look-ups are plain attribute reads.  A defining
submodule is reachable as an attribute as well (``jacobiweil.theta``), imported
on first access.  A command-line job thus imports only the modules its
command uses.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {name: module for module, names in (
    ("automorphy", "HalfWeight J_half J_kM_half J_M J_star_M MetaplecticElement alpha_factor "
                   "beta_cocycle epsilon_g fock_cocycle gamma_pair invariant_volume_density "
                   "jfac kappa_density kronecker_symbol metaplectic_lifts slash_km_nh "
                   "theta_multiplier"),
    ("errors", "AsymmetryError ConvergenceError DomainError EigenSolverError "
               "InvariantViolation ResourceError"),
    ("fock", "FockState fock_apply fock_evaluate monomial"),
    ("groups", "HeisenbergElement IwasawaCoords JacobiElement SiegelJacobiPoint "
               "SymplecticElement embed_sl2 heis_conjugate heis_identity heis_mul "
               "iwasawa_matrix iwasawa_sl2 jacobi_act jacobi_identity jacobi_mul "
               "sl2_act_circle sp_act sp_generator sp_identity symplectic_form "
               "word_to_symplectic"),
    ("jacobi_theta", "LatticePair asymptotic_main_term check_gamma_invariance "
                     "gamma_n_generators theta_state theta_sum_f xi_to_heisenberg"),
    ("linalg", "Signature holo_sqrt_det is_positive_definite principal_pow_half real_sym "
               "complex_sym signature"),
    ("maass", "casimir_km laplace_beltrami_half multiplicity sample_function "
              "wirtinger_partial"),
    ("maslov", "Lagrangian cocycle_clm cocycle_sl2 coordinate_lagrangian intersection_dim "
               "maslov3 maslov_chain momentum_lagrangian random_lagrangian random_symplectic "
               "tau_ell"),
    ("states", "GaussianState covariant_map evaluate ground_state index_matrix l2_norm_sq "
               "sample_grid state_distance"),
    ("theta", "ThetaValue Truncation fourier_coefficient lattice_sum siegel_theta theta_M "
              "theta_weight_quarter"),
    ("weil", "SW_SCALE covariance_residual rotation_word schrodinger_apply "
             "sw_heisenberg_apply sw_iwasawa_apply sw_rotation_apply weil_apply_word "
             "weil_generator_apply"),
) for name in names.split()}

_SUBMODULES = frozenset(_NAMES.values())
__all__ = sorted(_NAMES)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
