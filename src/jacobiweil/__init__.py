"""Numerical Weil and Schrödinger-Weil representations of the Jacobi group."""

from .automorphy import (HalfWeight, J_half, J_kM_half, J_M, J_star_M,
                         MetaplecticElement, alpha_factor, beta_cocycle,
                         epsilon_g, fock_cocycle, gamma_pair,
                         invariant_volume_density, jfac, kappa_density,
                         kronecker_symbol, metaplectic_lifts, slash_km_nh,
                         theta_multiplier)
from .errors import (AsymmetryError, ConvergenceError, DomainError,
                     EigenSolverError, InvariantViolation, ResourceError)
from .fock import FockState, fock_apply, fock_evaluate, monomial
from .groups import (HeisenbergElement, IwasawaCoords, JacobiElement,
                     SiegelJacobiPoint, SymplecticElement, embed_sl2,
                     heis_conjugate, heis_identity, heis_mul, iwasawa_matrix,
                     iwasawa_sl2, jacobi_act, jacobi_identity, jacobi_mul,
                     sl2_act_circle, sp_act, sp_generator, sp_identity,
                     symplectic_form, word_to_symplectic)
from .jacobi_theta import (LatticePair, asymptotic_main_term,
                           check_gamma_invariance, gamma_n_generators,
                           theta_state, theta_sum_f, xi_to_heisenberg)
from .linalg import (Signature, holo_sqrt_det, is_positive_definite,
                     principal_pow_half, real_sym, complex_sym, signature)
from .maass import (casimir_km, laplace_beltrami_half, multiplicity,
                    sample_function, wirtinger_partial)
from .maslov import (Lagrangian, cocycle_clm, cocycle_sl2,
                     coordinate_lagrangian, intersection_dim, maslov3,
                     maslov_chain, momentum_lagrangian, random_lagrangian,
                     random_symplectic, tau_ell)
from .states import (GaussianState, covariant_map, evaluate, ground_state,
                     index_matrix, l2_norm_sq, sample_grid, state_distance)
from .theta import (ThetaValue, Truncation, fourier_coefficient, lattice_sum,
                    siegel_theta, theta_M, theta_weight_quarter)
from .weil import (SW_SCALE, covariance_residual, rotation_word,
                   schrodinger_apply, sw_heisenberg_apply, sw_iwasawa_apply,
                   sw_rotation_apply, weil_apply_word, weil_generator_apply)

__version__ = "0.1.0"
