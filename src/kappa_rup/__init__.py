"""kappa-rup: Kaniadakis kappa-statistics and the deformed uncertainty relation.

Library layout:

  kappa_math        deformed exp/log, log-Gamma, Gamma ratios, the kappa parameter
  coherent_states   kappa-Gaussian states, moments, quadrature oracles
  deformed_algebra  deformation f(p) and its derivatives, operator orderings, residuals
  kinematics        auxiliary kinematic functions and the physical scaling map
  maxent            Kaniadakis entropy and constrained maximization
  phenomenology     effective hbar / fine-structure-constant bounds
  cli               batch command-line interface (kappa-rup executable)
"""

__version__ = "0.1.0"

from .kappa_math import KappaParameter, gamma_ratio, kappa_exp, kappa_log, log_gamma
from .coherent_states import (
    MomentReport,
    StateSpec,
    delta_p,
    delta_x,
    f_excess,
    f_expectation,
    moment_report,
    normalization_constant,
    pdf,
    psi,
    quadrature_moment,
    second_moment,
    second_moment_excess,
    tail_exponent_estimate,
)
from .deformed_algebra import (
    GridFunction,
    OrderingParameter,
    annihilation_residual,
    apply_position_operator,
    approx_commutator_factor,
    commutator_residual,
    convert_ordering,
    deformation_f,
    deformation_general,
    minimal_length,
    ode_residual,
    ordering_weight,
    robertson_bound,
)
from .kinematics import ParticleFrame, aux_energy, aux_kinetic, aux_velocity, physical_map
from .maxent import (
    MaxEntProblem,
    MaxEntSolution,
    fit_kappa_exponential,
    kaniadakis_entropy,
    maxent_solve,
)
from .phenomenology import (
    PhenoConfig,
    Quantity,
    delta_p_saturated,
    effective_alpha,
    effective_hbar,
    gac_match_zeta,
    kappa_bound,
    landau_zeta,
    putra_bound,
)
