"""kappa-rup: Kaniadakis kappa-statistics and the deformed uncertainty relation.

Library layout:

  params            the validated kappa parameter with its two rules, and the state (numpy-free)
  kappa_math        deformed exp/log and the scalar/array decorator
  coherent_states   kappa-Gaussian states, closed-form moments and their quadrature report
  deformed_algebra  f(p), orderings A in [0, 1] (plain floats), residuals
  kinematics        the auxiliary energy and the physical scaling map
  maxent            Kaniadakis entropy and constrained maximization
  phenomenology     effective hbar / fine-structure-constant bounds (numpy-free)
  cli               batch command-line interface (kappa-rup executable)

Each name below resolves on first access, importing only its own module.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_ORIGIN = {name: module for module, names in {
    "params": "KappaParameter StateSpec",
    "kappa_math": "kappa_exp kappa_log",
    "coherent_states": "MomentReport delta_p delta_x f_excess f_expectation moment_report "
                       "normalization_constant psi second_moment second_moment_excess "
                       "tail_exponent_estimate",
    "deformed_algebra": "GridFunction annihilation_residual apply_position_operator "
                        "commutator_residual convert_ordering deformation_f ode_residual "
                        "ordering_weight robertson_bound",
    "kinematics": "ParticleFrame aux_energy physical_map",
    "maxent": "MaxEntProblem MaxEntSolution fit_kappa_exponential kaniadakis_entropy maxent_solve",
    "phenomenology": "PhenoConfig effective_alpha effective_hbar "
                     "gac_match_zeta kappa_bound landau_zeta minimal_length putra_bound",
}.items() for name in names.split()}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _ORIGIN[name], __name__), name)
    globals()[name] = value  # later lookups are plain module-dict hits
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
