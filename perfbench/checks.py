"""Independent checks of kappa_rup's outputs.

Nothing here imports kappa_rup. The closed-form references are the
paper's Gamma-ratio formulas evaluated in mpmath at 40 digits; the
MaxEnt checks recompute the constraints, the stationarity condition,
the entropy and the fit residual from the returned numbers with plain
numpy. A check returns a list of failure strings; an empty list passes.
"""

from __future__ import annotations

import math

# A closed form or quadrature value further than this from the 40-digit
# reference is a reference mismatch. It is the tolerance of the library's
# own moment_agreement check; the measured worst error is reported next to
# it (closed_max_rel_err, quad_max_rel_err), so accuracy short of the
# ROADMAP's 1e-13 target shows as a number, not as a failure.
REL_TOL = 1e-6
ODE_TOL = 1e-9              # the verify suite's ode_residual tolerance
RESIDUAL_FLOOR = 1e-8       # annihilation/commutator residual at 2^20 points
MIN_STENCIL_ORDER = 3.5     # 4th-order stencil, measured below the floor
MAXENT_TOL = 1e-9
PERTURBATION = 1.0 + 1e-3   # applied to references by --perturb-reference

MOMENT_FIELDS = ("N", "p2", "dp", "dx", "F")


def moment_reference(kappa: float, zeta: float, hbar: float = 1.0,
                     scale: float = 1.0) -> dict:
    """N, <p^2>, dp, dx and F of one state at 40 digits, as floats."""
    import mpmath as mp

    with mp.workdps(40):
        k, z, hb = mp.mpf(kappa), mp.mpf(zeta), mp.mpf(hbar)
        if kappa == 0.0:
            n2, p2, f = mp.sqrt(z / mp.pi), 1 / (2 * z), mp.mpf(1)
        else:
            a = 1 / (2 * k)
            lg = mp.loggamma
            n2 = (2 + k) * mp.sqrt(k * z / (2 * mp.pi)) * mp.exp(
                lg(a + 0.25) - lg(a - 0.25))
            p2 = (2 + k) / (4 * k * z * (2 + 3 * k)) * mp.exp(
                lg(a - 0.75) + lg(a + 0.25) - lg(a + 0.75) - lg(a - 0.25))
            f = (1 - k * k) / (2 * k) * mp.exp(
                lg(a - 0.75) + lg(a + 1.25) - lg(a + 1.75) - lg(a - 0.25))
        dp = mp.sqrt(p2)
        values = {"N": mp.sqrt(n2), "p2": p2, "dp": dp,
                  "dx": hb * z * (1 - k * k) * dp, "F": f}
        return {key: float(v) * scale for key, v in values.items()}


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def maxent_failures(energies, mean, kappa, solution: dict, fit: dict,
                    scale: float = 1.0) -> list:
    """Check a MaxEnt solution and its fit from their numbers alone.

    ``solution`` holds the distribution, the two multipliers and the
    entropy; ``fit`` the amplitude, beta_fit and max_residual.
    """
    import numpy as np

    e = np.asarray(energies, dtype=float)
    n = np.asarray(solution["distribution"], dtype=float)
    mean = mean * scale
    span = max(abs(mean), float(e.max() - e.min()), 1.0)
    if not (np.all(np.isfinite(n)) and np.all(n > 0.0)):
        return ["maxent: distribution not finite and positive"]
    out = []
    if abs(float(n.sum()) - 1.0) > MAXENT_TOL:
        out.append("maxent: normalization")
    if abs(float(n @ e) - mean) / span > MAXENT_TOL:
        out.append("maxent: mean energy")
    # stationarity phi(n) + lam0 + lam1 E = 0, phi(n) = ln_k(n) + cosh(k ln n)
    t = np.log(n)
    phi = t + 1.0 if kappa == 0.0 else np.sinh(kappa * t) / kappa + np.cosh(kappa * t)
    lam0, lam1 = solution["lam0"], solution["lam1"]
    stat = np.max(np.abs(phi + lam0 + lam1 * e)) / max(1.0, abs(lam0) + abs(lam1) * span)
    if stat > MAXENT_TOL:
        out.append("maxent: stationarity")
    ln_k = t if kappa == 0.0 else np.sinh(kappa * t) / kappa
    entropy = -float(np.sum(n * ln_k))
    if abs(entropy - solution["entropy"]) > MAXENT_TOL * max(1.0, abs(entropy)):
        out.append("maxent: entropy")
    y = -fit["beta_fit"] * e
    exp_k = np.exp(y) if kappa == 0.0 else np.exp(np.arcsinh(kappa * y) / kappa)
    residual = float(np.max(np.abs(fit["amplitude"] * exp_k - n) / n))
    if not math.isfinite(residual) or abs(residual - fit["max_residual"]) > (
            1e-6 * residual + 1e-12):
        out.append("maxent: fit residual")
    return out


def bound_alpha_reference(alpha_inverse: float = 137.035999206,
                          uncertainty: float = 1.1e-8) -> float:
    """Leading-order kappa bound at the characteristic momentum:
    2 sqrt(delta_alpha / alpha), delta_alpha = u / alpha_inv^2."""
    return 2.0 * math.sqrt((uncertainty / alpha_inverse ** 2) * alpha_inverse)
