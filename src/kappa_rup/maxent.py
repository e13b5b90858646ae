"""Kaniadakis entropy and constrained maximization over discrete levels.

The entropy of a distribution {n_i} is

    S_k = - sum_i n_i ln_k(n_i),

maximized under sum n_i = 1 and sum n_i E_i = U. Stationarity of the
Lagrangian reads phi(n_i) = -lam0 - lam1 E_i with

    phi(n) = d/dn [n ln_k n] = ln_k(n) + cosh(k ln n),

which is strictly increasing on n > 0 (the entropy is strictly
concave), so each level is uniquely determined by the two multipliers.
Substituting z = n^k turns phi(n) = y into a quadratic, giving the
closed-form inverse

    n = [ (k y + sqrt(k^2 y^2 + 1 - k^2)) / (1 + k) ]^(1/k),

and the solver reduces to a damped Newton iteration on the two
multipliers alone. For k = 0 everything collapses to the Gibbs
exponential n = exp(y - 1).

That inverse is Kaniadakis's canonical distribution (Phys. Rev. E 66,
056125 (2002)): the maximizer is exactly the deformed exponential of an
affine function of the energy,

    n_i = alpha exp_k(-(lam0 + lam1 E_i) / lambda),
    lambda = sqrt(1 - k^2),   alpha = exp(-atanh(k) / k),

with alpha -> 1/e as k -> 0. For k > 0 it is in general no multiple
A exp_k(-b E_i) of the deformed Boltzmann factor; fit_kappa_exponential
measures how far the best such multiple lies from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InfeasibleMeanError, NonConvergenceError
from .kappa_math import _asinh_k, _sinh_k, kappa_exp, kappa_log
from .params import KappaLike, KappaParameter, as_kappa

__all__ = [
    "MaxEntProblem",
    "MaxEntSolution",
    "KappaExponentialFit",
    "kaniadakis_entropy",
    "maxent_solve",
    "fit_kappa_exponential",
]

# Newton steps of the solver and of the fit, at most; each converges in a handful
_SOLVE_MAX_ITER = 200
_FIT_MAX_ITER = 100


@dataclass(frozen=True)
class MaxEntProblem:
    """Discrete energy levels, target mean energy, and the deformation."""

    energies: np.ndarray
    mean_energy: float
    kappa: KappaParameter

    def __post_init__(self):
        object.__setattr__(self, "kappa", as_kappa(self.kappa))
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise DomainError("need at least two energy levels")
        if not np.all(np.isfinite(e)):
            raise DomainError("energies must be finite")
        u = float(self.mean_energy)
        if not (e.min() < u < e.max()):
            raise InfeasibleMeanError(
                f"mean energy {u} must lie strictly inside ({e.min()}, {e.max()})"
            )
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "mean_energy", u)

    def to_json_dict(self) -> dict:
        return {
            "energies": [float(v) for v in self.energies],
            "mean_energy": self.mean_energy,
            "kappa": self.kappa.value,
        }


@dataclass(frozen=True)
class MaxEntSolution:
    """Optimizing distribution with multipliers and diagnostics.

    beta is the energy multiplier read as the deformed inverse
    temperature; temperature applies 1/beta = sqrt(1 - kappa^2) T and
    is +-inf for a symmetric (beta = 0) problem.
    """

    distribution: np.ndarray
    multiplier_normalization: float
    multiplier_energy: float
    entropy: float
    kkt_residual: float
    kappa: KappaParameter
    beta: float
    temperature: float

    def to_json_dict(self) -> dict:
        return {
            "distribution": [float(v) for v in self.distribution],
            "multipliers": {
                "normalization": self.multiplier_normalization,
                "energy": self.multiplier_energy,
            },
            "entropy": self.entropy,
            "kkt_residual": self.kkt_residual,
            "derived": {
                "beta": self.beta,
                "temperature": self.temperature if math.isfinite(self.temperature) else None,
            },
        }


@dataclass(frozen=True)
class KappaExponentialFit:
    """Least-squares fit of the solution to A * exp_k(-b E)."""

    amplitude: float
    beta_fit: float
    max_residual: float


def kaniadakis_entropy(n, kappa: KappaLike) -> float:
    """S_k = -sum n_i ln_k(n_i); Shannon entropy at kappa = 0."""
    arr = np.asarray(n, dtype=float)
    if np.any(~(arr > 0.0)):
        raise DomainError("entropy requires strictly positive probabilities")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"probabilities must sum to 1 within 1e-9, got {total}")
    return float(-np.sum(arr * kappa_log(arr, kappa)))


# ---------------------------------------------------------------------------
# stationarity function and its closed-form inverse
# ---------------------------------------------------------------------------

def _phi(n: np.ndarray, k: float) -> np.ndarray:
    """d/dn [n ln_k n], strictly increasing on n > 0."""
    t = np.log(n)
    return _sinh_k(t, k) + np.cosh(k * t)


def _phi_prime(n: np.ndarray, k: float) -> np.ndarray:
    t = np.log(n)
    return (np.cosh(k * t) + k * np.sinh(k * t)) / n


def _phi_inv(y: np.ndarray, k: float) -> np.ndarray:
    """Unique n > 0 with phi(n) = y (exponent clamped to keep n finite)."""
    y = np.asarray(y, dtype=float)
    if k == 0.0:
        return np.exp(np.clip(y - 1.0, -700.0, 700.0))
    # ln[(k y + sqrt(k^2 y^2 + 1 - k^2)) / (1 + k)] = asinh(k y / sqrt(1 - k^2)) - atanh(k),
    # free of the cancellation that ln(~1) - ln1p(k) suffers as k -> 0
    log_n = (np.arcsinh(k / math.sqrt((1.0 - k) * (1.0 + k)) * y) - math.atanh(k)) / k
    return np.exp(np.clip(log_n, -700.0, 700.0))


def maxent_solve(problem: MaxEntProblem, tol: float = 1e-10) -> MaxEntSolution:
    """Maximize the Kaniadakis entropy under the two standard constraints.

    Damped Newton iteration on the multipliers (lam0, lam1); the level
    populations follow from the closed-form stationarity inverse, so
    positivity holds by construction. Energies are shifted by the mean
    internally for conditioning.
    """
    if not 1e-12 <= tol <= 1e-4:
        raise DomainError(f"tol must lie in [1e-12, 1e-4], got {tol}")
    k = problem.kappa.value
    u = problem.mean_energy
    e = problem.energies - u  # shifted: target mean is 0
    e_scale = max(abs(u), float(e.max() - e.min()), 1.0)
    target = min(tol, 1e-13)

    w = e.size
    lam0 = -float(_phi(np.full(1, 1.0 / w), k)[0])  # uniform start
    lam1 = 0.0

    def residuals(l0, l1):
        n = _phi_inv(-l0 - l1 * e, k)
        g0 = float(n.sum()) - 1.0
        g1 = float(n @ e)
        return n, g0, g1, max(abs(g0), abs(g1) / e_scale)

    n, g0, g1, err = residuals(lam0, lam1)
    for _ in range(_SOLVE_MAX_ITER):
        if err <= target:
            break
        r = 1.0 / _phi_prime(n, k)
        s0, s1, s2 = float(r.sum()), float(r @ e), float(r @ (e * e))
        det = s0 * s2 - s1 * s1
        if det <= 0.0 or not math.isfinite(det):
            raise NonConvergenceError("singular Newton system in maxent_solve")
        d0 = (s2 * g0 - s1 * g1) / det
        d1 = (s0 * g1 - s1 * g0) / det
        step = 1.0
        for _ in range(40):
            trial = residuals(lam0 + step * d0, lam1 + step * d1)
            if trial[3] < err or trial[3] <= target:
                break
            step *= 0.5
        lam0, lam1 = lam0 + step * d0, lam1 + step * d1
        n, g0, g1, err = trial
    if not err <= target:
        raise NonConvergenceError(
            f"maxent_solve did not reach {target} in {_SOLVE_MAX_ITER} iterations (err={err})"
        )

    # stationarity is closed-form exact; constraints carry the real error
    stat = np.max(np.abs(_phi(n, k) + lam0 + lam1 * e)) / max(
        1.0, abs(lam0) + abs(lam1) * e_scale
    )
    kkt = max(err, float(stat))
    lam0_unshifted = lam0 - lam1 * u
    beta = lam1
    if beta != 0.0:
        temperature = 1.0 / (beta * math.sqrt(1.0 - k * k))
    else:
        temperature = math.inf
    return MaxEntSolution(
        distribution=n,
        multiplier_normalization=lam0_unshifted,
        multiplier_energy=lam1,
        entropy=kaniadakis_entropy(n, problem.kappa),
        kkt_residual=kkt,
        kappa=problem.kappa,
        beta=beta,
        temperature=temperature,
    )


def fit_kappa_exponential(solution: MaxEntSolution,
                          energies: Sequence[float]) -> KappaExponentialFit:
    """Fit n_i ~ A exp_k(-b E_i) and report the worst relative residual.

    The amplitude is eliminated analytically for each trial b; b itself
    starts from the log-linear (Gibbs) estimate and is refined by a
    Newton iteration on d(ssq)/db, safeguarded by bisection on the
    bracket that the sign of d(ssq)/db narrows at every step, and widened where
    a step leaves through an edge no sign has moved: a strongly deformed fit's b
    can lie far past it, or at infinity, where exp_k(-b E) ~ E^(-1/k).
    """
    e = np.asarray(energies, dtype=float)
    n = np.asarray(solution.distribution, dtype=float)
    if e.shape != n.shape:
        raise DomainError("energies must match the solution distribution")
    k = solution.kappa.value

    # the log-linear (Gibbs) least-squares slope
    centred = e - e.mean()
    b0 = -float(centred @ np.log(n)) / float(centred @ centred)

    def fitted(b):
        u = kappa_exp(-b * e, k)
        a = float(u @ n) / float(u @ u)
        return a, u, a * u - n

    # Newton on g = d(ssq)/db, ssq = |r|^2, r = a u - n. ssq is stationary in
    # a, so g = 2 a r.u', with u' = -v u, u'' = v^2 u (1 + k^2 b v) and
    # v = E / sqrt(1 + (k b E)^2). A step that leaves the bracket, which the
    # sign of g narrows, bisects it instead, or doubles a side g never set.
    span = 10.0 * (abs(b0) + 1.0 / float(e.max() - e.min()))
    lo, hi, b = b0 - span, b0 + span, b0
    set_lo = set_hi = widened = False  # set_lo, set_hi: a sign of g has moved that edge
    eps = np.finfo(float).eps
    a, u, r = start = fitted(b0)
    for _ in range(_FIT_MAX_ITER):
        v = e / np.sqrt(1.0 + np.square(k * b * e))
        w = v * u  # -u'
        da = (2.0 * a * float(u @ w) - float(w @ n)) / float(u @ u)
        rw = r * w
        r_w = float(rw.sum())
        g = -2.0 * a * r_w
        r_d2u = float(rw @ v) + k * k * b * float((rw * v) @ v)  # r.u''
        dg = 2.0 * (a * (float((a * w - da * u) @ w) + r_d2u) - da * r_w)
        newton = g / dg if dg > 0.0 else math.copysign(math.inf, g)
        # stop where the step is within rounding of b, or g is nan; once widened, also where
        # it lowers ssq (by about g newton / 2) less than ssq's rounding
        if not abs(newton) > eps * span or widened and not abs(g * newton) > eps * float(r @ r):
            break
        if g > 0.0:
            hi, set_hi = b, True
        else:
            lo, set_lo = b, True
        # past an unset edge, double that side while u.u stays in range: max exp_k(-b E) in e^+-300
        edge = b0 + math.copysign(2.0 * span, -g)
        if not (set_hi if g < 0.0 else set_lo) and not lo < b - newton < hi \
                and abs(float(np.max(_asinh_k(-edge * e, k)))) <= 300.0:
            span, widened = 2.0 * span, True
            lo, hi = (lo, edge) if g < 0.0 else (edge, hi)
        # converging quadratically, the error left after a step is ~newton^2
        done = abs(newton) <= 1e-10 * span
        b_next = b - newton if done or lo < b - newton < hi else 0.5 * (lo + hi)
        if b_next == b:  # a step that keeps b: g, lo, hi and b repeat it to the cap
            break
        b = b_next
        a, u, r = fitted(b)
        if done:
            break
    # when the data is exactly exponential (kappa = 0) the regression
    # estimate b0 is already optimal, so keep whichever of the two scores better
    if not float(r @ r) < float(start[2] @ start[2]):
        b, (a, u, r) = b0, start
    max_residual = float(np.max(np.abs(r) / n))
    return KappaExponentialFit(amplitude=a, beta_fit=b, max_residual=max_residual)
