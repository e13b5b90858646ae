"""Deformed exponential/logarithm primitives and log-Gamma ratios.

The one-parameter deformation of the exponential,

    exp_k(y) = (sqrt(1 + k^2 y^2) + k y)^(1/k),      0 < k < 1,

and its inverse

    ln_k(y) = (y^k - y^(-k)) / (2 k),                y > 0,

reduce to exp/ln as k -> 0 and generate power-law tails for k > 0.
Every evaluation here goes through the identities

    exp_k(y) = exp(asinh(k y) / k),     ln_k(y) = sinh(k ln y) / k,

which are stable for all real y: asinh is odd to the last bit, so the
reciprocal identity exp_k(y) * exp_k(-y) = 1 holds at rounding level,
and the decaying branch (k y << -1) never hits the catastrophic
cancellation of the naive power form.

_asinh_k and _sinh_k hold those exponents and their k -> 0 limits for every module,
in their classical form at k == 0 only; a subnormal k, whose k y would lose its low
bits, is stored as 0. gamma_ratio takes exp(lgamma(a) - lgamma(b)), safe past Gamma's overflow.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .params import KappaLike, as_kappa

__all__ = ["kappa_exp", "kappa_log", "log_gamma", "gamma_ratio"]

# math.lgamma (libm) applied elementwise; numpy has no log-Gamma ufunc
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _asinh_k(x, k: float):
    return x if k == 0.0 else np.arcsinh(k * x) / k


def _sinh_k(t, k: float):
    return t if k == 0.0 else np.sinh(k * t) / k


def _maybe_scalar(out):
    return float(out) if getattr(out, "ndim", 0) == 0 else out


def elementwise(fn):
    """Decorator: ``fn`` gets its first argument as a float ndarray, and each
    0-d result (alone or in a tuple) comes back as a Python float."""

    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        out = fn(np.asarray(x, dtype=float), *args, **kwargs)
        if isinstance(out, tuple):
            return tuple(map(_maybe_scalar, out))
        return _maybe_scalar(out)

    return wrapper


@elementwise
def kappa_exp(y, kappa: KappaLike):
    """Deformed exponential exp_k(y), defined and positive for all real y.

    Accepts scalars or arrays in ``y``. For kappa = 0 this is exactly exp(y).
    """
    return np.exp(_asinh_k(y, as_kappa(kappa).value))


@elementwise
def kappa_log(y, kappa: KappaLike):
    """Deformed logarithm ln_k(y) for y > 0; inverse of kappa_exp."""
    k = as_kappa(kappa).value
    if np.any(~(y > 0.0)):
        raise DomainError("kappa_log requires y > 0")
    return _sinh_k(np.log(y), k)


@elementwise
def log_gamma(x):
    """ln Gamma(x) for x > 0 (scalar or array).

    Validated front for libm's lgamma; relative accuracy is a few ulp
    across (0, 1e4], far inside the 1e-12 budget needed by the moment
    formulas. Negative arguments are out of scope: every Gamma argument
    reachable from kappa < 1 is positive.
    """
    if np.any(~(x > 0.0)):
        raise DomainError("log_gamma requires x > 0")
    return _lgamma(x)


@elementwise
def gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) via exp(lgamma(a) - lgamma(b)), a, b > 0.

    Safe where the direct ratio overflows (a, b ~ 1/(2 kappa) for small
    kappa).
    """
    b = np.asarray(b, dtype=float)
    if np.any(~(a > 0.0)) or np.any(~(b > 0.0)):
        raise DomainError("gamma_ratio requires a > 0 and b > 0")
    return np.exp(_lgamma(a) - _lgamma(b))
