"""Deformed exponential and logarithm primitives.

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
bits, is stored as 0. _deformation_s_f is the one evaluation of the commutator
deformation f~ = s + k x, s = sqrt(1 + x^2), from x = k q^2, shared by the grid
kernels and the quadrature. elementwise is the scalar/array decorator shared by the
package's elementwise functions, and _BLOCK the length of the blocks that its
grid kernels (the state psi and the residual verifiers) work through.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError
from .params import KappaLike, as_kappa

__all__ = ["kappa_exp", "kappa_log"]


_BLOCK = 1 << 13  # points per block: a block's float64 temporaries stay in L2


def _asinh_k(x, k: float, out=None):
    """asinh(k x) / k, written into ``out`` (which may be x) if given; x itself at k == 0."""
    return x if k == 0.0 else np.divide(np.arcsinh(np.multiply(k, x, out=out), out=out), k, out=out)


def _deformation_s_f(x, k: float, s, f):
    """(s, f~): s = sqrt(1 + x^2) and f~ = s + k x from x = k q^2 >= 0, in place in the
    buffers s and f of x's shape. s takes numpy's sqrt with x capped at 2^27 before
    squaring: within 1 ulp of libm's hypot(1, x) over the whole float range, no overflow."""
    # past 2^27, 1 + x^2 rounds to x^2 and s is x: the cap keeps x^2 finite
    np.sqrt(np.add(np.square(np.minimum(x, 2.0**27, out=s), out=s), 1.0, out=s), out=s)
    np.maximum(s, x, out=s)
    return s, np.add(s, np.multiply(x, k, out=f), out=f)


def _sinh_k(t, k: float):
    return t if k == 0.0 else np.sinh(k * t) / k


def elementwise(fn):
    """Decorator: ``fn`` gets its first argument as a float ndarray, and a 0-d
    result comes back as a Python float."""

    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        out = fn(np.asarray(x, dtype=float), *args, **kwargs)
        return float(out) if getattr(out, "ndim", 0) == 0 else out

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
