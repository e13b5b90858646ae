"""Deformed Heisenberg algebra [x, p] = i hbar f(p) and its verification.

The physically selected deformation is

    f(p) = sqrt(1 + k^2 z^2 p^4) + k^2 z p^2          (>= 1, even),

the particular member of the general family

    f(p) = dx (sqrt(1 + k^2 z^2 p^4) + k^2 z p^2) / (hbar z (1-k^2) dp)
           + c1 * exp_k(+z p^2)

picked out by requiring f -> 1 both for k -> 0 (c1 = 0) and for p -> 0
(dx = hbar z (1-k^2) dp).

In momentum space the position operator for ordering parameter A is

    x = i hbar [ f(p) d/dp + A f'(p) ],    A in [0, 1],

with A = 1/2 the symmetric choice (unit integration measure). Grid
versions of x use 4th-order finite differences (one-sided at the
edges), and three residuals quantify how well the continuum identities
survive discretization:

  * annihilation_residual: (x/dx + i p/dp) psi = 0 on the
    minimum-uncertainty state;
  * commutator_residual: [x, p] psi = i hbar f psi on any smooth state;
  * ode_residual: the second-order ODE satisfied by the family above,
    evaluated pointwise with analytic f', f''.

The residuals run in real arithmetic over blocks of 2^13 points, which stay
in L2, with the bits of the complex whole-grid form: each complex product
they replace had a zero part, the stencil scales by 1/(12h) as numpy's
complex division does, and each norm is one np.sum over the whole grid.
Per block, p^2 and s = sqrt(1 + x^2), x = k z p^2, are formed once, and f''
only where it is used. s takes numpy's sqrt, not libm's per-element hypot,
with x capped at 2^27 before squaring (past it, s is x): it stays within
1 ulp of hypot(1, x) over the whole float range and cannot overflow.
The annihilation and commutator residuals do not change when hbar is
scaled (with dx, which is linear in it), nor the ODE residual when hbar dp f
and dx are scaled together, so each brings those scales near 1 by powers of
two first. That keeps every bit, and no hbar overflows or underflows them.

All derivative formulas used below (s = sqrt(1 + k^2 z^2 p^4),
u = k z p^2 / s in [0, 1), X = exp_k(z p^2)):

    f_core'  = 2 k^2 z p (1 + z p^2 / s)
    f_core'' = 2 k z (k + u (3 - 2 u^2))
    X'       = 2 z p X / s
    X''      = (2 z X / s^3) (s^2 + 2 z p^2 s - 2 k^2 z^2 p^4)

and are unit-tested against central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .coherent_states import StateSpec
from .coherent_states import delta_p as state_delta_p
from .coherent_states import delta_x as state_delta_x
from .coherent_states import psi as state_psi
from .errors import DomainError
from .kappa_math import KappaLike, as_kappa, elementwise, kappa_exp
from .phenomenology import minimal_length  # re-exported: the one definition is numpy-free

__all__ = [
    "OrderingParameter",
    "ORDER_X1",
    "ORDER_X2",
    "ORDER_X3",
    "GridFunction",
    "deformation_f",
    "deformation_f_derivatives",
    "robertson_bound",
    "minimal_length",
    "ordering_weight",
    "convert_ordering",
    "apply_position_operator",
    "annihilation_residual",
    "commutator_residual",
    "ode_residual",
]


@dataclass(frozen=True)
class OrderingParameter:
    """Operator-ordering label A in [0, 1]; 0, 1/2, 1 give x1, x3, x2."""

    A: float

    def __post_init__(self):
        a = float(self.A)
        if not (math.isfinite(a) and 0.0 <= a <= 1.0):
            raise DomainError(f"ordering parameter must lie in [0, 1], got {self.A!r}")
        object.__setattr__(self, "A", a)


ORDER_X1 = OrderingParameter(0.0)
ORDER_X3 = OrderingParameter(0.5)
ORDER_X2 = OrderingParameter(1.0)

OrderingLike = Union[OrderingParameter, float, int]


def _ordering_value(A: OrderingLike) -> float:
    if isinstance(A, OrderingParameter):
        return A.A
    return OrderingParameter(float(A)).A


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a uniform momentum grid."""

    p_min: float
    p_max: float
    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=complex)  # a private copy
        if arr.ndim != 1 or arr.size < 16:
            raise DomainError("GridFunction needs a 1-d array of >= 16 samples")
        if not np.isfinite(arr).all():
            raise DomainError("GridFunction samples must be finite")
        if not self.p_max > self.p_min:
            raise DomainError("GridFunction needs p_max > p_min")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n_points(self) -> int:
        return self.samples.size

    @property
    def h(self) -> float:
        return (self.p_max - self.p_min) / (self.n_points - 1)

    def p_values(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_points)


# ---------------------------------------------------------------------------
# deformation function and friends
# ---------------------------------------------------------------------------

def _f_core(p, k: float, z: float):
    """p^2, x = k z p^2, s = sqrt(1 + x^2) and f = s + k x: the one place f is written."""
    p2 = np.square(p)
    x = k * z * p2
    # past 2^27, 1 + x^2 rounds to x^2 and s is x: the cap keeps x^2 finite
    s = np.maximum(np.sqrt(1.0 + np.square(np.minimum(x, 2.0**27))), x)
    return p2, x, s, s + k * x


def _f_f1(p, k: float, z: float):
    """(x, s, f, f') on an array of momenta, without f''."""
    p2, x, s, f = _f_core(p, k, z)
    return x, s, f, 2.0 * k * k * z * p * (1.0 + z * p2 / s)


def _general_parts(p, k: float, z: float, c0: float, c1: float):
    """(s, f, f', f'') of the general family, c0 = dx / (hbar z (1-k^2) dp);
    c0 = 1, c1 = 0 is the selected deformation."""
    x, s, f, f1 = _f_f1(p, k, z)
    # u = x / s in [0, 1), not p^6 / s^3: that overflows past |p| ~ 2e51
    u = x / s
    f2 = 2.0 * k * z * (k + u * (3.0 - 2.0 * np.square(u)))
    f, f1, f2 = c0 * f, c0 * f1, c0 * f2
    if c1 != 0.0:
        big_x = kappa_exp(z * np.square(p), k)
        f = f + c1 * big_x
        f1 = f1 + c1 * 2.0 * z * p * big_x / s
        f2 = f2 + c1 * (2.0 * z * big_x / s**3) * (
            s * s + 2.0 * z * np.square(p) * s - 2.0 * (k * z) ** 2 * p**4
        )
    return s, f, f1, f2


@elementwise
def deformation_f_derivatives(p, kappa: KappaLike, zeta: float):
    """(f, f', f'') of the selected deformation, analytic forms."""
    return _general_parts(p, as_kappa(kappa).value, zeta, 1.0, 0.0)[1:]


@elementwise
def deformation_f(p, kappa: KappaLike, zeta: float):
    """Commutator deformation f(p) = sqrt(1 + k^2 z^2 p^4) + k^2 z p^2, overflow-free."""
    return _f_core(p, as_kappa(kappa).value, zeta)[3]


def robertson_bound(f_mean: float, hbar: float = 1.0) -> float:
    """Uncertainty bound (hbar/2) <f(p)> from the Robertson inequality.

    Rejects <f> < 1, which no state attains for the deformation above
    (a rounding-level dip below 1 is tolerated).
    """
    if f_mean < 1.0 - 1e-12:
        raise DomainError(f"mean deformation must be >= 1, got {f_mean}")
    return 0.5 * hbar * f_mean


def ordering_weight(p, A: OrderingLike, kappa: KappaLike, zeta: float):
    """Momentum-space measure weight g(p) = f(p)^(2A-1) that makes the
    A-ordered position operator symmetric; g(0) = 1 for every A."""
    return deformation_f(p, kappa, zeta) ** (2.0 * _ordering_value(A) - 1.0)


def convert_ordering(phi: GridFunction, A_from: OrderingLike, A_to: OrderingLike,
                     kappa: KappaLike, zeta: float) -> GridFunction:
    """Rescale a wavefunction between ordering conventions:
    phi_to = f^(A_from - A_to) phi_from, pointwise on the same grid."""
    a_from, a_to = _ordering_value(A_from), _ordering_value(A_to)
    if a_from == a_to:
        return phi
    f = deformation_f(phi.p_values(), kappa, zeta)
    return GridFunction(phi.p_min, phi.p_max, phi.samples * f ** (a_from - a_to))


# ---------------------------------------------------------------------------
# finite-difference position operator
# ---------------------------------------------------------------------------

_BLOCK = 1 << 13  # points per block: a block's float64 temporaries stay in L2


def _binade_shift(x: float) -> int:
    """The power of two that brings |x| into [1, 2); a scaling by it is exact."""
    return 1 - math.frexp(x)[1]


def _blocks(n: int):
    """(block, halo, at) per block: _derivative(s[halo], h)[at] is _derivative(s, h)[block]."""
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        hi = min(stop + 2, n)
        lo = max(min(start - 2, hi - 5), 0)  # two neighbours a side, five points at least
        yield slice(start, stop), slice(lo, hi), slice(start - lo, stop - lo)


def _derivative(s: np.ndarray, h: float) -> np.ndarray:
    """4th-order d/dp along axis 0 (one-sided at the edges), times 1/(12h)."""
    c = 1.0 / (12.0 * h)
    d = np.empty_like(s)
    d[2:-2] = (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) * c
    d[0] = (-25.0 * s[0] + 48.0 * s[1] - 36.0 * s[2] + 16.0 * s[3] - 3.0 * s[4]) * c
    d[1] = (-3.0 * s[0] - 10.0 * s[1] + 18.0 * s[2] - 6.0 * s[3] + s[4]) * c
    d[-2] = (3.0 * s[-1] + 10.0 * s[-2] - 18.0 * s[-3] + 6.0 * s[-4] - s[-5]) * c
    d[-1] = (25.0 * s[-1] - 48.0 * s[-2] + 36.0 * s[-3] - 16.0 * s[-4] + 3.0 * s[-5]) * c
    return d


def _x_block(w, h, at, f, af1, hbar):
    return hbar * (f * _derivative(w, h)[at] + af1 * w[at])


def apply_position_operator(psi_grid: GridFunction, A: OrderingLike,
                            kappa: KappaLike, zeta: float,
                            hbar: float = 1.0) -> GridFunction:
    """x psi = i hbar [f psi' + A f' psi] sampled on the grid."""
    _, _, f, f1 = _f_f1(psi_grid.p_values(), as_kappa(kappa).value, zeta)
    af1, s = _ordering_value(A) * f1, psi_grid.samples
    # x psi = i (X re + i X im), X the real operator hbar (f d/dp + A f')
    x_re, x_im = (_x_block(w, psi_grid.h, slice(None), f, af1, hbar) for w in (s.real, s.imag))
    return GridFunction(psi_grid.p_min, psi_grid.p_max, 1j * x_re - x_im)


def annihilation_residual(spec: StateSpec, p_min: float, p_max: float,
                          n_points: int, delta_p_factor: float = 1.0) -> float:
    """|| (x/dx + i p/dp) psi || / ||psi|| on the sampled state.

    x is applied with the symmetric ordering and the closed-form dx, dp.
    Converges to 0 at the stencil order for the true state;
    ``delta_p_factor`` != 1 is the wrong-state control and leaves an
    O(1) floor.
    """
    bound = 8.0 / math.sqrt(spec.zeta)
    if p_min > -bound or p_max < bound:
        raise DomainError(f"grid must cover [-8, 8]/sqrt(zeta) = [-{bound:.3g}, {bound:.3g}]")
    if n_points < 16 or not math.isfinite(p_max - p_min):
        raise DomainError("the grid needs >= 16 points between finite ends")
    p = np.linspace(p_min, p_max, n_points)
    h = (p_max - p_min) / (n_points - 1)
    # x / dx is free of hbar: with hbar in [1, 2) and dx scaled alike, both stay finite
    shift = _binade_shift(spec.hbar)
    hbar = math.ldexp(spec.hbar, shift)
    inv_dx = 1.0 / math.ldexp(state_delta_x(spec), shift)
    inv_dp = 1.0 / (state_delta_p(spec) * delta_p_factor)
    psi = state_psi(p, spec)
    r2 = np.empty_like(p)
    for sl, halo, at in _blocks(p.size):
        _, _, f, f1 = _f_f1(p[sl], spec.kappa.value, spec.zeta)
        x_psi = _x_block(psi[halo], h, at, f, ORDER_X3.A * f1, hbar)
        r2[sl] = np.square(x_psi * inv_dx + p[sl] * psi[sl] * inv_dp)
    return math.sqrt(float(np.sum(r2)) * h) / math.sqrt(float(np.sum(np.square(psi))) * h)


def commutator_residual(psi_grid: GridFunction, kappa: KappaLike, zeta: float,
                        hbar: float = 1.0) -> float:
    """|| [x, p] psi - i hbar f psi || / || hbar f psi || on any smooth state.

    The commutator is an operator identity, so this converges to 0 at
    the stencil order independently of the state.
    """
    p, h, s = psi_grid.p_values(), psi_grid.h, psi_grid.samples
    parts = [s.real, s.imag] if s.imag.any() else [s.real]
    k = as_kappa(kappa).value
    # the ratio is free of hbar: with hbar in [1, 2), both norms scale exactly and stay finite
    hbar = math.ldexp(hbar, _binade_shift(hbar))
    r2, t2 = np.zeros_like(p), np.zeros_like(p)
    for sl, halo, at in _blocks(p.size):
        _, _, f, f1 = _f_f1(p[sl], k, zeta)
        af1 = ORDER_X3.A * f1
        for w in parts:
            pw = p[halo] * w[halo]
            x_pw, x_w = _x_block(pw, h, at, f, af1, hbar), _x_block(w[halo], h, at, f, af1, hbar)
            target = hbar * f * w[sl]
            r2[sl] += np.square(x_pw - p[sl] * x_w - target)
            t2[sl] += np.square(target)
    target_norm = math.sqrt(float(np.sum(t2)) * h)
    if target_norm == 0.0:
        raise DomainError("commutator_residual needs a state whose hbar f psi is not 0 on the grid")
    return math.sqrt(float(np.sum(r2)) * h) / target_norm


# ---------------------------------------------------------------------------
# minimum-uncertainty ODE residual
# ---------------------------------------------------------------------------

def _ode_terms(p, k, z, dx, dp, hbar, c0, c1, f_parts):
    """ode_residual on one block of points; the general family's f unless f_parts."""
    if f_parts:
        s, (f, f1, f2) = _f_core(p, k, z)[2], f_parts
    else:
        s, f, f1, f2 = _general_parts(p, k, z, c0, c1)
    t1 = 4.0 * hbar**2 * z * (1.0 - np.square(p) * z * (k * k * np.square(p) * z + s)) * dp**2 * f**2
    t2 = s**3 * (4.0 * np.square(p) * dx**2 - hbar**2 * dp**2 * f1**2)
    t3 = 2.0 * hbar * s**2 * dp * f * (
        4.0 * hbar * p * z * dp * f1 - s * (2.0 * dx + hbar * dp * f2)
    )
    scale = np.maximum(np.abs(t1), np.maximum(np.abs(t2), np.abs(t3)))
    return (t1 + t2 + t3) / scale


@elementwise
def ode_residual(p, kappa: KappaLike, zeta: float, dx: float, dp: float,
                 hbar: float = 1.0, c1: float = 0.0,
                 f_parts: Optional[Tuple] = None):
    """Normalized residual of the minimum-uncertainty ODE at momentum p.

    By default f, f', f'' come from the general solution family with
    the given (dx, dp, c1), for which the residual vanishes to rounding.
    ``f_parts`` = (f, f', f'') arrays substitute an arbitrary trial
    function (e.g. f = 1) to show the equation rejects it. The raw
    left-hand side spans many orders of magnitude in p, so it is
    divided by the largest of its three additive terms.
    """
    k = as_kappa(kappa).value
    parts = () if f_parts is None else [np.asarray(part, dtype=float) for part in f_parts]
    c0 = None if parts else dx / StateSpec(k, zeta, hbar).delta_x_for(dp)
    # each term is a quadratic form in (hbar dp f, dx), f = c0 f_core + c1 X: hbar and the
    # larger of |c0|, |c1| into [1, 2), and hbar dp f and dx by the power of two that brings
    # their product near 1, scale every term exactly and keep each factor in the float range
    scale = 1.0 if c0 is None else max(abs(c0), abs(c1))
    h_shift, f_shift = _binade_shift(hbar), _binade_shift(scale)
    shift = -sum(math.frexp(v)[1] for v in (hbar, dp, scale, dx)) // 2
    if c0 is not None:
        c0, c1 = math.ldexp(c0, f_shift), math.ldexp(c1, f_shift)
    flat = [a.ravel() for a in np.broadcast_arrays(p, *parts)]
    out = np.empty_like(flat[0])
    try:
        hbar, dp = math.ldexp(hbar, h_shift), math.ldexp(dp, shift - h_shift - f_shift)
        dx = math.ldexp(dx, shift)
        for sl, _, _ in _blocks(out.size):
            out[sl] = _ode_terms(flat[0][sl], k, zeta, dx, dp, hbar, c0, c1,
                                 [a[sl] for a in flat[1:]])
    except OverflowError:
        # a scalar or its square past the float range: hbar dp f and dx lie too far apart
        raise DomainError("ode_residual's terms leave the float range: hbar dp f and dx "
                          "differ by more than it spans") from None
    return out.reshape(np.broadcast(p, *parts).shape)
