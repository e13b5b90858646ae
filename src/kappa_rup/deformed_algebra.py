"""Deformed Heisenberg algebra [x, p] = i hbar f(p) and its verification.

Everything here runs on the unit state (zeta = hbar = 1), in q = p sqrt(z). The
physically selected deformation, f(p) = sqrt(1 + k^2 z^2 p^4) + k^2 z p^2, is

    f~(q) = sqrt(1 + k^2 q^4) + k^2 q^2          (>= 1, even),

the member of the general family c0 f~(q) + c1 exp_k(q^2), c0 = dx / (hbar z
(1-k^2) dp), picked out by f -> 1 both for k -> 0 (c1 = 0) and for p -> 0 (c0 = 1).
The position operator for ordering parameter A, a plain float in [0, 1]
(ORDER_X1, ORDER_X2 and ORDER_X3 are 0, 1 and 1/2; A = 1/2 is symmetric, with
unit integration measure), is

    x = i hbar [ f d/dp + A f' ] = i hbar sqrt(z) [ f~ d/dq + A f~' ].

Grid versions of x use 4th-order finite differences (one-sided at the edges),
and three residuals measure how well the continuum identities survive:

  * annihilation_residual: (x/dx + i p/dp) psi = 0 on the minimum-uncertainty state;
  * commutator_residual: [x, p] psi = i hbar f psi on any smooth state;
  * ode_residual: the second-order ODE of the family, with analytic f', f''.

Each maps its momenta to q once, on entry (a grid by its two ends, so zeta = 1
adds no array pass). With dp = dq / sqrt(z), x/dx, p/dp and the commutator
identity are free of zeta and hbar; the ODE holds only dq = dp sqrt(z) and
dy = dx / (hbar sqrt(z)). Only q is squared, never p, so every zeta that
StateSpec takes leaves the residuals finite.

The residuals run in real arithmetic over blocks of 2^13 points, which stay in
L2, with the bits of the complex whole-grid form: each complex product they
replace had a zero part, the stencil scales by 1/(12h) as numpy's complex
division does, and each norm is one np.sum over the whole grid. Per block, q^2
and s = sqrt(1 + x^2), x = k q^2, are formed once, f'' only where it is used.
s takes numpy's sqrt, with x capped at 2^27 before squaring (past it, s is x):
within 1 ulp of libm's hypot(1, x) over the whole float range, and no overflow.

The derivatives in q (u = x / s in [0, 1), X = exp_k(q^2)), unit-tested against
central differences:

    f~'  = 2 k^2 q (1 + q^2 / s)            X'  = 2 q X / s
    f~'' = 2 k (k + u (3 - 2 u^2))          X'' = (2 X / s^3) (s^2 + 2 q^2 s - 2 k^2 q^4)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .coherent_states import delta_p as state_delta_p
from .coherent_states import delta_x as state_delta_x
from .coherent_states import psi as state_psi
from .errors import DomainError
from .kappa_math import elementwise, kappa_exp
from .params import KappaLike, StateSpec, as_kappa

__all__ = [
    "ORDER_X1",
    "ORDER_X2",
    "ORDER_X3",
    "GridFunction",
    "deformation_f",
    "deformation_f_derivatives",
    "robertson_bound",
    "ordering_weight",
    "convert_ordering",
    "apply_position_operator",
    "annihilation_residual",
    "commutator_residual",
    "ode_residual",
]


# the orderings x1, x2 and x3 (symmetric) as values of A
ORDER_X1, ORDER_X2, ORDER_X3 = 0.0, 1.0, 0.5


def _ordering_value(A: float) -> float:
    """A as a float: finite and in [0, 1], else DomainError."""
    a = float(A)
    if not (math.isfinite(a) and 0.0 <= a <= 1.0):
        raise DomainError(f"ordering parameter must lie in [0, 1], got {A!r}")
    return a


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
        if not np.isfinite(arr.view(float)).all():
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

def _f_core(q, k: float):
    """q^2, x = k q^2, s = sqrt(1 + x^2) and f~ = s + k x: the one place f is written."""
    q2 = np.square(q)
    x = k * q2
    # past 2^27, 1 + x^2 rounds to x^2 and s is x: the cap keeps x^2 finite
    s = np.maximum(np.sqrt(1.0 + np.square(np.minimum(x, 2.0**27))), x)
    return q2, x, s, s + k * x


def _f_f1(q, k: float):
    """(q^2, x, s, f~, f~') on an array of unit-state momenta, without f~''."""
    q2, x, s, f = _f_core(q, k)
    return q2, x, s, f, 2.0 * k * k * q * (1.0 + q2 / s)


def _general_parts(q, k: float, c0: float, c1: float):
    """(q^2, s, f~, f~', f~'') of the general family on the unit state, derivatives in q,
    c0 = dx / (hbar z (1-k^2) dp); c0 = 1, c1 = 0 is the selected deformation."""
    q2, x, s, f, f1 = _f_f1(q, k)
    # u = x / s in [0, 1), not q^6 / s^3: that overflows past |q| ~ 2e51
    u = x / s
    f2 = 2.0 * k * (k + u * (3.0 - 2.0 * np.square(u)))
    f, f1, f2 = c0 * f, c0 * f1, c0 * f2
    if c1 != 0.0:
        big_x = kappa_exp(q2, k)
        f = f + c1 * big_x
        f1 = f1 + c1 * 2.0 * q * big_x / s
        f2 = f2 + c1 * (2.0 * big_x / s**3) * (s * s + 2.0 * q2 * s - 2.0 * k**2 * q**4)
    return q2, s, f, f1, f2


@elementwise
def deformation_f_derivatives(p, kappa: KappaLike, zeta: float):
    """(f, f', f'') of the selected deformation, analytic: (f~, sqrt(z) f~', z f~'')."""
    r = math.sqrt(zeta)
    f, f1, f2 = _general_parts(p * r, as_kappa(kappa).value, 1.0, 0.0)[2:]
    return f, r * f1, zeta * f2


@elementwise
def deformation_f(p, kappa: KappaLike, zeta: float):
    """Commutator deformation f(p) = f~(p sqrt(z)), overflow-free."""
    return _f_core(p * math.sqrt(zeta), as_kappa(kappa).value)[3]


def robertson_bound(f_mean: float, hbar: float = 1.0) -> float:
    """Uncertainty bound (hbar/2) <f(p)> from the Robertson inequality.

    Rejects <f> < 1, which no state attains for the deformation above
    (a rounding-level dip below 1 is tolerated).
    """
    if f_mean < 1.0 - 1e-12:
        raise DomainError(f"mean deformation must be >= 1, got {f_mean}")
    return 0.5 * hbar * f_mean


def ordering_weight(p, A: float, kappa: KappaLike, zeta: float):
    """Momentum-space measure weight g(p) = f(p)^(2A-1) that makes the
    A-ordered position operator symmetric; g(0) = 1 for every A."""
    return deformation_f(p, kappa, zeta) ** (2.0 * _ordering_value(A) - 1.0)


def convert_ordering(phi: GridFunction, A_from: float, A_to: float,
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


def _unit_grid(p_min: float, p_max: float, n: int, r: float):
    """(q, step) of a grid at q = p r, r = sqrt(zeta): its ends scale, so r = 1 costs nothing."""
    q_min, q_max = p_min * r, p_max * r
    return np.linspace(q_min, q_max, n), (q_max - q_min) / (n - 1)


def _blocks(n: int):
    """(block, halo, at) per block: _derivative(s[halo], h)[at] is _derivative(s, h)[block]."""
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        hi = min(stop + 2, n)
        lo = max(min(start - 2, hi - 5), 0)  # two neighbours a side, five points at least
        yield slice(start, stop), slice(lo, hi), slice(start - lo, stop - lo)


def _derivative(s: np.ndarray, h: float) -> np.ndarray:
    """4th-order d/dq along axis 0 (one-sided at the edges), times 1/(12h)."""
    c = 1.0 / (12.0 * h)
    d = np.empty_like(s)
    d[2:-2] = (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) * c
    d[0] = (-25.0 * s[0] + 48.0 * s[1] - 36.0 * s[2] + 16.0 * s[3] - 3.0 * s[4]) * c
    d[1] = (-3.0 * s[0] - 10.0 * s[1] + 18.0 * s[2] - 6.0 * s[3] + s[4]) * c
    d[-2] = (3.0 * s[-1] + 10.0 * s[-2] - 18.0 * s[-3] + 6.0 * s[-4] - s[-5]) * c
    d[-1] = (25.0 * s[-1] - 48.0 * s[-2] + 36.0 * s[-3] - 16.0 * s[-4] + 3.0 * s[-5]) * c
    return d


def _x_block(w, h, at, f, af1):
    return f * _derivative(w, h)[at] + af1 * w[at]


def apply_position_operator(psi_grid: GridFunction, A: float,
                            kappa: KappaLike, zeta: float,
                            hbar: float = 1.0) -> GridFunction:
    """x psi = i hbar [f psi' + A f' psi] sampled on the grid: hbar sqrt(zeta) times the
    unit state's operator f~ d/dq + A f~' at q = p sqrt(zeta)."""
    r = math.sqrt(zeta)
    q, h = _unit_grid(psi_grid.p_min, psi_grid.p_max, psi_grid.n_points, r)
    f, f1 = _f_f1(q, as_kappa(kappa).value)[3:]
    af1, s = _ordering_value(A) * f1, psi_grid.samples
    # x psi = i (X re + i X im), X the real operator hbar sqrt(zeta) (f~ d/dq + A f~')
    x_re, x_im = (hbar * r * _x_block(w, h, slice(None), f, af1) for w in (s.real, s.imag))
    return GridFunction(psi_grid.p_min, psi_grid.p_max, 1j * x_re - x_im)


def annihilation_residual(spec: StateSpec, p_min: float, p_max: float,
                          n_points: int, delta_p_factor: float = 1.0) -> float:
    """|| (x/dx + i p/dp) psi || / ||psi|| on the sampled state.

    x is applied with the symmetric ordering and the closed-form dx, dp.
    Converges to 0 at the stencil order for the true state;
    ``delta_p_factor`` != 1 is the wrong-state control and leaves an
    O(1) floor. Free of zeta and hbar, it runs on the unit state.
    """
    bound = 8.0 / math.sqrt(spec.zeta)
    if p_min > -bound or p_max < bound:
        raise DomainError(f"grid must cover [-8, 8]/sqrt(zeta) = [-{bound:.3g}, {bound:.3g}]")
    if n_points < 16 or not math.isfinite(p_max - p_min):
        raise DomainError("the grid needs >= 16 points between finite ends")
    unit = StateSpec(spec.kappa, 1.0)
    q, h = _unit_grid(p_min, p_max, n_points, math.sqrt(spec.zeta))
    inv_dx = 1.0 / state_delta_x(unit)
    inv_dp = 1.0 / (state_delta_p(unit) * delta_p_factor)
    psi = state_psi(q, unit)
    r2 = np.empty_like(q)
    for sl, halo, at in _blocks(q.size):
        f, f1 = _f_f1(q[sl], spec.kappa.value)[3:]
        x_psi = _x_block(psi[halo], h, at, f, ORDER_X3 * f1)
        r2[sl] = np.square(x_psi * inv_dx + q[sl] * psi[sl] * inv_dp)
    return math.sqrt(float(np.sum(r2)) * h) / math.sqrt(float(np.sum(np.square(psi))) * h)


def commutator_residual(psi_grid: GridFunction, kappa: KappaLike, zeta: float,
                        hbar: float = 1.0) -> float:
    """|| [x, p] psi - i hbar f psi || / || hbar f psi || on any smooth state.

    The commutator is an operator identity, so this converges to 0 at
    the stencil order independently of the state. It runs as hbar [y, q],
    y = x / (hbar sqrt(zeta)) = i (f~ d/dq + A f~'), free of zeta and hbar.
    """
    q, h = _unit_grid(psi_grid.p_min, psi_grid.p_max, psi_grid.n_points, math.sqrt(zeta))
    s = psi_grid.samples
    parts = [s.real, s.imag] if s.imag.any() else [s.real]
    k = as_kappa(kappa).value
    r2, t2 = np.zeros_like(q), np.zeros_like(q)
    for sl, halo, at in _blocks(q.size):
        f, f1 = _f_f1(q[sl], k)[3:]
        af1 = ORDER_X3 * f1
        for w in parts:
            qw = q[halo] * w[halo]
            y_qw, y_w = _x_block(qw, h, at, f, af1), _x_block(w[halo], h, at, f, af1)
            target = f * w[sl]
            r2[sl] += np.square(y_qw - q[sl] * y_w - target)
            t2[sl] += np.square(target)
    target_norm = math.sqrt(float(np.sum(t2)) * h)
    if target_norm == 0.0:
        raise DomainError("commutator_residual needs a state whose f psi is not 0 on the grid")
    return math.sqrt(float(np.sum(r2)) * h) / target_norm


# ---------------------------------------------------------------------------
# minimum-uncertainty ODE residual
# ---------------------------------------------------------------------------

def _ode_terms(q, k, dy, dq, c0, c1, f_parts):
    """ode_residual on one block in q; the general family's f~ unless f_parts (d/dq)."""
    if f_parts:
        (q2, _, s, _), (f, f1, f2) = _f_core(q, k), f_parts
    else:
        q2, s, f, f1, f2 = _general_parts(q, k, c0, c1)
    t1 = 4.0 * (1.0 - q2 * (k * k * q2 + s)) * dq**2 * f**2
    t2 = s**3 * (4.0 * q2 * dy**2 - dq**2 * f1**2)
    t3 = 2.0 * s**2 * dq * f * (4.0 * q * dq * f1 - s * (2.0 * dy + dq * f2))
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
    c0 = 0.0 if parts else dx / StateSpec(k, zeta, hbar).delta_x_for(dp)
    r = math.sqrt(zeta)
    flat = [a.ravel() for a in np.broadcast_arrays(p, *parts)]
    # onto the unit state, q = p sqrt(zeta) and f_parts' d/dp to d/dq = d/dp / sqrt(zeta)
    flat = flat if r == 1.0 else [flat[0] * r] + [a / r**i for i, a in enumerate(flat[1:])]
    # each term is a quadratic form in (dq f~, dy), f~ = c0 f~_core + c1 X: max(|c0|, |c1|) into
    # [1, 2) against dq, then dq and dy by the power of two that brings their product near 1
    f_shift = 0 if parts else 1 - math.frexp(max(abs(c0), abs(c1)))[1]
    c0, c1 = math.ldexp(c0, f_shift), math.ldexp(c1, f_shift)
    out = np.empty_like(flat[0])
    try:
        dq, dy = math.ldexp(dp * r, -f_shift), dx / hbar / r
        shift = -(math.frexp(dq)[1] + math.frexp(dy)[1]) // 2
        dq, dy = math.ldexp(dq, shift), math.ldexp(dy, shift)
        for sl, _, _ in _blocks(out.size):
            out[sl] = _ode_terms(flat[0][sl], k, dy, dq, c0, c1, [a[sl] for a in flat[1:]])
    except OverflowError:
        raise DomainError("ode_residual's terms leave the float range: dp sqrt(zeta) f and "
                          "dx / (hbar sqrt(zeta)) differ by more than it spans") from None
    return out.reshape(np.broadcast(p, *parts).shape)
