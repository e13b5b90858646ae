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

The residuals and the position operator run in real arithmetic over blocks of
2^13 points, which stay in L2, with the bits of the complex whole-grid form:
each complex product they replace had a zero part, the stencil scales by 1/(12h)
as numpy's complex division does, and each norm is one np.sum over the whole
grid. Per block, q^2 and s = sqrt(1 + x^2), x = k q^2, are formed once, f'' only
where it is used. s and f~ = s + k x come from kappa_math._deformation_s_f, which the
quadrature's ln f takes too, so f has one evaluation path: numpy's sqrt, with x
capped at 2^27 before squaring (past it, s is x), within 1 ulp of libm's hypot(1, x)
over the whole float range, and no overflow.

No kernel allocates per operation. Each call takes a few scratch rows of one
block (and its halo of two points a side) once, and every numpy operation writes
with out= into one of them or into the block's slice of a result: besides q and
its result, a residual holds only its whole-grid sums' arrays (psi^2 in
annihilation_residual, whose psi runs per halo block on psi's own block kernel).
Each operation keeps the operands and order of the whole-array expression it
replaced (products and sums may swap, which commutes exactly), so every value
keeps its bits. The stencil's one-sided rows are formed only at the grid's ends.

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
from .coherent_states import _psi_into, normalization_constant
from .errors import DomainError
from .kappa_math import _BLOCK, _asinh_k, _deformation_s_f, elementwise
from .params import KappaLike, StateSpec, _real, as_kappa, positive_float

__all__ = [
    "ORDER_X1",
    "ORDER_X2",
    "ORDER_X3",
    "GridFunction",
    "deformation_f",
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
    a = _real(A)
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
        if not (self.p_max > self.p_min and math.isfinite(self.p_max - self.p_min)):
            raise DomainError("GridFunction needs p_max > p_min, a finite span apart")
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

def _scratch(count: int, shape):
    """count float64 buffers of one shape, views of one allocation."""
    buf = np.empty((count,) + tuple(shape))
    return [buf[i, ...] for i in range(count)]


def _f_core(q, k: float, rows):
    """q^2, x = k q^2, s = sqrt(1 + x^2) and f~ = s + k x, s and f~ from the package's one
    f evaluation. Each is formed in place in one of rows[:4], buffers of q's shape."""
    q2, x, s, f = rows[:4]
    np.multiply(np.square(q, out=q2), k, out=x)
    return (q2, x, *_deformation_s_f(x, k, s, f))


def _f_f1(q, k: float, rows):
    """(q^2, x, s, f~, f~') on an array of unit-state momenta, without f~''; in rows[:6],
    the last one scratch."""
    q2, x, s, f = _f_core(q, k, rows)
    f1, tmp = rows[4], rows[5]
    # f~' = 2 k^2 q (1 + q^2 / s)
    np.add(np.divide(q2, s, out=f1), 1.0, out=f1)
    return q2, x, s, f, np.multiply(np.multiply(q, 2.0 * k * k, out=tmp), f1, out=f1)


def _general_parts(q, k: float, c0: float, c1: float, rows):
    """(q^2, s, f~, f~', f~'') of the general family on the unit state, derivatives in q,
    c0 = dx / (hbar z (1-k^2) dp); c0 = 1, c1 = 0 is the selected deformation. In rows[:7]
    (rows[:8] if c1 != 0), buffers of q's shape, of which rows 1 and 5 end as scratch."""
    q2, u, s, f, f1 = _f_f1(q, k, rows)
    tmp, f2 = rows[5], rows[6]
    # u = x / s in [0, 1), not q^6 / s^3: that overflows past |q| ~ 2e51
    np.divide(u, s, out=u)
    # f~'' = 2 k (k + u (3 - 2 u^2))
    np.subtract(3.0, np.multiply(np.square(u, out=f2), 2.0, out=f2), out=f2)
    np.multiply(np.add(np.multiply(u, f2, out=f2), k, out=f2), 2.0 * k, out=f2)
    if c0 != 1.0:
        for part in (f, f1, f2):
            np.multiply(part, c0, out=part)
    if c1 != 0.0:
        big_x = np.exp(_asinh_k(q2, k, out=rows[7]), out=rows[7])  # exp_k(q^2)
        np.add(f, np.multiply(big_x, c1, out=tmp), out=f)
        # X' = 2 q X / s
        np.multiply(np.multiply(q, c1 * 2.0, out=tmp), big_x, out=tmp)
        np.add(f1, np.divide(tmp, s, out=tmp), out=f1)
        # X'' = (2 X / s^3) (s s + 2 q^2 s - 2 k^2 q^4), with big_x and u as scratch
        np.divide(np.multiply(big_x, 2.0, out=big_x), np.power(s, 3, out=tmp), out=big_x)
        np.multiply(big_x, c1, out=big_x)
        np.add(np.multiply(s, s, out=u), np.multiply(np.multiply(q2, 2.0, out=tmp), s, out=tmp),
               out=u)
        np.subtract(u, np.multiply(np.power(q, 4, out=tmp), 2.0 * k**2, out=tmp), out=u)
        np.add(f2, np.multiply(big_x, u, out=big_x), out=f2)
    return q2, s, f, f1, f2


@elementwise
def deformation_f(p, kappa: KappaLike, zeta: float):
    """Commutator deformation f(p) = f~(p sqrt(z)), overflow-free."""
    x = np.multiply(p, math.sqrt(positive_float("zeta", zeta)), out=np.empty_like(p))
    k = as_kappa(kappa).value
    # q, then x = k q^2, then f~ in one buffer: with s, two arrays of p's size
    np.multiply(np.square(x, out=x), k, out=x)
    return _deformation_s_f(x, k, np.empty_like(x), x)[1]


def robertson_bound(f_mean: float, hbar: float = 1.0) -> float:
    """Uncertainty bound (hbar/2) <f(p)> from the Robertson inequality.

    Rejects an <f> that is not finite, and <f> < 1, which no state attains
    for the deformation above (a rounding-level dip below 1 is tolerated).
    """
    f = _real(f_mean)
    if not 1.0 - 1e-12 <= f < math.inf:
        raise DomainError(f"mean deformation must be finite and >= 1, got {f_mean!r}")
    return 0.5 * positive_float("hbar", hbar) * f


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

def _unit_grid(p_min: float, p_max: float, n: int, r: float):
    """(q, step) of a grid at q = p r, r = sqrt(zeta): its ends scale, so r = 1 costs nothing.
    DomainError unless the span in q is finite (and with it both ends)."""
    q_min, q_max = p_min * r, p_max * r
    if not math.isfinite(q_max - q_min):
        raise DomainError(f"the grid [{p_min!r}, {p_max!r}] times sqrt(zeta) = {r!r} "
                          "leaves the float range")
    return np.linspace(q_min, q_max, n), (q_max - q_min) / (n - 1)


def _blocks(n: int):
    """(block, halo, at) per block: _derivative(s[halo], h, at, ...) is d/dq of s at block."""
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        hi = min(stop + 2, n)
        lo = max(min(start - 2, hi - 5), 0)  # two neighbours a side, five points at least
        yield slice(start, stop), slice(lo, hi), slice(start - lo, stop - lo)


def _derivative(w, h: float, at: slice, out, tmp):
    """4th-order d/dq of w at w[at], times 1/(12h), into out (tmp: scratch of its length).
    Central where w holds two neighbours a side; one-sided at w's first and last two
    points, which are the grid's own (a halo holds two neighbours past its block)."""
    c, n = 1.0 / (12.0 * h), w.size
    lo = max(at.start, 2)
    hi = max(min(at.stop, n - 2), lo)
    d, t = out[lo - at.start:hi - at.start], tmp[:hi - lo]
    np.subtract(w[lo - 2:hi - 2], np.multiply(w[lo - 1:hi - 1], 8.0, out=d), out=d)
    np.add(d, np.multiply(w[lo + 1:hi + 1], 8.0, out=t), out=d)
    np.multiply(np.subtract(d, w[lo + 2:hi + 2], out=d), c, out=d)
    if at.start == 0:
        out[0] = (-25.0 * w[0] + 48.0 * w[1] - 36.0 * w[2] + 16.0 * w[3] - 3.0 * w[4]) * c
        out[1] = (-3.0 * w[0] - 10.0 * w[1] + 18.0 * w[2] - 6.0 * w[3] + w[4]) * c
    if at.start <= n - 2 < at.stop:
        out[n - 2 - at.start] = (3.0 * w[-1] + 10.0 * w[-2] - 18.0 * w[-3] + 6.0 * w[-4]
                                 - w[-5]) * c
    if at.stop == n:
        out[n - 1 - at.start] = (25.0 * w[-1] - 48.0 * w[-2] + 36.0 * w[-3] - 16.0 * w[-4]
                                 + 3.0 * w[-5]) * c
    return out


def _x_block(w, h, at, f, af1, out, tmp):
    """f~ w' + A f~' w at w[at], into out (tmp: scratch of its length)."""
    d = _derivative(w, h, at, out, tmp)
    return np.add(np.multiply(f, d, out=d), np.multiply(af1, w[at], out=tmp), out=d)


def apply_position_operator(psi_grid: GridFunction, A: float,
                            kappa: KappaLike, zeta: float,
                            hbar: float = 1.0) -> GridFunction:
    """x psi = i hbar [f psi' + A f' psi] sampled on the grid: hbar sqrt(zeta) times the
    unit state's operator f~ d/dq + A f~' at q = p sqrt(zeta)."""
    r, k, a = math.sqrt(positive_float("zeta", zeta)), as_kappa(kappa).value, _ordering_value(A)
    hbar = positive_float("hbar", hbar)
    q, h = _unit_grid(psi_grid.p_min, psi_grid.p_max, psi_grid.n_points, r)
    s = psi_grid.samples
    out, i_x_re = np.empty_like(s), np.empty(min(q.size, _BLOCK), dtype=complex)
    rows = _scratch(6, (min(q.size, _BLOCK),))
    for sl, halo, at in _blocks(q.size):
        b = [row[:sl.stop - sl.start] for row in rows]
        x_re, x_im, _, f, f1 = _f_f1(q[sl], k, b)  # q^2, x and the last row: scratch
        # x psi = i (X re + i X im), X the real operator hbar sqrt(zeta) (f~ d/dq + A f~')
        af1 = np.multiply(f1, a, out=f1)
        for w, x_w in ((s.real, x_re), (s.imag, x_im)):
            np.multiply(_x_block(w[halo], h, at, f, af1, x_w, b[5]), hbar * r, out=x_w)
        np.subtract(np.multiply(1j, x_re, out=i_x_re[:x_re.size]), x_im, out=out[sl])
    return GridFunction(psi_grid.p_min, psi_grid.p_max, out)


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
    unit, k = StateSpec(spec.kappa, 1.0), spec.kappa.require_moment_safe("annihilation_residual")
    q, h = _unit_grid(p_min, p_max, n_points, math.sqrt(spec.zeta))
    inv_dx = 1.0 / state_delta_x(unit)
    inv_dp = 1.0 / (state_delta_p(unit) * delta_p_factor)
    n_const = normalization_constant(unit)
    r2, psi2 = np.empty_like(q), np.empty_like(q)
    rows = _scratch(7, (min(q.size, _BLOCK + 4),))
    for sl, halo, at in _blocks(q.size):
        psi = _psi_into(q[halo], k, 1.0, n_const, rows[6][:halo.stop - halo.start])
        q2, x, _, f, f1 = _f_f1(q[sl], k, [row[:sl.stop - sl.start] for row in rows])
        # q^2 and x are scratch from here on
        x_psi = _x_block(psi, h, at, f, np.multiply(f1, ORDER_X3, out=f1), q2, x)
        q_psi = np.multiply(np.multiply(q[sl], psi[at], out=x), inv_dp, out=x)
        np.square(np.add(np.multiply(x_psi, inv_dx, out=x_psi), q_psi, out=x_psi), out=r2[sl])
        np.square(psi[at], out=psi2[sl])
    return math.sqrt(float(np.sum(r2)) * h) / math.sqrt(float(np.sum(psi2)) * h)


def commutator_residual(psi_grid: GridFunction, kappa: KappaLike, zeta: float,
                        hbar: float = 1.0) -> float:
    """|| [x, p] psi - i hbar f psi || / || hbar f psi || on any smooth state.

    The commutator is an operator identity, so this converges to 0 at
    the stencil order independently of the state. It runs as hbar [y, q],
    y = x / (hbar sqrt(zeta)) = i (f~ d/dq + A f~'), free of zeta and hbar: hbar is
    checked like every other hbar, but the residual does not depend on it.
    """
    r = math.sqrt(positive_float("zeta", zeta))
    positive_float("hbar", hbar)
    q, h = _unit_grid(psi_grid.p_min, psi_grid.p_max, psi_grid.n_points, r)
    s = psi_grid.samples
    parts = [s.real, s.imag] if s.imag.any() else [s.real]
    k = as_kappa(kappa).value
    r2, t2 = np.empty_like(q), np.empty_like(q)
    rows = _scratch(8, (min(q.size, _BLOCK + 4),))
    for sl, halo, at in _blocks(q.size):
        b = [row[:sl.stop - sl.start] for row in rows]
        y_qw, y_w, _, f, f1 = _f_f1(q[sl], k, b)  # q^2, x and the last row: scratch
        af1, target, tmp = np.multiply(f1, ORDER_X3, out=f1), b[5], b[6]
        qw = rows[7][:halo.stop - halo.start]
        for i, w in enumerate(parts):
            _x_block(np.multiply(q[halo], w[halo], out=qw), h, at, f, af1, y_qw, tmp)
            _x_block(w[halo], h, at, f, af1, y_w, tmp)
            np.multiply(f, w[sl], out=target)
            np.subtract(y_qw, np.multiply(q[sl], y_w, out=y_w), out=y_qw)
            np.subtract(y_qw, target, out=y_qw)
            if i:
                np.add(r2[sl], np.square(y_qw, out=y_qw), out=r2[sl])
                np.add(t2[sl], np.square(target, out=target), out=t2[sl])
            else:  # the first part's squares straight into the sums
                np.square(y_qw, out=r2[sl])
                np.square(target, out=t2[sl])
    target_norm = math.sqrt(float(np.sum(t2)) * h)
    if target_norm == 0.0:
        raise DomainError("commutator_residual needs a state whose f psi is not 0 on the grid")
    return math.sqrt(float(np.sum(r2)) * h) / target_norm


# ---------------------------------------------------------------------------
# minimum-uncertainty ODE residual
# ---------------------------------------------------------------------------

def _ode_terms(q, k, dy, dq, parts, out):
    """The ODE's normalized residual on one block in q, into out, from parts = (q^2, s, f~,
    f~', f~'', scratch, scratch): seven rows of the block's length, all overwritten."""
    q2, s, f, f1, f2, t1, tmp = parts
    dq2, dy2 = dq**2, dy**2
    # t1 = 4 (1 - q^2 (k^2 q^2 + s)) dq^2 f^2
    np.multiply(q2, np.add(np.multiply(q2, k * k, out=t1), s, out=t1), out=t1)
    np.multiply(np.multiply(np.subtract(1.0, t1, out=t1), 4.0, out=t1), dq2, out=t1)
    np.multiply(t1, np.square(f, out=tmp), out=t1)
    # t2 = s^3 (4 q^2 dy^2 - dq^2 f'^2), in q2
    np.multiply(np.square(f1, out=tmp), dq2, out=tmp)
    t2 = np.subtract(np.multiply(np.multiply(q2, 4.0, out=q2), dy2, out=q2), tmp, out=q2)
    np.multiply(np.power(s, 3, out=tmp), t2, out=t2)
    # t3 = 2 s^2 dq f (4 q dq f' - s (2 dy + dq f'')), in f1
    np.multiply(np.multiply(np.multiply(q, 4.0, out=tmp), dq, out=tmp), f1, out=tmp)
    np.multiply(s, np.add(np.multiply(f2, dq, out=f2), 2.0 * dy, out=f2), out=f2)
    np.subtract(tmp, f2, out=tmp)
    t3 = np.multiply(np.multiply(np.square(s, out=f1), 2.0, out=f1), dq, out=f1)
    np.multiply(np.multiply(t3, f, out=t3), tmp, out=t3)
    scale = np.maximum(np.abs(t1, out=s),
                       np.maximum(np.abs(t2, out=f), np.abs(t3, out=f2), out=f), out=s)
    return np.divide(np.add(np.add(t1, t2, out=out), t3, out=out), scale, out=out)


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
    r, hbar = math.sqrt(positive_float("zeta", zeta)), positive_float("hbar", hbar)
    parts = () if f_parts is None else [np.asarray(part, dtype=float) for part in f_parts]
    dx = positive_float("dx", dx)
    if parts:  # without them, delta_x_for below holds dp to the dx it gives
        dp = positive_float("dp", dp)
    c0 = 0.0 if parts else dx / StateSpec(k, zeta, hbar).delta_x_for(dp)
    flat = [a.ravel() for a in np.broadcast_arrays(p, *parts)]
    # each term is a quadratic form in (dq f~, dy), f~ = c0 f~_core + c1 X: max(|c0|, |c1|) into
    # [1, 2) against dq, then dq and dy by the power of two that brings their product near 1
    f_shift = 0 if parts else 1 - math.frexp(max(abs(c0), abs(c1)))[1]
    c0, c1 = math.ldexp(c0, f_shift), math.ldexp(c1, f_shift)
    out = np.empty_like(flat[0])
    # rows 0-7 as _general_parts lays them out (f~, f~', f~'' in 3, 4 and 6; 1 and 5 left
    # as scratch), row 8 for q when zeta != 1
    rows = _scratch(9, (min(out.size, _BLOCK),))
    try:
        dq, dy = math.ldexp(dp * r, -f_shift), dx / hbar / r
        shift = -(math.frexp(dq)[1] + math.frexp(dy)[1]) // 2
        dq, dy = math.ldexp(dq, shift), math.ldexp(dy, shift)
        for sl, _, _ in _blocks(out.size):
            b = [row[:sl.stop - sl.start] for row in rows]
            # onto the unit state: q = p sqrt(zeta), and f_parts' d/dp to d/dq = d/dp / sqrt(zeta)
            q = flat[0][sl] if r == 1.0 else np.multiply(flat[0][sl], r, out=b[8])
            if parts:
                q2, _, s, _ = _f_core(q, k, b)
                f, f1, f2 = (np.divide(a[sl], r**i, out=row)
                             for i, (a, row) in enumerate(zip(flat[1:], (b[3], b[4], b[6]))))
            else:
                q2, s, f, f1, f2 = _general_parts(q, k, c0, c1, b)
            _ode_terms(q, k, dy, dq, (q2, s, f, f1, f2, b[1], b[5]), out[sl])
    except OverflowError:
        raise DomainError("ode_residual's terms leave the float range: dp sqrt(zeta) f and "
                          "dx / (hbar sqrt(zeta)) differ by more than it spans") from None
    return out.reshape(np.broadcast(p, *parts).shape)
