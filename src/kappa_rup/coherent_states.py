"""Minimum-uncertainty kappa-Gaussian states in momentum space.

The state family is

    psi(p) = N * [exp_k(-zeta p^2)]^(1/2),

real, even, positive, with a characteristic inverse squared momentum
scale zeta > 0. For k = 0 it is the ordinary Gaussian wave packet; for
k > 0 the tails turn into power laws, psi ~ |p|^(-1/k).

Closed forms implemented here, with a = 1/(2k):

    N^2   = (2+k) sqrt(k zeta / 2 pi) Gamma(a+1/4) / Gamma(a-1/4)
    <p^2> = (2+k) / (4 k zeta (2+3k))
            * Gamma(a-3/4) Gamma(a+1/4) / [Gamma(a+3/4) Gamma(a-1/4)]
    dx    = hbar zeta (1-k^2) dp
    F(k)  = (1-k^2)/(2k)
            * Gamma(a-3/4) Gamma(a+5/4) / [Gamma(a+7/4) Gamma(a-1/4)]

<p^2> (and everything built on it) exists only for k < 2/3.

Each is its k = 0 value times exp(R(k)), R(0) = 0, with R evaluated
without the ln Gamma differences that cancel as k -> 0 (_LogGammaRatio),
so F - 1 and <p^2> - 1/(2 zeta) keep full relative accuracy via expm1.
All of them rest on two such exponents, ln N^2 and ln 2 zeta <p^2>, and each
is evaluated once per kappa: it keeps its last kappa's value. One entry is
enough because every caller (each closed form, moment_report, table, verify)
works through one kappa at a time.

Each closed form has an independent quadrature route on the unit state,
q = p sqrt(zeta): no integrand sees zeta, and <p^(2m)> = <q^(2m)> / zeta^m.
One sinh-sinh rule in w = ln q, centred on 0, w = sinh(pi/2 sinh t), covers
the whole real line. The integrand, a power of q at both ends, decays
exponentially in |w| and so double-exponentially in t, and all magnitudes
stay in log space (no overflow for any k < 2/3). The rule halves its step
until two levels agree to rel_tol / 2; the last change is its error estimate.
All levels' nodes, and their 2w, are built once per process, in one array each, and
the rule's plan of calls (each call's levels, node views and counts) once per value of
_FIRST_CALL_LEVEL and _MAX_LEVEL. The rule evaluates its running integrals on levels
0-6 in one call, all that nearly every state needs at rel_tol 1e-10, as the rows of one
array, each value exp(ln weight + ((w + ln N^2) + ln-density)) summed in that order.
A call's work: one allocation for the rows and three scratch rows ((w + ln N^2) +
ln-density is formed in the <p^0> row), one exp, one product with dw, one reduceat for
all level sums, and a scan of each integral's level sums from _MIN_LEVEL on. Each
node's work is done once for all rows: X = k q^2 = k e^(2w), with 2w capped at
40 - ln k, feeds both the ln-density -asinh(X)/k and ln f, whose s = sqrt(1 + X^2)
and f~ = s + k X come from kappa_math._deformation_s_f, the one f evaluation the
grid kernels use too. Past the cap each takes its asymptote, ln 2X or ln (1+k)X, as
2w plus a constant, rounded once.
Against 40-digit mpmath both are within 2 ulp of their size on every level 0-6 node.
A level sum is np.add.reduceat(values * dw, [0])[0] over that level's nodes, the first
term plus numpy's pairwise sum of the rest, and one reduceat takes all of a call's.
Another summation order (a BLAS dot product, say) moves an integral by a few ulp, and
its stopping level only where its last change sits at the threshold. Next to k = 2/3,
where the tail carries most of <p^2> and <f>, a node's exponent is terms of size 3w
that cancel to a small one, and a change in how they round moves an integral by tens
of ulp: over 3000 moment-sweep states, 48 at most for k > 0.65, 16 for k in 0.6-0.65,
4 below.
moment_report's three integrals share one sweep and report the largest relative error
estimate and the rule's node count where the last one stopped (quad_error_estimate,
quad_evals).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergentIntegralError, DomainError, NonConvergenceError
from .kappa_math import _BLOCK, _asinh_k, _deformation_s_f, elementwise
from .params import KappaLike, StateSpec, as_kappa

__all__ = [
    "MomentReport", "normalization_constant", "psi", "second_moment", "second_moment_excess",
    "delta_p", "delta_x", "f_expectation", "f_excess", "tail_exponent_estimate", "moment_report",
]

_TAIL_POINTS = 41  # tail_exponent_estimate's fit points

# The double-exponential rule's t range, its first level that may stop and
# its level cap (step 2^-level). At |t| = 4, |w - c| ~ 2e18: an integrand
# decaying like exp(-a |w|) is cut off below 1e-17 for any a > 2e-17.
_T_MAX = 4
_MIN_LEVEL = 3
_MAX_LEVEL = 10
_NODE_LEVELS = _MAX_LEVEL + 1
# the first call's levels: at rel_tol 1e-10 nearly every state stops at level 5 or 6
_FIRST_CALL_LEVEL = 6
_NODES: dict = {}  # "all": (w, dw, 2w), 8193 nodes, 192 KiB; (first, last) -> _nodes; plans


def _log_profile(p, k: float, z: float, out):
    """ln exp_k(-zeta p^2), the unnormalized ln-density of the state, in place in ``out``."""
    # not z p^2 (p^2 overflows past |p| ~ 1.3e154), nor k z (underflows)
    q = np.multiply(math.sqrt(z), p, out=out)
    return np.negative(_asinh_k(np.square(q, out=q), k, out=q), out=q)


def _psi_into(p, k: float, z: float, n_const: float, out):
    """N exp(ln-profile / 2) at the momenta p, written into ``out``: psi's arithmetic on
    one block, in place, shared with annihilation_residual's halo blocks."""
    np.multiply(_log_profile(p, k, z, out), 0.5, out=out)
    return np.multiply(np.exp(out, out=out), n_const, out=out)


def normalization_constant(spec: StateSpec) -> float:
    """N such that the state integrates to unit probability."""
    return (spec.zeta / math.pi) ** 0.25 * math.exp(0.5 * _LN_N2(spec.kappa.value))


@elementwise
def psi(p, spec: StateSpec):
    """Wavefunction amplitude at momentum p (real, positive, even).

    Evaluated as N * exp(-asinh(k zeta p^2) / (2k)), i.e. always on the
    decaying branch of the deformed exponential. It runs over blocks of 2^13
    points of the flattened p, each computed in place in its slice of the one
    output array, so the only memory it takes is that output (and, for a p that
    is not C-contiguous, one block read out of it at a time); every value has the
    bits of the whole-array expression.
    """
    k, z, n_const = spec.kappa.value, spec.zeta, normalization_constant(spec)
    out = np.empty(p.shape)  # C-contiguous, so its flat view is no copy
    flat, src = out.reshape(-1), p.reshape(-1) if p.flags.c_contiguous else p.flat
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        _psi_into(src[block], k, z, n_const, flat[block])
    return out


# ---------------------------------------------------------------------------
# closed-form moments
# ---------------------------------------------------------------------------

# Bernoulli numbers B_0 .. B_18 (B_2, B_4, ... as numerator/denominator; the
# odd ones past B_1 vanish). For a >= 12 the series alone is used, and its
# 18 terms leave an error < 1e-20.
_BERNOULLI = {0: 1.0, 1: -0.5, **{2 * i: n / d for i, (n, d) in enumerate(
    ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
     (-3617, 510), (43867, 798)), 1)}}
_SERIES_MIN_A = 12.0
_SERIES_TERMS = 18


class _LogGammaRatio:
    """R(k) = ln[prod Gamma(a+x) / prod Gamma(a+y)] - (sum x - sum y) ln a,
    a = 1/t = 1/(2k), for as many x as y; R(0) = 0.

    For a >= 12, R is the Tricomi-Erdelyi series in t, with coefficients
    (-1)^(n+1) [sum B_{n+1}(x) - sum B_{n+1}(y)] / (n(n+1)) (B_n the
    Bernoulli polynomials): each order cancels once, in its coefficient.
    For a < 12, Gamma(a+x) = Gamma(b+x) / prod_{j<m} (a+x+j) lifts a to
    b = a + m >= 12; pairing each x with a y leaves log1p terms of size ~t.
    """

    def __init__(self, xs, ys):
        xs, ys = sorted(xs), sorted(ys)
        shift = sum(xs) - sum(ys)
        # step j: shift * ln((a+j+1)/(a+j)), summing to shift * ln(b/a), and each
        # pair's ln((a+y+j)/(a+x+j)); all are w ln(1 + d t / (1 + c t)), c += j
        step = [(shift, 1.0, 0.0)] + [(1.0, y - x, x) for x, y in zip(xs, ys)]
        self.steps = tuple((w, d, c + j) for j in range(int(_SERIES_MIN_A)) for w, d, c in step)
        self.per_step = len(step)
        gaps = [sum(x**p for x in xs) - sum(y**p for y in ys)
                for p in range(_SERIES_TERMS + 2)]
        self.coeffs = [
            (-1) ** (n + 1) / (n * (n + 1)) * sum(
                math.comb(n + 1, i) * _BERNOULLI.get(i, 0.0) * gaps[n + 1 - i]
                for i in range(n + 1))
            for n in range(_SERIES_TERMS, 0, -1)
        ]

    def __call__(self, k: float) -> float:
        t = 2.0 * k
        m = math.ceil(_SERIES_MIN_A - 1.0 / t) if t * _SERIES_MIN_A > 1.0 else 0
        # t_hi on a 2^-40 grid makes 1 + c t_hi exact for the quarter-integers c
        # here, so 1 + c t rounds once even next to its zero at a + x -> 0
        t_hi = math.floor(t * 2.0**40) * 2.0**-40
        t_lo = t - t_hi
        log1p = math.log1p
        terms = [w * log1p(d * t / (1.0 + c * t_hi + c * t_lo))
                 for w, d, c in self.steps[: m * self.per_step]]
        t_b, series = t / (1.0 + m * t), 0.0
        for c in self.coeffs:  # highest order first
            series = series * t_b + c
        return math.fsum(terms + [series * t_b])


# ln(N^2 / sqrt(zeta/pi)) and ln(2 zeta <p^2>), each with its prefactor
# (2+k)/2 = (a + 1/4)/a or (2+k)/(2+3k) = (a + 1/4)/(a + 3/4) written as
# Gamma ratios too; F = (1 - k^2) 2 zeta <p^2>. Each keeps its last kappa's value.
_LN_N2 = functools.lru_cache(maxsize=1)(_LogGammaRatio((0.0, 1.25), (-0.25, 1.0)))
_LN_P2 = functools.lru_cache(maxsize=1)(_LogGammaRatio((-0.75, 1.25), (-0.25, 1.75)))


def _second_moment_via(spec: StateSpec, exp: Callable[[float], float], what: str) -> float:
    """exp(ln(2 zeta <p^2>)) / (2 zeta) for exp = math.exp, the excess for math.expm1."""
    value = 0.5 / spec.zeta * exp(_LN_P2(spec.kappa.require_moment_safe(what)))
    if not math.isfinite(value):
        raise DomainError(
            f"<p^2> overflowed the float range at kappa={spec.kappa.value}, zeta={spec.zeta}"
        )
    return value


def second_moment(spec: StateSpec) -> float:
    """<p^2> of the state; requires kappa < 2/3 and a <p^2> within the float range."""
    return _second_moment_via(spec, math.exp, "second_moment")


def second_moment_excess(spec: StateSpec) -> float:
    """<p^2> - 1/(2 zeta), to full relative accuracy as kappa -> 0."""
    return _second_moment_via(spec, math.expm1, "second_moment_excess")


def delta_p(spec: StateSpec) -> float:
    """Momentum uncertainty sqrt(<p^2>) (the state has <p> = 0)."""
    return math.sqrt(_second_moment_via(spec, math.exp, "delta_p"))


def delta_x(spec: StateSpec) -> float:
    """Position uncertainty, dx = hbar zeta (1 - kappa^2) dp."""
    return spec.delta_x_for(math.sqrt(_second_moment_via(spec, math.exp, "delta_x")))


def _ln_f(kappa: KappaLike, what: str) -> float:
    k = as_kappa(kappa).require_moment_safe(what)
    return _LN_P2(k) + math.log1p(-k * k)


def f_expectation(kappa: KappaLike) -> float:
    """State-independent saturation value F(kappa) = 2 dx dp / hbar >= 1.

    Equals the mean of the commutator deformation function over the
    state; F -> 1 in the classical limit.
    """
    return math.exp(_ln_f(kappa, "f_expectation"))


def f_excess(kappa: KappaLike) -> float:
    """F(kappa) - 1, to full relative accuracy as kappa -> 0 (~ 7/8 kappa^2)."""
    return math.expm1(_ln_f(kappa, "f_excess"))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _nodes(first: int, last: int | None = None):
    """(w, dw, starts, two_w) at the rule's new nodes of levels first..last (default: first
    alone), in level order, starts each level's offset in w and two_w = 2w: cached read-only
    arrays, w, dw and two_w views of concatenations built once per process."""
    last = first if last is None else last
    if (first, last) not in _NODES:
        if not _NODES:
            parts = []
            for level in range(_NODE_LEVELS):
                # level 0 takes each integer t, every later one the odd multiples of h;
                # h enters each term, so that no partial sum exceeds the integral much
                n, h = _T_MAX << level, 2.0**-level
                k = np.arange(-n, n + 1) if level == 0 else np.arange(1 - n, n, 2)
                u = 0.5 * math.pi * np.sinh(h * k)
                parts.append((np.sinh(u), 0.5 * math.pi * h * np.cosh(h * k) * np.cosh(u)))
            w, dw = (np.concatenate(a) for a in zip(*parts))
            _NODES["all"] = w, dw, 2.0 * w
            _NODES["two_w_max"] = float(_NODES["all"][2].max())
        base = _rule_count(first - 1) if first else 0
        starts = [0] + [_rule_count(level - 1) - base for level in range(first + 1, last + 1)]
        w, dw, two_w = (a[base:_rule_count(last)] for a in _NODES["all"])
        _NODES[first, last] = nodes = w, dw, np.array(starts), two_w
        for a in nodes:
            a.flags.writeable = False
    return _NODES[first, last]


def _rule_count(level: int) -> int:
    """The rule's nodes at step 2^-level, the new ones of levels 0..level together."""
    return (2 * _T_MAX << level) + 1


@np.errstate(over="ignore", invalid="ignore")
def _double_exponential(whats, evaluate: Callable, rel_tol: float, name: Callable = str) -> list:
    """[(integral, error estimate, evaluation count)] over the real line of each integrand
    whats[i], all on one sweep; evaluate(w, two_w, rows) returns a new array whose rows are
    the integrands whats[i], i in rows (ascending), at the nodes w (two_w = 2w). An error
    message names integral i as name(whats[i]), formatted only then.

    The sinh-sinh rule: the trapezoid rule in t on [-_T_MAX, _T_MAX] after
    w = sinh(u), u = pi/2 sinh t, under which an integrand that decays
    exponentially in |w| decays double-exponentially in |t| (Takahasi &
    Mori 1974; Mori & Sugihara 2001). Each level halves the step and adds only
    the new, odd nodes. evaluate runs once on levels 0.._FIRST_CALL_LEVEL together,
    then once per later level, on the integrals still running. A level sum is
    np.add.reduceat(values * dw, [0])[0] on that level's slice of a row: its first
    term plus numpy's pairwise sum of the rest. One reduceat takes every level sum of
    a call. Each integral stops once its change from the previous level, its error
    estimate, is at most rel_tol / 2 of its value; its count is the rule's nodes at
    that level. A level sum that is not finite ends the rule, at the first level that
    has one, the first such integral in order. A value that took a level sum that is
    not finite is not finite either, so one test of the running values per call finds
    whether any did (one that leaves the float range from finite sums is the caller's).
    """
    results, running = [(0.0, 0.0, 0)] * len(whats), list(range(len(whats)))
    tol, plan = 0.5 * rel_tol, ("plan", _FIRST_CALL_LEVEL, _MAX_LEVEL)
    if plan not in _NODES:  # per call: its nodes, its levels below _MIN_LEVEL, its counts
        first = min(_FIRST_CALL_LEVEL, _MAX_LEVEL)
        calls = [range(first + 1)] + [range(L, L + 1) for L in range(first + 1, _MAX_LEVEL + 1)]
        _NODES[plan] = [(_nodes(levels[0], levels[-1]), sum(L < _MIN_LEVEL for L in levels),
                         [_rule_count(L) for L in levels]) for levels in calls]
    for (w, dw, starts, two_w), lead, counts in _NODES[plan]:
        rows = tuple(running)
        values = evaluate(w, two_w, rows)
        values *= dw
        level_sums = np.add.reduceat(values, starts, axis=1).tolist()
        for i, sums in zip(rows, level_sums):
            value = previous = results[i][0]
            for level_sum in sums[:lead]:  # below _MIN_LEVEL no integral stops
                previous, value = value, 0.5 * value + level_sum
            change, count = abs(value - previous), counts[lead - 1]
            for count, level_sum in zip(counts[lead:], sums[lead:]):
                previous, value = value, 0.5 * value + level_sum
                change = abs(value - previous)
                if change <= tol * abs(value):
                    running.remove(i)
                    break
            results[i] = value, change, count
        if not math.isfinite(sum(results[i][0] for i in rows)):
            overflows = [(count, i) for i, sums in zip(rows, level_sums)
                         for count, level_sum in zip(counts, sums)
                         if not math.isfinite(level_sum) and count <= results[i][2]]
            if overflows:
                count, i = min(overflows)
                raise NonConvergenceError(
                    f"quadrature {name(whats[i])} overflowed ({count} evaluations)")
        if not running:
            return results
    value, change, evals = results[running[0]]
    raise NonConvergenceError(
        f"quadrature {name(whats[running[0]])} did not converge in {_MAX_LEVEL} step halvings "
        f"({evals} evaluations, last change {change:.3g} of {value:.6g})"
    )


def _log_profile_at_logq(two_w, k: float, x, tmp, out):
    """-asinh(k q^2)/k at q = e^w, the unit state's ln-density up to ln N^2, into out, given
    2w; for k > 0 it leaves in x X = k q^2 = k e^(2w) with 2w capped at 40 - ln k, which ln f
    takes too (tmp: scratch)."""
    if k == 0.0:
        return np.negative(np.exp(np.minimum(two_w, 700.0, out=out), out=out), out=out)
    # X = k e^(2w), not e^(ln k + 2w), whose rounded ln k would scale every X alike. The cap
    # is 700 for k < 3e-287, where exp would overflow first: past 2w = 700 the density is 0
    np.multiply(np.exp(np.minimum(two_w, min(40.0 - math.log(k), 700.0), out=x), out=x), k, out=x)
    # asinh(X) > ln(2X) = 2w + ln 2k, within 1/(4X^2) < 1e-35 past the cap: there the
    # maximum takes the uncapped ln(2X), rounded once
    np.maximum(np.arcsinh(x, out=out), np.add(two_w, math.log(2.0 * k), out=tmp), out=out)
    # past 1e300 the density is 0 whatever the weight; the cap keeps /k finite for a tiny k.
    # As asinh(X) <= 41, it binds only where 1e300 k < the nodes' largest 2w: k < 4.2e-282
    if 1e300 * k < _NODES["two_w_max"]:
        np.minimum(out, 1e300 * k, out=out)
    return np.divide(out, -k, out=out)


def _log_f_at_logq(x, two_w, k: float, out, s):
    """ln f~(q) into out, f~(q) = sqrt(1 + k^2 q^4) + k^2 q^2 the commutator deformation,
    from the capped X = k q^2 that _log_profile_at_logq leaves and 2w (s: scratch)."""
    if k == 0.0:
        out[...] = 0.0
        return
    np.log(_deformation_s_f(x, k, s, out)[1], out=out)
    # f~ > (1 + k) X, within 1/(2X^2) past the cap, where the maximum takes ln((1 + k) X)
    np.maximum(out, np.add(two_w, math.log(k) + math.log1p(k), out=s), out=out)


def _integrands(w, two_w, k: float, log_n2: float, powers) -> np.ndarray:
    """One row per power (None: f) of exp(ln weight + ((w + ln N^2) + ln-density)) at the
    nodes w, two_w = 2w. Each node's X = k q^2, ln-density, ln f and (w + ln N^2) +
    ln-density are formed once, for all rows, the last in the <p^0> row if there is one
    (0 w + base is base). The rows and three scratch rows are one allocation."""
    buf = np.empty((len(powers) + 3, w.size))
    zero = powers.index(0) if 0 in powers else -1  # the base's row: <p^0>, or scratch
    values, x, s, base = buf[:-3], buf[-3], buf[-2], buf[zero]
    _log_profile_at_logq(two_w, k, x, s, base)
    if None in powers:
        _log_f_at_logq(x, two_w, k, values[powers.index(None)], s)
    np.add(np.add(w, log_n2, out=x), base, out=base)
    for i, (row, power) in enumerate(zip(values, powers)):
        if power is None:
            row += base
        elif i != zero:  # 2 w is two_w, bit for bit
            np.add(two_w if power == 2 else np.multiply(w, power, out=row), base, out=row)
    # exp is 0.0 below ln 2^-1075 = -745.13; the mask skips its slow underflow path there,
    # and the maximum writes those 0.0s (a nan stays nan)
    np.exp(values, out=values, where=values > -746.0)
    return np.maximum(values, 0.0, out=values)


def _quadrature(spec: StateSpec, rel_tol: float, *powers) -> list:
    """[(<p^power>, relative error estimate, evaluation count)] for each power (None: <f>),
    from one sweep on the unit state: twice the integral over q > 0, dq = e^w dw, of
    q^power or f(q) times the unit pdf; <p^power> = <q^power> / zeta^(power/2)."""
    if not 1e-12 <= rel_tol <= 1e-3:
        raise DomainError(f"rel_tol must lie in [1e-12, 1e-3], got {rel_tol}")
    k = spec.kappa.value
    log_n2 = _LN_N2(k) - 0.5 * math.log(math.pi)  # ln N^2 at zeta = 1
    for power in powers:
        growth = 2.0 if power is None else float(power)  # f(q) grows like q^2
        # the tail of weight * pdf ~ q^(growth - 2/k) is integrable iff growth < 2/k - 1
        if k > 0.0 and growth >= 2.0 / k - 1.0:
            raise DivergentIntegralError(f"integral of p^{growth} * pdf diverges for kappa={k} "
                                         f"(needs degree < 2/kappa - 1 = {2.0 / k - 1.0:.4g})")

    def name(power):
        return f"<f> at kappa={k}" if power is None else f"<p^{power}> at kappa={k}"

    sweep = _double_exponential(
        powers, lambda w, two_w, rows: _integrands(w, two_w, k, log_n2, [powers[i] for i in rows]),
        rel_tol, name)
    results = []
    for power, (value, change, evals) in zip(powers, sweep):
        moment = 2.0 * value
        # one division per factor of zeta: past the float range this gives inf or 0, never raises
        for _ in range((power or 0) // 2):
            moment /= spec.zeta
        if not math.isfinite(moment):
            raise NonConvergenceError(f"quadrature {name(power)}, zeta={spec.zeta} overflowed")
        results.append((moment, change / value, evals))
    return results


def tail_exponent_estimate(spec: StateSpec) -> float:
    """Least-squares slope of ln pdf vs ln p over p in [1e2, 1e4]/sqrt(zeta).

    Converges to -2/kappa; only meaningful for kappa > 0. It fits the unnormalized
    ln-density: the constant ln N^2 does not change a slope.
    """
    k = spec.kappa.require_positive("tail_exponent_estimate")
    p = np.geomspace(1e2 / math.sqrt(spec.zeta), 1e4 / math.sqrt(spec.zeta), _TAIL_POINTS)
    slope = np.polyfit(np.log(p), _log_profile(p, k, spec.zeta, np.empty(p.shape)), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    """Closed-form and quadrature values for one state, plus their spread."""

    norm_constant: float
    second_moment: float
    delta_p: float
    delta_x: float
    f_expect: float
    norm_constant_quad: float
    second_moment_quad: float
    delta_p_quad: float
    delta_x_quad: float
    f_expect_quad: float
    max_rel_discrepancy: float
    # integral of the closed-form pdf by quadrature; 1 for an exact N
    probability_quad: float
    # the largest last change / value of the three integrals; the rule's node count at the
    # level where the last of them stopped (the first call may evaluate levels past it)
    quad_error_estimate: float
    quad_evals: int

    def __post_init__(self):
        values = self.__dict__.values()
        if not (all(map(math.isfinite, values)) and min(values) >= 0.0):  # min sees no nan
            name = next(n for n, v in self.__dict__.items() if not math.isfinite(v) or v < 0.0)
            raise DomainError(f"MomentReport.{name} must be finite and >= 0")


def moment_report(spec: StateSpec, rel_tol: float = 1e-10) -> MomentReport:
    """Evaluate all closed forms and their quadrature counterparts."""
    spec.kappa.require_moment_safe("moment_report")
    n, p2, f = normalization_constant(spec), second_moment(spec), f_expectation(spec.kappa)
    dp = math.sqrt(p2)
    closed = n, p2, dp, spec.delta_x_for(dp), f
    # one sweep for <p^0>, <p^2> and <f>; <p^0> integrates N^2 * exp_k(-zeta p^2),
    # and the normalization that would make it exactly 1 is the independent N
    (total, e0, c0), (p2_q, e2, c2), (f_q, ef, cf) = _quadrature(spec, rel_tol, 0, 2, None)
    n_q, dp_q = n / math.sqrt(total), math.sqrt(p2_q)
    quadrature = n_q, p2_q, dp_q, spec.delta_x_for(dp_q), f_q
    disc = max([abs(c - q) / abs(c) for c, q in zip(closed, quadrature)])
    return MomentReport(*closed, *quadrature, disc, total, max(e0, e2, ef), max(c0, c2, cf))
