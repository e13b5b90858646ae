"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own evaluation paths:
moments come from high-precision mpmath quadrature with an explicit
log-variable tail, and from scipy's QUADPACK as a third route; the MaxEnt
reference maximizes the entropy in primal null-space coordinates (grid
scan + projected ascent) instead of the package's dual multiplier
iteration; the fit reference is scipy's bounded scalar minimizer, scored
by an mpmath sum of squares. The plain sinh-sinh rule builds each level's
nodes from the substitution itself, evaluates one level at a time and sums
each integrand's level on its own. The grid references are the
complex-arithmetic, whole-grid forms of the position operator and its
residuals (the stencil written out, no blocks, no real views); they take f,
f' and the state's samples as inputs. The state psi is its whole-array expression. The residuals are the unit state's
(zeta = hbar = 1), in q = p sqrt(zeta): the package evaluates them there for
every zeta and hbar.
"""

import math

import mpmath as mp
import numpy as np

from kappa_rup.errors import NonConvergenceError

mp.mp.dps = 40


def mp_psi_sq(p, k, z):
    """exp_k(-z p^2) at high precision (stable asinh form)."""
    if k == 0:
        return mp.exp(-z * p**2)
    return mp.exp(-mp.asinh(k * z * p**2) / k)


def _mp_half_integral(weight, growth, kq, zq):
    """Integral over p >= 0 of weight(p) exp_k(-z p^2): a core in p and, for
    kappa > 0, a tail in w = ln p long enough for the weight's growth."""
    split = 30 / mp.sqrt(zq)
    core = mp.quad(lambda p: weight(p) * mp_psi_sq(p, kq, zq), [0, split])
    if kq == 0:
        return core
    decay = 2 / kq - growth - 1
    g = lambda w: mp.exp(w) * weight(mp.exp(w)) * mp_psi_sq(mp.exp(w), kq, zq)
    return core + mp.quad(g, [mp.log(split), mp.log(split) + 160 / decay])


def mp_moment(power, k, z):
    """<p^power> for the normalized state, via mpmath quadrature."""
    kq, zq = mp.mpf(k), mp.mpf(z)
    return float(_mp_half_integral(lambda p: p**power, power, kq, zq)
                 / _mp_half_integral(lambda p: 1, 0, kq, zq))


def mp_state(k, z):
    """N, <p^2> and F = <f(p)>, f = sqrt(1 + k^2 z^2 p^4) + k^2 z p^2, of the
    state, each from its own mpmath quadrature. At the binary values of the floats
    k and z: next to k = 2/3, <p^2> moves by 1e-14 relative per 1e-17 in k, so the
    decimal string of k would be another state."""
    with mp.workdps(25):
        kq, zq = mp.mpf(k), mp.mpf(z)
        half = _mp_half_integral(lambda p: 1, 0, kq, zq)
        p2 = _mp_half_integral(lambda p: p**2, 2, kq, zq)
        f = _mp_half_integral(
            lambda p: mp.sqrt(1 + (kq * zq * p**2) ** 2) + kq**2 * zq * p**2, 2, kq, zq)
        return {"N": float(1 / mp.sqrt(2 * half)), "p2": float(p2 / half), "F": float(f / half)}


def mp_closed_state(k, z):
    """N, <p^2> and F of the state (k > 0) from their Gamma-ratio closed forms, a = 1/(2k),
    each written with mpmath's loggamma at 40 digits."""
    with mp.workdps(40):
        kq, zq = mp.mpf(k), mp.mpf(z)
        a, lg = 1 / (2 * kq), mp.loggamma
        n2 = (2 + kq) * mp.sqrt(kq * zq / (2 * mp.pi)) * mp.exp(lg(a + 0.25) - lg(a - 0.25))
        p2 = (2 + kq) / (4 * kq * zq * (2 + 3 * kq)) * mp.exp(
            lg(a - 0.75) + lg(a + 0.25) - lg(a + 0.75) - lg(a - 0.25))
        f = (1 - kq * kq) / (2 * kq) * mp.exp(
            lg(a - 0.75) + lg(a + 1.25) - lg(a + 1.75) - lg(a - 0.25))
        return {"N": float(mp.sqrt(n2)), "p2": float(p2), "F": float(f)}


def mp_log_density_and_f(w, k):
    """([-asinh(k q^2) / k], [ln f~(q)]) at q = e^w for each float w, f~ = sqrt(1 + k^2 q^4)
    + k^2 q^2: the unit state's ln-density up to ln N^2 and the commutator deformation's
    logarithm, at 40 digits (for k > 0)."""
    kq, dens, log_f = mp.mpf(k), [], []
    for wi in w:
        x = kq * mp.exp(2 * mp.mpf(wi))
        dens.append(float(-mp.asinh(x) / kq))
        log_f.append(float(mp.log(mp.sqrt(1 + x * x) + kq * x)))
    return dens, log_f


def mp_deformation_f2(p, k, z):
    """f''(p) of f = sqrt(1 + k^2 z^2 p^4) + k^2 z p^2 by mpmath's numerical
    differentiation at 40 digits, not from an analytic second derivative."""
    kq, zq = mp.mpf(k), mp.mpf(z)
    return float(mp.diff(lambda q: mp.sqrt(1 + (kq * zq * q**2) ** 2) + kq**2 * zq * q**2,
                         mp.mpf(p), 2))


def quadpack_moment(power, k, z):
    """<p^power> for the normalized state by scipy's QUADPACK over [0, inf):
    a third route, sharing neither rule nor precision with the others."""
    from scipy.integrate import quad

    def density(p):
        return math.exp(-z * p * p if k == 0 else -math.asinh(k * z * p * p) / k)

    opts = {"epsabs": 0.0, "epsrel": 1e-12, "limit": 500}
    norm = quad(density, 0.0, math.inf, **opts)[0]
    return quad(lambda p: p**power * density(p), 0.0, math.inf, **opts)[0] / norm


def plain_double_exponential(whats, evaluate, rel_tol, t_max, min_level, max_level):
    """[(integral, error estimate, evaluation count)] of each integrand whats[i] by the
    sinh-sinh rule, one level at a time: level L adds t = j 2^-L for the integers j
    in [-t_max 2^L, t_max 2^L] (level 0) or the odd ones (later levels), at
    w = sinh(pi/2 sinh t), dw = 2^-L pi/2 cosh t cosh(pi/2 sinh t); evaluate(w, rows)
    gives the running integrands on those nodes alone, one row each, and each level sum
    is the first term of values * dw plus numpy's pairwise sum of the rest. Raises
    NonConvergenceError with the package's messages."""
    results, running, evals = [(0.0, 0.0, 0)] * len(whats), list(range(len(whats))), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(max_level + 1):
            n, h = t_max * 2**level, 2.0**-level
            j = np.arange(-n, n + 1)
            t = h * (j[1::2] if level else j)
            u = math.pi / 2 * np.sinh(t)
            w, dw = np.sinh(u), math.pi / 2 * h * np.cosh(t) * np.cosh(u)
            evals += w.size
            rows = list(running)
            for i, values in zip(rows, evaluate(w, tuple(rows))):
                level_sum = float(np.add.reduceat(values * dw, [0])[0])
                if not math.isfinite(level_sum):
                    raise NonConvergenceError(f"quadrature {whats[i]} overflowed ({evals} evaluations)")
                value = 0.5 * results[i][0] + level_sum
                results[i] = value, abs(value - results[i][0]), evals
                if level >= min_level and results[i][1] <= 0.5 * rel_tol * abs(value):
                    running.remove(i)
            if not running:
                return results
    value, change, _ = results[running[0]]
    raise NonConvergenceError(
        f"quadrature {whats[running[0]]} did not converge in {max_level} step halvings "
        f"({evals} evaluations, last change {change:.3g} of {value:.6g})"
    )


def bounded_fit_beta(n, energies, k):
    """b of the fit n ~ A exp_k(-b E) by scipy's bounded scalar minimizer
    around the log-linear estimate, amplitude eliminated for each b."""
    from scipy.optimize import minimize_scalar

    e, n = np.asarray(energies, dtype=float), np.asarray(n, dtype=float)
    b0 = -float(np.polyfit(e, np.log(n), 1)[0])

    def ssq(b):
        u = np.exp(-b * e) if k == 0 else np.exp(np.arcsinh(-k * b * e) / k)
        return float(np.sum((float(u @ n) / float(u @ u) * u - n) ** 2))

    span = 10.0 * (abs(b0) + 1.0 / float(e.max() - e.min()))
    res = minimize_scalar(ssq, bounds=(b0 - span, b0 + span), method="bounded",
                          options={"xatol": 1e-13 * (1.0 + abs(b0))})
    return float(res.x) if ssq(float(res.x)) < ssq(b0) else b0


def mp_fit_ssq(b, n, energies, k):
    """min over A of sum (A exp_k(-b E) - n)^2, at 40 digits."""
    bq, kq = mp.mpf(b), mp.mpf(k)
    u = [mp.exp(-bq * mp.mpf(x)) if k == 0 else mp.exp(mp.asinh(-kq * bq * mp.mpf(x)) / kq)
         for x in energies]
    nq = [mp.mpf(v) for v in n]
    a = mp.fsum(ui * ni for ui, ni in zip(u, nq)) / mp.fsum(ui * ui for ui in u)
    return mp.fsum((a * ui - ni) ** 2 for ui, ni in zip(u, nq))


def _entropy_plain(n, k):
    n = np.asarray(n, dtype=float)
    if k == 0:
        return float(-np.sum(n * np.log(n)))
    return float(-np.sum(n * (n**k - n**(-k)) / (2 * k)))


def _entropy_gradient(n, k):
    # -d/dn [n ln_k n], plain power form
    if k == 0:
        return -(np.log(n) + 1.0)
    return -((1 + k) * n**k - (1 - k) * n**(-k)) / (2 * k)


def _entropy_curvature(n, k):
    # second derivative of n ln_k n (positive)
    if k == 0:
        return 1.0 / n
    return ((1 + k) * n ** (k - 1) + (1 - k) * n ** (-k - 1)) / 2.0


def brute_force_maxent(energies, mean_energy, kappa, grid_steps=15,
                       box_radius=0.35, ascent_iters=60):
    """Entropy maximizer on {n > 0, sum n = 1, sum nE = U}, primal route.

    The feasible affine space is parametrized by an orthonormal null
    basis of the constraint matrix; a dense grid scan over a box in the
    null coordinates seeds a projected (curvature-scaled) ascent with a
    positivity-safeguarded line search.
    """
    e = np.asarray(energies, dtype=float)
    k = float(kappa)
    a = np.vstack([np.ones_like(e), e])
    b = np.array([1.0, mean_energy])
    n0 = a.T @ np.linalg.solve(a @ a.T, b)  # min-norm feasible point
    if np.any(n0 <= 0):
        raise ValueError("min-norm feasible point not interior; pick another seed")
    _, _, vt = np.linalg.svd(a)
    null = vt[2:].T  # orthonormal null-space basis, shape (W, W-2)

    dim = null.shape[1]
    axes = [np.linspace(-box_radius, box_radius, grid_steps)] * dim
    best_n, best_s = n0, _entropy_plain(n0, k)
    for t in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, dim):
        n = n0 + null @ t
        if np.all(n > 1e-12):
            s = _entropy_plain(n, k)
            if s > best_s:
                best_n, best_s = n, s

    n = best_n
    for _ in range(ascent_iters):
        g = null.T @ _entropy_gradient(n, k)
        h = null.T @ (null * _entropy_curvature(n, k)[:, None])
        step = np.linalg.solve(h, g)
        if np.max(np.abs(step)) < 1e-15:
            break
        d = null @ step
        alpha = 1.0
        neg = d < 0
        if np.any(neg):
            alpha = min(1.0, 0.9 * np.min(-n[neg] / d[neg]))
        s_now = _entropy_plain(n, k)
        for _ in range(60):
            n_try = n + alpha * d
            if np.all(n_try > 0) and _entropy_plain(n_try, k) >= s_now:
                break
            alpha *= 0.5
        n = n + alpha * d
    return n


def gibbs_reference(energies, mean_energy):
    """Analytic kappa = 0 maximizer via 1-d bisection on the multiplier."""
    e = np.asarray(energies, dtype=float) - mean_energy

    def gap(beta):
        w = np.exp(-beta * (e - e.min()))
        return float((w @ e) / w.sum())

    lo, hi = -1.0, 1.0
    while gap(lo) <= 0:
        lo *= 2
    while gap(hi) >= 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def whole_array_psi(p, k, z, n_const):
    """N exp(-asinh(k (sqrt(z) p)^2) / (2k)) (N exp(-(sqrt(z) p)^2 / 2) at k = 0), each
    step one numpy expression over the whole array."""
    q = math.sqrt(z) * np.asarray(p, dtype=float)
    q = q * q
    return n_const * np.exp(0.5 * -(q if k == 0 else np.arcsinh(k * q) / k))


def complex_position_operator(samples, h, f, f1, a, hbar):
    """i hbar [f psi' + A f' psi] in complex arithmetic over the whole grid;
    psi' is the 4th-order stencil, one-sided at the edges."""
    s = np.asarray(samples, dtype=complex)
    d = np.empty_like(s)
    d[2:-2] = (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) / (12.0 * h)
    d[0] = (-25.0 * s[0] + 48.0 * s[1] - 36.0 * s[2] + 16.0 * s[3] - 3.0 * s[4]) / (12.0 * h)
    d[1] = (-3.0 * s[0] - 10.0 * s[1] + 18.0 * s[2] - 6.0 * s[3] + s[4]) / (12.0 * h)
    d[-2] = (3.0 * s[-1] + 10.0 * s[-2] - 18.0 * s[-3] + 6.0 * s[-4] - s[-5]) / (12.0 * h)
    d[-1] = (25.0 * s[-1] - 48.0 * s[-2] + 36.0 * s[-3] - 16.0 * s[-4] + 3.0 * s[-5]) / (12.0 * h)
    return 1j * hbar * (f * d + a * f1 * s)


def _complex_l2_norm(samples, h):
    return math.sqrt(float(np.sum(np.abs(samples) ** 2)) * h)


def complex_annihilation_residual(psi, q, h, f, f1, dx, dq):
    """|| (x/dx + i q/dq) psi || / ||psi|| on the unit state with the symmetric ordering,
    in complex arithmetic on psi cast to complex."""
    s = np.asarray(psi).astype(complex)
    residual = complex_position_operator(s, h, f, f1, 0.5, 1.0) / dx + 1j * q * s / dq
    return _complex_l2_norm(residual, h) / _complex_l2_norm(s, h)


def complex_commutator_residual(samples, q, h, f, f1):
    """|| [x, q] psi - i f psi || / || f psi || on the unit state, symmetric ordering, in
    complex arithmetic."""
    x_q_psi = complex_position_operator(q * samples, h, f, f1, 0.5, 1.0)
    x_psi = complex_position_operator(samples, h, f, f1, 0.5, 1.0)
    target = 1j * f * samples
    return _complex_l2_norm(x_q_psi - q * x_psi - target, h) / _complex_l2_norm(target, h)


def whole_grid_ode_residual(q, k, dy, dq, s, f, f1, f2):
    """The minimum-uncertainty ODE residual on the unit state, each term over the whole
    grid at once, from s = sqrt(1 + k^2 q^4) and f, f', f'' (d/dq) on that grid, for the
    pair dq = dp sqrt(zeta) and dy = dx / (hbar sqrt(zeta)); s^3 is s^2 s."""
    t1 = 4.0 * (1.0 - np.square(q) * (k * k * np.square(q) + s)) * dq**2 * f**2
    t2 = s**2 * s * (4.0 * np.square(q) * dy**2 - dq**2 * f1**2)
    t3 = 2.0 * s**2 * dq * f * (4.0 * q * dq * f1 - s * (2.0 * dy + dq * f2))
    scale = np.maximum(np.abs(t1), np.maximum(np.abs(t2), np.abs(t3)))
    return (t1 + t2 + t3) / scale
