"""Closed forms over the whole moment domain, the paper's small-kappa end included.

The reference is the paper's Gamma-ratio formulas in mpmath, with enough
digits that the cancellation of ln Gamma(a + c) at a = 1/(2 kappa) leaves
more than 30 correct ones, even in F - 1 ~ kappa^2 at kappa = 1e-12.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from kappa_rup import (
    KappaParameter,
    StateSpec,
    f_excess,
    f_expectation,
    kappa_exp,
    normalization_constant,
    psi,
    second_moment,
    second_moment_excess,
)

KAPPAS = np.concatenate([np.geomspace(1e-12, 0.66, 300), np.linspace(0.01, 0.66, 120)])
ZETAS = (1.0, 3.7)
# the quadrature runs at zeta = 1, so only these check the closed forms' zeta
# scaling; N and <p^2> only, as <p^2> - 1/(2 zeta) ~ 1e-324 rounds to 0 at 1e300
EXTREME_ZETAS = (1e-300, 1e300)
# the excess quantities lose up to ~2 digits to cancellation inside the
# kernel; the moments themselves stay within a few ulp, also next to the
# pole of Gamma(a - 3/4) at kappa -> 2/3
REL_TOL = {"N": 2e-15, "p2": 2e-15, "F": 2e-15, "F-1": 1e-13, "p2-1/(2z)": 1e-13}


def reference(k: float, z: float) -> dict:
    with mp.workdps(30 + int(3 * abs(math.log10(k)))):
        k, z = mp.mpf(k), mp.mpf(z)
        a, lg = 1 / (2 * k), mp.loggamma
        n2 = (2 + k) * mp.sqrt(k * z / (2 * mp.pi)) * mp.exp(lg(a + 0.25) - lg(a - 0.25))
        p2 = (2 + k) / (4 * k * z * (2 + 3 * k)) * mp.exp(
            lg(a - 0.75) + lg(a + 0.25) - lg(a + 0.75) - lg(a - 0.25))
        f = (1 - k * k) / (2 * k) * mp.exp(
            lg(a - 0.75) + lg(a + 1.25) - lg(a + 1.75) - lg(a - 0.25))
        return {"N": mp.sqrt(n2), "p2": p2, "F": f, "F-1": f - 1, "p2-1/(2z)": p2 - 1 / (2 * z)}


def computed(k: float, z: float) -> dict:
    spec = StateSpec(KappaParameter(k), z)
    return {"N": normalization_constant(spec), "p2": second_moment(spec),
            "F": f_expectation(spec.kappa), "F-1": f_excess(spec.kappa),
            "p2-1/(2z)": second_moment_excess(spec)}


@pytest.mark.parametrize("z", ZETAS + EXTREME_ZETAS)
def test_closed_forms_match_mpmath_over_the_moment_domain(z):
    names = ("N", "p2") if z in EXTREME_ZETAS else tuple(REL_TOL)
    worst = {}
    for k in map(float, KAPPAS):
        ref, got = reference(k, z), computed(k, z)
        assert got["F"] >= 1.0, k
        for name in names:
            err = float(abs((got[name] - ref[name]) / ref[name]))
            if err > worst.get(name, (0.0, None))[0]:
                worst[name] = (err, k)
    assert len(KAPPAS) >= 400
    assert all(err <= REL_TOL[name] for name, (err, _) in worst.items()), worst


def test_continuous_across_the_old_classical_switch():
    # a 1e-8 cutoff used to jump <p^2> by ~8e-8 and F by ~7e-8
    below, above = np.nextafter(1e-8, 0.0), 1e-8
    for fn in (normalization_constant, second_moment):
        lo, hi = fn(StateSpec(below, 1.0)), fn(StateSpec(above, 1.0))
        assert abs(hi - lo) <= 1e-15 * hi
    assert abs(f_expectation(above) - f_expectation(below)) <= 1e-15
    assert f_excess(above) == pytest.approx(f_excess(below), rel=1e-13)
    assert f_excess(above) == pytest.approx(0.875e-16, rel=1e-7)


def assert_exp_rounding(value, classical, exponent):
    # a few ulp of the exponent, carried into exp()
    gap = np.abs(value / classical - 1.0)
    assert np.all(gap <= 4.0 * np.finfo(float).eps * (1.0 + np.abs(exponent)))


def test_tiny_kappa_is_classical_at_rounding_level():
    k, z = 1e-300, 2.0
    y = np.linspace(-30.0, 30.0, 121)
    assert_exp_rounding(kappa_exp(y, k), np.exp(y), y)
    p = np.linspace(-6.0, 6.0, 121)
    spec, classical = StateSpec(k, z), StateSpec(0.0, z)
    assert_exp_rounding(psi(p, spec), psi(p, classical), 0.5 * z * p**2)
    assert normalization_constant(spec) == normalization_constant(classical)
    assert second_moment(spec) == second_moment(classical) == 0.25
    assert f_expectation(k) == 1.0
    assert f_excess(k) == 0.0 and second_moment_excess(spec) == 0.0


def test_subnormal_kappa_is_stored_as_zero():
    assert KappaParameter(5e-324).value == 0.0
    assert KappaParameter(2.2250738585072014e-308).value == 2.2250738585072014e-308
    assert kappa_exp(0.3, 5e-324) == math.exp(0.3)


def _fresh_kernels():
    """Uncached copies of the two Gamma-ratio exponents, built from their definitions."""
    from kappa_rup.coherent_states import _LogGammaRatio

    return {"_LN_N2": _LogGammaRatio((0.0, 1.25), (-0.25, 1.0)),
            "_LN_P2": _LogGammaRatio((-0.75, 1.25), (-0.25, 1.75))}


def test_cached_exponents_keep_the_bits():
    # each kappa is visited between its neighbours (A, B, A, C, B, ...), so an entry
    # served for the wrong kappa would differ from the fresh kernel's value
    from kappa_rup import coherent_states

    fresh = _fresh_kernels()
    ks = [0.0] + list(map(float, KAPPAS))
    order = [k for a, b in zip(ks, ks[1:]) for k in (a, b, a)]
    for name, kernel in fresh.items():
        cached = getattr(coherent_states, name)
        for k in order:
            assert cached(k) == kernel(k), (name, k)


def test_one_state_evaluates_each_exponent_once():
    # moment_report and the five public closed forms at one kappa call the kernels
    # 9 times; each exponent is computed once
    from kappa_rup import coherent_states
    from kappa_rup.coherent_states import delta_p, delta_x, moment_report

    kernels = (coherent_states._LN_N2, coherent_states._LN_P2)
    for k in (1e-5, 0.3):
        spec = StateSpec(KappaParameter(k), 2.0)
        for kernel in kernels:
            kernel.cache_clear()
        moment_report(spec)
        normalization_constant(spec), second_moment(spec), delta_p(spec), delta_x(spec)
        f_expectation(spec.kappa)
        assert [kernel.cache_info().misses for kernel in kernels] == [1, 1]
