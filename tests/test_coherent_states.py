import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_rup.coherent_states import (
    MomentReport,
    delta_p,
    delta_x,
    f_expectation,
    f_expectation_quadrature,
    log_pdf,
    moment_report,
    normalization_constant,
    pdf,
    psi,
    quadrature_moment,
    second_moment,
    second_moment_excess,
    tail_exponent_estimate,
)
from kappa_rup import coherent_states
from kappa_rup.errors import DivergentIntegralError, DomainError, NonConvergenceError
from kappa_rup.params import KappaParameter, StateSpec

from oracles import mp_moment, mp_state, plain_double_exponential, quadpack_moment
from test_small_kappa import KAPPAS


def spec_of(k, z=1.0, hbar=1.0):
    return StateSpec(KappaParameter(k), z, hbar)


class TestStateSpec:
    @pytest.mark.parametrize("z,hb", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_validation(self, z, hb):
        with pytest.raises(DomainError):
            StateSpec(KappaParameter(0.1), z, hb)

    def test_accepts_float_kappa(self):
        assert StateSpec(0.3, 1.0).kappa.value == 0.3

    @pytest.mark.parametrize("z", [1e-320, 1e-307, 2.2e-306])
    def test_zeta_whose_core_span_overflows(self, z):
        # 400/zeta, the <p^2> of a state at kappa ~ 0.6663, must be finite
        with pytest.raises(DomainError, match="too small"):
            StateSpec(0.2, z)

    def test_smallest_zeta_still_integrates(self):
        s = spec_of(0.3, 2.3e-306)
        rep = moment_report(s)
        assert rep.max_rel_discrepancy < 1e-12
        assert rep.second_moment == pytest.approx(0.606327408144407 / 2.3e-306, rel=1e-13)


class TestNormalization:
    def test_gaussian_limit(self):
        assert normalization_constant(spec_of(0.0)) == pytest.approx(
            (1.0 / math.pi) ** 0.25, rel=1e-14
        )

    def test_frozen_values(self):
        # mpmath closed form at 40 digits
        assert normalization_constant(spec_of(0.2)) == pytest.approx(
            0.7464485481300973, rel=1e-13
        )
        assert normalization_constant(spec_of(0.4, 2.0)) == pytest.approx(
            0.8711754349385725, rel=1e-13
        )

    @pytest.mark.parametrize("k,z", [(0.2, 1.0), (0.4, 2.0)])
    def test_makes_state_normalized(self, k, z):
        # quadrature integrates N^2 exp_k(-z p^2) independently of the Gamma form
        assert quadrature_moment(0, spec_of(k, z), 1e-11) == pytest.approx(1.0, abs=1e-9)


class TestPsi:
    def test_value_at_origin_is_n(self):
        s = spec_of(0.35, 1.7)
        assert psi(0.0, s) == pytest.approx(normalization_constant(s), rel=1e-15)

    def test_gaussian_limit_shape(self):
        s = spec_of(0.0, 1.0)
        p = np.linspace(-4, 4, 41)
        n = normalization_constant(s)
        assert np.allclose(psi(p, s), n * np.exp(-0.5 * p**2), rtol=1e-14)

    def test_large_p_log_slope(self):
        # d ln psi / d ln p -> -1/kappa deep in the tail
        s = spec_of(0.25)
        slope = (math.log(psi(1e4, s)) - math.log(psi(1e3, s))) / math.log(10.0)
        assert slope == pytest.approx(-4.0, rel=2e-2)

    def test_finite_where_p_squared_overflows(self):
        # p^2 overflows past |p| ~ 1.3e154; q = p sqrt(zeta) ~ 152 does not (zeta = 1e-306
        # is below what StateSpec takes). The profile is the unit state's at that q, and
        # pdf and log_pdf stay finite, with no warning
        s, unit, p = spec_of(0.3, 2.3e-306), spec_of(0.3), 1e155
        q = math.sqrt(s.zeta) * p
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = psi(p, s) / normalization_constant(s)
            ref = psi(q, unit) / normalization_constant(unit)
            log_got = log_pdf(p, s)
            log_ref = (2.0 * math.log(normalization_constant(s))
                       + (log_pdf(q, unit) - 2.0 * math.log(normalization_constant(unit))))
            density = pdf(p, s)
        assert 0.0 < ref and abs(got - ref) <= 2.0 * math.ulp(ref)
        assert abs(log_got - log_ref) <= 2.0 * math.ulp(log_got)
        assert 0.0 < density < math.inf

    def test_even_positive_decreasing(self):
        s = spec_of(0.3, 0.8)
        p = np.linspace(0.0, 30.0, 301)
        v = psi(p, s)
        assert np.all(v > 0)
        assert np.all(np.diff(v) < 0)
        assert np.allclose(psi(-p, s), v, rtol=0, atol=0)


class TestPdf:
    def test_normalized(self):
        assert quadrature_moment(0, spec_of(0.3), 1e-11) == pytest.approx(1.0, abs=1e-9)

    def test_even(self):
        s = spec_of(0.4)
        p = np.linspace(0.1, 5, 17)
        assert np.allclose(pdf(-p, s), pdf(p, s), rtol=0, atol=0)

    def test_gaussian_peak_value(self):
        assert pdf(0.0, spec_of(0.0)) == pytest.approx(0.5641895835477563, rel=1e-14)

    def test_log_pdf_consistent(self):
        s = spec_of(0.2, 1.3)
        p = np.linspace(-3, 3, 13)
        assert np.allclose(np.exp(log_pdf(p, s)), pdf(p, s), rtol=1e-14)


class TestSecondMoment:
    def test_gaussian_value(self):
        assert second_moment(spec_of(0.0)) == pytest.approx(0.5, rel=1e-15)
        assert second_moment(spec_of(0.0, 2.0)) == pytest.approx(0.25, rel=1e-15)

    def test_against_quadrature(self):
        s = spec_of(0.2)
        closed = second_moment(s)
        quad = quadrature_moment(2, s, 1e-11)
        assert closed == pytest.approx(0.5413059498526723, rel=1e-12)  # mpmath
        assert abs(closed - quad) / closed < 1e-6

    def test_divergent_domain(self):
        with pytest.raises(DomainError):
            second_moment(spec_of(0.7))

    def test_overflow_past_the_float_range(self):
        # <p^2> = 2122 / zeta ~ 9e308 raises, not inf, in every quantity built on it
        s = spec_of(0.6666, 2.3e-306)
        for quantity in (second_moment, second_moment_excess, delta_p, delta_x):
            with pytest.raises(DomainError, match="overflowed"):
                quantity(s)
        # the quadrature integrates at zeta = 1; its scaling by zeta^-1 overflows
        with pytest.raises(NonConvergenceError, match="overflowed"):
            quadrature_moment(2, s)
        # <p^4> ~ 1e600 raises the same way, and ~ 1e-600 underflows to 0
        with pytest.raises(NonConvergenceError, match="overflowed"):
            quadrature_moment(4, spec_of(0.1, 1e-300))
        assert quadrature_moment(4, spec_of(0.1, 1e300)) == 0.0


class TestDeltas:
    def test_delta_p_gaussian(self):
        assert delta_p(spec_of(0.0, 2.0)) == pytest.approx(0.5, rel=1e-15)

    def test_delta_p_scaling_in_zeta(self):
        for k in (0.1, 0.3, 0.55):
            for z in (0.5, 2.0, 7.0):
                assert delta_p(spec_of(k, z)) == pytest.approx(
                    delta_p(spec_of(k, 1.0)) / math.sqrt(z), rel=1e-12
                )

    def test_delta_x_gaussian(self):
        assert delta_x(spec_of(0.0)) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_delta_x_relation(self):
        s = spec_of(0.3)
        assert delta_x(s) / (s.hbar * s.zeta * (1 - 0.3**2) * delta_p(s)) == pytest.approx(
            1.0, rel=1e-15
        )
        # value pinned by the quadrature route for <p^2>
        dp_quad = math.sqrt(quadrature_moment(2, s, 1e-11))
        assert delta_x(s) == pytest.approx((1 - 0.09) * dp_quad, rel=1e-7)
        assert delta_x(s) == pytest.approx(0.7085899566635019, rel=1e-12)  # mpmath


class TestFExpectation:
    def test_classical_limit_exact(self):
        assert f_expectation(KappaParameter(0.0)) == 1.0

    def test_limit_small_kappa(self):
        assert abs(f_expectation(KappaParameter(1e-3)) - 1.0) < 1e-2
        # the actual size is ~ (7/8) kappa^2
        assert abs(f_expectation(KappaParameter(1e-3)) - 1.0) == pytest.approx(
            8.75002460942730e-07, rel=1e-5
        )

    def test_equals_uncertainty_product(self):
        s = spec_of(0.25)
        assert f_expectation(s.kappa) == pytest.approx(
            2.0 * delta_x(s) * delta_p(s) / s.hbar, rel=1e-12
        )

    def test_against_quadrature(self):
        f_closed = f_expectation(KappaParameter(0.2))
        f_quad = f_expectation_quadrature(spec_of(0.2), 1e-11)
        assert f_closed == pytest.approx(1.0393074237171308, rel=1e-12)  # mpmath
        assert abs(f_closed - f_quad) / f_closed < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            f_expectation(KappaParameter(0.68))


class TestQuadratureMoment:
    @pytest.mark.parametrize("k", [0.05, 0.1, 0.3, 0.6])
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_normalization_grid(self, k, z):
        assert abs(quadrature_moment(0, spec_of(k, z), 1e-10) - 1.0) < 1e-8

    def test_second_moment_consistency(self):
        s = spec_of(0.2)
        assert abs(quadrature_moment(2, s, 1e-10) - second_moment(s)) / second_moment(s) < 1e-6

    def test_divergence_detected(self):
        with pytest.raises(DivergentIntegralError):
            quadrature_moment(2, spec_of(0.7))

    def test_against_mpmath(self):
        # fully independent high-precision reference
        for k, z in [(0.3, 1.0), (0.6, 0.5)]:
            ref = mp_moment(2, k, z)
            assert quadrature_moment(2, spec_of(k, z), 1e-11) == pytest.approx(ref, rel=1e-9)

    def test_refinement_consistency(self):
        s = spec_of(0.45, 1.5)
        coarse = quadrature_moment(2, s, 1e-5)
        fine = quadrature_moment(2, s, 1e-11)
        assert abs(coarse - fine) / fine < 1e-5

    def test_rel_tol_validation(self):
        with pytest.raises(DomainError):
            quadrature_moment(0, spec_of(0.2), 1e-2)
        with pytest.raises(DomainError):
            quadrature_moment(0, spec_of(0.2), 1e-13)

    @pytest.mark.parametrize("power", [1, 3, -2, 2.5])
    def test_power_validation(self, power):
        with pytest.raises(DomainError):
            quadrature_moment(power, spec_of(0.2))


class TestTailExponent:
    @pytest.mark.parametrize("k,target", [(0.5, -4.0), (0.25, -8.0), (0.1, -20.0)])
    def test_slope(self, k, target):
        assert tail_exponent_estimate(spec_of(k)) == pytest.approx(target, rel=2e-2)

    def test_zeta_invariance_of_exponent(self):
        assert tail_exponent_estimate(spec_of(0.25, 4.0)) == pytest.approx(-8.0, rel=2e-2)

    def test_requires_positive_kappa(self):
        with pytest.raises(DomainError):
            tail_exponent_estimate(spec_of(0.0))


class TestInvariants:
    @pytest.mark.parametrize("k", [0.05, 0.1, 0.3, 0.5, 0.6])
    def test_saturation_identity(self, k):
        # dx dp = (hbar/2) F(kappa), algebraic at the closed-form level
        for z in (0.5, 1.0, 2.0):
            s = spec_of(k, z)
            lhs = delta_x(s) * delta_p(s)
            rhs = 0.5 * s.hbar * f_expectation(s.kappa)
            assert abs(lhs - rhs) / rhs < 1e-12

    @pytest.mark.parametrize("k", [0.1, 0.35, 0.6])
    def test_state_independence_of_product(self, k):
        products = [
            delta_x(spec_of(k, z)) * delta_p(spec_of(k, z)) for z in (0.5, 1.0, 2.0)
        ]
        spread = (max(products) - min(products)) / products[0]
        assert spread < 1e-12

    @given(
        k=st.floats(min_value=0.0, max_value=0.65),
        z=st.floats(min_value=0.1, max_value=10.0),
        q=st.floats(min_value=-35.0, max_value=35.0),
    )
    @settings(max_examples=150)
    def test_psi_even_and_positive(self, k, z, q):
        # q = sqrt(zeta) p keeps the Gaussian branch above double underflow
        s = spec_of(k, z)
        p = q / math.sqrt(z)
        v = psi(p, s)
        assert v > 0
        assert psi(-p, s) == v


class TestMomentReport:
    def test_report_consistency(self):
        rep = moment_report(spec_of(0.3), 1e-10)
        assert rep.max_rel_discrepancy < 1e-8
        assert rep.second_moment == pytest.approx(rep.second_moment_quad, rel=1e-7)
        assert rep.f_expect == pytest.approx(rep.f_expect_quad, rel=1e-7)

    def test_rejects_unsafe_kappa(self):
        with pytest.raises(DomainError):
            moment_report(spec_of(0.7))

    def test_field_validation(self):
        with pytest.raises(DomainError):
            MomentReport(*([1.0] * 10 + [float("nan")]))


# every 30th kappa of the small-kappa sweep, and two next to kappa = 2/3
QUAD_KAPPAS = sorted({*map(float, KAPPAS[::30]), 0.65, 0.66})


class TestDoubleExponentialRule:
    @pytest.mark.parametrize("k", QUAD_KAPPAS, ids="{:.3g}".format)
    def test_matches_mpmath_quadrature(self, k):
        ref = mp_state(k, 1.3)
        rep = moment_report(spec_of(k, 1.3))
        got = {"N": rep.norm_constant_quad, "p2": rep.second_moment_quad, "F": rep.f_expect_quad}
        errors = {name: abs(got[name] / ref[name] - 1.0) for name in got}
        assert max(errors.values()) <= 1e-14, errors

    @pytest.mark.parametrize("k,z", [(0.0, 1.0), (0.2, 0.3), (0.45, 2.0), (0.66, 1.3)])
    def test_matches_quadpack(self, k, z):
        s = spec_of(k, z)
        assert quadrature_moment(2, s) == pytest.approx(quadpack_moment(2, k, z), rel=1e-11)

    def test_value_error_estimate_and_count(self):
        # integral of sech w over the real line is pi, analytic in |Im w| < pi/2
        value, error, evals = coherent_states._double_exponential(
            *_stacked({"test": lambda w: 1.0 / np.cosh(w)}), 1e-10
        )[0]
        assert abs(value - math.pi) <= 1e-15
        assert 0.0 <= error <= 0.5e-10 * value
        # level L has 2 * _T_MAX * 2^L + 1 nodes, each evaluated once
        levels = math.log2((evals - 1) / (2 * coherent_states._T_MAX))
        assert levels == int(levels) and coherent_states._MIN_LEVEL <= levels

    def test_slowly_decaying_tail(self):
        # e^w (1 + e^w)^-(1+a) is (1 + p)^-(1+a) dp at p = e^w, whose integral is
        # 1/a; it falls like e^w to the left but only like e^(-a w) to the right
        a = 0.01
        value, _, _ = coherent_states._double_exponential(
            *_stacked({"test": lambda w: np.exp(w - (1.0 + a) * np.logaddexp(0.0, w))}), 1e-12
        )[0]
        assert value == pytest.approx(1.0 / a, rel=1e-14)

    @pytest.mark.parametrize("z", [2.3e-306, 1e-300, 1e300])
    @pytest.mark.parametrize("k", [0.0, 1e-5, 0.3, 0.66])
    def test_extreme_zeta(self, k, z):
        # the rule runs in q = p sqrt(zeta) and never sees zeta
        assert moment_report(spec_of(k, z)).max_rel_discrepancy <= 4e-15

    @pytest.mark.parametrize("z", [1e-300, 1e-6, 1.0, 1e6, 1e300])
    def test_closed_forms_agree_at_rounding_level(self, z):
        # closed forms against quadrature over the small-kappa sweep; next to the
        # pole of Gamma(a - 3/4) at kappa -> 2/3 the rule loses a little more
        kappas = sorted({*map(float, KAPPAS), 0.0, 0.65})
        worst = max(moment_report(spec_of(k, z)).max_rel_discrepancy for k in kappas if k <= 0.65)
        assert worst <= 2e-15
        assert moment_report(spec_of(0.66, z)).max_rel_discrepancy <= 4e-15

    def test_level_cap_raises(self, monkeypatch):
        monkeypatch.setattr(coherent_states, "_MAX_LEVEL", coherent_states._MIN_LEVEL)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            quadrature_moment(2, spec_of(0.3))


SWEEP_KAPPAS = [0.0, 1e-8, 1e-5, 0.05, 0.3, 0.65, 0.66]
SWEEP_ZETAS = [1e-300, 1.0, 1e300]
SWEEP_TOLS = [1e-5, 1e-10, 1e-12]


class TestSharedSweep:
    """moment_report's three integrals run on one sweep with one node set."""

    def test_bit_identical_to_standalone_integrals(self):
        staggered = 0
        for k in SWEEP_KAPPAS:
            for z in SWEEP_ZETAS:
                for tol in SWEEP_TOLS:
                    s = spec_of(k, z)
                    rep = moment_report(s, tol)
                    assert rep.probability_quad == quadrature_moment(0, s, tol)
                    assert rep.second_moment_quad == quadrature_moment(2, s, tol)
                    assert rep.f_expect_quad == f_expectation_quadrature(s, tol)
                    counts = {evals for *_, evals in coherent_states._quadrature(s, tol, 0, 2, None)}
                    assert max(counts) == rep.quad_evals
                    staggered += len(counts) > 1
        # some state's integrals stop at different levels, so freezing one while
        # the others go on is exercised
        assert staggered > 0

    @pytest.mark.parametrize("tol", [1e-5, 1e-10])
    @pytest.mark.parametrize("k", [0.0, 1e-5, 0.3, 0.66])
    def test_diagnostics(self, k, tol):
        rep = moment_report(spec_of(k, 1.3), tol)
        assert 0.0 <= rep.quad_error_estimate <= tol / 2
        # the sweep's last level L has 2 * _T_MAX * 2^L + 1 nodes in all
        levels = math.log2((rep.quad_evals - 1) / (2 * coherent_states._T_MAX))
        assert levels == int(levels)
        assert coherent_states._MIN_LEVEL <= levels <= coherent_states._MAX_LEVEL

    def test_positional_constructors_keep_working(self):
        assert MomentReport(*([1.0] * 11)).probability_quad == 1.0
        rep = MomentReport(*([1.0] * 12))
        assert (rep.quad_error_estimate, rep.quad_evals) == (0.0, 0)

    def test_node_cache_is_read_only(self):
        before = moment_report(spec_of(0.3, 1.7))
        w, dw, starts = coherent_states._nodes(3)
        again = coherent_states._nodes(3)
        assert again[0] is w and again[1] is dw and again[2] is starts
        for a in (w, dw, starts, *again):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert moment_report(spec_of(0.3, 1.7)) == before

    def test_overflowing_f_weight_names_f(self, monkeypatch):
        monkeypatch.setattr(coherent_states, "_log_f_at_logq",
                            lambda x_log, big, k, out: np.copyto(out, np.inf))
        with pytest.raises(NonConvergenceError, match="<f>"):
            moment_report(spec_of(0.3))

    def test_first_integral_in_order_raises_at_the_cap(self, monkeypatch):
        # all three miss 1e-10 at the capped level; <p^0> comes first
        monkeypatch.setattr(coherent_states, "_MAX_LEVEL", coherent_states._MIN_LEVEL)
        with pytest.raises(NonConvergenceError, match=r"<p\^0> .* did not converge"):
            moment_report(spec_of(0.3))


def _plain_rule(whats, evaluate, rel_tol):
    """The reference rule at the module's current constants, _MAX_LEVEL included."""
    cs = coherent_states
    return plain_double_exponential(whats, evaluate, rel_tol, cs._T_MAX, cs._MIN_LEVEL,
                                    cs._MAX_LEVEL)


def _stacked(integrands):
    """The rule's (whats, evaluate) for {what: f(w)}: evaluate stacks the rows asked for."""
    fs = list(integrands.values())
    return list(integrands), lambda w, rows: np.array([fs[i](w) for i in rows])


def _outcome(call):
    try:
        return call()
    except NonConvergenceError as e:
        return str(e)


SECH_AND_SLOW_TAIL = {
    # integral pi; integral 1/a = 100, falling only like e^(-a w) to the right
    "sech": lambda w: 1.0 / np.cosh(w),
    "slow tail": lambda w: np.exp(w - 1.01 * np.logaddexp(0.0, w)),
}


class TestAgainstPlainRule:
    """The rule evaluates its first levels in one call; each value, estimate, count and
    message is exactly the plain level-by-level rule's."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-10, 1e-12])
    def test_sech_and_slow_tail(self, tol):
        # poles at +-0.1i take the rule past the first call's levels, at +-0.01i to its cap
        poles = [{f"1/(w^2 + {e})": lambda w, e=e: 1.0 / (w * w + e)} for e in (1e-2, 1e-4)]
        for integrands in (*({what: f} for what, f in SECH_AND_SLOW_TAIL.items()),
                           SECH_AND_SLOW_TAIL, poles[0], {**SECH_AND_SLOW_TAIL, **poles[0]},
                           {**poles[0], **poles[1]}):
            rule = _stacked(integrands)
            got = _outcome(lambda: coherent_states._double_exponential(*rule, tol))
            assert got == _outcome(lambda: _plain_rule(*rule, tol))

    def test_first_overflow_in_level_then_integral_order(self):
        # one call sums levels 0-6 of both rows; the earlier level's overflow wins
        # though its integral comes second, as in the level-by-level rule
        def overflowing_at(level):
            nodes = coherent_states._nodes(level)[0]
            return lambda w: np.where(np.isin(w, nodes), np.inf, 1.0 / np.cosh(w))

        rule = _stacked({"late": overflowing_at(5), "early": overflowing_at(2)})
        got = _outcome(lambda: coherent_states._double_exponential(*rule, 1e-10))
        assert got == "quadrature early overflowed (33 evaluations)"
        assert got == _outcome(lambda: _plain_rule(*rule, 1e-10))

    def test_sweep_states(self, monkeypatch):
        for k in SWEEP_KAPPAS:
            for z in SWEEP_ZETAS:
                for tol in SWEEP_TOLS:
                    s = spec_of(k, z)
                    got = coherent_states._quadrature(s, tol, 0, 2, None)
                    with monkeypatch.context() as m:
                        m.setattr(coherent_states, "_double_exponential", _plain_rule)
                        assert got == coherent_states._quadrature(s, tol, 0, 2, None), (k, z, tol)

    def test_capped_level(self, monkeypatch):
        monkeypatch.setattr(coherent_states, "_MAX_LEVEL", 3)
        rule = _stacked(SECH_AND_SLOW_TAIL)
        for tol in (1e-3, 1e-12):
            got = _outcome(lambda: coherent_states._double_exponential(*rule, tol))
            assert got == _outcome(lambda: _plain_rule(*rule, tol))
        s = spec_of(0.3)
        got = _outcome(lambda: coherent_states._quadrature(s, 1e-10, 0, 2, None))
        assert "did not converge in 3 step halvings (65 evaluations" in got
        monkeypatch.setattr(coherent_states, "_double_exponential", _plain_rule)
        assert got == _outcome(lambda: coherent_states._quadrature(s, 1e-10, 0, 2, None))

    @pytest.mark.parametrize("tol,count", [(1e-3, 65), (1e-5, 129)])
    def test_early_stop_counts_its_level(self, monkeypatch, tol, count):
        # kappa = 0.3 stops at level 3 (1e-3) or 4 (1e-5), though the first call
        # evaluated the ln-density on levels 0.._FIRST_CALL_LEVEL
        evaluated = []
        profile = coherent_states._log_profile_at_logq
        monkeypatch.setattr(coherent_states, "_log_profile_at_logq",
                            lambda two_w, *args: evaluated.append(two_w.size)
                            or profile(two_w, *args))
        rep = moment_report(spec_of(0.3, 1.0), tol)
        assert rep.quad_evals == count
        assert evaluated == [coherent_states._rule_count(coherent_states._FIRST_CALL_LEVEL)]
        assert evaluated[0] > count


def _log_profile_one_at_a_time(w, k):
    """The unit state's ln-density as each integrand once formed it, from its own ln k + 2w."""
    if k == 0.0:
        return -np.exp(np.minimum(2.0 * w, 700.0))
    x_log = math.log(k) + 2.0 * w
    x = k * np.exp(np.minimum(2.0 * w, 40.0 - math.log(k)))
    asinh = np.where(x_log > 40.0, math.log(2.0) + x_log, np.arcsinh(x))
    return -np.minimum(asinh, 1e300 * k) / k


def _log_f_one_at_a_time(w, k):
    """ln f(e^w) as the <f> integrand once formed it, from its own ln k + 2w."""
    if k == 0.0:
        return np.zeros_like(w)
    x_log = math.log(k) + 2.0 * w
    x = np.exp(np.minimum(x_log, 40.0))
    return np.where(x_log > 40.0, math.log1p(k) + x_log, np.log(np.hypot(1.0, x) + k * x))


class TestStackedIntegrands:
    """A rule call evaluates its running integrals as the rows of one array, each summed
    in the order of exp(ln weight + w + ln N^2 + ln-density) formed alone."""

    @pytest.mark.parametrize("k", [*SWEEP_KAPPAS, 2.0 / 3.0 - 1e-2, 2.0 / 3.0 - 1e-7])
    def test_bit_identical_to_one_integrand_at_a_time(self, k):
        log_n2 = coherent_states._LN_N2(k) - 0.5 * math.log(math.pi)
        powers = (0, 2, None, 4, 6)
        # next to 2/3 the higher powers' tails grow: their exp overflows alike in both forms
        with np.errstate(over="ignore"):
            for levels in ((0, coherent_states._FIRST_CALL_LEVEL), (7, 7), (10, 10)):
                w = coherent_states._nodes(*levels)[0]
                profile = _log_profile_one_at_a_time(w, k)
                got = coherent_states._integrands(w, k, log_n2, powers)
                for row, power in zip(got, powers):
                    lw = _log_f_one_at_a_time(w, k) if power is None else power * w
                    want = np.exp(lw + w + log_n2 + profile)
                    assert np.array_equal(row.view(np.int64), want.view(np.int64)), (levels, power)
                subset = coherent_states._integrands(w, k, log_n2, powers[1:3])
                assert np.array_equal(subset.view(np.int64), got[1:3].view(np.int64))

    def test_level_sums_are_each_slices_own_reduceat(self):
        # the one reduceat over a call's rows gives each level slice's sum bit for bit
        w, dw, starts = coherent_states._nodes(0, coherent_states._FIRST_CALL_LEVEL)
        values = coherent_states._integrands(w, 0.3, 0.0, (0, 2, None)) * dw
        ends = [*starts[1:], w.size]
        batched = np.add.reduceat(values, starts, axis=1)
        for row, sums in zip(values, batched):
            alone = [np.add.reduceat(row[a:b].copy(), [0])[0] for a, b in zip(starts, ends)]
            assert sums.tolist() == alone
