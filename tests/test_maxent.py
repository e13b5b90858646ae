import math
import warnings

import numpy as np
import pytest

from kappa_rup.errors import DomainError, InfeasibleMeanError
from kappa_rup.kappa_math import kappa_exp, kappa_log
from kappa_rup.maxent import (
    MaxEntProblem,
    fit_kappa_exponential,
    kaniadakis_entropy,
    maxent_solve,
)
from kappa_rup.params import KappaParameter

from oracles import bounded_fit_beta, brute_force_maxent, gibbs_reference, mp_fit_ssq


def problem(k, energies=(0.0, 1.0, 2.0, 3.0, 4.0), mean=1.2):
    return MaxEntProblem(np.asarray(energies, dtype=float), mean, KappaParameter(k))


def many_level_problem(k, seed, levels=200):
    e = np.random.default_rng(seed).uniform(0.0, 10.0, levels)
    return MaxEntProblem(e, e.min() + 0.3 * (e.max() - e.min()), KappaParameter(k))


class TestEntropy:
    def test_uniform_is_deformed_log(self):
        for w in (2, 5, 11):
            for k in (0.0, 0.2, 0.6):
                n = np.full(w, 1.0 / w)
                assert kaniadakis_entropy(n, k) == pytest.approx(
                    kappa_log(float(w), k), rel=1e-12
                )

    def test_shannon_limit(self):
        assert kaniadakis_entropy([0.5, 0.5], 0.0) == pytest.approx(
            math.log(2.0), rel=1e-14
        )

    def test_frozen_deformed_value(self):
        # mpmath: -(0.7 ln_k 0.7 + 0.3 ln_k 0.3) at k = 0.2
        assert kaniadakis_entropy([0.7, 0.3], 0.2) == pytest.approx(
            0.6145766784162249, rel=1e-13
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            kaniadakis_entropy([0.5, 0.5, 0.0], 0.2)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            kaniadakis_entropy([0.5, 0.6], 0.2)


class TestProblemValidation:
    def test_too_few_levels(self):
        with pytest.raises(DomainError):
            MaxEntProblem(np.array([1.0]), 1.0, KappaParameter(0.1))

    @pytest.mark.parametrize("mean", [0.0, 4.0, -1.0, 9.0])
    def test_infeasible_mean(self, mean):
        with pytest.raises(InfeasibleMeanError):
            problem(0.2, mean=mean)

    def test_json_round_trip(self):
        p = problem(0.2)
        # the document's problem section, rebuilt through the constructor
        data = p.to_json_dict()
        q = MaxEntProblem(data["energies"], data["mean_energy"], data["kappa"])
        assert np.allclose(q.energies, p.energies)
        assert q.mean_energy == p.mean_energy
        assert q.kappa.value == p.kappa.value


class TestSolveClassical:
    def test_symmetric_mean_gives_uniform(self):
        sol = maxent_solve(problem(0.0, energies=(0.0, 1.0, 2.0), mean=1.0), 1e-12)
        assert np.allclose(sol.distribution, 1.0 / 3.0, atol=1e-13)

    def test_two_level_constraint_determined(self):
        sol = maxent_solve(problem(0.0, energies=(0.0, 1.0), mean=0.25), 1e-12)
        assert np.allclose(sol.distribution, [0.75, 0.25], atol=1e-11)

    def test_matches_analytic_gibbs(self):
        sol = maxent_solve(problem(0.0), 1e-12)
        ref = gibbs_reference(np.arange(5.0), 1.2)
        assert np.max(np.abs(sol.distribution - ref)) < 1e-10

    def test_gibbs_form_is_exact(self):
        sol = maxent_solve(problem(0.0), 1e-12)
        fit = fit_kappa_exponential(sol, np.arange(5.0))
        assert fit.max_residual < 1e-10


class TestSolveDeformed:
    def test_constraints_and_kkt(self):
        sol = maxent_solve(problem(0.2), 1e-10)
        assert abs(float(np.sum(sol.distribution)) - 1.0) < 1e-12
        mean = float(sol.distribution @ np.arange(5.0))
        assert abs(mean - 1.2) / 1.2 < 1e-10
        assert sol.kkt_residual < 1e-10
        assert np.all(sol.distribution > 0)

    def test_against_brute_force_oracle(self):
        sol = maxent_solve(problem(0.2), 1e-12)
        ref = brute_force_maxent(np.arange(5.0), 1.2, 0.2)
        assert np.max(np.abs(sol.distribution - ref)) < 1e-3

    def test_entropy_dominates_feasible_points(self):
        sol = maxent_solve(problem(0.35), 1e-12)
        s_star = sol.entropy
        rng = np.random.default_rng(42)
        e = np.arange(5.0)
        a = np.vstack([np.ones(5), e])
        n0 = a.T @ np.linalg.solve(a @ a.T, np.array([1.0, 1.2]))
        _, _, vt = np.linalg.svd(a)
        null = vt[2:].T
        for _ in range(200):
            n = n0 + null @ rng.uniform(-0.2, 0.2, size=3)
            if np.all(n > 1e-9):
                assert kaniadakis_entropy(n, 0.35) <= s_star + 1e-12

    def test_energy_shift_invariance(self):
        base = maxent_solve(problem(0.25), 1e-12)
        shifted = maxent_solve(
            problem(0.25, energies=(7.0, 8.0, 9.0, 10.0, 11.0), mean=8.2), 1e-12
        )
        assert np.max(np.abs(base.distribution - shifted.distribution)) < 1e-10

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            maxent_solve(problem(0.2), 1e-2)
        with pytest.raises(DomainError):
            maxent_solve(problem(0.2), 1e-14)

    @pytest.mark.parametrize("k", [0.0, 0.1, 0.3, 0.6, 0.9])
    def test_wide_kappa_range_converges(self, k):
        sol = maxent_solve(problem(k), 1e-12)
        assert sol.kkt_residual < 1e-12

    def test_metadata_temperature(self):
        sol = maxent_solve(problem(0.2), 1e-12)
        assert sol.beta == sol.multiplier_energy
        assert sol.temperature == pytest.approx(
            1.0 / (sol.beta * math.sqrt(1.0 - 0.04)), rel=1e-14
        )
        symmetric = maxent_solve(problem(0.2, energies=(0.0, 1.0, 2.0), mean=1.0), 1e-12)
        assert symmetric.temperature == math.inf

    def test_solution_json_shape(self):
        sol = maxent_solve(problem(0.2), 1e-12)
        doc = sol.to_json_dict()
        assert set(doc) == {"distribution", "multipliers", "entropy", "kkt_residual", "derived"}
        assert set(doc["multipliers"]) == {"normalization", "energy"}
        assert len(doc["distribution"]) == 5


class TestFit:
    def test_two_level_exact(self):
        sol = maxent_solve(problem(0.3, energies=(0.0, 1.0), mean=0.3), 1e-12)
        fit = fit_kappa_exponential(sol, np.array([0.0, 1.0]))
        assert fit.max_residual < 1e-6

    def test_five_level_reports_residual(self):
        sol = maxent_solve(problem(0.2), 1e-12)
        fit = fit_kappa_exponential(sol, np.arange(5.0))
        assert math.isfinite(fit.max_residual)
        assert fit.amplitude > 0
        assert fit.beta_fit > 0

    def test_stable_under_tolerance_tightening(self):
        loose = fit_kappa_exponential(maxent_solve(problem(0.2), 1e-6), np.arange(5.0))
        tight = fit_kappa_exponential(maxent_solve(problem(0.2), 1e-12), np.arange(5.0))
        assert abs(loose.max_residual - tight.max_residual) < 1e-6

    def test_fit_past_the_first_bracket_is_a_stationary_minimum(self):
        # a strongly deformed case whose ssq falls past the first bracket b0 +- 10 (|b0| +
        # 1/(E_max - E_min)), all the way to b -> infinity: exp_k(-b E) tends to a multiple
        # of E^(-1/k). A fit held to that bracket returns its edge, b = 4.4507, where
        # b d(ssq)/db = -0.013 ssq; the widened fit stops where ssq is flat to rounding.
        # Scored at 40 digits: no slope, and no b from b/2 to 10 b lower by more than 1e-12
        e = np.random.default_rng(186718646).uniform(0.0, 10.0, 5)
        mean = e.min() + 0.1915910722514954 * (e.max() - e.min())
        k = 0.8518456536968337
        sol = maxent_solve(MaxEntProblem(e, mean, KappaParameter(k)))
        b, n = fit_kappa_exponential(sol, e).beta_fit, sol.distribution
        ssq = mp_fit_ssq(b, n, e, k)
        slope = (mp_fit_ssq(b * (1 + 1e-6), n, e, k) - mp_fit_ssq(b * (1 - 1e-6), n, e, k)) / 2e-6
        assert abs(slope) <= 1e-12 * ssq
        for factor in (0.5, 2.0, 10.0):
            assert ssq <= mp_fit_ssq(factor * b, n, e, k) * (1 + 1e-12)

    def test_widened_bracket_keeps_u_in_the_float_range(self):
        # a hot, near-classical case (mean at 98.8% of the span) whose ssq keeps falling as
        # b -> -infinity: the bracket widens only while exp_k(-b E) stays within e^+-300, so
        # u.u neither overflows nor warns, and the fit scores below the first bracket's edge
        e = np.random.default_rng(3701058395).uniform(0.0, 10.0, 36)
        mean = e.min() + 0.987938295686977 * (e.max() - e.min())
        k = 0.02666007811736739
        sol = maxent_solve(MaxEntProblem(e, mean, KappaParameter(k)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_kappa_exponential(sol, e)
        assert all(math.isfinite(v) for v in (fit.amplitude, fit.beta_fit, fit.max_residual))
        n = sol.distribution
        assert mp_fit_ssq(fit.beta_fit, n, e, k) < mp_fit_ssq(-42.94470472157211, n, e, k)

    def test_shape_mismatch(self):
        sol = maxent_solve(problem(0.2), 1e-12)
        with pytest.raises(DomainError):
            fit_kappa_exponential(sol, np.arange(4.0))

    @pytest.mark.parametrize(
        "fit_problem",
        # maxent-demo's problems: its default, the classical one and a symmetric one
        [problem(0.2), problem(0.0), problem(0.3, energies=(0.0, 1.0, 2.0), mean=1.0)]
        # TestSmallKappa's many-level problems
        + [many_level_problem(k, seed) for k in (1e-6, 1e-5) for seed in (2, 6, 10)],
    )
    def test_no_worse_than_bounded_minimizer(self, fit_problem):
        # scored at 40 digits: near the optimum a float sum of squares is
        # rounding noise between two b that are both optimal to 1e-8
        sol = maxent_solve(fit_problem)
        e, n, k = fit_problem.energies, sol.distribution, fit_problem.kappa.value
        b = fit_kappa_exponential(sol, e).beta_fit
        assert mp_fit_ssq(b, n, e, k) <= mp_fit_ssq(bounded_fit_beta(n, e, k), n, e, k)


class TestCanonicalForm:
    # Kaniadakis, Phys. Rev. E 66, 056125 (2002): the maximizer is the deformed
    # exponential of an affine function of the energy,
    # n_i = alpha exp_k(-(lam0 + lam1 E_i) / lambda), lambda = sqrt(1 - k^2),
    # alpha = exp(-atanh(k) / k), with alpha -> 1/e as k -> 0
    @pytest.mark.parametrize("k", [0.0, 1e-8, 1e-5, 1e-3, 0.2, 0.9])
    @pytest.mark.parametrize("levels", [5, 50, 200])
    def test_solution_is_the_canonical_distribution(self, k, levels):
        prob = problem(k) if levels == 5 else many_level_problem(k, 2, levels)
        sol = maxent_solve(prob, 1e-12)
        lam = math.sqrt(1.0 - k * k)
        alpha = math.exp(-math.atanh(k) / k) if k > 0.0 else math.exp(-1.0)
        affine = sol.multiplier_normalization + sol.multiplier_energy * prob.energies
        canonical = alpha * kappa_exp(-affine / lam, k)
        assert np.max(np.abs(sol.distribution / canonical - 1.0)) <= 1e-13


class TestSmallKappa:
    @pytest.mark.parametrize("k", [1e-7, 1e-5, 1e-3, 0.3, 0.9])
    def test_stationarity_inverse_round_trip(self, k):
        from kappa_rup.maxent import _phi, _phi_inv

        y = np.linspace(-30.0, 30.0, 6001)
        err = np.abs(_phi(_phi_inv(y, k), k) - y) / np.maximum(1.0, np.abs(y))
        assert float(np.max(err)) < 1e-14

    @pytest.mark.parametrize("k", [1e-6, 1e-5])
    @pytest.mark.parametrize("seed", [2, 6, 10])
    def test_many_levels_converge(self, k, seed):
        sol = maxent_solve(many_level_problem(k, seed))
        assert sol.kkt_residual < 1e-10
