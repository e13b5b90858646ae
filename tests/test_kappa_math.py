import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_rup.errors import DomainError
from kappa_rup.kappa_math import (
    gamma_ratio,
    kappa_exp,
    kappa_log,
    log_gamma,
)
from kappa_rup.params import KappaParameter

mp.mp.dps = 40


class TestKappaParameter:
    def test_classical_limit_allowed(self):
        assert KappaParameter(0.0).value == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            KappaParameter(bad)

    def test_domain_flags(self):
        assert KappaParameter(0.3).moment_safe
        assert KappaParameter(0.5).moment_safe
        assert not KappaParameter(0.7).moment_safe
        # the boundary value is excluded
        assert not KappaParameter(2.0 / 3.0).moment_safe

    @pytest.mark.parametrize("value, safe", [
        (0.0, True), (0.6666, True), (math.nextafter(2.0 / 3.0, 0.0), True),
        (2.0 / 3.0, False), (0.99, False),
    ])
    def test_moment_safe_below_two_thirds(self, value, safe):
        assert KappaParameter(value).moment_safe is safe


class TestKappaExp:
    def test_at_zero(self):
        assert kappa_exp(0.0, 0.3) == 1.0

    def test_classical_limit(self):
        assert kappa_exp(2.0, 0.0) == pytest.approx(math.e**2, rel=1e-15)

    def test_direct_value(self):
        # (sqrt(1.25) + 0.5)^2, mpmath-checked
        assert kappa_exp(1.0, 0.5) == pytest.approx(2.618033988749895, rel=1e-14)

    @given(
        y=st.floats(min_value=-50, max_value=50),
        k=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_reciprocal_identity(self, y, k):
        prod = kappa_exp(y, k) * kappa_exp(-y, k)
        assert prod == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("k", [1e-5, 1e-4])
    def test_small_kappa_tracks_exp(self, k):
        # deviation is ~ k^2 |y|^3 / 6, bounded by 10 k^2 |y|^3
        y = np.linspace(-10, 10, 201)
        rel = np.abs(kappa_exp(y, k) - np.exp(y)) / np.exp(y)
        assert np.all(rel <= 10 * k**2 * np.maximum(np.abs(y), 1e-2) ** 3)

    def test_small_kappa_tight_at_1e4(self):
        y = np.linspace(-5, 5, 201)
        rel = np.abs(kappa_exp(y, 1e-4) - np.exp(y)) / np.exp(y)
        assert np.max(rel) <= 1e-6

    @pytest.mark.parametrize("k", [0.0, 1e-6, 0.2, 0.5, 0.9])
    def test_strictly_increasing(self, k):
        y = np.linspace(-20, 20, 2001)
        v = kappa_exp(y, k)
        assert np.all(np.diff(v) > 0)

    def test_positive_everywhere(self):
        y = np.array([-1e8, -100.0, 0.0, 100.0])
        assert np.all(kappa_exp(y, 0.4) > 0)


class TestKappaLog:
    def test_at_one(self):
        assert kappa_log(1.0, 0.4) == 0.0

    def test_round_trip(self):
        assert kappa_log(kappa_exp(3.7, 0.2), 0.2) == pytest.approx(3.7, rel=1e-14)

    def test_direct_value(self):
        # (sqrt(2) - 1/sqrt(2)) / 1, mpmath-checked
        assert kappa_log(2.0, 0.5) == pytest.approx(0.7071067811865476, rel=1e-14)

    def test_classical_limit(self):
        assert kappa_log(5.0, 0.0) == pytest.approx(math.log(5.0), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            kappa_log(bad, 0.3)

    @given(
        y=st.floats(min_value=1e-6, max_value=1e6),
        k=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_odd_under_reciprocal(self, y, k):
        assert kappa_log(1.0 / y, k) == pytest.approx(-kappa_log(y, k), rel=1e-12, abs=1e-14)

    @given(
        y=st.floats(min_value=-30, max_value=30),
        k=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_inverse_pair(self, y, k):
        assert kappa_log(kappa_exp(y, k), k) == pytest.approx(y, rel=1e-11, abs=1e-11)


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == 0.0

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_against_high_precision(self):
        # mpmath.loggamma(10.25)
        assert log_gamma(10.25) == pytest.approx(13.368023671476046, rel=1e-14)

    def test_relative_error_budget(self):
        # spot grid across (0, 1e4], avoiding the zeros at x = 1, 2
        xs = [0.05, 0.31, 0.5, 3.0, 7.3, 10.25, 123.456, 2048.0, 9999.5]
        for x in xs:
            ref = float(mp.loggamma(mp.mpf(repr(x))))
            assert abs(log_gamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("bad", [0.0, -3.2])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestGammaRatio:
    def test_integer_case(self):
        assert gamma_ratio(5.0, 3.0) == pytest.approx(12.0, rel=1e-13)

    @pytest.mark.parametrize("z", [0.5, 1.0, 7.3, 500.0])
    def test_recurrence(self, z):
        assert gamma_ratio(z + 1.0, z) == pytest.approx(z, rel=1e-11)

    def test_small_kappa_arguments(self):
        # Gamma(5.25)/Gamma(4.75), mpmath-checked
        assert gamma_ratio(5.25, 4.75) == pytest.approx(2.1229454588983415, rel=1e-12)

    def test_no_overflow_for_large_arguments(self):
        # ratio ~ a^(1/2) stays modest even when Gamma(a) itself overflows;
        # reference from mpmath.gamma at 40 digits
        a = 5.0e4
        ref = float(mp.gamma(mp.mpf(a) + 0.25) / mp.gamma(mp.mpf(a) - 0.25))
        assert gamma_ratio(a + 0.25, a - 0.25) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_domain_error(self, args):
        with pytest.raises(DomainError):
            gamma_ratio(*args)
