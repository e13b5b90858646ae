import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_rup.errors import DomainError
from kappa_rup.kappa_math import kappa_exp, kappa_log
from kappa_rup.params import KappaParameter, positive_float


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


class TestPositiveFloat:
    @pytest.mark.parametrize("value", [
        2, 0.5, np.float32(0.25), np.int64(3), 5e-324, pytest.param(2**1000, id="2**1000"),
    ])
    def test_returns_a_float(self, value):
        out = positive_float("x", value)
        assert type(out) is float and out == value

    @pytest.mark.parametrize("bad", [
        0.0, -1.0, -0.0, float("nan"), float("inf"), np.float32("inf"), True, False,
        np.bool_(True), pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400"),
        "1.0", None, np.array(2.0),
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError, match=r"^x must be > 0, got "):
            positive_float("x", bad)


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
