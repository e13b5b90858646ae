import math

import pytest
from scipy.optimize import brentq

from kappa_rup.errors import BelowMinimalLengthError, DomainError
from kappa_rup.phenomenology import (
    ZETA_FIXINGS,
    PhenoConfig,
    effective_alpha,
    effective_hbar,
    gac_match_zeta,
    kappa_bound,
    landau_zeta,
    minimal_length,
    putra_bound,
)


# hbar c in MeV fm, to convert natural-unit lengths to femtometres
HBAR_C_MEV_FM = 197.3269804


class TestEffectiveHbar:
    def test_classical(self):
        assert effective_hbar(2.0, 0.0, 1.0, 1.0) == 1.0

    def test_zero_spread(self):
        assert effective_hbar(0.0, 0.3, 1.0, 1.0) == 1.0

    def test_direct(self):
        assert effective_hbar(2.0, 0.1, 1.0, 1.0) == pytest.approx(1.04, rel=1e-14)
        assert effective_hbar(2.0, 0.1, 1.0) == pytest.approx(1.04, rel=1e-14)

    @pytest.mark.parametrize("dp", [math.nan, math.inf, -math.inf, -2.0, -1e-300])
    def test_rejects_a_spread_that_is_not_finite_and_nonnegative(self, dp):
        with pytest.raises(DomainError, match=r"^delta_p must be >= 0, got "):
            effective_hbar(dp, 0.1, 1.0)

    @pytest.mark.parametrize("dp, k, z", [(1e200, 0.5, 1.0), (1e100, 0.5, 1e300)])
    def test_rejects_a_result_past_the_float_range(self, dp, k, z):
        with pytest.raises(DomainError, match=r"^hbar_eff overflows at delta_p="):
            effective_hbar(dp, k, z)


class TestEffectiveAlpha:
    def config(self):
        return PhenoConfig()

    def test_classical(self):
        cfg = self.config()
        shift = effective_alpha(1.0, 0.0, 1.0, cfg)
        assert shift.alpha_eff == cfg.alpha
        assert shift.delta_alpha == 0.0

    def test_taylor_remainder(self):
        cfg = self.config()
        for r in (1e-4, 1e-2, 0.09):
            a0 = 1.0
            k = math.sqrt(r)  # hbar = zeta = 1
            shift = effective_alpha(a0, k, 1.0, cfg)
            leading = -cfg.alpha * r / 4.0
            assert abs(shift.delta_alpha - leading) <= cfg.alpha * r * r / 8.0

    def test_paper_scale_shift_within_resolution(self):
        cfg = self.config()
        zeta = 1.0 / cfg.characteristic_momentum**2
        shift = effective_alpha(cfg.bohr_radius, 1e-5, zeta, cfg)
        assert abs(shift.delta_alpha) < cfg.delta_alpha_exp

    def test_below_minimal_length(self):
        with pytest.raises(BelowMinimalLengthError):
            effective_alpha(0.5, 0.9, 1.0, self.config())

    @pytest.mark.parametrize("a0", [1e-300, 5e-324])
    def test_tiny_a0_is_below_minimal_length(self, a0):
        # (hbar k / a0)^2 would overflow; (l / a0)^2 is only formed once l <= a0
        with pytest.raises(BelowMinimalLengthError):
            effective_alpha(a0, 0.1, 1.0, self.config())

    def test_heisenberg_branch(self):
        # r = 1e-18: alpha_eff = alpha to rounding, the shift is its leading term
        cfg = self.config()
        shift = effective_alpha(1.0, 1e-9, 1.0, cfg)
        assert shift.alpha_eff == pytest.approx(cfg.alpha, rel=1e-12)
        assert shift.delta_alpha == pytest.approx(-cfg.alpha * 1e-18 / 4.0, rel=1e-12)

    def test_at_minimal_length(self):
        # a0 = hbar k sqrt(z) exactly (r = 1): the largest shift, -alpha / 2
        cfg = self.config()
        a0 = minimal_length(0.25, 4.0)
        assert a0 == 0.5
        assert effective_alpha(a0, 0.25, 4.0, cfg).alpha_eff == cfg.alpha / 2.0

    @pytest.mark.parametrize("k,z,hbar", [(0.2, 1.0, 1.0), (0.5, 3.0, 2.0), (1e-5, 7.3e4, 1.0)])
    def test_boundary_is_the_minimal_length(self, k, z, hbar):
        cfg = PhenoConfig(hbar=hbar)
        a0 = minimal_length(k, z, hbar)
        assert abs(effective_alpha(a0 * (1.0 + 1e-9), k, z, cfg).delta_alpha) < cfg.alpha / 2.0
        with pytest.raises(BelowMinimalLengthError):
            effective_alpha(a0 * (1.0 - 1e-9), k, z, cfg)

    @pytest.mark.parametrize("k,z,a0", [(0.2, 1.0, 10.0), (0.5, 2.0, 3.0), (1e-4, 1.0, 0.7)])
    def test_saturated_spread_rescales_alpha_by_hbar_eff(self, k, z, a0):
        # independent root dp of a0 dp = (1/2)(1 + k^2 z dp^2), the smaller of two whose
        # product is 1/(k^2 z); alpha ~ 1/hbar, so alpha_eff hbar_eff(dp) = alpha hbar
        cfg = self.config()
        dp = brentq(
            lambda q: a0 * q - 0.5 * (1.0 + k * k * z * q * q), 1e-8, 1.0 / (k * math.sqrt(z)),
            xtol=1e-16, rtol=8.9e-16,
        )
        alpha_eff = effective_alpha(a0, k, z, cfg).alpha_eff
        assert alpha_eff * effective_hbar(dp, k, z) == pytest.approx(cfg.alpha, rel=1e-10)


class TestKappaBound:
    def test_paper_orders_of_magnitude(self):
        bound = kappa_bound(PhenoConfig())
        assert 1e-6 < bound.bound_kappa < 1e-4
        assert 1e-4 < bound.bound_kappa_sqrt_zeta < 1e-2

    def test_frozen_values(self):
        # mpmath: 2 sqrt(1.1e-8 / 137.035999206) and /3.7e-3
        bound = kappa_bound(PhenoConfig())
        assert bound.bound_kappa == pytest.approx(1.7918803329537215e-05, rel=1e-12)
        assert bound.bound_kappa_sqrt_zeta == pytest.approx(
            4.8429198187938418e-03, rel=1e-12
        )

    def test_sqrt_scaling_in_uncertainty(self):
        base = kappa_bound(PhenoConfig())
        doubled = kappa_bound(PhenoConfig(alpha_inverse_uncertainty=2.2e-8))
        assert doubled.bound_kappa / base.bound_kappa == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_perfect_measurement_kills_deformation(self):
        # bound ~ sqrt(delta): a hundredfold better measurement tightens
        # the bound tenfold, vanishing in the perfect-measurement limit
        base = kappa_bound(PhenoConfig())
        tiny = kappa_bound(PhenoConfig(alpha_inverse_uncertainty=1.1e-12))
        assert tiny.bound_kappa == pytest.approx(base.bound_kappa / 100.0, rel=1e-12)
        assert kappa_bound(PhenoConfig(alpha_inverse_uncertainty=1e-30)).bound_kappa < 1e-14

    def test_monotonicity(self):
        base = kappa_bound(PhenoConfig())
        looser = kappa_bound(PhenoConfig(alpha_inverse_uncertainty=5e-8))
        assert looser.bound_kappa > base.bound_kappa
        assert looser.bound_kappa_sqrt_zeta > base.bound_kappa_sqrt_zeta
        # larger a0 (smaller characteristic momentum) weakens the
        # kappa*sqrt(zeta) bound
        wider = kappa_bound(PhenoConfig(characteristic_momentum=1e-3))
        assert wider.bound_kappa_sqrt_zeta > base.bound_kappa_sqrt_zeta

    @pytest.mark.parametrize("zeta_fixing", ZETA_FIXINGS)
    def test_bound_round_trips_through_effective_alpha(self, zeta_fixing):
        # the bound kappa, fed back at the zeta its fixing implies and the
        # position uncertainty a0 the bound was derived for, shifts alpha by
        # exactly the measured resolution, up to the O(r) term the
        # leading-order inversion drops (measured: 8.0e-11 relative)
        cfg = PhenoConfig(zeta_fixing=zeta_fixing)
        bound = kappa_bound(cfg)
        zeta = 1.0 / cfg.conversion_momentum() ** 2

        def shift(kappa):
            return effective_alpha(cfg.bohr_radius, kappa, zeta, cfg).delta_alpha

        assert shift(bound.bound_kappa) == pytest.approx(-cfg.delta_alpha_exp, rel=1e-9)
        assert abs(shift(1.01 * bound.bound_kappa)) > cfg.delta_alpha_exp
        assert abs(shift(0.99 * bound.bound_kappa)) < cfg.delta_alpha_exp


class TestZetaFixings:
    def test_landau_direct(self):
        assert landau_zeta(0.1, 1.0, 1.0) == pytest.approx(100.0, rel=1e-14)
        assert landau_zeta(0.1, 1.0) == pytest.approx(100.0, rel=1e-14)

    def test_landau_requires_positive_kappa(self):
        with pytest.raises(DomainError):
            landau_zeta(0.0, 1.0)

    def test_electron_scale(self):
        k, me = 1e-5, 0.511
        assert math.sqrt(landau_zeta(k, me)) == pytest.approx(1.0 / (k * me), rel=1e-12)
        assert math.sqrt(landau_zeta(k, me)) == pytest.approx(195694.7, rel=1e-6)

    def test_gac_direct(self):
        assert gac_match_zeta(0.5, 1.0, 1.0) == pytest.approx(3.0, rel=1e-15)

    @pytest.mark.parametrize("k,m,c", [(0.5, 1.0, 1.0), (0.1, 2.0, 3.0), (1e-5, 0.511, 1.0)])
    def test_ratio_three_quarters(self, k, m, c):
        assert gac_match_zeta(k, m, c) / landau_zeta(k, m, c) == 0.75

    def test_squared_relation_coefficient(self):
        # (1 + x)^2 = 1 + 2x + x^2 with x = k^2 z dp^2: the linear
        # coefficient matched against (3/2)/(m^2 c^2) defines the fixing
        k, m, dp = 0.3, 1.2, 0.05
        z = gac_match_zeta(k, m, 1.0)
        x = k * k * z * dp * dp
        assert (1.0 + x) ** 2 - 1.0 - x * x == pytest.approx(
            1.5 * dp * dp / m**2, rel=1e-12
        )

    def test_conversion_momentum_selection(self):
        assert PhenoConfig().conversion_momentum() == 3.7e-3
        assert PhenoConfig(zeta_fixing="landau").conversion_momentum() == pytest.approx(
            0.511, rel=1e-15
        )
        assert PhenoConfig(zeta_fixing="gac").conversion_momentum() == pytest.approx(
            2.0 * 0.511 / math.sqrt(3.0), rel=1e-15
        )


class TestInputChecks:
    # each input these functions divide by, take a root of or scale by is a finite
    # number > 0, or the call raises DomainError naming it
    @pytest.mark.parametrize("call, name", [
        (lambda: landau_zeta(0.1, 0.0), "m"),
        (lambda: landau_zeta(0.1, -2.0), "m"),
        (lambda: landau_zeta(0.1, 1.0, math.inf), "c"),
        (lambda: gac_match_zeta(0.1, 1.0, 0.0), "c"),
        (lambda: effective_alpha(0.0, 0.1, 1.0, PhenoConfig()), "a0"),
        (lambda: effective_alpha(1.0, 0.1, -1.0, PhenoConfig()), "zeta"),
        (lambda: minimal_length(0.1, -1.0), "zeta"),
        (lambda: minimal_length(0.1, 1.0, math.nan), "hbar"),
        (lambda: effective_hbar(1.0, 0.1, -1.0), "zeta"),
        (lambda: effective_hbar(1.0, 0.1, 1.0, 0.0), "hbar"),
        (lambda: effective_hbar(1.0, 0.1, True), "zeta"),
    ])
    def test_rejects_non_positive(self, call, name):
        with pytest.raises(DomainError, match=f"^{name} must be > 0, got "):
            call()

    @pytest.mark.parametrize("k, m, c", [
        (1e-300, 1e-300, 1.0),    # k m c underflows to 0
        (0.5, 1e-160, 1e-160),    # 1/(k m c)^2 overflows
        (0.5, 1e300, 1e300),      # k m c overflows, so zeta would read 0
    ])
    def test_landau_zeta_out_of_the_float_range(self, k, m, c):
        with pytest.raises(DomainError, match="out of the float range"):
            landau_zeta(k, m, c)
        with pytest.raises(DomainError, match="out of the float range"):
            gac_match_zeta(k, m, c)

    def test_config_names_the_field(self):
        with pytest.raises(DomainError, match=r"^PhenoConfig.hbar must be > 0, got 0$"):
            PhenoConfig(hbar=0)


class TestPutra:
    def test_rest(self):
        assert putra_bound(0.0).bound == 0.5

    def test_gamma_value(self):
        res = putra_bound(0.6)
        assert res.bound == pytest.approx(0.5 * 1.5625, rel=1e-14)
        assert res.expansion_first_order == pytest.approx(0.5 * 1.36, rel=1e-14)

    def test_expansion_remainder(self):
        v = 0.3
        res = putra_bound(v)
        remainder = abs(res.bound - res.expansion_first_order)
        assert remainder <= 0.5 * v**4 / (1.0 - v * v) * (1.0 + 1e-12)

    @pytest.mark.parametrize("v", [1.0, -1.2])
    def test_superluminal(self, v):
        with pytest.raises(DomainError):
            putra_bound(v)


class TestConfig:
    def test_defaults_documented(self):
        cfg = PhenoConfig()
        assert cfg.alpha_inverse == 137.035999206
        assert cfg.alpha_inverse_uncertainty == 1.1e-8
        assert cfg.characteristic_momentum == 3.7e-3

    def test_bohr_radius_metric_value(self):
        # a0 = hbar c / (p c) ~ 0.53 angstrom for the hydrogen scale
        cfg = PhenoConfig()
        a0_fm = cfg.bohr_radius * HBAR_C_MEV_FM
        assert a0_fm == pytest.approx(5.33e4, rel=2e-3)

    def test_delta_alpha_propagation(self):
        cfg = PhenoConfig()
        assert cfg.delta_alpha_exp == pytest.approx(
            cfg.alpha_inverse_uncertainty * cfg.alpha**2, rel=1e-14
        )

    @pytest.mark.parametrize(
        "kw",
        [
            {"alpha_inverse": -1.0},
            {"characteristic_momentum": 0.0},
            {"electron_mass": float("nan")},
            {"zeta_fixing": "bogus"},
            {"hbar": True},
            {"alpha_inverse": 10**400},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(DomainError):
            PhenoConfig(**kw)

    @pytest.mark.parametrize("alpha_inverse", [0.5, 1.0])
    def test_alpha_at_or_past_one(self, alpha_inverse):
        with pytest.raises(DomainError, match=r"^alpha must lie in \(0, 1\)$"):
            PhenoConfig(alpha_inverse=alpha_inverse)

    # rho = delta_alpha_exp / alpha = alpha_inverse_uncertainty / alpha_inverse; from
    # rho = 1/2 on, the resolution exceeds the largest shift alpha / 2: no bound exists
    @pytest.mark.parametrize("uncertainty", [100.0, 137.035999206 / 2])
    def test_resolution_past_the_largest_shift(self, uncertainty):
        with pytest.raises(DomainError, match="below 1/2"):
            PhenoConfig(alpha_inverse_uncertainty=uncertainty)

    def test_resolution_just_below_the_largest_shift(self):
        cfg = PhenoConfig(alpha_inverse_uncertainty=math.nextafter(137.035999206 / 2, 0.0))
        assert cfg.delta_alpha_exp / cfg.alpha < 0.5
        assert math.isfinite(kappa_bound(cfg).bound_kappa)
