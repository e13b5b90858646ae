import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_rup.coherent_states import delta_p, delta_x, f_expectation, moment_report, psi
from kappa_rup.deformed_algebra import (
    ORDER_X1,
    ORDER_X2,
    ORDER_X3,
    GridFunction,
    annihilation_residual,
    apply_position_operator,
    commutator_residual,
    convert_ordering,
    deformation_f,
    ode_residual,
    ordering_weight,
    robertson_bound,
)
from kappa_rup.errors import DomainError
from kappa_rup.params import KappaParameter, StateSpec
from kappa_rup.phenomenology import landau_zeta, minimal_length

from kappa_rup.deformed_algebra import _f_core, _general_parts, _scratch
from oracles import (
    complex_annihilation_residual,
    complex_commutator_residual,
    complex_position_operator,
    mp_deformation_f2,
    whole_grid_ode_residual,
)


def spec_of(k, z=1.0):
    return StateSpec(KappaParameter(k), z)


def f_core(q, k):
    """_f_core's (q^2, x, s, f~) at the unit-state momenta q, on rows of their own."""
    return _f_core(q, k, _scratch(4, np.shape(q)))


def family(p, k, z, c0=1.0, c1=0.0):
    """(f, f', f'') of the general family, d/dp: _general_parts' d/dq at q = p sqrt(z),
    times sqrt(z) per derivative; c0 = 1, c1 = 0 is the selected deformation."""
    r = math.sqrt(z)
    q = np.asarray(p, dtype=float) * r
    f, f1, f2 = _general_parts(q, k, c0, c1, _scratch(8, np.shape(q)))[2:]
    return f, r * f1, z * f2


def general_family(p, k, z, dx, dp, hbar=1.0, c1=0.0):
    """family for the pair (dx, dp): c0 = dx / (hbar z (1-k^2) dp)."""
    return family(p, k, z, dx / StateSpec(k, z, hbar).delta_x_for(dp), c1)


class TestDeformationF:
    def test_at_origin(self):
        assert deformation_f(0.0, 0.4, 1.3) == 1.0

    def test_classical(self):
        p = np.linspace(-10, 10, 21)
        assert np.all(deformation_f(p, 0.0, 2.0) == 1.0)

    def test_direct_value(self):
        # sqrt(1.25) + 0.25, mpmath-checked
        assert deformation_f(1.0, 0.5, 1.0) == pytest.approx(1.3680339887498949, rel=1e-14)

    @given(
        p=st.floats(min_value=-1e3, max_value=1e3),
        k=st.floats(min_value=0.0, max_value=0.99),
        z=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_at_least_one_and_even(self, p, k, z):
        f = deformation_f(p, k, z)
        assert f >= 1.0
        assert deformation_f(-p, k, z) == f
        # strict inequality, where 1 + k^2 z p^2 is resolvable in doubles
        if k > 1e-3 and abs(p) > 1e-3:
            assert f > 1.0

    def test_s_within_one_ulp_of_hypot(self):
        # s = sqrt(1 + x^2), x = k q^2 capped at 2^27, against libm hypot(1, x): for q^2
        # over the float range, on a dense uniform stretch of x from 0, and at 2^27 and its
        # two neighbours. k = 2^-10 keeps f = s + k x finite; at q = 2^13, k = 2 c for
        # c = 1 - 2^-53, 1, 1 + 2^-52 makes x exactly 2^27 c
        k = 2.0**-10
        q2 = np.concatenate([np.geomspace(1e-300, 1.7e308, 2 * 10**6),
                             np.linspace(0.0, 1e5, 2 * 10**6) / k])
        cases = [(np.sqrt(q2), k)] + [
            (np.array([2.0**13]), 2.0 * c)
            for c in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))
        ]
        with np.errstate(over="raise", invalid="raise"):
            for q, k in cases:
                _, x, s, _ = f_core(q, k)
                ref = np.hypot(1.0, x)
                assert np.all(np.abs(s - ref) <= np.spacing(ref))

    def test_huge_momentum_no_overflow(self):
        # p^4 would overflow; s must be formed without squaring k z p^2 there
        f = deformation_f(1e100, 0.3, 1.0)
        assert math.isfinite(math.log(f))


class TestDerivatives:
    # separate steps: the first difference tolerates h = 1e-6, the second
    # difference needs h = 1e-4 to keep roundoff (eps/h^2) below truncation
    @pytest.mark.parametrize("k,z", [(0.2, 1.0), (0.5, 0.7), (0.05, 3.0)])
    def test_against_central_differences(self, k, z):
        p = np.linspace(-4.0, 4.0, 37)
        f, f1, f2 = family(p, k, z)
        assert np.allclose(f, deformation_f(p, k, z), rtol=0, atol=0)
        h = 1e-6
        fd1 = (deformation_f(p + h, k, z) - deformation_f(p - h, k, z)) / (2 * h)
        assert np.allclose(f1, fd1, rtol=1e-7, atol=1e-8)
        h = 1e-4
        fd2 = (
            deformation_f(p + h, k, z)
            - 2 * deformation_f(p, k, z)
            + deformation_f(p - h, k, z)
        ) / h**2
        assert np.allclose(f2, fd2, rtol=1e-4, atol=1e-6)

    def test_second_derivative_at_huge_momentum(self):
        # p^6 / s^3 is inf / inf here; f'' tends to 2 k z (k + 1)
        k, z = 0.3, 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f2 = family(np.array([-1e60, 1e60]), k, z)[2]
        assert np.all(np.isfinite(f2))
        assert np.allclose(f2, 2 * k * z * (k + 1), rtol=1e-14, atol=0)

    def test_second_derivative_against_mpmath(self):
        # kappa from 1e-3 to 0.6 while k z p^2 runs from 1e-3 to 1e3
        z = 1.3
        for k, x in zip(np.geomspace(1e-3, 0.6, 20), np.geomspace(1e-3, 1e3, 20)):
            k = float(k)
            p = math.sqrt(x / (k * z))
            f2 = family(p, k, z)[2]
            assert f2 == pytest.approx(mp_deformation_f2(p, k, z), rel=2e-15, abs=0)

    @pytest.mark.parametrize("c1,dx_scale", [(0.1, 1.0), (0.05, 1.3), (0.0, 0.8)])
    def test_general_family_derivatives(self, c1, dx_scale):
        k, z, dp = 0.3, 1.0, 0.9
        dx = dx_scale * z * (1 - k * k) * dp
        p = np.linspace(-3.0, 3.0, 25)

        def f_of(q):
            return general_family(q, k, z, dx, dp, 1.0, c1)[0]

        f, f1, f2 = general_family(p, k, z, dx, dp, 1.0, c1)
        assert np.allclose(f, f_of(p), rtol=0, atol=0)
        h = 1e-6
        assert np.allclose(f1, (f_of(p + h) - f_of(p - h)) / (2 * h), rtol=1e-7, atol=1e-8)
        h = 1e-4
        assert np.allclose(
            f2, (f_of(p + h) - 2 * f_of(p) + f_of(p - h)) / h**2, rtol=1e-4, atol=1e-6
        )


class TestDeformationGeneral:
    def test_reduces_to_selected_f(self):
        k, z, dp = 0.35, 1.4, 0.8
        dx = z * (1 - k * k) * dp
        p = np.linspace(-5, 5, 41)
        assert np.allclose(
            general_family(p, k, z, dx, dp)[0], deformation_f(p, k, z), rtol=1e-14
        )

    def test_classical_constant(self):
        # c1 = 0, kappa -> 0: dx / (hbar zeta dp) for every p
        val = general_family(np.array([0.0, 1.0, 3.0]), 0.0, 2.0, 0.6, 1.5)[0]
        assert np.allclose(val, 0.6 / (2.0 * 1.5), rtol=1e-15)

    def test_frozen_value(self):
        # mpmath: f_core/(z(1-k^2)) + 0.1 exp_k(z p^2) at p=1, k=0.3
        assert general_family(1.0, 0.3, 1.0, 1.0, 1.0, 1.0, 0.1)[0] == pytest.approx(
            1.5141232243920741, rel=1e-13
        )


class TestRobertsonBound:
    def test_heisenberg(self):
        assert robertson_bound(1.0, 1.0) == 0.5

    def test_deformed(self):
        f = f_expectation(KappaParameter(0.2))
        assert robertson_bound(f, 2.0) == pytest.approx(f, rel=1e-15)

    def test_quadrature_mean_matches_closed(self):
        s = spec_of(0.3)
        f_quad = moment_report(s, 1e-10).f_expect_quad
        assert robertson_bound(f_quad) == pytest.approx(
            robertson_bound(f_expectation(s.kappa)), rel=1e-6
        )

    def test_rejects_submean(self):
        with pytest.raises(DomainError):
            robertson_bound(0.5)

    @pytest.mark.parametrize("f_mean", [math.nan, math.inf, True, "1.2"])
    def test_rejects_a_mean_that_is_not_a_finite_number(self, f_mean):
        with pytest.raises(DomainError, match=r"^mean deformation must be finite and >= 1"):
            robertson_bound(f_mean)


class TestMinimalLength:
    def test_classical_zero(self):
        assert minimal_length(0.0, 5.0) == 0.0

    def test_generic(self):
        assert minimal_length(0.3, 4.0, 2.0) == pytest.approx(2.0 * 0.3 * 2.0, rel=1e-15)

    def test_compton_fixing(self):
        # zeta from the pair-production argument puts the floor at hbar/(m c)
        for k, m_val, c_val in [(0.1, 1.0, 1.0), (0.25, 2.0, 1.0), (1e-5, 0.511, 1.0)]:
            z = landau_zeta(k, m_val, c_val)
            assert minimal_length(k, z) == pytest.approx(1.0 / (m_val * c_val), rel=5e-16)


class TestOrderingWeight:
    def test_symmetric_is_unity(self):
        p = np.linspace(-6, 6, 31)
        assert np.all(ordering_weight(p, ORDER_X3, 0.4, 1.0) == 1.0)

    def test_a_zero_is_inverse_f(self):
        p = np.linspace(-4, 4, 17)
        assert np.allclose(
            ordering_weight(p, ORDER_X1, 0.3, 1.0),
            1.0 / deformation_f(p, 0.3, 1.0),
            rtol=1e-14,
        )

    def test_a_one_value(self):
        assert ordering_weight(1.0, ORDER_X2, 0.5, 1.0) == pytest.approx(
            1.3680339887498949, rel=1e-14
        )

    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_identity_resolution_consistency(self, a):
        p = np.linspace(-5, 5, 21)
        g = ordering_weight(p, a, 0.35, 1.2)
        f = deformation_f(p, 0.35, 1.2)
        assert np.allclose(g * f ** (1.0 - 2.0 * a), 1.0, rtol=1e-12)


class TestGridFunction:
    def test_too_few_points(self):
        with pytest.raises(DomainError):
            GridFunction(-1.0, 1.0, np.ones(8, dtype=complex))

    def test_nonfinite_samples(self):
        bad = np.ones(32, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(DomainError):
            GridFunction(-1.0, 1.0, bad)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            GridFunction(1.0, -1.0, np.ones(32, dtype=complex))

    @pytest.mark.parametrize("p_min,p_max", [(-math.inf, math.inf), (-1e308, 1e308),
                                             (0.0, math.inf), (math.nan, 1.0)])
    def test_span_that_is_not_finite(self, p_min, p_max):
        # the step (p_max - p_min) / (n - 1) and every grid kernel need a finite span
        with pytest.raises(DomainError, match="finite span"):
            GridFunction(p_min, p_max, np.ones(32, dtype=complex))

    def test_samples_read_only(self):
        g = GridFunction(-1.0, 1.0, np.ones(32, dtype=complex))
        with pytest.raises(ValueError):
            g.samples[0] = 2.0

    def test_nan_in_imaginary_part_alone(self):
        bad = np.ones(32, dtype=complex)
        bad[3] = complex(1.0, np.nan)
        with pytest.raises(DomainError):
            GridFunction(-1.0, 1.0, bad)

    def test_samples_do_not_alias_the_input(self):
        given_samples = np.ones(32, dtype=complex)
        g = GridFunction(-1.0, 1.0, given_samples)
        assert not np.shares_memory(g.samples, given_samples)
        given_samples[0] = 2.0
        assert g.samples[0] == 1.0


class TestConvertOrdering:
    def grid(self, k=0.3, z=1.0):
        p = np.linspace(-10, 10, 101)
        return GridFunction(-10, 10, psi(p, spec_of(k, z)).astype(complex))

    def test_identity(self):
        g = self.grid()
        assert convert_ordering(g, 0.5, 0.5, 0.3, 1.0) is g

    def test_round_trip(self):
        g = self.grid()
        back = convert_ordering(convert_ordering(g, 0.5, 0.0, 0.3, 1.0), 0.0, 0.5, 0.3, 1.0)
        assert np.allclose(back.samples, g.samples, rtol=1e-12)

    def test_origin_sample_unchanged(self):
        g = self.grid()
        mid = g.n_points // 2
        out = convert_ordering(g, 0.0, 1.0, 0.3, 1.0)
        assert out.samples[mid] == pytest.approx(g.samples[mid], rel=1e-14)


class TestPositionOperator:
    def test_classical_gaussian_derivative(self):
        # for kappa = 0 the operator is i hbar d/dp; compare to the
        # analytic Gaussian derivative at interior points
        s = spec_of(0.0)
        p = np.linspace(-10, 10, 801)
        g = GridFunction(-10, 10, psi(p, s).astype(complex))
        out = apply_position_operator(g, ORDER_X3, 0.0, 1.0, 1.0)
        expected = 1j * (-p) * psi(p, s)  # psi' = -zeta p psi
        err = np.max(np.abs(out.samples[4:-4] - expected[4:-4]))
        assert err < 1e-6

    def test_parity_gives_zero_mean_position(self):
        s = spec_of(0.2)
        p = np.linspace(-60, 60, 1201)
        g = GridFunction(-60, 60, psi(p, s).astype(complex))
        x_psi = apply_position_operator(g, ORDER_X3, 0.2, 1.0, 1.0)
        mean_x = np.sum(np.conj(g.samples) * x_psi.samples) * g.h
        assert abs(mean_x) < 1e-10


class TestAnnihilationResidual:
    def test_classical_gaussian_annihilated(self):
        s = spec_of(0.0)
        assert annihilation_residual(s, -12.0, 12.0, 2048) < 1e-8

    def test_fourth_order_convergence(self):
        s = spec_of(0.2)
        r1 = annihilation_residual(s, -400.0, 400.0, 4096)
        r2 = annihilation_residual(s, -400.0, 400.0, 8192)
        assert r1 / r2 > 12.0

    def test_wrong_state_control(self):
        s = spec_of(0.2)
        r_a = annihilation_residual(s, -400.0, 400.0, 4096, delta_p_factor=1.5)
        r_b = annihilation_residual(s, -400.0, 400.0, 8192, delta_p_factor=1.5)
        assert r_a > 0.01 and r_b > 0.01
        assert r_a / r_b < 2.0  # no 4th-order decay

    def test_grid_coverage_precondition(self):
        with pytest.raises(DomainError):
            annihilation_residual(spec_of(0.2), -5.0, 5.0, 1024)

    def test_too_few_points(self):
        with pytest.raises(DomainError, match="needs >= 16 points"):
            annihilation_residual(spec_of(0.2), -400.0, 400.0, 15)


class TestCommutatorResidual:
    def build(self, samples_fn, extent, n, k=0.2, z=1.0):
        p = np.linspace(-extent, extent, n)
        return GridFunction(-extent, extent, samples_fn(p).astype(complex))

    def test_classical_gaussian(self):
        res = []
        for n in (512, 1024):
            g = self.build(lambda p: np.exp(-0.5 * p**2), 12.0, n)
            res.append(commutator_residual(g, 0.0, 1.0))
        assert res[0] / res[1] > 12.0

    def test_kappa_gaussian_state(self):
        s = spec_of(0.2)
        res = []
        for n in (4096, 8192):
            g = self.build(lambda p: psi(p, s), 400.0, n)
            res.append(commutator_residual(g, 0.2, 1.0))
        assert res[0] / res[1] > 12.0

    def test_state_independence_polynomial_gaussian(self):
        # Hermite-like smooth decaying state, same operator identity
        res = []
        for n in (1024, 2048):
            g = self.build(lambda p: (p**3 - 3.0 * p + 0.5) * np.exp(-0.5 * p**2), 14.0, n)
            res.append(commutator_residual(g, 0.2, 1.0))
        assert res[0] / res[1] > 12.0

    @pytest.mark.parametrize("n", [2**11, 2**14])
    def test_bit_identical_to_operator_composition(self, n):
        # reference: [x, p] psi composed from apply_position_operator on GridFunctions at
        # hbar = 1, the unit state's; the residual is free of hbar, so it is those bits at 1.3
        k, z, hbar = 0.2, 1.0, 1.3
        g = self.build(lambda p: psi(p, spec_of(k, z)), 400.0, n)
        p = g.p_values()
        x_p_psi = apply_position_operator(
            GridFunction(g.p_min, g.p_max, p * g.samples), ORDER_X3, k, z)
        x_psi = apply_position_operator(g, ORDER_X3, k, z)
        target = 1j * deformation_f(p, k, z) * g.samples
        diff = x_p_psi.samples - p * x_psi.samples - target
        ref = (math.sqrt(float(np.sum(np.abs(diff) ** 2)) * g.h)
               / math.sqrt(float(np.sum(np.abs(target) ** 2)) * g.h))
        assert commutator_residual(g, k, z, hbar) == ref


def _kernel_calls(monkeypatch, residual, n):
    """The arguments of each (f, f') kernel call one residual makes on an
    n-point grid over [-400, 400]."""
    from kappa_rup import deformed_algebra

    kernel, calls = deformed_algebra._f_f1, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(deformed_algebra, "_f_f1", counted)
    s = spec_of(0.2)
    p = np.linspace(-400.0, 400.0, n)
    if residual == "annihilation":
        annihilation_residual(s, -400.0, 400.0, n)
    elif residual == "commutator":
        commutator_residual(GridFunction(-400.0, 400.0, psi(p, s).astype(complex)), 0.2, 1.0)
    else:
        ode_residual(p, 0.2, 1.0, delta_x(s), delta_p(s))
    return calls


@pytest.mark.parametrize("residual", ["annihilation", "commutator", "ode"])
def test_residual_evaluates_f_once(monkeypatch, residual):
    assert len(_kernel_calls(monkeypatch, residual, 2048)) == 1


@pytest.mark.parametrize("residual", ["annihilation", "commutator", "ode"])
def test_residual_evaluates_f_once_per_point(monkeypatch, residual):
    # past one block the kernel runs once per block: its momentum arguments are
    # consecutive, disjoint slices that cover the grid exactly once
    n = 2**17
    blocks = [np.asarray(args[0]) for args in _kernel_calls(monkeypatch, residual, n)]
    assert len(blocks) > 1
    for a, b in zip(blocks, blocks[1:]):
        assert b.__array_interface__["data"][0] == a.__array_interface__["data"][0] + a.nbytes
    np.testing.assert_array_equal(np.concatenate(blocks), np.linspace(-400.0, 400.0, n))


# the peak memory of each grid kernel at 2^17 points, in arrays of that many floats: psi
# takes its output and at most one block; each residual no more than the whole-grid-
# temporaries form it replaced (which measured 4.19, 3.88 and 1.75); deformation_f its
# output and s
_PEAK_BOUNDS = {"psi": 1.0 + 2.0**-4, "annihilation": 4.19, "commutator": 3.88, "ode": 1.75,
                "deformation_f": 2.0 + 2.0**-4}


@pytest.mark.parametrize("kernel", sorted(_PEAK_BOUNDS))
def test_grid_kernel_peak_memory(kernel):
    n, s = 2**17, spec_of(0.3)
    p = np.linspace(-400.0, 400.0, n)
    grid = GridFunction(-400.0, 400.0, psi(p, s) * np.exp(0.3j * p))
    run = {"psi": lambda: psi(p, s),
           "annihilation": lambda: annihilation_residual(s, -400.0, 400.0, n),
           "commutator": lambda: commutator_residual(grid, 0.3, 1.0),
           "ode": lambda: ode_residual(p, 0.3, 1.0, delta_x(s), delta_p(s)),
           "deformation_f": lambda: deformation_f(p, 0.3, 1.0)}[kernel]
    run()  # the closed forms' one-entry caches filled
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_BOUNDS[kernel] * p.nbytes


@pytest.mark.parametrize("hbar", [1.0, 1.3])
@pytest.mark.parametrize("k", [0.0, 0.05, 0.2, 0.6])
@pytest.mark.parametrize("n", [2**11, 2**14, 2**17, 3 * 2**13 + 5, 2**13 + 1])
class TestBlockedKernelsMatchWholeGrid:
    """The real, blocked kernels against the complex whole-grid forms in
    oracles, on one block, many blocks, and sizes that end in a short block
    (one point past 2^13 leaves a last block narrower than the stencil). The
    residuals are free of hbar, so at every hbar they are the unit state's
    (hbar = 1) forms, to the bit."""

    def build(self, n, k, hbar, extent=400.0):
        spec = StateSpec(KappaParameter(k), 1.0, hbar)
        grid = GridFunction(-extent, extent, psi(np.linspace(-extent, extent, n), spec))
        f, f1, _ = family(grid.p_values(), k, 1.0)
        return spec, grid, grid.p_values(), f, f1

    def test_annihilation_residual(self, n, k, hbar):
        spec, grid, p, f, f1 = self.build(n, k, hbar)
        ref = complex_annihilation_residual(grid.samples.real, p, grid.h, f, f1,
                                            delta_x(spec_of(k)), delta_p(spec_of(k)))
        assert annihilation_residual(spec, -400.0, 400.0, n) == ref

    def test_commutator_residual_real_state(self, n, k, hbar):
        _, grid, p, f, f1 = self.build(n, k, hbar)
        ref = complex_commutator_residual(grid.samples, p, grid.h, f, f1)
        assert commutator_residual(grid, k, 1.0, hbar) == ref

    def test_commutator_residual_complex_state(self, n, k, hbar):
        # the real and imaginary parts' squares add, where complex abs takes hypot
        _, grid, p, f, f1 = self.build(n, k, hbar)
        samples = grid.samples * np.exp(0.3j * p)
        ref = complex_commutator_residual(samples, p, grid.h, f, f1)
        got = commutator_residual(GridFunction(-400.0, 400.0, samples), k, 1.0, hbar)
        assert got == pytest.approx(ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    def test_position_operator_complex_state(self, n, k, hbar, a):
        _, grid, p, f, f1 = self.build(n, k, hbar)
        samples = grid.samples * np.exp(0.3j * p)
        ref = complex_position_operator(samples, grid.h, f, f1, a, hbar)
        got = apply_position_operator(GridFunction(-400.0, 400.0, samples), a, k, 1.0, hbar)
        np.testing.assert_array_equal(got.samples, ref)

    def test_ode_residual(self, n, k, hbar):
        spec, grid, p, _, _ = self.build(n, k, hbar)
        dx, dp = delta_x(spec), delta_p(spec)
        ref = whole_grid_ode_residual(p, k, dx / hbar, dp, f_core(p, k)[2],
                                      *general_family(p, k, 1.0, dx, dp, hbar, 0.0))
        np.testing.assert_array_equal(ode_residual(p, k, 1.0, dx, dp, hbar), ref)

    def test_ode_residual_with_c1(self, n, k, hbar):
        # f and f^2 would overflow on a wide grid at kappa = 0 (f ~ exp(z p^2))
        p = np.linspace(-10.0, 10.0, n)
        parts = general_family(p, k, 1.0, 0.77, 1.21, hbar, 0.05)
        ref = whole_grid_ode_residual(p, k, 0.77 / hbar, 1.21, f_core(p, k)[2], *parts)
        np.testing.assert_array_equal(ode_residual(p, k, 1.0, 0.77, 1.21, hbar, c1=0.05), ref)

    def test_ode_residual_with_f_parts(self, n, k, hbar):
        spec, grid, p, _, _ = self.build(n, k, hbar)
        dx, dp = delta_x(spec), delta_p(spec)
        parts = family(p, k, 1.0)
        ref = whole_grid_ode_residual(p, k, 1.5 * dx / hbar, dp, f_core(p, k)[2], *parts)
        got = ode_residual(p, k, 1.0, 1.5 * dx, dp, hbar, f_parts=parts)
        np.testing.assert_array_equal(got, ref)


class TestOdeResidual:
    def dx_dp(self, k, z):
        s = spec_of(k, z)
        dp = delta_p(s)
        return z * (1 - k * k) * dp, dp

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5])
    def test_selected_solution(self, k):
        dx, dp = self.dx_dp(k, 1.0)
        p = np.linspace(-5, 5, 200)
        assert np.max(np.abs(ode_residual(p, k, 1.0, dx, dp))) < 1e-9

    def test_two_parameter_family(self):
        # arbitrary dx/dp ratio and c1 still solve the equation
        p = np.linspace(-5, 5, 200)
        res = ode_residual(p, 0.3, 1.0, 0.77, 1.21, 1.0, c1=0.05)
        assert np.max(np.abs(res)) < 1e-9

    def test_rejects_undeformed_f(self):
        dx, dp = self.dx_dp(0.3, 1.0)
        p = np.linspace(-5, 5, 200)
        ones = np.ones_like(p)
        res = ode_residual(p, 0.3, 1.0, dx, dp, f_parts=(ones, 0 * ones, 0 * ones))
        assert np.max(np.abs(res)) > 1e-3

    def test_off_family_mismatch(self):
        # f built for one (dx, dp) pair substituted into the equation
        # with different coefficients must not vanish
        p = np.linspace(-5, 5, 200)
        parts = general_family(p, 0.3, 1.0, 0.77, 1.21, 1.0, 0.0)
        res = ode_residual(p, 0.3, 1.0, 0.77 * 1.5, 1.21, 1.0, f_parts=parts)
        assert np.max(np.abs(res)) > 1e-3


def _inner(u, v, h, weight=None):
    w = 1.0 if weight is None else weight
    return np.sum(w * np.conj(u) * v) * h


class TestOrderingSymmetry:
    """Discrete symmetry defect of the position operator under the
    measure g = f^(2A-1).

    The states must carry no definite parity: for even u, v the
    asymmetry integral f' u v is odd and vanishes by parity alone,
    hiding the measure dependence this test is about.
    """

    def defect(self, a, weight_fn, n, k=0.25, z=1.0, extent=22.0):
        p = np.linspace(-extent, extent, n)
        u = (1.0 - 0.3 * p) * np.exp(-0.1 * p**2)
        v = (0.7 + 0.4 * p + 0.2 * p**2) * np.exp(-0.125 * p**2)
        gu = GridFunction(-extent, extent, u.astype(complex))
        gv = GridFunction(-extent, extent, v.astype(complex))
        xu = apply_position_operator(gu, a, k, z)
        xv = apply_position_operator(gv, a, k, z)
        w = weight_fn(p) if weight_fn is not None else None
        h = gu.h
        lhs = _inner(u, xv.samples, h, w)
        rhs = _inner(xu.samples, v, h, w)
        scale = abs(_inner(u, np.abs(xv.samples), h, w)) + 1e-300
        return abs(lhs - rhs) / scale

    def test_symmetric_ordering_unit_measure(self):
        d1 = self.defect(ORDER_X3, None, 1024)
        d2 = self.defect(ORDER_X3, None, 2048)
        assert d2 < d1 and d2 < 1e-8

    def test_a_zero_needs_inverse_f_measure(self):
        # the 1/f weight cancels f inside the difference operator, so the
        # discrete defect sits at the rounding floor for every n
        weight = lambda p: 1.0 / deformation_f(p, 0.25, 1.0)
        assert self.defect(ORDER_X1, weight, 1024) < 1e-12
        assert self.defect(ORDER_X1, weight, 2048) < 1e-12

    def test_a_zero_not_symmetric_under_unit_measure(self):
        d = self.defect(ORDER_X1, None, 2048)
        assert d > 1e-4


class TestScaleFreeResiduals:
    """Each residual runs on the unit state, free of hbar, and the ODE's terms are
    quadratic forms in (dq f, dy), dq = dp sqrt(zeta), dy = dx / (hbar sqrt(zeta)): a
    power-of-two change of those scales keeps every bit, and an hbar or dp far from 1
    neither overflows nor divides by zero."""

    @pytest.mark.parametrize("e", [-1000, -530, -40, 40, 530, 1000])
    def test_annihilation_and_commutator_ignore_hbar(self, e):
        hbar = math.ldexp(1.3, e)
        n, k = 3 * 2**13 + 5, 0.2
        ref = annihilation_residual(StateSpec(k, 1.0, 1.3), -400.0, 400.0, n)
        assert annihilation_residual(StateSpec(k, 1.0, hbar), -400.0, 400.0, n) == ref
        p = np.linspace(-400.0, 400.0, n)
        grid = GridFunction(-400.0, 400.0, psi(p, spec_of(k)) * np.exp(0.3j * p))
        assert commutator_residual(grid, k, 1.0, hbar) == commutator_residual(grid, k, 1.0, 1.3)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_annihilation_where_hbar_zeta_leaves_the_float_range(self, scale):
        # hbar zeta is 1e400 or 1e-400 with dx in range: the residual, free of hbar, is
        # finite and equals its value at hbar in [1, 2)
        n, bound = 3 * 2**13 + 5, 400.0 / math.sqrt(scale)
        got = annihilation_residual(StateSpec(0.2, scale, scale), -bound, bound, n)
        unit_hbar = math.ldexp(scale, 1 - math.frexp(scale)[1])
        assert math.isfinite(got)
        assert got == annihilation_residual(StateSpec(0.2, scale, unit_hbar), -bound, bound, n)

    @pytest.mark.parametrize("zeta", [2.2250738585072017e-306, 1e-300, 7.3, 1e300])
    @pytest.mark.parametrize("hbar", [1.0, 1e-150])
    def test_residuals_at_any_zeta_are_the_unit_states(self, zeta, hbar):
        # a grid over +-400 / sqrt(zeta) maps to q in +-400 up to the rounding of its ends,
        # and |p| up to 2.7e155 (p^2 past the float range) raises no warning
        n, r = 4096, math.sqrt(zeta)
        spec, unit = StateSpec(0.2, zeta, hbar), spec_of(0.2)
        p = np.linspace(-400.0 / r, 400.0 / r, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ann = annihilation_residual(spec, -400.0 / r, 400.0 / r, n)
            grid = GridFunction(-400.0 / r, 400.0 / r, psi(p, spec))
            comm = commutator_residual(grid, 0.2, zeta, hbar)
            ode = ode_residual(p, 0.2, zeta, delta_x(spec), delta_p(spec), hbar)
        q = np.linspace(-400.0, 400.0, n)
        assert ann == pytest.approx(annihilation_residual(unit, -400.0, 400.0, n), rel=1e-11)
        unit_grid = GridFunction(-400.0, 400.0, psi(q, unit))
        assert comm == pytest.approx(commutator_residual(unit_grid, 0.2, 1.0), rel=1e-11)
        assert np.max(np.abs(ode)) < 1e-9

    def test_ode_pair_past_the_float_range_is_a_domain_error(self):
        # dq = 1e300 and dy = 1e-300 lie further apart than the float range spans
        p = np.linspace(-5.0, 5.0, 20)
        ones = np.ones_like(p)
        with pytest.raises(DomainError, match="leave the float range"):
            ode_residual(p, 0.2, 1.0, 1e-300, 1e300, f_parts=(ones, 0 * ones, 0 * ones))

    @pytest.mark.parametrize("call", ["commutator", "position operator", "annihilation"])
    def test_grid_whose_q_span_overflows_is_a_domain_error(self, call):
        # ends +-1e200 at sqrt(zeta) = 1e150: q would reach +-1e350, past the float range
        p = np.linspace(-1e200, 1e200, 64)
        grid = GridFunction(-1e200, 1e200, np.exp(-np.square(p / 1e199)))
        run = {"commutator": lambda: commutator_residual(grid, 0.2, 1e300),
               "position operator": lambda: apply_position_operator(grid, ORDER_X3, 0.2, 1e300),
               "annihilation": lambda: annihilation_residual(StateSpec(0.2, 1e300), -1e200,
                                                             1e200, 64)}[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="leaves the float range"):
                run()

    @pytest.mark.parametrize("e", [-1000, -530, -40, 40, 530, 1000])
    @pytest.mark.parametrize("c1", [0.0, 0.05])
    def test_ode_residual_ignores_the_common_scale(self, e, c1):
        p = np.linspace(-10.0, 10.0, 401)
        ref = ode_residual(p, 0.3, 1.0, 0.77, 1.21, 1.3, c1)
        # hbar dp f and dx scaled together; and hbar against dp, which leaves c0
        got = ode_residual(p, 0.3, 1.0, math.ldexp(0.77, e), 1.21, math.ldexp(1.3, e), c1)
        np.testing.assert_array_equal(got, ref)
        got = ode_residual(p, 0.3, 1.0, 0.77, math.ldexp(1.21, -e), math.ldexp(1.3, e), c1)
        np.testing.assert_array_equal(got, ref)

    def test_family_far_from_unit_scale_solves_the_ode(self):
        # dp**2 alone overflows the float range; the family still solves the equation
        p = np.linspace(-5.0, 5.0, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ode_residual(p, 0.2, 1.0, 1.0, 1e200)
            res_c1 = ode_residual(p, 0.3, 1.0, 0.77, 1.21, 1e250, c1=0.05)
        assert np.max(np.abs(res)) < 1e-9 and np.max(np.abs(res_c1)) < 1e-9

    def test_zero_state_is_a_domain_error(self):
        with pytest.raises(DomainError, match="not 0 on the grid"):
            commutator_residual(GridFunction(-1.0, 1.0, np.zeros(32)), 0.2, 1.0)

    @pytest.mark.parametrize("hbar, dp", [(1.0, 0.0), (1e200, 1e200), (5e-324, 0.7)])
    def test_dx_outside_the_normal_range_is_a_domain_error(self, hbar, dp):
        with pytest.raises(DomainError, match="not a positive normal float"):
            StateSpec(0.2, 1.0, hbar).delta_x_for(dp)
        with pytest.raises(DomainError, match="not a positive normal float"):
            ode_residual(np.linspace(-5.0, 5.0, 20), 0.2, 1.0, 1.0, dp, hbar)
