import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_rup.errors import DomainError
from kappa_rup.kinematics import ParticleFrame, aux_energy, physical_map
from kappa_rup.params import KappaParameter


def frame(k, m=1.0, c=1.0):
    return ParticleFrame(m, c, KappaParameter(k))


class TestFrame:
    def test_v_star(self):
        assert frame(0.3, c=2.0).v_star == pytest.approx(0.6, rel=1e-15)

    @pytest.mark.parametrize("m,c", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (True, 1.0),
                                     (1.0, math.inf), (math.nan, 1.0)])
    def test_validation(self, m, c):
        with pytest.raises(DomainError):
            ParticleFrame(m, c, KappaParameter(0.2))

    def test_requires_positive_kappa(self):
        with pytest.raises(DomainError):
            ParticleFrame(1.0, 1.0, KappaParameter(0.0))

    def test_stores_floats(self):
        f = ParticleFrame(2, 3, KappaParameter(0.2))
        assert type(f.mass) is float and type(f.c) is float


class TestAuxiliaries:
    def test_rest_values(self):
        assert aux_energy(0.0, 0.5) == pytest.approx(4.0, rel=1e-15)

    def test_energy_value(self):
        # 4 sqrt(2), mpmath-checked
        assert aux_energy(2.0, 0.5) == pytest.approx(5.6568542494923802, rel=1e-14)

    def test_energy_small_momentum(self):
        # eps - 1/k^2 = W~ ~ p^2 / 2 near rest
        p = 1e-3
        assert aux_energy(p, 0.3) - aux_energy(0.0, 0.3) == pytest.approx(0.5 * p * p, rel=1e-6)

    def test_energy_asymptote(self):
        # eps ~ |p| / k far from rest
        assert aux_energy(1e14, 0.5) == pytest.approx(2e14, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, 30.0])
    def test_energy_slope_is_the_aux_velocity(self, p):
        # d eps / dp~ = u = p~ / sqrt(1 + k^2 p~^2), which stays below 1/k
        k, h = 0.5, 1e-6
        slope = (aux_energy(p + h, k) - aux_energy(p - h, k)) / (2 * h)
        u = p / math.sqrt(1.0 + (k * p) ** 2)
        assert slope == pytest.approx(u, rel=1e-7, abs=1e-8)
        assert abs(slope) < 1.0 / k

    @given(
        p=st.floats(min_value=-1e6, max_value=1e6),
        k=st.floats(min_value=1e-4, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_energy_at_least_the_rest_value(self, p, k):
        # eps - W~ = 1/k^2 with W~ >= 0
        assert aux_energy(p, k) >= aux_energy(0.0, k)

    @given(
        p=st.floats(min_value=-1e6, max_value=1e6),
        k=st.floats(min_value=1e-4, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_energy_even_in_momentum(self, p, k):
        assert aux_energy(-p, k) == aux_energy(p, k)

    def test_kappa_zero_rejected(self):
        with pytest.raises(DomainError):
            aux_energy(1.0, 0.0)


class TestPhysicalMap:
    def test_at_rest(self):
        st_ = physical_map(frame(0.3, m=2.0, c=3.0), 0.0)
        assert st_.p == 0.0
        assert st_.E == pytest.approx(2.0 * 9.0, rel=1e-15)
        assert st_.W == pytest.approx(0.0, abs=1e-14)

    def test_gamma_5_4(self):
        # v = 0.6 c: gamma = 1.25 exactly
        st_ = physical_map(frame(0.2), 0.6)
        assert st_.p == pytest.approx(0.75, rel=1e-14)
        assert st_.E == pytest.approx(1.25, rel=1e-14)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k", [0.1, 0.3, 0.7])
    def test_recovers_lorentz_forms(self, beta, k):
        m, c = 1.7, 2.0
        gamma = 1.0 / math.sqrt(1.0 - beta**2)
        st_ = physical_map(frame(k, m, c), beta * c)
        assert st_.p == pytest.approx(gamma * m * beta * c, rel=1e-12)
        assert st_.E == pytest.approx(gamma * m * c * c, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_kappa_independence(self, beta):
        states = [physical_map(frame(k), beta) for k in (0.1, 0.3, 0.7)]
        ps = [s.p for s in states]
        es = [s.E for s in states]
        assert (max(ps) - min(ps)) / ps[0] < 1e-12
        assert (max(es) - min(es)) / es[0] < 1e-12

    @given(beta=st.floats(min_value=-0.999, max_value=0.999))
    @settings(max_examples=200)
    def test_energy_momentum_identity(self, beta):
        m, c = 1.3, 2.5
        st_ = physical_map(frame(0.25, m, c), beta * c)
        lhs = st_.E**2
        rhs = (st_.p * c) ** 2 + (m * c * c) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_kinetic_nonnegative_and_monotone(self):
        f = frame(0.4)
        ws = [physical_map(f, v).W for v in np.linspace(0.0, 0.99, 34)]
        assert all(w >= 0.0 for w in ws)
        assert all(b >= a for a, b in zip(ws, ws[1:]))

    @pytest.mark.parametrize("v", [1.0, 1.5, -1.0])
    def test_superluminal_rejected(self, v):
        with pytest.raises(DomainError):
            physical_map(frame(0.2), v)
