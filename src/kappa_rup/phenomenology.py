"""Effective-Planck-constant phenomenology and bounds on the deformation.

The saturated deformed uncertainty relation

    dx dp = (hbar/2) (1 + k^2 z dp^2)

is re-read as a Heisenberg relation with hbar_eff = hbar (1 + k^2 z dp^2).
Identifying dx with the Bohr radius a0 turns the rescaling into a shift
of the fine-structure constant,

    alpha_eff = alpha (1 + sqrt(1 - hbar^2 k^2 z / a0^2)) / 2
              ~ alpha (1 - hbar^2 k^2 z / (4 a0^2)),

and demanding the shift stay below the experimental resolution of
1/alpha = 137.035999206(11) bounds k sqrt(z), and, once the momentum
scale 1/sqrt(z) is fixed, k itself.

Every input is a plain float in MeV-based units: momenta in MeV/c,
lengths in (MeV/c)^-1, zeta in (MeV/c)^-2, masses in MeV/c^2 and
speeds in units of c (natural units, hbar = c = 1 by default).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .errors import BelowMinimalLengthError, DomainError
from .params import KappaLike, as_kappa, positive_float

__all__ = [
    "PhenoConfig",
    "AlphaShift",
    "KappaBound",
    "PutraBound",
    "effective_hbar",
    "minimal_length",
    "effective_alpha",
    "kappa_bound",
    "landau_zeta",
    "gac_match_zeta",
    "putra_bound",
]

ZETA_FIXINGS = ("characteristic-momentum", "landau", "gac")


@dataclass(frozen=True)
class PhenoConfig:
    """Inputs of the fine-structure pipeline (defaults: electron / hydrogen).

    characteristic_momentum is 1/sqrt(zeta) in MeV/c; alpha_inverse
    carries its one-sigma uncertainty on the same scale (the "(11)" of
    137.035999206(11) is 1.1e-8). zeta_fixing selects the momentum
    scale used to convert the bound on kappa*sqrt(zeta) into a bound on
    kappa alone; only "characteristic-momentum" reproduces the headline
    number, the Compton-type fixings lock kappa*sqrt(zeta) by
    construction and are provided for comparison.
    """

    alpha_inverse: float = 137.035999206
    alpha_inverse_uncertainty: float = 1.1e-8
    characteristic_momentum: float = 3.7e-3   # MeV/c
    hbar: float = 1.0
    c: float = 1.0
    electron_mass: float = 0.511              # MeV/c^2
    zeta_fixing: str = "characteristic-momentum"

    def __post_init__(self):
        for f in fields(self):
            if f.name != "zeta_fixing":
                positive_float(f"PhenoConfig.{f.name}", getattr(self, f.name))
        if not 0.0 < 1.0 / self.alpha_inverse < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        # the largest shift is alpha / 2: a resolution rho alpha past it bounds nothing
        rho = self.delta_alpha_exp / self.alpha
        if not rho < 0.5:
            raise DomainError(
                f"alpha_inverse_uncertainty / alpha_inverse must be below 1/2, got {rho!r}"
            )
        if self.zeta_fixing not in ZETA_FIXINGS:
            raise DomainError(
                f"zeta_fixing must be one of {ZETA_FIXINGS}, got {self.zeta_fixing!r}"
            )
        kappa_bound(self)  # the bound must be a float too

    @property
    def alpha(self) -> float:
        return 1.0 / self.alpha_inverse

    @property
    def delta_alpha_exp(self) -> float:
        """Propagated uncertainty on alpha itself."""
        return self.alpha_inverse_uncertainty / self.alpha_inverse**2

    @property
    def bohr_radius(self) -> float:
        """a0 = hbar / characteristic momentum, in hbar (MeV/c)^-1."""
        return self.hbar / self.characteristic_momentum

    def conversion_momentum(self) -> float:
        """Momentum scale (MeV/c) taken for 1/sqrt(zeta) by zeta_fixing."""
        if self.zeta_fixing == "characteristic-momentum":
            return self.characteristic_momentum
        mc = self.electron_mass * self.c
        if self.zeta_fixing == "landau":
            return mc
        return 2.0 * mc / math.sqrt(3.0)   # gac


@dataclass(frozen=True)
class AlphaShift:
    alpha_eff: float
    delta_alpha: float


@dataclass(frozen=True)
class KappaBound:
    bound_kappa_sqrt_zeta: float   # (MeV/c)^-1
    bound_kappa: float             # dimensionless


@dataclass(frozen=True)
class PutraBound:
    bound: float
    expansion_first_order: float


def effective_hbar(delta_p: float, kappa: KappaLike, zeta: float, hbar: float = 1.0) -> float:
    """hbar_eff = hbar (1 + kappa^2 zeta dp^2), for a finite dp >= 0; DomainError where it
    leaves the float range."""
    k = as_kappa(kappa).value
    zeta, hbar = positive_float("zeta", zeta), positive_float("hbar", hbar)
    dp = positive_float("delta_p", delta_p, zero_ok=True)
    value = hbar * (1.0 + k * k * zeta * dp * dp)
    if not math.isfinite(value):
        raise DomainError(f"hbar_eff overflows at delta_p={dp!r}, kappa={k!r}, zeta={zeta!r}")
    return value


def minimal_length(kappa: KappaLike, zeta: float, hbar: float = 1.0) -> float:
    """Minimal position uncertainty hbar kappa sqrt(zeta)."""
    zeta, hbar = positive_float("zeta", zeta), positive_float("hbar", hbar)
    return hbar * as_kappa(kappa).value * math.sqrt(zeta)


def effective_alpha(a0: float, kappa: KappaLike, zeta: float, config: PhenoConfig) -> AlphaShift:
    """Effective fine-structure constant for position uncertainty a0.

    Exact form alpha (1 + sqrt(1 - r)) / 2 with r = (l / a0)^2, l = hbar k sqrt(z)
    the minimal length, returned together with the (negative) shift delta_alpha
    computed cancellation-free; at leading order delta_alpha ~ -alpha r / 4.
    """
    a0 = positive_float("a0", a0)
    length = minimal_length(kappa, zeta, config.hbar)
    if length > a0:
        raise BelowMinimalLengthError(
            f"a0={a0} below minimal length hbar*kappa*sqrt(zeta)"
        )
    alpha, r = config.alpha, (length / a0) ** 2
    delta = -alpha * r / (2.0 * (1.0 + math.sqrt(1.0 - r)))
    return AlphaShift(alpha_eff=alpha + delta, delta_alpha=delta)


def kappa_bound(config: PhenoConfig) -> KappaBound:
    """Invert |delta_alpha| < delta_alpha_exp at leading order.

    |delta_alpha| ~ alpha hbar^2 (k sqrt(z))^2 / (4 a0^2) gives

        k sqrt(z) <= (2 a0 / hbar) sqrt(delta_alpha / alpha),

    then the configured momentum scale converts to a bound on kappa.
    """
    ratio = config.delta_alpha_exp / config.alpha
    bound_ksz = 2.0 * (config.bohr_radius / config.hbar) * math.sqrt(ratio)
    bound_k = bound_ksz * config.conversion_momentum()
    if not math.isfinite(bound_k):
        raise DomainError(f"the kappa bound overflows (bohr_radius {config.bohr_radius})")
    return KappaBound(bound_kappa_sqrt_zeta=bound_ksz, bound_kappa=bound_k)


def landau_zeta(kappa: KappaLike, m: float, c: float = 1.0) -> float:
    """zeta fixed so the minimal length equals the Compton wavelength:
    sqrt(zeta) = 1/(kappa m c)."""
    return _landau_zeta(kappa, m, c, "landau_zeta")


def _landau_zeta(kappa: KappaLike, m: float, c: float, what: str) -> float:
    """landau_zeta for the entry point ``what``, which a kappa error names."""
    k = as_kappa(kappa).require_positive(what)
    kmc = k * positive_float("m", m) * positive_float("c", c)
    t = 1.0 / kmc if kmc > 0.0 else math.inf
    zeta = t * t
    if not 0.0 < zeta <= sys.float_info.max:
        raise DomainError(f"zeta = 1/(kappa m c)^2 is out of the float range at "
                          f"kappa={k!r}, m={m!r}, c={c!r}")
    return zeta


def gac_match_zeta(kappa: KappaLike, m: float, c: float = 1.0) -> float:
    """zeta = 3/(4 kappa^2 m^2 c^2), matching the dispersion-based
    squared relation 1 + (3/2) dp^2/(m c)^2 at leading order."""
    return 0.75 * _landau_zeta(kappa, m, c, "gac_match_zeta")


def putra_bound(v_g: float, c: float = 1.0, hbar: float = 1.0) -> PutraBound:
    """Velocity-dependent bound (hbar/2) gamma^2(v_g) and its weakly
    relativistic expansion (hbar/2)(1 + v_g^2/c^2)."""
    if not abs(v_g) < c:
        raise DomainError(f"|v_g| must be below c, got {v_g}")
    beta = v_g / c
    gamma_sq = 1.0 / ((1.0 - beta) * (1.0 + beta))
    return PutraBound(
        bound=0.5 * hbar * gamma_sq,
        expansion_first_order=0.5 * hbar * (1.0 + beta * beta),
    )
