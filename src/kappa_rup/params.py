"""Validated parameters: the deformation kappa and a kappa-Gaussian state.

Plain Python, so that phenomenology, the command line's argument checks and
its config errors run without numpy.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Union

from .errors import DomainError

__all__ = ["MOMENT_SAFE_LIMIT", "KappaParameter", "KappaLike", "as_kappa", "positive_float",
           "StateSpec"]

MOMENT_SAFE_LIMIT = 2.0 / 3.0   # <p^2> of the kappa-Gaussian converges


@dataclass(frozen=True)
class KappaParameter:
    """Validated deformation parameter, 0 <= value < 1 (a subnormal one is 0).

    value = 0 denotes the exact classical (Boltzmann-Gibbs) limit.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v) or not 0.0 <= v < 1.0:
            raise DomainError(f"kappa must satisfy 0 <= kappa < 1, got {self.value!r}")
        object.__setattr__(self, "value", v if v >= sys.float_info.min else 0.0)

    @property
    def moment_safe(self) -> bool:
        """True when second moments of the kappa-Gaussian exist (kappa < 2/3)."""
        return self.value < MOMENT_SAFE_LIMIT

    def require_positive(self, what: str) -> float:
        """The value if kappa > 0; else DomainError naming ``what``, which needs it."""
        if not self.value > 0.0:
            raise DomainError(f"{what} requires kappa > 0, got kappa={self.value!r}")
        return self.value

    def require_moment_safe(self, what: str) -> float:
        """The value if kappa < 2/3; else DomainError naming ``what``, which needs it."""
        if not self.moment_safe:
            raise DomainError(f"{what} requires kappa < 2/3, got kappa={self.value!r}")
        return self.value


KappaLike = Union[KappaParameter, float, int]


def as_kappa(kappa: KappaLike) -> KappaParameter:
    """Coerce a float into a validated KappaParameter (no-op if already one)."""
    if isinstance(kappa, KappaParameter):
        return kappa
    return KappaParameter(float(kappa))


def positive_float(name: str, value, zero_ok: bool = False) -> float:
    """``value`` as a float: a finite real number > 0 (>= 0 if zero_ok), and not a bool.
    DomainError otherwise."""
    try:
        v = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:   # an int past the float range
        v = math.inf
    if not 0.0 <= v < math.inf or (v == 0.0 and not zero_ok):
        raise DomainError(f"{name} must be {'>=' if zero_ok else '>'} 0, got {value!r}")
    return v


@dataclass(frozen=True)
class StateSpec:
    """One kappa-Gaussian state: (kappa, zeta, hbar), zeta > 0, hbar > 0."""

    kappa: KappaParameter
    zeta: float
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kappa", as_kappa(self.kappa))
        for name in ("zeta", "hbar"):
            object.__setattr__(self, name, positive_float(name, getattr(self, name)))
        # <p^2> is 1/(2 zeta) at kappa 0, 400/zeta by kappa ~ 0.6663 and unbounded as
        # kappa -> 2/3: a zeta whose 400/zeta overflows is rejected as input, and
        # second_moment raises where <p^2> itself overflows
        if not math.isfinite(400.0 / self.zeta):
            raise DomainError(f"zeta={self.zeta!r} is too small: 400/zeta overflows")

    def delta_x_for(self, dp: float) -> float:
        """Position uncertainty dx = hbar zeta (1 - kappa^2) dp paired with dp. DomainError
        unless dx is a positive normal float: a subnormal one keeps too few bits to
        compare, and 0 or inf none."""
        k = self.kappa.value
        # hbar last: zeta dp ~ sqrt(zeta) is in range at the state's dp, hbar zeta need not be
        dx = self.hbar * (self.zeta * (1.0 - k * k) * dp)
        if not sys.float_info.min <= dx <= sys.float_info.max:
            raise DomainError(
                f"dx = hbar zeta (1 - kappa^2) dp = {dx!r} is not a positive normal float "
                f"(hbar={self.hbar!r}, zeta={self.zeta!r}, dp={dp!r})"
            )
        return dx
