"""Exception hierarchy shared across the package."""


class KappaRupError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KappaRupError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergentIntegralError(DomainError):
    """The requested integral does not converge (heavy tail wins)."""


class BelowMinimalLengthError(DomainError):
    """A position uncertainty below the minimal length hbar*kappa*sqrt(zeta)."""


class InfeasibleMeanError(KappaRupError, ValueError):
    """The requested mean energy is not strictly inside the energy range."""


class NonConvergenceError(KappaRupError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""
