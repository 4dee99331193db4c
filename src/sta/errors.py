"""Exception types shared across the package."""


class StaError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSpectrum(StaError):
    """Eigenvalue splitting below tolerance; the biorthogonal basis is ill-defined."""


class ZeroGap(StaError):
    """Spectral gap (or a rate denominator) collapsed; rates diverge."""


class BranchJump(StaError, ValueError):
    """Mixing angle jumps by >= pi/2 between samples: grid too coarse or an exceptional point."""


class NonFiniteState(StaError):
    """A propagated state picked up NaN or Inf components."""


class InconsistentInitialConditions(StaError):
    """Supplied phase-space initial data contradicts itself."""


class ConfigError(StaError):
    """Bad run configuration: unknown key, wrong type or out-of-range value."""
