"""Exception types shared across the toolkit."""


class CrlhError(Exception):
    """Base class for all toolkit-specific failures."""


class ConfigError(CrlhError):
    """Bad, missing, or inconsistent run configuration."""


class SlowWaveError(CrlhError, ValueError):
    """A guided sample (|beta| > k0) was asked for a radiation quantity."""


class BracketError(CrlhError):
    """A root bracket has no sign change, or its solve does not converge."""


class PoleError(CrlhError):
    """Chain-matrix entries overflow at this frequency."""

    def __init__(self, frequency: float, message: str):
        super().__init__(f"{message} (f = {frequency:.9g} Hz)")
        self.frequency = frequency
