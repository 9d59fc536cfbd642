"""Exception types shared across the toolkit."""


class CrlhError(Exception):
    """Base class for all toolkit-specific failures."""


class ConfigError(CrlhError):
    """Bad, missing, or inconsistent run configuration."""


class BracketError(CrlhError):
    """A cell has no single transition frequency inside the given band."""


class PoleError(CrlhError):
    """Chain-matrix entries overflow at this frequency."""

    def __init__(self, frequency: float, message: str):
        super().__init__(f"{message} (f = {frequency:.9g} Hz)")
        self.frequency = frequency
