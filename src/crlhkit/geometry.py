"""Physical constants, geometric descriptions of the antenna stack, and
the size limits that the configuration checks before any numpy module loads.

Every dimension is stored in SI units (meters). The gap-capacitance formula
wants micrometers; conversion happens at that formula boundary, never in
storage.
"""

from __future__ import annotations

from dataclasses import dataclass

M_PER_UM = 1e-6

C0 = 299_792_458.0  # speed of light [m/s]

# Largest sweep grid, 66x the 15001-point grid of a dense sweep. A sweep
# returns seven columns of this length, so the cap bounds its memory by the
# input rather than by the machine.
MAX_N_POINTS = 1_000_000
# Most cells in the radiating line, 125x the paper's 8. The closed-form
# array factor costs the same at any count, so the cap rests on the 0.25
# degree pattern grid: at 1,000 cells a 9 mm line's beam is narrower than a step.
MAX_N_CELLS = 1_000


def to_um(meters: float) -> float:
    return meters / M_PER_UM


@dataclass(frozen=True)
class SubstrateSpec:
    """Dielectric board: relative permittivity and thickness h [m]."""

    epsilon_r: float
    h: float

    def __post_init__(self):
        if self.epsilon_r < 1.0:
            raise ValueError(f"epsilon_r must be >= 1, got {self.epsilon_r}")
        if self.h <= 0.0:
            raise ValueError(f"substrate thickness must be positive, got {self.h}")


@dataclass(frozen=True)
class IdcGeometry:
    """One interdigital capacitor: finger count and planar dimensions [m].

    finger_width is the width W' of each finger, gap the spacing S between
    adjacent fingers, finger_length their overlap l.
    """

    n_fingers: int
    finger_length: float
    finger_width: float
    gap: float

    def __post_init__(self):
        if self.n_fingers < 1:
            raise ValueError(f"n_fingers must be >= 1, got {self.n_fingers}")
        for name in ("finger_length", "finger_width", "gap"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class CellGeometry:
    """Periodic section: period p [m], its capacitor, cell count."""

    period: float
    idc: IdcGeometry
    n_cells: int

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 1 <= self.n_cells <= MAX_N_CELLS:
            raise ValueError(f"n_cells must be within 1..{MAX_N_CELLS}, got {self.n_cells}")


def default_substrate() -> SubstrateSpec:
    """Reference board: epsilon_r = 3.8, 62 mil (1.5748 mm) thickness."""
    return SubstrateSpec(epsilon_r=3.8, h=1.5748e-3)


def default_idc(n_fingers: int = 4) -> IdcGeometry:
    """Reference capacitor: 0.86 mm fingers, 0.4 mm width and gap."""
    return IdcGeometry(
        n_fingers=n_fingers,
        finger_length=0.86e-3,
        finger_width=0.4e-3,
        gap=0.4e-3,
    )
