"""Physical constants and geometric descriptions of the antenna stack.

Every dimension is stored in SI units (meters). The closed-form capacitor
formulas want mixed units (cm for the per-finger estimate, um for the gap
formula); conversion happens at each formula boundary, never in storage.
"""

from __future__ import annotations

from dataclasses import dataclass

M_PER_CM = 1e-2
M_PER_UM = 1e-6

C0 = 299_792_458.0  # speed of light [m/s]


def to_cm(meters: float) -> float:
    return meters / M_PER_CM


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
    adjacent fingers, finger_length their overlap l. base_width is the
    feeding base strip width; it defaults to the finger width since typical
    layouts share one strip width.
    """

    n_fingers: int
    finger_length: float
    finger_width: float
    gap: float
    base_width: float | None = None

    def __post_init__(self):
        if self.base_width is None:
            object.__setattr__(self, "base_width", self.finger_width)
        if self.n_fingers < 1:
            raise ValueError(f"n_fingers must be >= 1, got {self.n_fingers}")
        for name in ("finger_length", "finger_width", "gap", "base_width"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class CellGeometry:
    """Periodic section: period p [m], its capacitor, inter-cell gap, cell count."""

    period: float
    idc: IdcGeometry
    cell_gap: float
    n_cells: int

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.cell_gap < 0.0:
            raise ValueError(f"cell_gap must be >= 0, got {self.cell_gap}")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")


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


def default_cell_geometry(n_fingers: int = 4) -> CellGeometry:
    """Reference periodic section: 3.2 mm period, 0.1 mm cell gap, 8 cells."""
    return CellGeometry(
        period=3.2e-3,
        idc=default_idc(n_fingers),
        cell_gap=0.1e-3,
        n_cells=8,
    )
