"""Closed-form toolkit for switch-reconfigurable CRLH leaky-wave antennas.

The chain runs geometry to beam: interdigital-capacitor element extraction,
balanced unit-cell calibration, Bloch dispersion analysis of the periodic
network, and array-factor pattern synthesis, with a CLI that emits
plot-ready CSV/JSON datasets.
"""

from .bloch import (
    REGIONS,
    DispersionSweep,
    Region,
    TwoPortAbcd,
    bloch_gamma,
    dispersion_sweep,
    scan_angle,
    scan_profile,
    transition_frequency,
    unit_cell_abcd,
)
from .cell import (
    CrlhUnitCell,
    ResonancePair,
    calibrate_balanced,
    cell_for_state,
    is_balanced,
    resonances,
)
from .config import RunConfig, load_profile, resolve_config
from .errors import BracketError, ConfigError, CrlhError, PoleError, SlowWaveError
from .geometry import (
    CellGeometry,
    IdcGeometry,
    SubstrateSpec,
    default_cell_geometry,
    default_idc,
    default_substrate,
)
from .idc import (
    EllipticModulus,
    IdcLumpedModel,
    c_series_approx,
    c_series_gap,
    elliptic_ratio,
    extract,
    l_c_from_line_theory,
    modulus_from_geometry,
    r_series,
)
from .radiation import (
    RadiationPattern,
    array_factor,
    pattern_for_frequency,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CellGeometry",
    "ConfigError",
    "CrlhError",
    "CrlhUnitCell",
    "DispersionSweep",
    "EllipticModulus",
    "IdcGeometry",
    "IdcLumpedModel",
    "PoleError",
    "REGIONS",
    "RadiationPattern",
    "Region",
    "ResonancePair",
    "RunConfig",
    "SlowWaveError",
    "SubstrateSpec",
    "TwoPortAbcd",
    "array_factor",
    "bloch_gamma",
    "c_series_approx",
    "c_series_gap",
    "calibrate_balanced",
    "cell_for_state",
    "default_cell_geometry",
    "default_idc",
    "default_substrate",
    "dispersion_sweep",
    "elliptic_ratio",
    "extract",
    "is_balanced",
    "l_c_from_line_theory",
    "load_profile",
    "modulus_from_geometry",
    "pattern_for_frequency",
    "r_series",
    "resolve_config",
    "resonances",
    "scan_angle",
    "scan_profile",
    "transition_frequency",
    "unit_cell_abcd",
    "__version__",
]
