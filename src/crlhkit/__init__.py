"""Closed-form toolkit for switch-reconfigurable CRLH leaky-wave antennas.

The chain runs geometry to beam: interdigital-capacitor element extraction,
balanced unit-cell calibration, Bloch dispersion analysis of the periodic
network, and array-factor pattern synthesis, with a CLI that emits
plot-ready CSV/JSON datasets.
"""

import importlib

# Each exported name and the submodule that defines it. A name's module is
# imported on first access (PEP 562), so `import crlhkit` loads no numpy and
# a command imports only the modules it runs.
_EXPORTS = {
    "bloch": (
        "REGIONS",
        "DispersionSweep",
        "Region",
        "bloch_gamma",
        "dispersion_sweep",
        "scan_profile",
        "transition_frequency",
    ),
    "cell": (
        "CrlhUnitCell",
        "ResonancePair",
        "calibrate_balanced",
        "cell_for_state",
        "is_balanced",
        "resonances",
    ),
    "config": ("RunConfig", "resolve_config"),
    "errors": ("BracketError", "ConfigError", "CrlhError", "PoleError"),
    "geometry": ("CellGeometry", "IdcGeometry", "SubstrateSpec", "default_idc", "default_substrate"),
    "idc": (
        "IdcLumpedModel",
        "c_series_gap",
        "elliptic_ratio",
        "extract",
        "l_c_from_line_theory",
        "modulus_from_geometry",
        "r_series",
    ),
    "radiation": (
        "RadiationPattern",
        "array_factor",
        "pattern_for_frequency",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# Read by the CLI parser. They live here, not in `config` and `geometry`,
# so that `crlhkit --version` and `--help` import neither module.
PROFILE_ENV_VAR = "CRLH_PROFILE"  # names the bundled profile to start from
DEFAULT_LEAKAGE_NP_PER_CELL = 0.05  # per-cell leakage when --leakage is given bare

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
