"""Run configuration: flat key=value files and bundled profiles.

Config files use `key = value` lines with `#` comments. Lengths are given
in millimeters and frequencies in gigahertz (human convention); both are
converted to SI at the parse boundary. Unknown keys are hard errors so a
typo in a physics parameter cannot silently fall back to a default.

A file passed via --config overlays the bundled profile selected by the
CRLH_PROFILE environment variable (default `paper-default`), so partial
files adjusting a key or two are fine.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from importlib import resources

from . import PROFILE_ENV_VAR
from .cell import CrlhUnitCell, cell_for_state
from .errors import ConfigError
from .geometry import MAX_N_POINTS, CellGeometry, IdcGeometry, SubstrateSpec

DEFAULT_PROFILE = "paper-default"

_GHZ = 1e9
_MM = 1e-3

_FLOAT_KEYS = {
    "epsilon_r",
    "h_mm",
    "period_mm",
    "finger_length_mm",
    "finger_width_mm",
    "gap_mm",
    "target_2_ghz",
    "target_3_ghz",
    "target_4_ghz",
    "freq_start_ghz",
    "freq_stop_ghz",
    "z_bloch_ohm",
    "z0_line_ohm",
    "sheet_resistance_ohm_per_sq",
}
_INT_KEYS = {"n_cells", "fingers", "n_points"}
_CHOICE_KEYS = {"series_combination": ("half", "full")}
# Keys whose value may be `none` to clear an inherited setting.
_CLEARABLE = {"target_2_ghz", "target_3_ghz", "target_4_ghz", "z0_line_ohm"}

KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | set(_CHOICE_KEYS)


@dataclass(frozen=True)
class RunConfig:
    """Everything one command run needs, in SI units."""

    substrate: SubstrateSpec
    cell_geometry: CellGeometry
    fingers: int                 # configured state for single-state commands
    targets: dict[int, float]    # finger count -> broadside frequency [Hz]
    f_start: float
    f_stop: float
    n_points: int
    z_bloch: float = 50.0
    # z0_line and sheet_resistance feed only the `idc` report; the cell is lossless
    z0_line: float | None = None  # None derives the microstrip value
    sheet_resistance: float = 0.0
    series_combination: str = "half"

    def __post_init__(self):
        scalars = {
            "freq_start": self.f_start,
            "freq_stop": self.f_stop,
            "z_bloch_ohm": self.z_bloch,
            "z0_line_ohm": self.z0_line,
            "sheet resistance": self.sheet_resistance,
            **{f"target for the {n}-finger state": f0 for n, f0 in self.targets.items()},
        }
        for name, value in scalars.items():
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 0.0 < self.f_start < self.f_stop:
            raise ConfigError(
                f"need 0 < freq_start < freq_stop, got ({self.f_start}, {self.f_stop}) Hz"
            )
        if not 2 <= self.n_points <= MAX_N_POINTS:
            raise ConfigError(f"n_points must be within 2..{MAX_N_POINTS}, got {self.n_points}")
        if self.fingers < 1:
            raise ConfigError(f"fingers must be >= 1, got {self.fingers}")
        if not set(self.targets) <= {2, 3, 4}:
            raise ConfigError(f"target states must be within 2/3/4 fingers, got {sorted(self.targets)}")
        for n, f0 in self.targets.items():
            if f0 <= 0.0:
                raise ConfigError(f"target for the {n}-finger state must be positive, got {f0}")
        if self.z_bloch <= 0.0:
            raise ConfigError(f"z_bloch_ohm must be positive, got {self.z_bloch}")
        if self.z0_line is not None and self.z0_line <= 0.0:
            raise ConfigError(f"z0_line_ohm must be positive, got {self.z0_line}")
        if self.sheet_resistance < 0.0:
            raise ConfigError(f"sheet resistance must be >= 0, got {self.sheet_resistance}")

    def idc_geometry(self, fingers: int | None = None) -> IdcGeometry:
        """Capacitor geometry for a switch state (default: the configured one)."""
        idc = self.cell_geometry.idc
        if fingers is None:
            fingers = self.fingers
        if fingers == idc.n_fingers:
            return idc
        return replace(idc, n_fingers=fingers)

    def cell(self, fingers: int | None = None) -> CrlhUnitCell:
        """Calibrated unit cell for a switch state (default: the configured one)."""
        return cell_for_state(
            self.fingers if fingers is None else fingers,
            self.substrate,
            self.cell_geometry,
            self.targets,
            z_c=self.z_bloch,
            series_combination=self.series_combination,
        )


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines into a typed mapping.

    Raises ConfigError, naming file and line, for unknown keys, duplicate
    keys, or malformed or non-finite values.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if key in _CLEARABLE and value.lower() == "none":
            values[key] = None
            continue
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(f"{source}:{lineno}: {key} needs a number, got {value!r}") from None
            if not math.isfinite(values[key]):
                raise ConfigError(f"{source}:{lineno}: {key} must be finite, got {value!r}")
        elif key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"{source}:{lineno}: {key} needs an integer, got {value!r}") from None
            if key == "n_points" and not 2 <= values[key] <= MAX_N_POINTS:
                raise ConfigError(
                    f"{source}:{lineno}: n_points must be within 2..{MAX_N_POINTS}, got {value!r}"
                )
        else:
            choices = _CHOICE_KEYS[key]
            if value not in choices:
                raise ConfigError(
                    f"{source}:{lineno}: {key} must be one of {', '.join(choices)}, got {value!r}"
                )
            values[key] = value
    return values


def _profile_resource(name: str):
    return resources.files(__package__) / "profiles" / f"{name}.cfg"


def available_profiles() -> list[str]:
    """Names of the bundled profiles."""
    root = resources.files(__package__) / "profiles"
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_profile_values(name: str) -> dict:
    """Raw key mapping of a bundled profile."""
    res = _profile_resource(name)
    try:
        text = res.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(
            f"no bundled profile named {name!r}; available: {', '.join(available_profiles())}"
        ) from None
    return parse_config_text(text, source=f"profile {name!r}")


def _to_run_config(values: dict) -> RunConfig:
    def need(key: str):
        if key not in values or values[key] is None:
            raise ConfigError(f"configuration is missing required key {key!r}")
        return values[key]

    targets = {
        n: values[key] * _GHZ
        for n, key in ((2, "target_2_ghz"), (3, "target_3_ghz"), (4, "target_4_ghz"))
        if values.get(key) is not None
    }
    z0_line = values.get("z0_line_ohm")
    try:
        substrate = SubstrateSpec(epsilon_r=need("epsilon_r"), h=need("h_mm") * _MM)
        idc = IdcGeometry(
            n_fingers=need("fingers"),
            finger_length=need("finger_length_mm") * _MM,
            finger_width=need("finger_width_mm") * _MM,
            gap=need("gap_mm") * _MM,
        )
        geom = CellGeometry(period=need("period_mm") * _MM, idc=idc, n_cells=need("n_cells"))
        return RunConfig(
            substrate=substrate,
            cell_geometry=geom,
            fingers=idc.n_fingers,
            targets=targets,
            f_start=need("freq_start_ghz") * _GHZ,
            f_stop=need("freq_stop_ghz") * _GHZ,
            n_points=need("n_points"),
            z_bloch=need("z_bloch_ohm"),
            z0_line=z0_line,
            sheet_resistance=need("sheet_resistance_ohm_per_sq"),
            series_combination=need("series_combination"),
        )
    except ValueError as exc:
        # geometry validation failures surface as config problems
        raise ConfigError(str(exc)) from None


def resolve_config(path: str | None = None, env: dict | None = None) -> RunConfig:
    """Configuration for a command run.

    Starts from the bundled profile named by CRLH_PROFILE (default
    `paper-default`) and overlays the optional config file on top.
    """
    env = os.environ if env is None else env
    profile = env.get(PROFILE_ENV_VAR, DEFAULT_PROFILE)
    values = load_profile_values(profile)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ConfigError(f"config not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        overlay = parse_config_text(text, source=path)
        values.update(overlay)
    return _to_run_config(values)
