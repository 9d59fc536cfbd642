"""Output checks for every benchmark op, independent of `crlhkit.bloch`.

Dispersion rows are checked against the lossless Bloch relation of the
symmetric T cell, cos(beta p) = Re(1 + Z Y / 2), written out here from the
cell elements with plain `math`. Each check returns a list of problems; an
empty list means the output is right.
"""

from __future__ import annotations

import csv
import json
import math
import re

C0 = 299_792_458.0
DISPERSION_HEADER = [
    "f_Hz", "beta_rad_per_m", "alpha_Np_per_m", "k0_rad_per_m",
    "beta_p_over_pi", "region", "scan_angle_deg",
]
CHECK_NAMES = [
    "series-capacitance anchor", "elliptic-ratio fidelity", "broadside tuning",
    "gapless balanced bands", "beam consistency", "full-space scanning",
    "cascade trace identity", "backward-wave slope",
]
LEAKY = ("left-handed-leaky", "right-handed-leaky")
# The CLI prints 9 significant digits; these cover that rounding with margin.
REL = 1e-8
PHASE_TOL = 1e-6
# Root tolerance of the transition solve (1 kHz) plus the 9-digit rounding.
TRANSITION_TOL_HZ = 1e3


def half_cos_trace(elements: dict, f: float) -> float:
    """Re(1 + Z Y / 2) of the lossless symmetric T cell at f."""
    w = 2.0 * math.pi * f
    z = w * elements["l_r"] - 1.0 / (w * elements["c_l"])
    y = w * elements["c_r"] - 1.0 / (w * elements["l_l"])
    return 1.0 - 0.5 * z * y


def closed_form_transition(elements: dict) -> float:
    """Broadside frequency of a balanced lossless cell: 1/(2 pi sqrt(L_R C_L))."""
    return 1.0 / (2.0 * math.pi * math.sqrt(elements["l_r"] * elements["c_l"]))


def _close(a: float, b: float, rel: float = REL, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def check_dispersion_row(row: list[str], elements: dict) -> list[str]:
    """Problems with one `dispersion_<n>f.csv` data row."""
    f, beta, alpha, k0, bpp = (float(v) for v in row[:5])
    region, angle = row[5], row[6]
    p = elements["period"]
    problems = []
    if not _close(k0, 2.0 * math.pi * f / C0):
        problems.append(f"k0 {k0} != 2 pi f / c0")
    if not _close(bpp, beta * p / math.pi, abs_=REL):
        problems.append(f"beta_p_over_pi {bpp} != beta p / pi")
    x = half_cos_trace(elements, f)
    if abs(x) <= 1.0:
        if abs(math.cos(beta * p) - x) > PHASE_TOL or alpha * p > PHASE_TOL:
            problems.append(f"pass band: cos(beta p) = {math.cos(beta * p):.9g}, expected {x:.9g}, alpha = {alpha}")
    else:
        pinned = min(abs(abs(beta * p) - math.pi), abs(beta * p))
        if not _close(math.cosh(alpha * p), abs(x), rel=PHASE_TOL) or pinned > PHASE_TOL:
            problems.append(f"stop band: cosh(alpha p) = {math.cosh(alpha * p):.9g}, expected {abs(x):.9g}, beta p = {beta * p}")
    evanescent = alpha > 1e-6 and min(abs(beta) * p, abs(abs(beta) * p - math.pi)) < 1e-6
    if evanescent:
        expected = "evanescent"
    elif abs(beta) < k0:
        expected = LEAKY[0] if beta < 0.0 else LEAKY[1]
    else:
        expected = "guided-slow-wave"
    if region != expected and not _close(abs(beta), k0, rel=1e-6):
        problems.append(f"region {region!r}, expected {expected!r}")
    if region in LEAKY:
        # compared as sines: near endfire the angle itself amplifies rounding
        if angle == "" or abs(math.sin(math.radians(float(angle))) - beta / k0) > PHASE_TOL:
            problems.append(f"scan angle {angle!r} != asin(beta / k0)")
    elif angle != "":
        problems.append(f"scan angle {angle!r} on a {region} row")
    return problems


def check_dispersion_csv(path: str, elements: dict, grid: tuple[float, float, int], rows_to_check: list[int]) -> list[str]:
    """Header, row count, grid ends and the chosen rows of a dispersion CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    f_start, f_stop, n = grid
    if rows[:1] != [DISPERSION_HEADER]:
        return [f"{path}: header {rows[:1]}"]
    data = rows[1:]
    if len(data) != n:
        return [f"{path}: {len(data)} rows, expected {n}"]
    problems = []
    if not (_close(float(data[0][0]), f_start) and _close(float(data[-1][0]), f_stop)):
        problems.append(f"{path}: grid {data[0][0]}..{data[-1][0]}, expected {f_start}..{f_stop}")
    for i in rows_to_check:
        expected_f = f_start + (f_stop - f_start) * i / (n - 1)
        if not _close(float(data[i][0]), expected_f, rel=1e-8):
            problems.append(f"{path}: row {i} f = {data[i][0]}, expected {expected_f}")
        problems.extend(f"{path}: row {i}: {msg}" for msg in check_dispersion_row(data[i], elements))
    return problems


def check_transition(transition_hz: float, elements: dict) -> list[str]:
    expected = closed_form_transition(elements)
    if abs(transition_hz - expected) > TRANSITION_TOL_HZ + REL * expected:
        return [f"transition {transition_hz} Hz, closed form {expected} Hz"]
    return []


def check_reproduce_json(text: str, elements_by_state: dict[int, dict]) -> list[str]:
    """`reproduce --json` output: 8 results, broadside tuning on the closed form."""
    try:
        results = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"reproduce --json is not JSON: {exc}"]
    names = [r.get("name") for r in results] if isinstance(results, list) else None
    if names != CHECK_NAMES:
        return [f"check names {names}"]
    problems = []
    tuning = results[2]
    found = {int(n): float(ghz) * 1e9 for n, ghz in re.findall(r"(\d)f: ([0-9.]+) GHz", tuning["detail"])}
    if set(found) != set(elements_by_state):
        problems.append(f"broadside tuning reports states {sorted(found)}")
    for n, elements in elements_by_state.items():
        if n in found:
            # the detail prints GHz with 6 decimals: 1 kHz steps
            expected = closed_form_transition(elements)
            if abs(found[n] - expected) > TRANSITION_TOL_HZ + 500.0:
                problems.append(f"broadside tuning {n}f: {found[n]} Hz, closed form {expected} Hz")
    if tuning.get("passed") is not True:
        problems.append("broadside tuning did not pass on a balanced design")
    return problems


def check_reproduce_text(text: str) -> list[str]:
    lines = text.strip().splitlines()
    if not lines or lines[-1] != f"{len(CHECK_NAMES)}/{len(CHECK_NAMES)} checks passed":
        return [f"reproduce summary {lines[-1:]}"]
    passed = [ln for ln in lines[:-1] if ln.startswith("PASS  ")]
    if len(passed) != len(CHECK_NAMES):
        return [f"{len(passed)} PASS lines"]
    return []
