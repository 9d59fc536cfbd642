import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crlhkit
from crlhkit import bloch, radiation, selfcheck
from crlhkit import config as config_module
from crlhkit.bloch import MAX_N_POINTS, REGIONS, dispersion_sweep
from crlhkit.cell import CrlhUnitCell, resonances
from crlhkit.cli import _jsonify, fmt, main
from crlhkit.config import (
    _FLOAT_KEYS,
    _INT_KEYS,
    KNOWN_KEYS,
    RunConfig,
    parse_config_text,
    resolve_config,
)
from crlhkit.errors import ConfigError, CrlhError, PoleError
from crlhkit.geometry import MAX_N_CELLS, CellGeometry
from crlhkit.radiation import array_factor, pattern_for_frequency


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CRLH_PROFILE", raising=False)


def run_python(*args):
    """A child interpreter that imports the crlhkit under test."""
    src = os.path.dirname(os.path.dirname(crlhkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def imported_modules(report):
    """Names of the modules an `-X importtime` report lists."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in report.splitlines()
        if line.startswith("import time:")
    }


def trace_samples(config, cells):
    """Each cell's (f, beta, alpha) at its seeded trace frequencies in the
    config's band, from one-row calls."""
    lo, hi = config.f_start, config.f_stop
    out = []
    for cell, u in zip(cells.values(), selfcheck._trace_variates()):
        f = lo + (hi - lo) * u
        out.append((f, *bloch.bloch_gamma(cell, f)))
    return out


NO_TARGETS = "target_2_ghz = none\ntarget_3_ghz = none\ntarget_4_ghz = none\n"
NO_TARGETS_ERROR = "no target state: target_2_ghz, target_3_ghz and target_4_ghz are all none"


def write_cfg(tmp_path, text):
    path = tmp_path / "override.cfg"
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_bundled_profile_values(self):
        cfg = resolve_config(env={})
        assert cfg.substrate.epsilon_r == 3.8
        assert cfg.cell_geometry.period == pytest.approx(3.2e-3)
        assert cfg.cell_geometry.n_cells == 8
        assert cfg.fingers == 4
        assert cfg.targets == {2: 10.7e9, 3: 9.5e9, 4: 9.3e9}
        assert (cfg.f_start, cfg.f_stop, cfg.n_points) == (7.5e9, 12.0e9, 451)
        assert cfg.z_bloch == 50.0
        assert cfg.series_combination == "half"
        assert cfg.z0_line is None

    def test_unknown_profile(self):
        # parsed profiles are cached, errors are not: each call raises
        for _ in range(2):
            with pytest.raises(ConfigError, match="no bundled profile named 'nope'.*paper-default"):
                resolve_config(env={"CRLH_PROFILE": "nope"})

    def test_profile_is_parsed_once_and_overlays_stay_out_of_it(self, tmp_path, monkeypatch):
        parsed = []

        def counting(text, source="<config>"):
            parsed.append(source)
            return parse_config_text(text, source=source)

        monkeypatch.setattr(config_module, "parse_config_text", counting)
        config_module._profile_values.cache_clear()
        path = write_cfg(tmp_path, "n_cells = 40\n")
        assert resolve_config(path, env={}).cell_geometry.n_cells == 40
        assert resolve_config(env={}).cell_geometry.n_cells == 8
        assert resolve_config(path, env={}).cell_geometry.n_cells == 40
        assert parsed == ["profile 'paper-default'", path, path]

    def test_unknown_key_names_file_and_line(self):
        with pytest.raises(ConfigError, match=r"x\.cfg:2: unknown key 'typo_key'"):
            parse_config_text("epsilon_r = 3.8\ntypo_key = 1\n", source="x.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("fingers = 4\nfingers = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("this is not a key value pair\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="needs a number"):
            parse_config_text("epsilon_r = soft\n")
        with pytest.raises(ConfigError, match="needs an integer"):
            parse_config_text("n_points = 4.5\n")

    def test_choice_key_rejected(self):
        with pytest.raises(ConfigError, match="series_combination"):
            parse_config_text("series_combination = quarter\n")

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.lists(
                st.tuples(
                    st.one_of(st.sampled_from(sorted(KNOWN_KEYS)), st.text(max_size=8)),
                    st.sampled_from([" = ", "=", " ", "==", ""]),
                    st.one_of(
                        st.text(max_size=12),
                        st.floats().map(repr),
                        st.integers().map(str),
                        st.sampled_from(["none", "None", "half", "full", "1e999", "-0", "0x10"]),
                    ),
                    st.sampled_from(["", " # note", "#", "\r"]),
                ).map("".join),
                max_size=8,
            ).map("\n".join),
        )
    )
    def test_parse_raises_only_config_error(self, text):
        try:
            values = parse_config_text(text, source="fuzz.cfg")
        except ConfigError as exc:
            assert str(exc).startswith("fuzz.cfg:")
        else:
            assert set(values) <= KNOWN_KEYS

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(sorted(_FLOAT_KEYS)),
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([5e-324, 1e-300, 1e-20, 6.09e16, 1e300, -1e-300]),
            ),
            max_size=6,
        ),
        st.dictionaries(st.sampled_from(sorted(_INT_KEYS)), st.integers(-10, 10**7), max_size=3),
    )
    def test_overlay_raises_only_what_main_reports(self, tmp_path_factory, floats, ints):
        # main turns CrlhError and ValueError into an `error:` line; any
        # other exception would end the run in a traceback
        path = tmp_path_factory.mktemp("overlay") / "fuzz.cfg"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in {**floats, **ints}.items()))
        try:
            config = resolve_config(str(path))
            for n in sorted(config.targets):
                config.cell(n)
        except (CrlhError, ValueError):
            pass

    @settings(max_examples=100, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "finger_length_mm": st.floats(min_value=0.3, max_value=2.0),
                "gap_mm": st.floats(min_value=0.1, max_value=0.8),
                "epsilon_r": st.floats(min_value=1.0, max_value=12.0),
                "sheet_resistance_ohm_per_sq": st.floats(min_value=0.0, max_value=10.0),
                **{f"target_{n}_ghz": st.floats(min_value=5.0, max_value=15.0) for n in (2, 3, 4)},
            },
        ),
        st.sampled_from(config_module.available_profiles()),
    )
    def test_config_cells_are_lossless(self, tmp_path_factory, values, profile):
        # solve takes each state's gap midpoint on its cell as built, which
        # is transition_frequency's lossless cell only while it has no loss
        path = tmp_path_factory.mktemp("lossless") / "design.cfg"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        for source in (None, str(path)):
            config = resolve_config(source, env={"CRLH_PROFILE": profile})
            for n in config.target_states():
                assert config.cell(n).r_series == 0.0

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# header\n\nfingers = 3  # trailing\n")
        assert values == {"fingers": 3}

    def test_none_clears_a_target(self, tmp_path):
        path = write_cfg(tmp_path, "target_2_ghz = none\n")
        cfg = resolve_config(path)
        assert set(cfg.targets) == {3, 4}

    def test_overlay_keeps_profile_values(self, tmp_path):
        path = write_cfg(tmp_path, "n_cells = 16\n")
        cfg = resolve_config(path)
        assert cfg.cell_geometry.n_cells == 16
        assert cfg.substrate.epsilon_r == 3.8

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="config not found"):
            resolve_config("/nonexistent/path.cfg")

    def test_profile_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRLH_PROFILE", "ghost")
        with pytest.raises(ConfigError, match="ghost"):
            resolve_config()

    def test_invalid_geometry_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path, "gap_mm = -1\n")
        with pytest.raises(ConfigError, match="gap"):
            resolve_config(path)

    def test_run_config_validation(self):
        base = resolve_config(env={})
        with pytest.raises(ConfigError, match="freq_start"):
            RunConfig(
                substrate=base.substrate,
                cell_geometry=base.cell_geometry,
                fingers=4,
                targets=base.targets,
                f_start=9e9,
                f_stop=8e9,
                n_points=11,
            )
        with pytest.raises(ConfigError, match="2/3/4"):
            RunConfig(
                substrate=base.substrate,
                cell_geometry=base.cell_geometry,
                fingers=4,
                targets={5: 9e9},
                f_start=8e9,
                f_stop=9e9,
                n_points=11,
            )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("h_mm = nan", "h_mm must be finite"),
            ("epsilon_r = nan", "epsilon_r must be finite"),
            ("period_mm = inf", "period_mm must be finite"),
        ],
    )
    def test_non_finite_config_value_rejected(self, tmp_path, capsys, line, message):
        path = write_cfg(tmp_path, f"fingers = 4\n{line}\n")
        assert main(["reproduce", "--config", path]) == 1
        captured = capsys.readouterr()
        assert f"{path}:2: {message}" in captured.err
        assert captured.out == ""

    def test_non_finite_cli_override_rejected(self, capsys):
        assert main(["dispersion", "--freq-start", "nan"]) == 1
        assert "freq_start must be finite" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="freq_stop must be finite"):
            replace(resolve_config(env={}), f_stop=float("inf"))

    def test_n_points_cap_in_config_file_names_file_and_line(self, tmp_path, capsys):
        path = write_cfg(tmp_path, f"fingers = 4\nn_points = {MAX_N_POINTS + 1}\n")
        assert main(["dispersion", "--config", path]) == 1
        captured = capsys.readouterr()
        assert f"{path}:2: n_points must be within 2..{MAX_N_POINTS}" in captured.err
        assert captured.out == ""
        at_cap = write_cfg(tmp_path, f"n_points = {MAX_N_POINTS}\n")
        assert resolve_config(at_cap).n_points == MAX_N_POINTS

    def test_n_points_cap_on_command_line_names_value(self, capsys):
        assert main(["sweep", "--points", str(MAX_N_POINTS + 1)]) == 1
        captured = capsys.readouterr()
        assert f"n_points must be within 2..{MAX_N_POINTS}, got {MAX_N_POINTS + 1}" in captured.err
        assert captured.out == ""
        with pytest.raises(ConfigError, match="n_points"):
            replace(resolve_config(env={}), n_points=1)

    @pytest.mark.parametrize("command", ["pattern", "sweep"])
    def test_n_cells_cap_in_config_file_names_file_and_line(self, tmp_path, capsys, command):
        path = write_cfg(tmp_path, f"fingers = 4\nn_cells = {MAX_N_CELLS + 1}\n")
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {path}:2: n_cells must be within 1..{MAX_N_CELLS}, got '{MAX_N_CELLS + 1}'"
        ]
        assert captured.out == "" and not out.exists()
        at_cap = write_cfg(tmp_path, f"n_cells = {MAX_N_CELLS}\n")
        geom = resolve_config(at_cap).cell_geometry
        assert geom.n_cells == MAX_N_CELLS
        with pytest.raises(ValueError, match=f"n_cells must be within 1..{MAX_N_CELLS}"):
            replace(geom, n_cells=MAX_N_CELLS + 1)
        with pytest.raises(ValueError, match=f"n_cells must be within 1..{MAX_N_CELLS}"):
            array_factor(0j, geom.period, MAX_N_CELLS + 1, 9e9)

    def test_run_config_builds_each_state_cell(self):
        cfg = resolve_config(env={})
        assert cfg.cell() == cfg.cell(cfg.fingers)
        for n, f0 in cfg.targets.items():
            omega_se = resonances(cfg.cell(n)).omega_se
            assert omega_se == pytest.approx(2.0 * math.pi * f0, rel=1e-12)
        with pytest.raises(ConfigError, match="5-finger"):
            cfg.cell(5)

    def test_loss_keys_feed_only_the_idc_report(self, tmp_path, capsys):
        # the dispersion cell is lossless whatever the two keys say
        base = resolve_config(env={})
        r_series = []
        for sheet in (1.0, 2.0):
            path = write_cfg(
                tmp_path, f"sheet_resistance_ohm_per_sq = {sheet}\nz0_line_ohm = 75\n"
            )
            for n in base.targets:
                assert resolve_config(path).cell(n) == base.cell(n)
            assert main(["idc", "--config", path, "--format", "json"]) == 0
            r_series.append(json.loads(capsys.readouterr().out)["r_series_ohm"])
        assert 0.0 < r_series[0]
        assert r_series[1] == pytest.approx(2.0 * r_series[0], rel=1e-8)

    # each key with an overlay value and a command whose stdout it changes
    KEY_MOVES = {
        "epsilon_r": ("4.4", ["idc"]),
        "h_mm": ("0.8", ["idc"]),  # through the microstrip z0 estimate
        "period_mm": ("4.0", ["cell", "calibrate"]),
        "finger_length_mm": ("1.0", ["idc"]),
        "finger_width_mm": ("0.3", ["idc"]),
        "gap_mm": ("0.3", ["idc"]),
        "n_cells": ("16", ["pattern"]),
        "fingers": ("3", ["idc"]),
        "target_2_ghz": ("10.5", ["cell", "calibrate", "--fingers", "2"]),
        "target_3_ghz": ("9.6", ["cell", "calibrate", "--fingers", "3"]),
        "target_4_ghz": ("9.2", ["cell", "calibrate"]),
        "freq_start_ghz": ("8.0", ["dispersion"]),
        "freq_stop_ghz": ("11.0", ["dispersion"]),
        "n_points": ("101", ["dispersion"]),
        "z_bloch_ohm": ("75", ["cell", "calibrate"]),
        "z0_line_ohm": ("75", ["idc"]),
        "sheet_resistance_ohm_per_sq": ("0.02", ["idc"]),
        "series_combination": ("full", ["cell", "calibrate"]),
    }

    def test_key_table_covers_every_key(self):
        assert set(self.KEY_MOVES) == KNOWN_KEYS

    @pytest.mark.parametrize("key", sorted(KEY_MOVES))
    def test_every_key_moves_an_output(self, tmp_path, capsys, key):
        value, argv = self.KEY_MOVES[key]
        assert main(argv) == 0
        bundled = capsys.readouterr().out
        assert main([*argv, "--config", write_cfg(tmp_path, f"{key} = {value}\n")]) == 0
        assert capsys.readouterr().out != bundled

    def test_idc_geometry_refingering(self):
        cfg = resolve_config(env={})
        assert cfg.idc_geometry().n_fingers == 4
        assert cfg.idc_geometry(2).n_fingers == 2
        assert cfg.idc_geometry(2).finger_length == cfg.cell_geometry.idc.finger_length


class TestNumberFormat:
    def test_nine_significant_digits(self):
        assert fmt(9.3e9) == "9.30000000e+09"
        assert fmt(-0.0433431962168525e-12) == "-4.33431962e-14"

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_refused(self, x):
        with pytest.raises(ValueError, match=f"cannot print the non-finite value {x}"):
            fmt(x)

    @pytest.mark.parametrize("fmt_", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv, text, field",
        [
            (["idc"], "finger_length_mm = 1.7e308\n", "c_series_F"),
            (["idc"], "z0_line_ohm = 1.7e308\n", "l_series_H"),
            (
                ["cell", "calibrate"],
                "finger_length_mm = 1e-300\ntarget_4_ghz = 0.001\n",
                "l_r_nH",
            ),
        ],
        ids=["idc-finger", "idc-z0", "calibrate"],
    )
    def test_non_finite_output_is_one_error(self, tmp_path, capsys, argv, text, field, fmt_):
        # each printed Infinity (not JSON) or inf before; nothing is written now
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        for extra in ([], ["--out", str(out)]):
            assert main([*argv, "--config", path, "--format", fmt_, *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: cannot print the non-finite {field} inf"]
        assert not out.exists()


class TestCliCommands:
    def test_idc_json(self, capsys):
        assert main(["idc", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_fingers"] == 4
        assert doc["c_series_pF"] == pytest.approx(0.0867, rel=0.01)
        assert doc["c_series_F"] == pytest.approx(doc["c_series_pF"] * 1e-12, rel=1e-6)

    def test_idc_csv_key_value(self, capsys):
        assert main(["idc"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("c_series_pF,") for line in lines)

    def test_idc_single_finger_gives_zero(self, capsys, tmp_path):
        path = write_cfg(tmp_path, "fingers = 1\n")
        assert main(["idc", "--config", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c_series_pF"] == 0.0

    def test_idc_fingers_override(self, capsys):
        assert main(["idc", "--fingers", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_fingers"] == 2

    def test_cell_calibrate(self, capsys):
        assert main(["cell", "calibrate", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["balanced"] is True
        assert doc["l_r_nH"] == pytest.approx(6.757, rel=1e-3)
        assert doc["c_r_pF"] == pytest.approx(2.703, rel=1e-3)
        assert doc["l_l_nH"] == pytest.approx(0.1084, rel=1e-3)
        assert doc["f_se_Hz"] == doc["f_sh_Hz"] == pytest.approx(9.3e9, rel=1e-9)

    def test_dispersion_csv_shape(self, capsys):
        assert main(["dispersion"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == (
            "f_Hz,beta_rad_per_m,alpha_Np_per_m,k0_rad_per_m,"
            "beta_p_over_pi,region,scan_angle_deg"
        )
        assert len(lines) == 452
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            leaky = row[5].endswith("-leaky")
            assert (row[6] != "") == leaky

    def test_dispersion_grid_overrides(self, capsys):
        assert main(["dispersion", "--freq-start", "9", "--freq-stop", "10", "--points", "11"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12
        assert lines[1].startswith("9.00000000e+09,")
        assert lines[-1].startswith("1.00000000e+10,")

    def test_dispersion_json(self, capsys):
        assert main(["dispersion", "--format", "json", "--points", "21"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 21
        assert {"f_Hz", "region", "scan_angle_deg"} <= set(doc[0])

    @pytest.mark.parametrize("n_points", [451, 15001])
    def test_dispersion_json_matches_the_dict_encoder(self, capsys, n_points):
        config = resolve_config(env={})
        for n in (2, 3, 4):
            argv = ["dispersion", "--format", "json", "--fingers", str(n)]
            assert main([*argv, "--points", str(n_points)]) == 0
            cell = config.cell(n)
            s = dispersion_sweep(cell, config.f_start, config.f_stop, n_points)
            columns = (s.f, s.beta, s.alpha, s.k0, s.region, s.leaky, s.scan_deg)
            rows = [
                {
                    "f_Hz": f,
                    "beta_rad_per_m": beta,
                    "alpha_Np_per_m": alpha,
                    "k0_rad_per_m": k0,
                    "beta_p_over_pi": beta * cell.period / math.pi,
                    "region": REGIONS[code].value,
                    "scan_angle_deg": angle if leaky else None,
                }
                for f, beta, alpha, k0, code, leaky, angle in zip(*(c.tolist() for c in columns))
            ]
            expected = json.dumps(_jsonify(rows), indent=2, sort_keys=True) + "\n"
            assert capsys.readouterr().out == expected

    def test_scan_angles(self, capsys):
        assert main(["scan-angles", "--fingers", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "f_Hz,scan_angle_deg"
        angles = [float(line.split(",")[1]) for line in lines[1:]]
        assert min(angles) <= -45.0 and max(angles) >= 45.0

    def test_pattern_defaults_to_broadside(self, capsys):
        assert main(["pattern", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_cells"] == 8
        assert doc["summary"][0]["f_Hz"] == pytest.approx(9.3e9)
        assert abs(doc["summary"][0]["main_beam_deg"]) <= 1.0

    def test_pattern_files_per_frequency(self, tmp_path, capsys):
        out = tmp_path / "pat"
        assert main(
            ["pattern", "--freq", "9.0", "--freq", "9.6", "--out", str(out)]
        ) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "pattern_4f_9.6GHz.csv",
            "pattern_4f_9GHz.csv",
            "pattern_4f_summary.json",
        ]
        header = (out / "pattern_4f_9GHz.csv").read_text().splitlines()[0]
        assert header == "theta_deg,magnitude_db"
        summary = json.loads((out / "pattern_4f_summary.json").read_text())
        assert [round(s["f_Hz"] / 1e9, 3) for s in summary] == [9.0, 9.6]

    def test_pattern_files_with_one_name_are_refused(self, tmp_path, capsys):
        out = tmp_path / "pat"
        argv = ["pattern", "--freq", "9.0000001", "--freq", "9.0000002", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: two --freq values would both write pattern_4f_9GHz.csv; "
            "they must differ within 6 significant digits\n"
        )
        assert not out.exists()

    def test_pattern_polar_data(self, capsys):
        assert main(["pattern", "--polar-data", "--freq", "9.3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("# f_Hz = 9.30000000e+09")
        assert lines[1] == "theta_rad,magnitude_linear"
        first = lines[2].split(",")
        assert float(first[0]) == pytest.approx(-1.5707963, rel=1e-6)
        assert 0.0 < float(first[1]) <= 1.0

    def test_pattern_polar_data_is_csv_only(self, capsys):
        assert main(["pattern", "--polar-data", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce", "--format", "json"],
            ["reproduce", "--out", "d"],
            ["reproduce", "--fingers", "3"],
            ["sweep", "--fingers", "3"],
            ["sweep", "--format", "json"],
            ["idc", "--points", "5"],
            ["cell", "calibrate", "--freq-start", "9"],
            ["pattern", "--points", "3"],
            ["dispersion", "-v"],
        ],
        ids=" ".join,
    )
    def test_option_a_command_does_not_read_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_sweep_outputs_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert set(summary["states"]) == {"2", "3", "4"}
        for n, f0 in (("2", 10.7e9), ("3", 9.5e9), ("4", 9.3e9)):
            state = summary["states"][n]
            assert state["transition_Hz"] == pytest.approx(f0, rel=1e-3)
            assert state["scan_min_deg"] <= -45.0
            assert state["scan_max_deg"] >= 45.0
            assert (out / state["dispersion_csv"]).exists()

    def test_sweep_is_byte_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--out", str(a)]) == 0
        assert main(["sweep", "--out", str(b)]) == 0
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["reproduce"], ["cell", "calibrate", "--fingers", "3"], ["sweep", "--out", "{out}"]],
    )
    def test_tiny_target_is_an_error_naming_the_state(self, tmp_path, capsys, argv):
        # 2 pi f0 squared times C_L underflows to 0 for this target; reproduce
        # FAILs each per-state check with the error and still runs the others
        path = write_cfg(tmp_path, "target_3_ghz = 1e-300\n")
        argv = [a.format(out=tmp_path / "out") for a in argv]
        assert main([*argv, "--config", path]) == 1
        captured = capsys.readouterr()
        error = "cannot calibrate the 3-finger state: "
        if argv[0] == "reproduce":
            lines = captured.out.splitlines()
            assert captured.err == "" and lines[-1] == "2/8 checks passed"
            assert sum(line.split(": ", 1)[1].startswith(error) for line in lines[:-1]) == 6
        else:
            assert captured.err.startswith(f"error: {error}")
            assert captured.err.count("\n") == 1

    def test_sweep_without_a_target_state_is_one_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, NO_TARGETS)
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert main(["sweep", "--out", str(out)]) == 0
        kept = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        for target in (fresh, out):
            assert main(["sweep", "--config", path, "--out", str(target)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {NO_TARGETS_ERROR}"]
        assert not fresh.exists()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == kept

    def test_sweep_bracket_failure_names_state(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "freq_start_ghz = 9.4\n")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "4-finger" in err and "f_sh = 9.3e+09 Hz lies outside" in err

    @pytest.mark.parametrize(
        "text",
        [
            "target_3_ghz = 1e-300\n",  # the 3-finger state cannot be calibrated
            "freq_start_ghz = 9.4\n",  # the 4-finger transition lies below the band
        ],
        ids=["calibration", "root-solve"],
    )
    def test_failed_sweep_leaves_no_output(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out.exists() or not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv, last",
        [(["sweep"], "sweep_summary.json"), (["pattern"], "pattern_4f_summary.json")],
        ids=["sweep", "pattern"],
    )
    def test_late_file_that_cannot_be_opened_leaves_no_output(
        self, tmp_path, capsys, argv, last
    ):
        # the summary, written last, names an existing directory
        out = tmp_path / "out"
        (out / last).mkdir(parents=True)
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out / last}: Is a directory\n"
        assert [path.name for path in out.iterdir()] == [last]

    @pytest.mark.parametrize(
        "argv, last",
        [(["sweep"], "sweep_summary.json"), (["pattern"], "pattern_4f_summary.json")],
        ids=["sweep", "pattern"],
    )
    def test_failed_out_keeps_an_earlier_run(self, tmp_path, capsys, argv, last):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        (out / last).unlink()
        kept = {path.name: path.read_bytes() for path in out.iterdir()}
        assert kept and all(kept.values())
        # the summary, opened last, is now a directory: the second run fails
        # after it has opened the earlier files, and must leave them whole
        (out / last).mkdir()
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert {name: (out / name).read_bytes() for name in kept} == kept

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["sweep"], "afile"),
            (["pattern"], "afile"),
            (["dispersion"], os.path.join("afile", "x")),
        ],
        ids=["sweep", "pattern", "dispersion"],
    )
    def test_out_that_cannot_be_a_directory_is_an_error(self, tmp_path, capsys, argv, out):
        (tmp_path / "afile").write_text("kept\n")
        out = str(tmp_path / out)
        assert main([*argv, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("leakage", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["pattern", "sweep"])
    def test_non_finite_leakage_rejected(self, tmp_path, capsys, command, leakage):
        out = tmp_path / "out"
        assert main([command, "--leakage", leakage, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: leakage must be >= 0 and finite, got {leakage}"
        ]
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_frequency_is_reported_as_overflow(self, capsys):
        # 1e-300 GHz: 1/(w C_L) squared overflows, no branch resonates
        assert main(["pattern", "--freq", "1e-300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: chain-matrix entries overflow (f = 1e-291 Hz)"
        ]

    def test_reproduce_passes_on_defaults(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out

    def test_reproduce_json(self, capsys):
        assert main(["reproduce", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 8
        assert all(r["passed"] for r in doc)

    def test_reproduce_reports_a_check_that_cannot_run(self, capsys):
        # 9.4 GHz starts above the 4-finger crossing: the transitions cannot
        # be given, and the checks that need them are reported FAIL like any other
        assert main(["reproduce", "--freq-start", "9.4"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 9 and lines[-1] == "5/8 checks passed"
        failed = [line for line in lines if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failed] == [
            "FAIL  broadside tuning",
            "FAIL  gapless balanced bands",
            "FAIL  full-space scanning",
        ]
        assert "f_sh = 9.3e+09 Hz lies outside [9.4e+09, 1.2e+10] Hz" in failed[0]
        assert main(["reproduce", "--freq-start", "9.4", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [r["passed"] for r in doc] == [True, True, False, False, True, False, True, True]
        assert doc[2]["detail"] == failed[0].split(": ", 1)[1]

    @pytest.mark.parametrize(
        "text, failed, detail",
        [
            # 2 cosh(8 gamma p) of the 4-finger state overflows
            ("target_4_ghz = 1e-09\n", 4, "4f: 2 cosh(8 gamma p) overflows at 9.126536 GHz"),
            # no 2-finger state can be calibrated
            ("finger_length_mm = 1.7e308\n", 7, "cannot calibrate the 2-finger state: "),
            # a 1.7e305 m period, whose steering phase overflows, puts grating
            # lobes in view
            ("period_mm = 1.7e308\n", 4, "1353 leaky samples, 8 cells, largest (k0 p + |beta p|)"),
        ],
        ids=["trace-overflow", "uncalibrated", "steering-overflow"],
    )
    def test_reproduce_reports_every_check_of_a_design_that_overflows(
        self, tmp_path, text, failed, detail
    ):
        # a child process, so that a numpy warning would reach its stderr
        proc = run_python("-m", "crlhkit.cli", "reproduce", "--config", write_cfg(tmp_path, text))
        assert proc.returncode == 1
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 9 and lines[-1] == f"{8 - failed}/8 checks passed"
        assert sum(line.startswith("FAIL  ") for line in lines) == failed
        assert any(line.split(": ", 1)[1].startswith(detail) for line in lines[:-1])

    @pytest.mark.parametrize("command", ["pattern", "sweep"])
    def test_overflowing_steering_phase_is_one_error(self, tmp_path, capsys, command):
        # k0 p is finite at a 1.7e305 m period, but not over 7 cells
        path = write_cfg(tmp_path, "period_mm = 1.7e308\n")
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: (n_cells - 1) k0 p must be finite, got inf from k0 p ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, flags, error",
        [
            # the 2-finger transition fails before the 3-finger cell, which
            # `reproduce` reports first: it takes every cell before the rest
            (
                "target_3_ghz = 1e-300\ntarget_2_ghz = 12.5\n",
                [],
                "2-finger state: the transition f_sh = 1.25e+10 Hz lies outside "
                "[7.5e+09, 1.2e+10] Hz",
            ),
            # within a state, its transition before its sweep
            (
                "freq_stop_ghz = 1e298\nn_points = 7\ntarget_2_ghz = 1e-09\n",
                [],
                "2-finger state: the transition f_sh = 1 Hz lies outside [7.5e+09, 1e+307] Hz",
            ),
            # the 2-finger sweep before the 3-finger cell
            (
                "freq_stop_ghz = 1e298\nn_points = 7\ntarget_3_ghz = 1e-300\n",
                [],
                "chain-matrix entries overflow (f = 1.66666667e+306 Hz)",
            ),
            (
                "target_2_ghz = 1e-09\ntarget_3_ghz = 12.5\n",
                [],
                "2-finger state: the transition f_sh = 1 Hz lies outside [7.5e+09, 1.2e+10] Hz",
            ),
            # the leakage is refused at the first state that gets that far
            ("target_3_ghz = 12.5\n", ["--leakage", "-1"], "leakage must be >= 0 and finite, got -1.0"),
            (
                "target_2_ghz = 12.5\n",
                ["--leakage", "-1"],
                "2-finger state: the transition f_sh = 1.25e+10 Hz lies outside "
                "[7.5e+09, 1.2e+10] Hz",
            ),
        ],
        ids=["cell-after-transition", "transition-before-sweep", "sweep-before-cell",
             "two-transitions", "leakage-after-state", "transition-before-leakage"],
    )
    def test_sweep_reports_the_first_error_in_state_order(
        self, tmp_path, capsys, text, flags, error
    ):
        path = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", path, *flags, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_reproduce_without_a_target_state_fails_each_state_check(self, tmp_path, capsys):
        path = write_cfg(tmp_path, NO_TARGETS)
        assert main(["reproduce", "--json", "--config", path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [r["passed"] for r in doc] == [True, True] + [False] * 6
        assert [r["detail"] for r in doc[2:]] == [NO_TARGETS_ERROR] * 6

    def test_gapless_check_counts_slow_samples_as_pass_band(self, tmp_path):
        # the 2-finger detuned control is a slow wave below its gap and has
        # a single leaky sample above it, so counting only between leaky
        # samples read "detuned gap 0" and failed the balanced design
        path = write_cfg(
            tmp_path,
            "finger_length_mm = 0.7247473400068514\n"
            "gap_mm = 0.5082685461645472\n"
            "epsilon_r = 4.134897561452338\n"
            "target_2_ghz = 8.54372596184771\n"
            "target_3_ghz = 8.555597637232342\n"
            "target_4_ghz = 10.067409290059777\n",
        )
        results = {r.name: r for r in selfcheck.run_all(resolve_config(path, env={}))}
        gapless = results["gapless balanced bands"]
        assert gapless.passed, gapless.detail
        assert "2f: gap samples 0" in gapless.detail
        assert "detuned gap 0" not in gapless.detail

    def test_reproduce_solves_each_state_once(self, tmp_path, monkeypatch, capsys):
        # one kernel pass takes every sample: a row per state on the grid,
        # then its gap midpoint and f_sh, and, in `reproduce` alone, a row
        # per detuned control and the trace identity's 20 frequencies a state
        shapes = []

        def counted(values, f):
            shapes.append(np.broadcast_shapes(f.shape, values[0].shape))
            return chain(values, f)

        chain = bloch._chain
        monkeypatch.setattr(bloch, "_chain", counted)
        assert main(["reproduce"]) == 0
        assert "8/8 checks passed" in capsys.readouterr().out
        assert shapes == [(2 * 3, 451 + 2 + 20)]
        shapes.clear()
        assert main(["sweep", "--out", str(tmp_path)]) == 0
        assert shapes == [(3, 451 + 2)]
        # the beam check reads the sweeps alone: no pattern is built
        proc = run_python(
            "-c",
            "import sys; from crlhkit.cli import main; code = main(['reproduce']); "
            "print('crlhkit.radiation' in sys.modules, code)",
        )
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-2:] == ["8/8 checks passed", "False 0"]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "finger_length_mm = 0.7105\ngap_mm = 0.4731\nepsilon_r = 3.571\n"
            "target_2_ghz = 10.12\ntarget_3_ghz = 9.07\ntarget_4_ghz = 8.81\n",
            "finger_length_mm = 1.0214\ngap_mm = 0.3315\nepsilon_r = 4.102\n"
            "target_2_ghz = 8.66\ntarget_3_ghz = 10.43\ntarget_4_ghz = 9.58\n",
        ],
        ids=["paper-default", "perturbed-a", "perturbed-b"],
    )
    def test_reproduce_reads_the_same_under_every_pass_budget(self, tmp_path, monkeypatch, text):
        # a budget of 5 takes one column a block, 64 and 450 split the
        # grid into blocks and put the own columns of every row in the last
        config = resolve_config(write_cfg(tmp_path, text), env={})
        whole = selfcheck.run_all(config)
        for budget in (5, 64, 450, bloch._SWEEP_BLOCK):
            monkeypatch.setattr(bloch, "_SWEEP_BLOCK", budget)
            assert selfcheck.run_all(config) == whole, budget

    def test_an_error_in_one_detuned_control_fails_the_gapless_check_alone(
        self, tmp_path, monkeypatch
    ):
        # the 2-finger chain entries first overflow near 1.264e111 Hz, those
        # of its detuned control near 1.189e111 Hz, so a grid that ends
        # between the two fails that control and nothing else
        config = resolve_config(write_cfg(tmp_path, "freq_stop_ghz = 1.22e102\nn_points = 7\n"), env={})
        cell = config.cell(2)
        with pytest.raises(PoleError) as control:
            dispersion_sweep(replace(cell, c_r=1.2 * cell.c_r), config.f_start, config.f_stop, 7)
        assert str(control.value) == "chain-matrix entries overflow (f = 1.22e+111 Hz)"
        results = selfcheck.run_all(config)
        assert results[3] == selfcheck.CheckResult("gapless balanced bands", False, str(control.value))
        # with undetuned controls every row solves: the other checks read the same
        monkeypatch.setattr(selfcheck, "DETUNE", 1.0)
        solved = selfcheck.run_all(config)
        assert solved[3].detail.startswith("2f: gap samples ")
        assert results[:3] + results[4:] == solved[:3] + solved[4:]

    @pytest.mark.parametrize("leakage", [[], ["--leakage", "0.05"]], ids=["bloch", "leakage"])
    def test_sweep_takes_the_broadside_beams_in_one_call(
        self, tmp_path, monkeypatch, capsys, leakage
    ):
        calls = []

        def counted(*args):
            calls.append((args, whole(*args)))
            return calls[-1][1]

        whole = radiation.array_factor
        monkeypatch.setattr(radiation, "array_factor", counted)
        assert main(["sweep", *leakage, "--out", str(tmp_path)]) == 0
        states = json.loads((tmp_path / "sweep_summary.json").read_text())["states"]
        (((gamma, p, n_cells, f), pats),) = calls
        config = resolve_config(env={})
        assert (p, n_cells) == (config.cell_geometry.period, config.cell_geometry.n_cells)
        assert f.tolist() == [states[n]["transition_Hz"] for n in ("2", "3", "4")]
        if leakage:
            assert (gamma.real == 0.05 / p).all()
        # each state's pattern equals its own one-frequency call
        for i, n in enumerate((2, 3, 4)):
            one = pattern_for_frequency(config.cell(n), f[i], n_cells, 0.05 if leakage else None)
            assert pats.main_beam_deg[i] == one.main_beam_deg
            assert one.main_beam_deg == states[str(n)]["broadside_beam_deg"]
            assert pats.beamwidth_3db_deg[i] == one.beamwidth_3db_deg
            assert np.array_equal(pats.magnitude_db[i], one.magnitude_db)

    @pytest.mark.parametrize(
        "text, passed, detail",
        [
            (
                "n_cells = 1\n",
                False,
                "0.2278 (allow < 1); one cell has a flat pattern and no main beam",
            ),
            # a grating lobe comes into view at the top of the band
            ("period_mm = 20\nfreq_stop_ghz = 12\n", False, "1.22 (allow < 1)"),
            # beams narrower than the 0.25 deg grid: the grid comparison
            # missed by 1.040 and 2.185 half beamwidths
            ("period_mm = 7\nn_cells = 1000\n", True, "0.514 (allow < 1)"),
            ("period_mm = 9\nn_cells = 1000\n", True, "0.669 (allow < 1)"),
        ],
        ids=["one-cell", "grating-lobe", "1000-cells-7mm", "1000-cells-9mm"],
    )
    def test_beam_check_is_the_single_beam_condition(self, tmp_path, text, passed, detail):
        config = resolve_config(write_cfg(tmp_path, text), env={})
        (beam,) = [r for r in selfcheck.run_all(config) if r.name == "beam consistency"]
        assert beam.passed is passed
        assert re.fullmatch(
            r"\d+ leaky samples, \d+ cells, largest \(k0 p \+ \|beta p\|\)/2 pi "
            + re.escape(detail),
            beam.detail,
        )

    def test_beam_check_fails_a_reach_that_is_not_finite(self, config, cells):
        # max() would drop the NaN and pass the other samples' margin
        sweeps = {
            n: dispersion_sweep(cell, config.f_start, config.f_stop, config.n_points)
            for n, cell in cells.items()
        }
        assert selfcheck.check_beam_consistency(config, cells, sweeps)[0]
        beta = sweeps[3].beta.copy()
        beta[np.flatnonzero(sweeps[3].leaky)[0]] = math.nan
        sweeps[3] = replace(sweeps[3], beta=beta)
        ok, detail = selfcheck.check_beam_consistency(config, cells, sweeps)
        assert not ok and detail.endswith("largest (k0 p + |beta p|)/2 pi nan (allow < 1)")

    def test_elliptic_check_is_worked_out_once(self):
        # it reads no input, so every run_all in a process shares one result
        first = selfcheck.check_elliptic_ratio()
        assert first[0] and selfcheck.check_elliptic_ratio() is first

    def test_trace_identity_prints_rounding_noise_as_a_bound(self, config, cells, monkeypatch):
        # the noise digits follow the platform's SIMD math; only a larger
        # error is printed in full
        traces = trace_samples(config, cells)
        ok, detail = selfcheck.check_trace_identity(cells, traces)
        assert ok and detail.startswith("worst relative error < 1e-12 over 20 ")
        monkeypatch.setattr(selfcheck, "TRACE_NOISE", 0.0)
        ok, detail = selfcheck.check_trace_identity(cells, traces)
        assert ok and re.match(r"worst relative error \d\.\d\de-\d\d over 20 ", detail)

    @pytest.mark.parametrize("band", [(7.5e9, 12e9), (1e9, 40e9)], ids=["paper-band", "wide-band"])
    def test_trace_frequencies_are_the_seeded_uniform_draws(self, config, cells, band):
        # each state draws from one generator in turn, as Generator.uniform
        # does, and its samples there are those of its one-row call
        config = replace(config, f_start=band[0], f_stop=band[1])
        rng = np.random.default_rng(selfcheck.TRACE_SEED)
        traces = bloch._solve(config, variates=selfcheck._trace_variates())[2]
        assert len(traces) == 3
        for (f, beta, alpha), one in zip(traces, trace_samples(config, cells)):
            assert f.tobytes() == rng.uniform(*band, selfcheck.N_TRACE_FREQS).tobytes()
            assert [x.tobytes() for x in (f, beta, alpha)] == [x.tobytes() for x in one]

    @pytest.mark.parametrize("band", [(7.5e9, 12e9), (1e9, 40e9)], ids=["paper-band", "wide-band"])
    def test_trace_squarings_match_the_matrix_power(self, config, cells, band):
        # the trace the check judges, relative as the check takes it
        config = replace(config, f_start=band[0], f_stop=band[1])
        for cell, (f, _, _) in zip(cells.values(), trace_samples(config, cells)):
            a, b, c, _ = (entry[0] for entry in bloch._chain(bloch._cell_values([cell]), f[None, :]))
            m8 = np.linalg.matrix_power(np.stack([a, b, c, a], axis=-1).reshape(-1, 2, 2), 8)
            oracle = m8[:, 0, 0] + m8[:, 1, 1]
            trace = 2.0 * selfcheck._eighth_power(a, b, c)[0]
            assert (np.abs(trace - oracle) / np.maximum(1.0, np.abs(oracle)) <= 1e-15).all()

    def test_trace_identity_fails_on_a_trace_that_is_not_finite(self, config):
        # a huge shunt admittance overflows M^4 into NaN while
        # 2 cosh(8 gamma p) stays near 1e139; max() would drop the NaN
        cell = CrlhUnitCell(l_r=1e-300, c_r=1.8e296, l_l=1.0, c_l=1e300, period=5e-3)
        ok, detail = selfcheck.check_trace_identity({2: cell}, trace_samples(config, {2: cell}))
        assert not ok
        assert re.fullmatch(r"2f: trace\(M\^8\) is not finite at \d+\.\d{6} GHz", detail)

    def test_reproduce_detects_detuned_substrate(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "epsilon_r = 1.0\n")
        assert main(["reproduce", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_missing_config_is_diagnosed(self, capsys):
        assert main(["idc", "--config", "/no/such/file.cfg"]) == 1
        assert "config not found" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_config_that_is_not_utf8_names_its_file_and_line(self, tmp_path, capsys, newline):
        path = tmp_path / "override.cfg"
        path.write_bytes(newline.join(["# sweep", "n_cells = 8", "gap_mm = 0.\xff1", ""]).encode("latin-1"))
        assert main(["reproduce", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:3: not UTF-8 text, byte 0xff\n"

    def test_bad_profile_env(self, monkeypatch, capsys):
        monkeypatch.setenv("CRLH_PROFILE", "missing")
        assert main(["idc"]) == 1
        assert "no bundled profile" in capsys.readouterr().err

    def test_console_script_entry_point(self):
        proc = run_python("-m", "crlhkit.cli", "--version")
        assert proc.returncode == 0
        assert "crlhkit" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        # numpy is the only runtime dependency and loads with the first
        # command that computes; scipy is a test oracle only
        proc = run_python(
            "-c",
            "import sys, crlhkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [["--version"], ["idc"], ["cell", "calibrate"]])
    def test_scalar_commands_load_no_numpy(self, argv):
        proc = run_python("-X", "importtime", "-m", "crlhkit.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
        modules = imported_modules(proc.stderr)
        if argv != ["--version"]:
            assert "crlhkit.config" in modules
        assert not {m for m in modules if m.split(".")[0] == "numpy"}

    def test_version_loads_only_what_it_prints(self):
        bare = run_python("-X", "importtime", "-c", "pass")
        proc = run_python("-X", "importtime", "-m", "crlhkit.cli", "--version")
        assert bare.returncode == 0 and proc.returncode == 0, proc.stderr
        extra = imported_modules(proc.stderr) - imported_modules(bare.stderr)
        unwanted = {"crlhkit.config", "crlhkit.cell", "crlhkit.idc", "dataclasses", "json"}
        assert not extra & unwanted

    def test_closed_pipe_ends_quietly(self):
        # the reader takes one line and closes the pipe, as `| head -1` does;
        # 20,000 rows are far more than a pipe buffer holds
        src = os.path.dirname(os.path.dirname(crlhkit.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "crlhkit.cli", "dispersion", "--points", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline().startswith(b"f_Hz,beta_rad_per_m,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_main_leaves_a_closed_stdout_to_its_caller(self, monkeypatch):
        # in process, main neither swallows the error nor repoints fd 1
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        fd1 = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(BrokenPipeError):
            main(["dispersion", "--points", "7"])
        assert os.path.samestat(os.fstat(1), fd1)

    def test_dispersion_runs_in_a_child_process(self, capsys):
        proc = run_python("-X", "importtime", "-m", "crlhkit.cli", "dispersion", "--points", "7")
        assert proc.returncode == 0, proc.stderr
        modules = imported_modules(proc.stderr)
        assert "numpy" in modules
        # run as __main__, the CLI must not be imported a second time as crlhkit.cli
        assert "crlhkit.cli" not in modules
        assert main(["dispersion", "--points", "7"]) == 0
        assert proc.stdout == capsys.readouterr().out
