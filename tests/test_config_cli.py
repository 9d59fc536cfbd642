import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crlhkit
from crlhkit import selfcheck
from crlhkit.bloch import MAX_N_POINTS, REGIONS, dispersion_sweep
from crlhkit.cell import resonances
from crlhkit.cli import _jsonify, fmt, main
from crlhkit.config import (
    _FLOAT_KEYS,
    _INT_KEYS,
    KNOWN_KEYS,
    RunConfig,
    parse_config_text,
    resolve_config,
)
from crlhkit.errors import ConfigError, CrlhError


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
        with pytest.raises(ConfigError, match="paper-default"):
            resolve_config(env={"CRLH_PROFILE": "nope"})

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
        # 2 pi f0 squared times C_L underflows to 0 for this target
        path = write_cfg(tmp_path, "target_3_ghz = 1e-300\n")
        argv = [a.format(out=tmp_path / "out") for a in argv]
        assert main([*argv, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot calibrate the 3-finger state: ")
        assert captured.err.count("\n") == 1

    def test_sweep_bracket_failure_names_state(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "freq_start_ghz = 9.4\n")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "4-finger" in err and "does not change sign" in err

    @pytest.mark.parametrize(
        "text",
        [
            "target_3_ghz = 1e-300\n",  # the 3-finger state cannot be calibrated
            "freq_start_ghz = 9.4\n",  # the 4-finger root solve has no bracket
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
        # 9.4 GHz starts above the 4-finger crossing: the root solves fail,
        # and the checks that need them are reported FAIL like any other
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
        assert "beta does not change sign over [9.4e+09, 1.2e+10] Hz" in failed[0]
        assert main(["reproduce", "--freq-start", "9.4", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [r["passed"] for r in doc] == [True, True, False, False, True, False, True, True]
        assert doc[2]["detail"] == failed[0].split(": ", 1)[1]

    def test_reproduce_solves_each_state_once(self, monkeypatch, capsys):
        calls = {"transition": [], "pattern": []}

        def counted(name, fn):
            def wrapper(cell, *args, **kwargs):
                calls[name].append(args)
                return fn(cell, *args, **kwargs)

            return wrapper

        wrapped = {"transition": "transition_frequency", "pattern": "pattern_for_frequency"}
        for name, attr in wrapped.items():
            monkeypatch.setattr(selfcheck, attr, counted(name, getattr(selfcheck, attr)))
        assert main(["reproduce"]) == 0
        assert "8/8 checks passed" in capsys.readouterr().out
        assert len(calls["transition"]) == 3
        # batched pattern calls over each state's leaky samples, a slice at a time
        config = resolve_config(env={})
        leaky = []
        for n in (2, 3, 4):
            s = dispersion_sweep(config.cell(n), config.f_start, config.f_stop, config.n_points)
            leaky.append(s.f[s.leaky])
        slices = [-(-len(f) // selfcheck.BEAM_SLICE) for f in leaky]
        assert len(calls["pattern"]) == sum(slices) < 6
        freqs = [f for f, _ in calls["pattern"]]
        assert all(len(f) <= selfcheck.BEAM_SLICE for f in freqs)
        assert np.array_equal(np.concatenate(freqs), np.concatenate(leaky))

    def test_reproduce_detects_detuned_substrate(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "epsilon_r = 1.0\n")
        assert main(["reproduce", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_missing_config_is_diagnosed(self, capsys):
        assert main(["idc", "--config", "/no/such/file.cfg"]) == 1
        assert "config not found" in capsys.readouterr().err

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

    def test_dispersion_runs_in_a_child_process(self, capsys):
        proc = run_python("-X", "importtime", "-m", "crlhkit.cli", "dispersion", "--points", "7")
        assert proc.returncode == 0, proc.stderr
        modules = imported_modules(proc.stderr)
        assert "numpy" in modules
        # run as __main__, the CLI must not be imported a second time as crlhkit.cli
        assert "crlhkit.cli" not in modules
        assert main(["dispersion", "--points", "7"]) == 0
        assert proc.stdout == capsys.readouterr().out
