import json
import subprocess
import sys
from dataclasses import replace

import pytest

from crlhkit.cli import fmt, main
from crlhkit.config import (
    RunConfig,
    load_profile,
    parse_config_text,
    resolve_config,
)
from crlhkit.errors import ConfigError


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CRLH_PROFILE", raising=False)


def write_cfg(tmp_path, text):
    path = tmp_path / "override.cfg"
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_bundled_profile_values(self):
        cfg = load_profile("paper-default")
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
            load_profile("nope")

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
        base = load_profile("paper-default")
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
            replace(load_profile("paper-default"), f_stop=float("inf"))

    def test_idc_geometry_refingering(self):
        cfg = load_profile("paper-default")
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

    def test_pattern_polar_data(self, capsys):
        assert main(["pattern", "--polar-data", "--freq", "9.3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("# f_Hz = 9.30000000e+09")
        assert lines[1] == "theta_rad,magnitude_linear"
        first = lines[2].split(",")
        assert float(first[0]) == pytest.approx(-1.5707963, rel=1e-6)
        assert 0.0 < float(first[1]) <= 1.0

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

    def test_sweep_bracket_failure_names_state(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "freq_start_ghz = 9.4\n")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "4-finger" in err and "does not change sign" in err

    def test_reproduce_passes_on_defaults(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out

    def test_reproduce_json(self, capsys):
        assert main(["reproduce", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 8
        assert all(r["passed"] for r in doc)

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
        proc = subprocess.run(
            [sys.executable, "-m", "crlhkit.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "crlhkit" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy is a test oracle only
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, crlhkit.cli; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
