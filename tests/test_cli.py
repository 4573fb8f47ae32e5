"""Configuration parsing and the pipeline runner: config validation,
end-to-end chains, metrics schema, determinism, and exit codes."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import synfocus
from synfocus.cli import DEFAULTS, ExperimentConfig, main, parse_config


def read_metrics(out_dir):
    text = (Path(out_dir) / "metrics.txt").read_text()
    items = {}
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        assert sep, f"malformed metrics line: {line!r}"
        items[name] = value
    return items


def run_cli(args, out_dir):
    rc = main(list(args) + ["--out", str(out_dir), "--quiet"])
    return rc


class TestParseConfig:
    def test_transducer_and_radii_counts(self):
        cfg = parse_config("transducers = 300\nradii = 800")
        assert cfg.transducers == 300
        assert cfg.radii == 800

    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.grid == (64, 64)
        assert cfg.transducers == 128
        assert cfg.radii == 256
        assert cfg.family == "plane"
        assert cfg.noise == 0.0
        assert cfg.seed == 0

    def test_comments_blanks_and_lists(self):
        cfg = parse_config(
            "# a comment\n\ngrid = 48, 32  # inline comment\nnoise = 0.02\n"
        )
        assert cfg.grid == (48, 32)
        assert cfg.noise == 0.02

    def test_negative_radii_error_names_the_key(self):
        with pytest.raises(ValueError, match="radii"):
            parse_config("radii = -5")

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("radii = 5\nwavelength = 3")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("just some words")

    def test_non_numeric_count_names_the_key(self):
        with pytest.raises(ValueError, match="transducers"):
            parse_config("transducers = many")

    def test_volumetric_families_cannot_drive_endtoend(self):
        for family in ("spherical", "monochromatic"):
            with pytest.raises(ValueError, match="family"):
                ExperimentConfig(mode="endtoend", family=family)
        # but they are fine for the measurement/focusing modes
        assert ExperimentConfig(mode="focus", family="spherical").family == "spherical"


class TestExitCodes:
    def test_validate_mode_passes_and_exits_zero(self, tmp_path):
        assert run_cli(["validate"], tmp_path) == 0
        metrics = read_metrics(tmp_path)
        assert metrics["status"] == "ok"
        assert metrics["check_forward"] == "pass"
        assert metrics["check_fourier"] == "pass"
        assert metrics["check_oracle"] == "pass"

    def test_config_error_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("radii = -5\n")
        assert run_cli(["validate", "--config", str(cfg)], tmp_path) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path):
        assert run_cli(["validate", "--config", str(tmp_path / "nope.cfg")], tmp_path) == 1

    def test_stage_failure_exits_two_and_names_the_stage(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        # three transducers cannot span a sphere; the measure stage fails
        cfg.write_text("family = spherical\ntransducers = 3\npixels = 8\n")
        assert run_cli(["focus", "--config", str(cfg)], tmp_path) == 2
        assert "stage 'measure' failed" in capsys.readouterr().err
        # the timings up to and including the failed stage are kept
        metrics = read_metrics(tmp_path)
        assert "time_kernel" in metrics and "time_measure" in metrics

    def test_run_warnings_land_in_metrics(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = xray\nangles = 4\ngrid = 16\npixels = 8\n")
        assert run_cli(["focus", "--config", str(cfg)], tmp_path) == 0
        assert "4 projection angles" in read_metrics(tmp_path)["warnings"]

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_run_warnings_recorded_under_any_filter(self, tmp_path, action):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = xray\nangles = 4\ngrid = 16\npixels = 8\n")
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert run_cli(["focus", "--config", str(cfg)], tmp_path) == 0
        assert "4 projection angles" in read_metrics(tmp_path)["warnings"]

    def test_seed_override_lands_in_config_echo(self, tmp_path):
        assert run_cli(["validate", "--seed", "5"], tmp_path) == 0
        assert read_metrics(tmp_path)["config_seed"] == "5"

    def test_spherical_with_too_few_radii_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = spherical\nradii = 2\npixels = 8\n")
        assert run_cli(["focus", "--config", str(cfg)], tmp_path) == 1
        assert "'radii'" in capsys.readouterr().err
        assert not (tmp_path / "metrics.txt").exists()

    @pytest.mark.parametrize("mode", ["kernel", "measure", "focus", "endtoend"])
    def test_pixels_too_fine_for_grid_exits_one(self, mode, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid = 8\npixels = 32\n")
        assert run_cli([mode, "--config", str(cfg)], tmp_path) == 1
        assert "'pixels'" in capsys.readouterr().err
        assert not (tmp_path / "metrics.txt").exists()

    def test_pixels_are_not_checked_without_a_conduction_kernel(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid = 8\npixels = 32\n")
        assert run_cli(["forward", "--config", str(cfg)], tmp_path) == 0

    def test_python_dash_m_runs(self, tmp_path):
        src = str(Path(synfocus.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "synfocus", "validate", "--out", str(tmp_path), "--quiet"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "metrics.txt").exists()

    def test_console_script_runs(self, tmp_path):
        proc = subprocess.run(
            ["synfocus", "validate", "--out", str(tmp_path), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "metrics.txt").exists()


ENDTOEND_METRIC_KEYS = [
    "config_mode",
    "config_grid",
    "config_pixels",
    "config_transducers",
    "config_radii",
    "config_frequencies",
    "config_angles",
    "config_family",
    "config_noise",
    "config_seed",
    "config_out",
    "time_phantom",
    "residual",
    "time_forward",
    "time_kernel",
    "time_measure",
    "kernel_error",
    "time_focus",
]


CONFIG_KEYS = [k for k in ENDTOEND_METRIC_KEYS if k.startswith("config_")]

SMALL_CHAIN = "grid = 12\npixels = 6\n"
CHAIN_MODES = {
    # mode: (files written besides metrics.txt, metric keys after the config echo)
    "phantom": (["phantom.csv", "phantom.pgm"], ["time_phantom"]),
    "forward": (["phantom.csv", "phantom.pgm", "potential.csv", "potential.pgm", "trace.csv"],
                ["time_phantom", "residual", "time_forward"]),
    "kernel": (["phantom.csv", "phantom.pgm", "kernel.csv", "kernel_e000.pgm",
                "kernel_adjoint.csv"],
               ["time_phantom", "time_kernel", "adjoint_vs_bruteforce", "time_kernel_adjoint"]),
    "measure": (["kernel.csv", "kernel_e000.pgm", "data.csv"], ["time_kernel", "time_measure"]),
    "focus": (["kernel.csv", "kernel_e000.pgm", "data.csv", "recon.csv", "recon_e000.pgm"],
              ["time_kernel", "time_measure", "kernel_error", "time_focus"]),
}


class TestChainModes:
    @pytest.mark.parametrize("mode", sorted(CHAIN_MODES))
    def test_mode_writes_its_files_and_metrics(self, mode, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_CHAIN)
        out = tmp_path / "out"
        assert run_cli([mode, "--config", str(cfg)], out) == 0
        files, keys = CHAIN_MODES[mode]
        for name in files + ["metrics.txt"]:
            assert (out / name).stat().st_size > 0, name
        assert list(read_metrics(out)) == CONFIG_KEYS + keys


class TestEndToEnd:
    def test_small_plane_chain_writes_everything(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid = 24\npixels = 12\n")
        assert run_cli(["endtoend", "--config", str(cfg)], tmp_path) == 0
        for name in (
            "phantom.csv",
            "phantom.pgm",
            "trace.csv",
            "kernel.csv",
            "data.csv",
            "recon.csv",
            "metrics.txt",
        ):
            assert (tmp_path / name).exists(), name
        assert list((tmp_path / ".").glob("kernel_e*.pgm"))
        assert list((tmp_path / ".").glob("recon_e*.pgm"))
        metrics = read_metrics(tmp_path)
        # schema: every stage runtime and the full config echo, in order
        assert list(metrics) == ENDTOEND_METRIC_KEYS
        for key in metrics:
            if key.startswith("time_"):
                assert float(metrics[key]) >= 0.0
        # the plane-wave roundtrip is exact on noiseless data
        assert float(metrics["kernel_error"]) <= 1e-10

    def test_xray_family_chain(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = xray\nangles = 360\ngrid = 32\npixels = 16\n")
        assert run_cli(["endtoend", "--config", str(cfg)], tmp_path) == 0
        assert float(read_metrics(tmp_path)["kernel_error"]) <= 0.10

    @pytest.mark.invariant
    def test_identical_config_and_seed_reproduce_outputs_bitwise(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid = 24\npixels = 12\nnoise = 0.01\nseed = 11\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["endtoend", "--config", str(cfg)], a) == 0
        assert run_cli(["endtoend", "--config", str(cfg)], b) == 0
        compared = 0
        for pa in sorted(a.iterdir()):
            if pa.suffix not in (".csv", ".pgm"):
                continue
            pb = b / pa.name
            assert pb.exists(), pa.name
            assert pa.read_bytes() == pb.read_bytes(), pa.name
            compared += 1
        assert compared >= 6
