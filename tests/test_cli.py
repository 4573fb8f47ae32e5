"""Configuration parsing and the pipeline runner: config validation,
end-to-end chains, metrics schema, determinism, and exit codes."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import synfocus
from synfocus import forward_eit
from synfocus.cli import (DEFAULTS, ExperimentConfig, _centered_grid, _interior_grid,
                          default_phantom, main, parse_config)

from conftest import count_calls, declared_shape, read_csv, read_metrics


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
            "# a comment\n\ngrid = 48, 32  # inline comment\nnoise = 0.02\npixels = 16\n"
        )
        assert cfg.grid == (48, 32)
        assert cfg.noise == 0.02

    def test_negative_radii_error_names_the_key(self):
        with pytest.raises(ValueError, match="radii"):
            parse_config("radii = -5")

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("radii = 5\nwavelength = 3")

    def test_repeated_key_names_both_lines(self):
        # a second setting must not silently override the first
        with pytest.raises(ValueError, match=r"^line 2: 'radii' already set on line 1$"):
            parse_config("radii = 96\nradii = 32")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("just some words")

    def test_non_numeric_count_names_the_key(self):
        with pytest.raises(ValueError, match="transducers"):
            parse_config("transducers = many")

    @pytest.mark.parametrize("key, value", [
        ("grid", 64.7), ("grid", (64, 32.5)), ("grid", np.float64(64.0)), ("grid", True),
        ("pixels", 16.5), ("transducers", 8.0), ("radii", 96.5), ("frequencies", 64.2),
        ("angles", 180.5), ("seed", 1.5), ("seed", np.float64(2.0)), ("radii", True),
    ])
    def test_non_integer_counts_and_seed_name_the_key(self, key, value):
        # the text path already refuses them (int('96.5') fails); grid = 64.7
        # used to become (64, 64) and radii = 96.5 to measure 97 radii
        with pytest.raises(ValueError, match=f"invalid value for '{key}'"):
            ExperimentConfig(mode="focus", family="spherical", **{key: value})
        with pytest.raises(ValueError, match=f"invalid value for '{key}'"):
            parse_config(f"{key} = {value}".replace("(", "").replace(")", ""))

    def test_numpy_integer_counts_and_seed_accepted(self):
        cfg = ExperimentConfig(grid=(np.int64(48), np.int32(32)), pixels=np.int64(16),
                               radii=np.int64(96), seed=np.int64(3))
        assert cfg.grid == (48, 32) and type(cfg.grid[0]) is int
        assert (cfg.pixels, cfg.radii, cfg.seed) == (16, 96, 3)

    @pytest.mark.parametrize("key, value", [
        ("noise", "0.1"), ("noise", None), ("noise", 1j), ("noise", True), ("noise", np.True_),
        ("noise", np.float64(-0.1)), ("out", None), ("out", 5),
    ])
    def test_bad_noise_and_out_name_the_key(self, key, value):
        # noise = "0.1" used to raise a bare TypeError, True to pass as 1.0
        with pytest.raises(ValueError, match=f"invalid value for '{key}'"):
            ExperimentConfig(**{key: value})

    def test_real_noise_and_path_out_accepted(self, tmp_path):
        for noise in (0, 0.02, np.float64(0.02), np.float32(0.5), np.int64(1)):
            assert ExperimentConfig(noise=noise).noise == noise
        assert ExperimentConfig(out=tmp_path).out == tmp_path

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
        assert metrics["check_spherical"] == "pass"

    def test_failed_check_exits_two_with_status_fail(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(synfocus.cli, "_rel_frobenius", lambda a, b: 1.0)
        assert run_cli(["validate"], tmp_path) == 2
        assert "validation checks failed" in capsys.readouterr().err
        metrics = read_metrics(tmp_path)
        assert metrics["check_forward"] == "pass"
        assert metrics["check_fourier"] == "fail"
        assert metrics["status"] == "fail"

    def test_config_error_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("radii = -5\n")
        assert run_cli(["validate", "--config", str(cfg)], tmp_path) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-file"])
    def test_unusable_out_exits_one(self, below, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker.joinpath(*below)
        assert run_cli(["phantom"], out) == 1
        assert "config error" in capsys.readouterr().err
        assert blocker.read_text() == ""
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("name", ["a\nb", "a\r\n", "a\u2028b"])
    def test_out_with_a_line_break_exits_one(self, name, tmp_path, capsys):
        # metrics.txt holds one 'name = value' line per key, config_out too
        assert run_cli(["phantom"], tmp_path / name) == 1
        assert "invalid value for 'out'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file_exits_one(self, tmp_path):
        assert run_cli(["validate", "--config", str(tmp_path / "nope.cfg")], tmp_path) == 1

    def test_stage_failure_exits_two_and_names_the_stage(self, tmp_path, capsys,
                                                          monkeypatch):
        def fail(*args, **kwargs):
            raise FloatingPointError("injected failure")

        monkeypatch.setattr(synfocus.wavegen, "measure_spherical_pulse", fail)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = spherical\npixels = 8\n")
        assert run_cli(["focus", "--config", str(cfg)], tmp_path) == 2
        assert "stage 'measure' failed" in capsys.readouterr().err
        # the timings up to and including the failed stage are kept
        metrics = read_metrics(tmp_path)
        assert "time_kernel" in metrics and "time_measure" in metrics

    def test_interrupt_propagates_and_keeps_the_stage_timing(self, tmp_path, monkeypatch):
        def interrupt(run):
            raise KeyboardInterrupt

        monkeypatch.setitem(synfocus.cli.STAGES, "phantom", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_cli(["phantom"], tmp_path)
        assert "time_phantom" in read_metrics(tmp_path)

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

    @pytest.mark.parametrize("pixels, cut", [(16, 55), (24, None), (32, None)])
    def test_frequency_cut_lands_in_metrics(self, pixels, cut, tmp_path):
        # default_frequencies caps the count at floor(2 * diameter / dx):
        # 55 at 16 pixels, 83 at 24 (the volume3d bench op), 110 at 32; the
        # count measured is recorded beside the 64 configured
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"family = monochromatic\npixels = {pixels}\ntransducers = 8\n")
        assert run_cli(["measure", "--config", str(cfg)], tmp_path) == 0
        metrics = read_metrics(tmp_path)
        assert metrics["config_frequencies"] == "64"
        assert metrics["axis_frequency"] == str(cut or 64)
        if cut is None:
            assert "warnings" not in metrics
        else:
            assert f"measuring {cut} of the 64 requested frequencies" in metrics["warnings"]

    def test_seed_override_lands_in_config_echo(self, tmp_path):
        assert run_cli(["validate", "--seed", "5"], tmp_path) == 0
        assert read_metrics(tmp_path)["config_seed"] == "5"

    def test_spherical_with_too_few_radii_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = spherical\nradii = 2\npixels = 8\n")
        assert run_cli(["focus", "--config", str(cfg)], tmp_path) == 1
        assert "'radii'" in capsys.readouterr().err
        assert not (tmp_path / "metrics.txt").exists()

    @pytest.mark.parametrize("mode", ["phantom", "kernel", "measure"])
    def test_spherical_with_two_radii_runs_without_inversion(self, mode, tmp_path):
        # only the inversion needs 3 radii; the measure takes 2
        text = "family = spherical\nradii = 2\ngrid = 16\npixels = 8\ntransducers = 8\n"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert run_cli([mode, "--config", str(cfg)], tmp_path) == 0
        assert parse_config(f"mode = {mode}\n" + text).radii == 2
        with pytest.raises(ValueError, match="'radii'"):
            parse_config("mode = focus\n" + text)

    @pytest.mark.parametrize("text, extra, key", [
        ("noise = nan\n", [], "noise"),  # would skip the noise and exit 0
        ("noise = inf\n", [], "noise"),
        ("noise = 0.01\nseed = -1\n", [], "seed"),
        ("noise = 0.01\n", ["--seed", "-1"], "seed"),
    ], ids=["noise-nan", "noise-inf", "seed-config", "seed-option"])
    def test_bad_noise_or_seed_exits_one(self, text, extra, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text + "family = xray\ngrid = 16\npixels = 8\n")
        assert run_cli(["measure", "--config", str(cfg)] + extra, tmp_path) == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "metrics.txt").exists()

    @pytest.mark.parametrize("mode", ["kernel", "measure", "focus", "endtoend"])
    def test_pixels_too_fine_for_grid_exits_one(self, mode, tmp_path, capsys):
        text = "grid = 8\npixels = 32\n"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert run_cli([mode, "--config", str(cfg)], tmp_path) == 1
        assert "'pixels'" in capsys.readouterr().err
        assert not (tmp_path / "metrics.txt").exists()
        with pytest.raises(ValueError, match="'pixels'"):
            parse_config(f"mode = {mode}\n" + text)

    @pytest.mark.parametrize("mode, family", [("focus", "spherical"),
                                              ("measure", "monochromatic")])
    def test_one_pixel_synthetic_kernel_exits_one(self, mode, family, tmp_path, capsys):
        text = f"family = {family}\npixels = 1\ntransducers = 8\nradii = 4\n"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert run_cli([mode, "--config", str(cfg)], tmp_path) == 1
        assert "'pixels'" in capsys.readouterr().err
        assert not (tmp_path / "metrics.txt").exists()
        with pytest.raises(ValueError, match="'pixels'"):
            parse_config(f"mode = {mode}\n" + text)

    @pytest.mark.parametrize("mode", ["measure", "focus"])
    @pytest.mark.parametrize("family", ["spherical", "monochromatic"])
    def test_too_few_transducers_exits_one(self, mode, family, tmp_path, capsys):
        text = f"family = {family}\ntransducers = 3\npixels = 8\n"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert run_cli([mode, "--config", str(cfg)], tmp_path) == 1
        assert "'transducers'" in capsys.readouterr().err
        assert not (tmp_path / "metrics.txt").exists()
        with pytest.raises(ValueError, match="'transducers'"):
            parse_config(f"mode = {mode}\n" + text)

    @pytest.mark.parametrize("family", ["spherical", "monochromatic"])
    def test_focus_on_two_pixels_per_axis_runs(self, family, tmp_path):
        # the closed-form divergence needs no stencil on the output grid
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"family = {family}\npixels = 2\ntransducers = 8\n")
        assert run_cli(["focus", "--config", str(cfg)], tmp_path) == 0
        assert math.isfinite(float(read_metrics(tmp_path)["kernel_error"]))

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
    "numpy_version",
    "scipy_version",
    "time_phantom",
    "residual",
    "time_forward",
    "time_kernel",
    "axis_k0",
    "axis_k1",
    "time_measure",
    "kernel_error",
    "kernel_error_interior",
    "kernel_error_rim",
    "time_focus",
]


# the config echo and the library versions open every metrics.txt
CONFIG_KEYS = ENDTOEND_METRIC_KEYS[:ENDTOEND_METRIC_KEYS.index("scipy_version") + 1]

SMALL_CHAIN = "grid = 12\npixels = 6\n"


def _focus(axes):
    """Files and metric keys of a focus run whose data has these axes."""
    return (["kernel.csv", "kernel_e000.pgm", "data.csv", "recon.csv", "recon_e000.pgm"],
            ["time_kernel", *(f"axis_{axis}" for axis in axes), "time_measure",
             "kernel_error", "kernel_error_interior", "kernel_error_rim", "time_focus"])


CHAIN_MODES = {
    # mode: (files written besides metrics.txt, metric keys after the config echo)
    "phantom": (["phantom.csv", "phantom.pgm"], ["time_phantom"]),
    "forward": (["phantom.csv", "phantom.pgm", "potential.csv", "potential.pgm", "trace.csv"],
                ["time_phantom", "residual", "time_forward"]),
    "kernel": (["phantom.csv", "phantom.pgm", "kernel.csv", "kernel_e000.pgm",
                "kernel_adjoint.csv"],
               ["time_phantom", "time_kernel", "adjoint_vs_bruteforce", "time_kernel_adjoint"]),
    "measure": (["kernel.csv", "kernel_e000.pgm", "data.csv"],
                ["time_kernel", "axis_k0", "axis_k1", "time_measure"]),
    "focus": _focus(["k0", "k1"]),
    "validate": ([], ["forward_linear_error", "check_forward", "time_validate_forward",
                      "fourier_roundtrip_error", "check_fourier", "time_validate_fourier",
                      "spherical_closed_form_error", "check_spherical",
                      "time_validate_spherical", "status"]),
}
FOCUS_FAMILIES = {
    # the other families' focus chains on the same grid: (config lines, data axes)
    "xray": ("family = xray\nangles = 24\n", ["angle", "offset"]),
    "spherical": ("family = spherical\ntransducers = 32\nradii = 64\n", ["radius"]),
    "monochromatic": ("family = monochromatic\ntransducers = 32\nfrequencies = 16\n",
                      ["frequency"]),
}
# test id: (mode, config text, files, metric keys)
CHAIN_CASES = {mode: (mode, SMALL_CHAIN, *CHAIN_MODES[mode]) for mode in CHAIN_MODES}
CHAIN_CASES.update({f"focus-{family}": ("focus", SMALL_CHAIN + lines, *_focus(axes))
                    for family, (lines, axes) in FOCUS_FAMILIES.items()})


class TestChainModes:
    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_mode_writes_its_files_and_metrics(self, case, tmp_path):
        mode, config, files, keys = CHAIN_CASES[case]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert run_cli([mode, "--config", str(cfg)], out) == 0
        for name in files + ["metrics.txt"]:
            assert (out / name).stat().st_size > 0, name
        metrics = read_metrics(out)
        assert list(metrics) == CONFIG_KEYS + keys
        # every CSV the run writes reads back through numpy with the value
        # shape its own header declares (a table's read checks its '# shape:')
        csvs = sorted(name for name in files if name.endswith(".csv"))
        assert sorted(path.name for path in out.glob("*.csv")) == csvs
        headers = {}
        for name in csvs:
            headers[name], values = read_csv(out / name)
            assert values.shape == declared_shape(headers[name]), name
        if "data.csv" in headers:
            axes = {name[len("axis "):]: len(text.split(","))
                    for name, text in headers["data.csv"].items() if name.startswith("axis ")}
            assert axes == {key[len("axis_"):]: int(value) for key, value in metrics.items()
                            if key.startswith("axis_")}

    def test_kernel_mode_makes_one_conduction_pass(self, tmp_path, monkeypatch):
        # the brute force and the adjoint share one factorization, one
        # elimination, one band sweep and one stream of electrode columns;
        # the adjoint written is bitwise the one computed on its own
        counts = count_calls(monkeypatch, forward_eit,
                             ("splu", "_eliminate", "_row_sweep", "_electrode_columns"))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid = 16\npixels = 8\n")
        assert run_cli(["kernel", "--config", str(cfg)], tmp_path) == 0
        assert counts == dict.fromkeys(counts, 1)
        _, saved = read_csv(tmp_path / "kernel_adjoint.csv")
        phantom = default_phantom(_centered_grid((16, 16)))
        fresh = forward_eit.kernel_adjoint(
            phantom, forward_eit.left_right_current_pattern(phantom.grid),
            _interior_grid(parse_config(cfg.read_text())))
        assert np.array_equal(saved, fresh.values)


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
        assert metrics["numpy_version"] == np.__version__
        assert metrics["scipy_version"] == scipy.__version__
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
