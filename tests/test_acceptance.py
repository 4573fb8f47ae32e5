"""Acceptance gate: pinned quantitative bounds for every reconstruction
route, the conduction solver, the kernel oracles, the end-to-end pipeline,
and the cross-module invariant suite."""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from synfocus.core import Grid, KernelMatrix, Phantom, ScalarField
from synfocus.focusing import invert_fourier
from synfocus.forward_eit import (
    kernel_adjoint,
    kernel_bruteforce,
    left_right_current_pattern,
    solve_conduction,
)
from synfocus.wavegen import measure_plane_waves

from conftest import centered_grid, random_smooth_column, read_metrics, rel_l2

pytestmark = pytest.mark.acceptance


class TestFourierRouteExactness:
    def test_twenty_random_smooth_columns_roundtrip(self, rng):
        grid = centered_grid(64, 2)
        cols = np.stack([random_smooth_column(grid, rng) for _ in range(20)])
        t0 = time.perf_counter()
        data = measure_plane_waves(KernelMatrix(grid=grid, values=cols))
        recon = invert_fourier(data, grid)
        elapsed = time.perf_counter() - t0
        for j in range(20):
            assert rel_l2(recon.values[j], cols[j]) <= 1e-8
        assert elapsed < 5.0


class TestSphericalBackprojection:
    def test_gaussian_within_ten_percent_of_analytic_phantom(
        self, gauss48, pulse_recon48
    ):
        # 642 transducers on the unit sphere, 400 radii, 48^3 output; the
        # detector data are the oracles' closed-form spherical integrals
        # (spherical_mean_exact).
        assert rel_l2(pulse_recon48, gauss48["truth"]) <= 0.10


class TestRouteEquivalence:
    def test_monochromatic_and_pulse_agree(self, pulse_recon48, mono_recon48):
        assert rel_l2(mono_recon48, pulse_recon48) <= 0.10

    def test_each_route_tracks_ground_truth(
        self, gauss48, pulse_recon48, mono_recon48
    ):
        assert rel_l2(pulse_recon48, gauss48["truth"]) <= 0.15
        assert rel_l2(mono_recon48, gauss48["truth"]) <= 0.15

    def test_closed_form_divergence_accuracy(
        self, gauss48, pulse_recon48, mono_recon48
    ):
        # measured 9.1e-4 (pulse) and 4.5e-4 (monochromatic) with the
        # divergence taken in closed form; bounds about 10% above
        assert rel_l2(pulse_recon48, gauss48["truth"]) <= 1.0e-3
        assert rel_l2(mono_recon48, gauss48["truth"]) <= 4.9e-4


class TestXrayRoute:
    def test_disk_recovered_outside_two_pixel_rim(self, disk_fbp256):
        mask = disk_fbp256["rim_mask"]
        diff = (disk_fbp256["recon"] - disk_fbp256["truth"])[mask]
        err = np.linalg.norm(diff) / np.linalg.norm(disk_fbp256["truth"][mask])
        assert err <= 0.10


class TestForwardSolverExactness:
    def test_uniform_conductivity_reproduces_linear_potential(self):
        grid = centered_grid(64, 2)
        phantom = Phantom(
            field=ScalarField(grid=grid, values=np.zeros(grid.n_pixels))
        )
        electrodes = left_right_current_pattern(grid)
        sol = solve_conduction(phantom, electrodes)
        exact = -electrodes.points[:, 0]
        exact = exact - exact.mean()
        err = np.max(np.abs(sol.boundary_trace - exact)) / np.max(np.abs(exact))
        assert err <= 1e-6
        # conservation: the injected current balances exactly and the
        # discrete system is solved to the flux-conservation tolerance
        net = float(np.sum(electrodes.current * electrodes.segment_length))
        assert abs(net) <= 1e-10
        assert sol.residual <= 1e-10


class TestKernelOracleAgreement:
    def test_adjoint_matches_bruteforce_on_interior_grid(self):
        from synfocus.cli import default_phantom

        grid = centered_grid(32, 2)
        phantom = default_phantom(grid)
        electrodes = left_right_current_pattern(grid)
        n = 16
        h = (1.0 - 2.0 / 16.0) / n
        interior = Grid(
            origin=(-0.5 + 1.0 / 16.0 + h / 2,) * 2, spacing=(h, h), counts=(n, n)
        )
        ka = kernel_adjoint(phantom, electrodes, interior)
        kb = kernel_bruteforce(phantom, electrodes, interior)
        assert rel_l2(kb.values, ka.values) <= 0.02


class TestEndToEndFocusing:
    def test_plane_wave_chain_recovers_bruteforce_kernel(self, tmp_path):
        # Two +-0.05 log-conductivity disks, 64^2 conduction grid, 32x32
        # interior kernel; plane-wave measurement and inverse-DFT focusing.
        from synfocus.cli import main

        t0 = time.perf_counter()
        rc = main(["endtoend", "--out", str(tmp_path), "--quiet"])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        metrics = read_metrics(tmp_path)
        assert float(metrics["kernel_error"]) <= 0.05
        assert elapsed <= 600.0

    def test_full_detector_configuration_smoke(self, tmp_path):
        # 300 transducers x 800 radii spherical-pulse focusing, run on a
        # scaled-down volumetric kernel: must complete and report its error.
        from synfocus.cli import main

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "family = spherical\ntransducers = 300\nradii = 800\npixels = 12\n"
        )
        rc = main(
            ["focus", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]
        )
        assert rc == 0
        err = float(read_metrics(tmp_path)["kernel_error"])
        assert np.isfinite(err)


class TestNoiseTransfer:
    def test_one_percent_noise_yields_one_percent_kernel_error(self, tmp_path):
        from synfocus.cli import main

        cfg = tmp_path / "cfg.txt"
        cfg.write_text("noise = 0.01\nseed = 3\n")
        rc = main(["endtoend", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        err = float(read_metrics(tmp_path)["kernel_error"])
        assert 0.008 <= err <= 0.012


class TestInvariantSuite:
    def test_all_invariant_properties_pass(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-m", "invariant", "-q", "--no-header"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
        )
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "passed" in tail
        n_passed = int(tail.split(" passed")[0].split()[-1])
        assert n_passed >= 10
