"""The analytic oracles: closed forms, the quadrature reference, and their
independence from the package they check."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import synfocus

from oracles import (
    AnalyticPhantom,
    disk_sinogram,
    eval_phantom,
    line_integral,
    spherical_mean_exact,
    spherical_mean_profile,
    spherical_mean_quadrature,
)

GAUSS3 = AnalyticPhantom(kind="gaussian", center=(0.0, 0.0, 0.0), scale=0.2, amplitude=1.0)
GAUSS2 = AnalyticPhantom(kind="gaussian", center=(0.0, 0.0), scale=0.2, amplitude=1.0)

# self-converged quadrature values, frozen (n_quad = 4096)
FIXTURE_3D = 0.25132741228716665  # gaussian, z=(2,0,0), t=2, s=0.2
FIXTURE_2D = 0.5019558742329855   # gaussian, z=(2,0),   t=2, s=0.2


class TestEvalPhantom:
    def test_gaussian_values(self):
        assert eval_phantom(GAUSS3, np.zeros(3)) == 1.0
        x = np.array([0.2, 0.0, 0.0])  # |x-c| = s
        assert eval_phantom(GAUSS3, x) == pytest.approx(np.exp(-0.5))

    def test_ball_closed_boundary(self):
        ball = AnalyticPhantom(kind="ball", center=(0.0, 0.0), scale=0.3, amplitude=0.7)
        assert eval_phantom(ball, np.zeros(2)) == 0.7
        assert eval_phantom(ball, np.array([0.3, 0.0])) == 0.7  # closed ball
        assert eval_phantom(ball, np.array([0.3 + 1e-12, 0.0])) == 0.0

    def test_batched_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
        v = eval_phantom(GAUSS3, pts)
        assert v.shape == (2,)
        assert v[0] == 1.0


class TestSphericalMeanQuadrature:
    def test_frozen_fixture_3d(self):
        v = spherical_mean_quadrature(GAUSS3, np.array([2.0, 0.0, 0.0]), 2.0, n_quad=4096)
        assert v == pytest.approx(FIXTURE_3D, rel=1e-12)

    def test_frozen_fixture_2d(self):
        v = spherical_mean_quadrature(GAUSS2, np.array([2.0, 0.0]), 2.0, n_quad=4096)
        assert v == pytest.approx(FIXTURE_2D, rel=1e-12)

    def test_closed_form_crosscheck_3d(self):
        # gaussian over the sphere |x-z| = t has the closed form
        # (2 pi t s^2 / d) [e^{-(d-t)^2/2s^2} - e^{-(d+t)^2/2s^2}], d = |z - c|
        z = np.array([1.3, -0.4, 0.2])
        d = np.linalg.norm(z)
        s = 0.2
        for t in (0.6, 1.0, 1.4, 2.0):
            closed = (2 * np.pi * t * s * s / d) * (
                np.exp(-((d - t) ** 2) / (2 * s * s))
                - np.exp(-((d + t) ** 2) / (2 * s * s))
            )
            quad = spherical_mean_quadrature(GAUSS3, z, t, n_quad=8192)
            assert quad == pytest.approx(closed, rel=1e-9)

    def test_constant_phantom_gives_sphere_area(self):
        big = AnalyticPhantom(kind="ball", center=(0.0, 0.0, 0.0), scale=50.0, amplitude=0.5)
        v = spherical_mean_quadrature(big, np.array([1.0, 0.0, 0.0]), 2.0, n_quad=256)
        assert v == pytest.approx(0.5 * 4.0 * np.pi * 4.0, rel=1e-12)

    def test_disjoint_supports_give_zero(self):
        ball = AnalyticPhantom(kind="ball", center=(0.0, 0.0, 0.0), scale=0.2, amplitude=1.0)
        assert spherical_mean_quadrature(ball, np.array([2.0, 0.0, 0.0]), 0.5, n_quad=256) == 0.0

    def test_ball_cap_area_crosscheck(self):
        # sphere |x-z|=t cut by the ball |x|<=rho: cap area 2 pi t^2 (1-cos a),
        # cos a = (d^2 + t^2 - rho^2) / (2 d t)
        ball = AnalyticPhantom(kind="ball", center=(0.0, 0.0, 0.0), scale=0.5, amplitude=1.0)
        z = np.array([1.0, 0.0, 0.0])
        t = 0.8
        cos_a = (1.0 + t * t - 0.25) / (2.0 * t)
        cap = 2.0 * np.pi * t * t * (1.0 - cos_a)
        quad = spherical_mean_quadrature(ball, z, t, n_quad=1 << 18)
        assert quad == pytest.approx(cap, rel=2e-3)  # indicator: slow convergence

    @pytest.mark.invariant
    def test_self_convergence(self):
        z3 = np.array([2.0, 0.0, 0.0])
        a = spherical_mean_quadrature(GAUSS3, z3, 2.0, n_quad=2048)
        b = spherical_mean_quadrature(GAUSS3, z3, 2.0, n_quad=4096)
        assert abs(a - b) / abs(b) <= 1e-6
        z2 = np.array([2.0, 0.0])
        a = spherical_mean_quadrature(GAUSS2, z2, 2.0, n_quad=2048)
        b = spherical_mean_quadrature(GAUSS2, z2, 2.0, n_quad=4096)
        assert abs(a - b) / abs(b) <= 1e-6

    @pytest.mark.invariant
    def test_deterministic(self):
        z = np.array([1.5, 0.3, -0.2])
        a = spherical_mean_quadrature(GAUSS3, z, 1.2, n_quad=512)
        b = spherical_mean_quadrature(GAUSS3, z, 1.2, n_quad=512)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            spherical_mean_quadrature(GAUSS3, np.zeros(3), -1.0)
        with pytest.raises(ValueError):
            spherical_mean_quadrature(GAUSS3, np.zeros(3), 1.0, n_quad=32)
        with pytest.raises(ValueError):
            AnalyticPhantom(kind="gaussian", center=(0.0, 0.0), scale=-0.1, amplitude=1.0)
        with pytest.raises(ValueError):
            AnalyticPhantom(kind="gaussian", center=[(0.0, 0.0, 0.0)], scale=0.1)
        with pytest.raises(ValueError):
            GAUSS3.center[0] = 1.0  # read-only

    def test_profile_matches_pointwise(self):
        z = np.array([1.1, 0.2, 0.0])
        radii = np.array([0.5, 1.0, 1.5])
        prof = spherical_mean_profile(GAUSS3, z, radii, n_quad=1024)
        single = [spherical_mean_quadrature(GAUSS3, z, t, n_quad=1024) for t in radii]
        assert np.array_equal(prof, np.array(single))


class TestSphericalMeanExact:
    def test_gaussian_matches_quadrature(self):
        # off-center gaussian seen from its own center, a point 1e-9 away
        # (the d -> 0 limit) and points near the unit sphere
        g = AnalyticPhantom(kind="gaussian", center=(0.1, -0.05, 0.02), scale=0.2)
        zs = np.array([[0.1, -0.05, 0.02], [0.1 + 1e-9, -0.05, 0.02],
                       [1.0, 0.0, 0.0], [-0.6, 0.7, 0.3]])
        radii = np.linspace(0.05, 1.8, 37)
        exact = spherical_mean_exact(g, zs, radii)
        assert exact.shape == (4, 37)
        for z, row in zip(zs, exact):
            quad = spherical_mean_profile(g, z, radii, n_quad=2048)
            assert np.max(np.abs(row - quad)) <= 1e-6 * np.max(np.abs(row))

    def test_ball_converges_as_n_quad_doubles(self):
        ball = AnalyticPhantom(kind="ball", center=(0.2, 0.0, 0.0), scale=0.3, amplitude=0.7)
        zs = np.array([[1.0, 0.0, 0.0], [0.25, 0.1, 0.0], [-0.5, 0.6, 0.2],
                       [0.0, 0.0, 1.0], [0.3, -0.8, 0.1]])
        radii = np.linspace(0.02, 1.6, 80)
        exact = spherical_mean_exact(ball, zs, radii)
        errs = []
        for n in (4096, 8192, 16384, 32768, 65536):
            quad = np.array([spherical_mean_profile(ball, z, radii, n_quad=n) for z in zs])
            errs.append(np.linalg.norm(quad - exact) / np.linalg.norm(exact))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.25 * errs[0]

    def test_ball_limits_and_single_center(self):
        ball = AnalyticPhantom(kind="ball", center=(0.0, 0.0, 0.0), scale=0.5, amplitude=2.0)
        z = np.array([1.0, 0.0, 0.0])
        t = np.array([0.3, 0.8, 1.6])  # disjoint, cap, enclosing
        v = spherical_mean_exact(ball, z, t)
        assert v.shape == (3,)
        cos_a = (1.0 + 0.64 - 0.25) / 1.6
        assert v[1] == pytest.approx(2.0 * 2.0 * np.pi * 0.64 * (1.0 - cos_a), rel=1e-12)
        assert v[0] == 0.0 and v[2] == 0.0
        # sphere inside the ball, then touching its rim from inside
        t = np.array([0.2, 0.4])
        inside = spherical_mean_exact(ball, np.array([0.1, 0.0, 0.0]), t)
        assert inside == pytest.approx(2.0 * 4.0 * np.pi * t * t, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            spherical_mean_exact(GAUSS2, np.zeros(2), np.array([1.0]))
        with pytest.raises(ValueError):
            spherical_mean_exact(GAUSS3, np.zeros(3), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            spherical_mean_exact(GAUSS3, np.zeros((4, 2)), np.array([1.0]))


class TestLineIntegral:
    def test_gaussian_closed_form_value(self):
        # through the center: amplitude * s * sqrt(2 pi)
        v = line_integral(GAUSS2, angle=0.3, offset=0.0)
        assert v == pytest.approx(0.2 * np.sqrt(2.0 * np.pi), rel=1e-12)

    def test_disk_chords(self):
        ball = AnalyticPhantom(kind="ball", center=(0.1, -0.2), scale=0.3, amplitude=0.9)
        # line through the center: full diameter
        ang = 0.7
        w = np.array([np.cos(ang), np.sin(ang)])
        off = float(np.dot(ball.center, w))
        assert line_integral(ball, ang, off) == pytest.approx(0.9 * 0.6, rel=1e-12)
        # tangent line gives zero
        assert line_integral(ball, ang, off + 0.3) == 0.0

    def test_against_direct_quadrature(self):
        # independent check: trapezoid along the line through eval_phantom
        ang, off = 0.9, 0.15
        w = np.array([np.cos(ang), np.sin(ang)])
        wp = np.array([-w[1], w[0]])
        tau = np.linspace(-4.0, 4.0, 40001)
        pts = off * w[None, :] + tau[:, None] * wp[None, :]
        brute = np.trapezoid(eval_phantom(GAUSS2, pts), tau)
        assert line_integral(GAUSS2, ang, off) == pytest.approx(brute, rel=1e-9)

    def test_sinogram_table_and_zero_outside(self):
        ball = AnalyticPhantom(kind="ball", center=(0.0, 0.0), scale=0.25, amplitude=1.0)
        angles = np.array([0.0, np.pi / 4])
        offsets = np.array([-0.5, 0.0, 0.5])
        table = disk_sinogram(ball, angles, offsets)
        assert table.shape == (2, 3)
        assert np.allclose(table[:, [0, 2]], 0.0)
        assert np.allclose(table[:, 1], 0.5)


class TestIndependence:
    """The oracles are a reference kept apart from the code under test."""

    def test_oracles_import_no_synfocus_code(self):
        path = Path(__file__).with_name("oracles.py")
        found = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [a.name for a in node.names if a.name.split(".")[0] == "synfocus"]
            elif isinstance(node, ast.ImportFrom):
                if node.level > 0 or (node.module or "").split(".")[0] == "synfocus":
                    found.append("." * node.level + (node.module or ""))
        assert found == []

    def test_package_import_loads_no_oracles(self):
        src = str(Path(synfocus.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, synfocus; print([m for m in sys.modules if 'oracles' in m])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.strip() == "[]"


# (program, its cfg.txt, whether it loads scipy), each run in a fresh
# interpreter; the 3-d families' focus chains use neither the conduction
# solve nor the x-ray operators
_FOCUS_3D = ("from synfocus.cli import main\n"
             "assert main(['focus', '--config', 'cfg.txt', '--out', 'out', '--quiet']) == 0\n")
_RUNS = {
    "import": ("import synfocus\n", "", False),
    "focus-spherical": (_FOCUS_3D, "family = spherical\npixels = 6\ntransducers = 8\nradii = 16\n",
                        False),
    "focus-monochromatic": (_FOCUS_3D, "family = monochromatic\npixels = 6\ntransducers = 8\n"
                            "frequencies = 4\n", False),
    # positive controls: the conduction solve, and the x-ray operators on a
    # kernel that no solve made
    "kernel": ("from synfocus.cli import main\n"
               "assert main(['kernel', '--config', 'cfg.txt', '--out', 'out', '--quiet']) == 0\n",
               "grid = 12\npixels = 6\n", True),
    "xray": ("import numpy as np\n"
             "from synfocus import KernelMatrix, Grid, default_angles, default_offsets\n"
             "from synfocus import measure_line_integrals, invert_xray_2d\n"
             "g = Grid(origin=(-0.375, -0.375), spacing=(0.25, 0.25), counts=(4, 4))\n"
             "k = KernelMatrix(grid=g, values=np.ones((1, 16)))\n"
             "invert_xray_2d(measure_line_integrals(k, default_angles(8), default_offsets(g)), g)\n",
             "", True),
}


class TestScipyImports:
    """Only the conduction solve and the x-ray operators load scipy, each
    checked in a fresh interpreter."""

    @pytest.mark.parametrize("run", sorted(_RUNS))
    def test_only_sparse_operators_load_scipy(self, run, tmp_path):
        code, config, loads = _RUNS[run]
        (tmp_path / "cfg.txt").write_text(config)
        src = str(Path(synfocus.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = code + "import sys; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, cwd=tmp_path, check=True)
        assert proc.stdout.splitlines()[-1] == str(loads)
