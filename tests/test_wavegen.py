import numpy as np
import pytest

from synfocus.core import (
    Grid,
    KernelMatrix,
    TransducerArray,
    _interp,
    _unit_lattice,
    make_transducer_array,
)
from synfocus.oracles import AnalyticPhantom, spherical_mean_quadrature
from synfocus.wavegen import (
    _cap_frame,
    _cap_indices,
    add_noise,
    conjugate_lattice,
    default_frequencies,
    measure_line_integrals,
    measure_monochromatic,
    measure_plane_waves,
    measure_spherical_pulse,
)

from conftest import centered_grid, gaussian_column, rel_l2


def _kernel(grid, columns):
    """Wrap one or more flat columns as a KernelMatrix (rows = electrodes)."""
    cols = np.atleast_2d(columns)
    return KernelMatrix(grid=grid, values=cols)


class TestSphericalPulse:
    def test_sphere_area_on_constant_column(self):
        # support box much larger than the transducer sphere: small spheres
        # stay inside the region where the column is 1, so the raw surface
        # integral is 4 pi t^2
        g = centered_grid(16, 3, half=3.0)
        kern = _kernel(g, np.ones(g.n_pixels))
        arr = make_transducer_array(6, radius=2.0)
        radii = np.array([0.15, 0.25, 0.35])
        data = measure_spherical_pulse(kern, arr, radii, oversample=4)
        for k, t in enumerate(radii):
            assert np.allclose(data.values[:, k, 0], 4.0 * np.pi * t * t,
                               rtol=1e-4)

    def test_zero_column(self):
        g = centered_grid(16, 3)
        arr = make_transducer_array(6, radius=2.0)
        data = measure_spherical_pulse(_kernel(g, np.zeros(g.n_pixels)),
                                       arr, np.array([0.5, 1.0]))
        assert np.all(data.values == 0.0)

    def test_gaussian_against_quadrature_oracle_2d(self):
        # domain [-1,1]^2 so the s=0.2 gaussian is not visibly truncated
        g = centered_grid(256, 2, half=1.0)
        kern = _kernel(g, gaussian_column(g, s=0.2))
        phantom = AnalyticPhantom(kind="gaussian", center=(0.0, 0.0),
                                  scale=0.2, amplitude=1.0)
        from synfocus.core import TransducerArray
        z = np.array([2.0, 0.0])
        one = TransducerArray(positions=z[None, :], normals=z[None, :] / 2.0,
                              weights=np.array([4.0 * np.pi]), radius=2.0)
        radii = np.array([1.6, 1.8, 2.0, 2.2, 2.4])
        data = measure_spherical_pulse(kern, one, radii)
        for k, t in enumerate(radii):
            ref = spherical_mean_quadrature(phantom, z, float(t), n_quad=4096)
            assert data.values[0, k, 0] == pytest.approx(ref, rel=1e-3)

    def test_gaussian_against_quadrature_oracle_3d(self):
        # off-axis transducer outside the support's bounding sphere, so each
        # sphere is measured on a cap of its turned lattice
        g = centered_grid(128, 3, half=1.0)
        kern = _kernel(g, gaussian_column(g, s=0.2))
        phantom = AnalyticPhantom(kind="gaussian", center=(0.0, 0.0, 0.0),
                                  scale=0.2, amplitude=1.0)
        z = np.array([1.2, -0.9, 1.1])
        R = float(np.linalg.norm(z))
        one = TransducerArray(positions=z[None, :], normals=z[None, :] / R,
                              weights=np.array([4.0 * np.pi * R * R]), radius=R)
        radii = R + np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
        data = measure_spherical_pulse(kern, one, radii)
        for k, t in enumerate(radii):
            ref = spherical_mean_quadrature(phantom, z, float(t), n_quad=4096)
            assert data.values[0, k, 0] == pytest.approx(ref, rel=1e-3)

    def test_radius_validation(self):
        g = centered_grid(8, 3)
        arr = make_transducer_array(4, radius=2.0)
        with pytest.raises(ValueError):
            measure_spherical_pulse(_kernel(g, np.ones(g.n_pixels)), arr,
                                    np.array([-0.5, 1.0]))

    @pytest.mark.invariant
    def test_early_times_are_zero(self):
        # spheres that do not yet reach the support measure nothing
        g = centered_grid(24, 3)
        kern = _kernel(g, gaussian_column(g, s=0.15))
        arr = make_transducer_array(8, radius=2.0)
        radii = np.array([0.3, 0.6, 0.9])  # dist(z, support) >= 1.1
        data = measure_spherical_pulse(kern, arr, radii)
        assert np.max(np.abs(data.values)) <= 1e-12


class TestSphericalCap:
    """The cap of a turned lattice keeps every point that can reach the
    open interpolation support box (pixel-center hull padded by one
    spacing)."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dropped_points_lie_outside_the_support(self, dim):
        rng = np.random.default_rng(40 + dim)
        g = Grid(origin=(-0.4, 0.1, -0.3)[:dim], spacing=(0.1, 0.08, 0.12)[:dim],
                 counts=(9, 12, 7)[:dim])
        lo, hi = g.origin - g.spacing, g.origin + g.counts * g.spacing
        c, rho = 0.5 * (lo + hi), 0.5 * float(np.linalg.norm(hi - lo))
        dirs = rng.standard_normal((6, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pole = np.eye(dim)[-1 if dim == 3 else 0]
        cases = {
            "center": [c],
            "inside": [c + 0.6 * rho * d for d in dirs[:3]],
            "outside": [c + 1.8 * rho * d for d in dirs[3:]]
                       + [c - 1.5 * rho * pole, c + 1.5 * rho * pole],
        }
        kept_total = {name: [0, 0] for name in cases}
        for name, zs in cases.items():
            for z in zs:
                frame, dist = _cap_frame(z, c)
                for t in rng.uniform(0.02, dist + rho, 6):
                    n = int(rng.integers(40, 4000))
                    full = z + t * _unit_lattice(n, dim) @ frame
                    cap = _cap_indices(n, dim, t, dist, rho)
                    kept = cap % n
                    assert np.unique(kept).size == kept.size
                    dropped = np.setdiff1d(np.arange(n), kept)
                    reach = np.all((full[dropped] > lo) & (full[dropped] < hi), axis=1)
                    assert not np.any(reach)
                    pts = z + t * _unit_lattice(n, dim, cap) @ frame
                    assert np.max(np.abs(pts - full[kept])) <= 1e-12
                    kept_total[name][0] += kept.size
                    kept_total[name][1] += n
        assert kept_total["center"][0] == kept_total["center"][1]
        assert kept_total["outside"][0] < 0.5 * kept_total["outside"][1]


    @pytest.mark.parametrize("dim", [2, 3])
    def test_measure_equals_full_turned_lattice(self, dim, rng):
        # the full turned lattice at the documented point count and weight
        # measure / n; the points the cap leaves out add exact zeros
        half = 0.5
        g = Grid(origin=(0.4 + half / 8,) + (-half + half / 8,) * (dim - 1),
                 spacing=(half / 4,) * dim, counts=(8,) * dim)
        kern = _kernel(g, rng.standard_normal((2, g.n_pixels)))
        lo, hi = g.origin - g.spacing, g.origin + g.counts * g.spacing
        c = 0.5 * (lo + hi)
        R = float(np.linalg.norm(c))
        base = make_transducer_array(6, radius=R, dim=dim)
        pos = np.array(base.positions)
        pos[0] = c  # D = 0; the others lie inside or outside the bounding sphere
        arr = TransducerArray(positions=pos, normals=pos / R, weights=base.weights,
                              radius=R)
        radii = np.linspace(0.1, 2.2, 12)
        data = measure_spherical_pulse(kern, arr, radii)
        dx = float(np.min(g.spacing))
        expect = np.zeros_like(data.values)
        for i, z in enumerate(arr.positions):
            frame, _ = _cap_frame(z, c)
            for k, t in enumerate(radii):
                m = int(np.ceil(2.0 * np.pi * t / dx)) * 2
                if dim == 2:
                    n, meas = max(m, 8), 2.0 * np.pi * t
                else:
                    n, meas = max(int(np.ceil(m * m / np.pi)), 32), 4.0 * np.pi * t * t
                pts = z + t * _unit_lattice(n, dim) @ frame
                expect[i, k] = meas / n * np.sum(_interp(g, kern.values, pts), axis=0)
        assert np.max(np.abs(data.values - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestMonochromatic:
    def test_single_pixel_green_function(self):
        g = centered_grid(9, 3)
        col = np.zeros(g.n_pixels)
        x0_idx = g.n_pixels // 2  # center pixel
        col[x0_idx] = 1.0
        x0 = g.centers()[x0_idx]
        arr = make_transducer_array(5, radius=2.0)
        freqs = np.array([3.0, 7.0])
        data = measure_monochromatic(_kernel(g, col), arr, freqs)
        area = g.pixel_measure
        for i, z in enumerate(arr.positions):
            r = np.linalg.norm(x0 - z)
            for m, lam in enumerate(freqs):
                exact = np.exp(1j * lam * r) / (4.0 * np.pi * r) * area
                assert data.values[i, m, 0] == pytest.approx(exact, rel=1e-12)

    def test_phase_recurrence_drift(self, rng):
        # the Green's phases advance by one complex multiply per frequency;
        # over 500 steps they must stay on exp(i lam r) / (4 pi r) * area
        g = centered_grid(6, 3)
        cols = rng.standard_normal((2, g.n_pixels))
        arr = make_transducer_array(5, radius=2.0)
        freqs = np.linspace(37.3, 97.3, 500)
        data = measure_monochromatic(_kernel(g, cols), arr, freqs)
        r = np.linalg.norm(g.centers()[None, :, :] - arr.positions[:, None, :], axis=2)
        green = (np.exp(1j * freqs[None, :, None] * r[:, None, :])
                 / (4.0 * np.pi * r[:, None, :]) * g.pixel_measure)
        expect = green @ cols.T
        assert np.max(np.abs(data.values - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_transducer_inside_support_rejected(self):
        from synfocus.core import TransducerArray
        g = centered_grid(8, 3)
        r = 0.1
        inside = TransducerArray(positions=np.array([[r, 0.0, 0.0]]),
                                 normals=np.array([[1.0, 0.0, 0.0]]),
                                 weights=np.array([4.0 * np.pi * r * r]),
                                 radius=r)
        with pytest.raises(ValueError):
            measure_monochromatic(_kernel(g, np.ones(g.n_pixels)), inside,
                                  np.array([5.0]))

    def test_consistency_with_pulse_reduction(self):
        # the monochromatic response is the radial reduction of the pulses:
        # value(lambda) = int g(t) e^{i lambda t} / (4 pi t) dt
        g = centered_grid(32, 3)
        kern = _kernel(g, gaussian_column(g, s=0.2))
        arr = make_transducer_array(4, radius=2.0)
        freqs = np.array([4.0, 9.0, 14.0])
        mono = measure_monochromatic(kern, arr, freqs)
        t = np.linspace(1e-3, 3.6, 1200)
        pulse = measure_spherical_pulse(kern, arr, t, oversample=2)
        for i in range(arr.n):
            gt = pulse.values[i, :, 0]
            for m, lam in enumerate(freqs):
                red = np.trapezoid(gt * np.exp(1j * lam * t) / (4 * np.pi * t), t)
                assert abs(red - mono.values[i, m, 0]) <= 0.02 * abs(mono.values[i, m, 0])


class TestPlaneWaves:
    def test_dc_sample_is_total_integral(self, rng):
        g = centered_grid(12, 2)
        col = rng.standard_normal(g.n_pixels)
        data = measure_plane_waves(_kernel(g, col))
        kpts = data.kgrid.centers()
        dc = np.argmin(np.linalg.norm(kpts, axis=1))
        assert np.allclose(kpts[dc], 0.0)
        assert data.values[dc, 0] == pytest.approx(
            np.sum(col) * g.pixel_measure, rel=1e-12)

    def test_hermitian_symmetry_odd_grid(self, rng):
        g = centered_grid(9, 2)
        data = measure_plane_waves(_kernel(g, rng.standard_normal(81)))
        kpts = data.kgrid.centers()
        vals = data.values[:, 0]
        # match each k to -k by lookup (odd grid: lattice is symmetric)
        order = np.lexsort(kpts.T)
        order_neg = np.lexsort((-kpts).T)
        diff = vals[order] - np.conj(vals[order_neg])
        assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(vals))

    def test_parseval(self, rng):
        g = centered_grid(16, 2)
        col = rng.standard_normal(g.n_pixels)
        data = measure_plane_waves(_kernel(g, col))
        # sum |F|^2 * (dk/(2 pi))^dim = sum |f|^2 * dx^dim for the DFT
        # normalization that makes values approximate the continuous FT
        lhs = np.sum(np.abs(data.values[:, 0]) ** 2) * np.prod(
            data.kgrid.spacing) / (2.0 * np.pi) ** g.dim
        rhs = np.sum(col ** 2) * g.pixel_measure
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_lattice_is_conjugate(self):
        g = centered_grid(10, 2)
        data = measure_plane_waves(_kernel(g, np.ones(100)))
        ref = conjugate_lattice(g)
        assert np.array_equal(data.kgrid.counts, ref.counts)
        assert np.allclose(data.kgrid.spacing, ref.spacing)
        assert np.allclose(data.kgrid.origin, ref.origin)


class TestLineIntegrals:
    def test_disk_chords(self):
        # the disk indicator is represented by its pixel-area fraction (a
        # one-pixel ramp across the rim) so the check isolates the line
        # quadrature instead of the staircase rasterization error
        g = centered_grid(256, 2)
        xx, yy = g.mesh()
        rho = 0.375
        r = np.sqrt(xx ** 2 + yy ** 2)
        col = np.clip((rho - r) * 256.0 + 0.5, 0.0, 1.0).reshape(-1)
        angles = np.array([0.0, 0.9])
        offsets = np.linspace(-0.75, 0.75, 11)
        sino = measure_line_integrals(_kernel(g, col), angles, offsets)
        for a in range(2):
            for s_i, s in enumerate(offsets):
                chord = 2.0 * np.sqrt(max(rho * rho - s * s, 0.0))
                assert abs(sino.values[a, s_i, 0] - chord) <= 1e-3

    def test_rotation_invariance(self):
        g = centered_grid(96, 2)
        col = gaussian_column(g, s=0.15)
        angles = np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
        offsets = np.linspace(-0.75, 0.75, 9)
        sino = measure_line_integrals(_kernel(g, col), angles, offsets)
        vals = sino.values[:, :, 0]
        peak = np.max(np.abs(vals))
        # angles related by the grid's square symmetry sample congruent
        # point sets, so a radially symmetric column gives equal rows
        assert np.max(np.abs(vals[0] - vals[2])) <= 1e-6 * peak
        assert np.max(np.abs(vals[1] - vals[3])) <= 1e-6 * peak
        # between inequivalent angles only the bilinear quadrature bias
        # remains, which is small but not at the symmetry tolerance
        assert np.max(np.abs(vals[0] - vals[1])) <= 2e-3 * peak

    def test_zero_column_and_3d_rejection(self):
        g2 = centered_grid(16, 2)
        offsets = np.linspace(-0.8, 0.8, 5)
        sino = measure_line_integrals(_kernel(g2, np.zeros(256)),
                                      np.array([0.0]), offsets)
        assert np.all(sino.values == 0.0)
        g3 = centered_grid(8, 3)
        with pytest.raises(ValueError):
            measure_line_integrals(_kernel(g3, np.zeros(512)),
                                   np.array([0.0]), offsets)

    def test_uncovering_offsets_rejected(self):
        g = centered_grid(16, 2)
        with pytest.raises(ValueError, match="circumscribed"):
            measure_line_integrals(_kernel(g, np.zeros(256)),
                                   np.array([0.0]),
                                   np.linspace(-0.5, 0.5, 5))


class TestAddNoise:
    def _data(self, rng, n=16, n_el=1, n_trans=8, n_radii=100):
        g = centered_grid(n, 2)
        kern = _kernel(g, rng.standard_normal((n_el, g.n_pixels)))
        arr = make_transducer_array(n_trans, radius=2.0, dim=2)
        return measure_spherical_pulse(kern, arr,
                                       np.linspace(0.5, 3.0, n_radii))

    def test_level_zero_bit_identical(self, rng):
        data = self._data(rng)
        noisy = add_noise(data, 0.0, seed=7)
        assert np.array_equal(noisy.values, data.values)

    def test_seed_reproducible(self, rng):
        data = self._data(rng)
        a = add_noise(data, 0.05, seed=123)
        b = add_noise(data, 0.05, seed=123)
        c = add_noise(data, 0.05, seed=124)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_noise_rms_calibration(self, rng):
        data = self._data(rng, n=24, n_el=4, n_trans=16, n_radii=200)
        assert data.values.size >= 10_000
        ratios = []
        signal = np.sqrt(np.mean(data.values ** 2))
        for seed in range(4):
            noisy = add_noise(data, 0.01, seed=seed)
            noise = np.sqrt(np.mean((noisy.values - data.values) ** 2))
            ratios.append(noise / signal)
        assert 0.008 <= np.mean(ratios) <= 0.012


@pytest.mark.invariant
class TestFamilyInvariants:
    def _families(self, grid2, grid3, arr3):
        radii = np.linspace(0.4, 3.2, 40)
        freqs = np.array([3.0, 8.0])
        angles = np.array([0.0, 1.1])
        offsets = np.linspace(-0.8, 0.8, 7)
        return [
            lambda k: measure_spherical_pulse(k, arr3, radii).values,
            lambda k: measure_monochromatic(k, arr3, freqs).values,
            lambda k: measure_plane_waves(k).values,
        ], [
            lambda k: measure_line_integrals(k, angles, offsets).values,
            lambda k: measure_plane_waves(k).values,
        ]

    def test_linearity_and_zero_kernel(self, rng):
        g3 = centered_grid(12, 3)
        g2 = centered_grid(12, 2)
        arr3 = make_transducer_array(4, radius=2.0)
        fams3, fams2 = self._families(g2, g3, arr3)
        for g, fams in ((g3, fams3), (g2, fams2)):
            k1 = rng.standard_normal(g.n_pixels)
            k2 = rng.standard_normal(g.n_pixels)
            a, b = 0.7, -1.3
            for measure in fams:
                m1 = measure(_kernel(g, k1))
                m2 = measure(_kernel(g, k2))
                mc = measure(_kernel(g, a * k1 + b * k2))
                scale = np.max(np.abs(mc)) or 1.0
                assert np.max(np.abs(mc - (a * m1 + b * m2))) <= 1e-12 * scale
                z = measure(_kernel(g, np.zeros(g.n_pixels)))
                assert np.all(z == 0.0)
