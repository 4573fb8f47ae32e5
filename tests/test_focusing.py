"""Synthetic-focusing inversions: reconstructing kernel columns from
unfocused-wave responses via backprojection, frequency-domain
backprojection, inverse DFT, and filtered backprojection."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import synfocus.focusing
from synfocus.core import Grid, KernelMatrix, TransducerArray, make_transducer_array
from synfocus.focusing import (
    _backproject_divergence,
    _detector_profiles,
    focus_kernel,
    invert_fourier,
    invert_monochromatic_3d,
    invert_spherical_means_3d,
    invert_xray_2d,
)
from synfocus.wavegen import (
    FourierData,
    MonochromaticData,
    Sinogram,
    SphericalMeanData,
    conjugate_lattice,
    default_angles,
    default_frequencies,
    default_offsets,
    default_radii,
    measure_line_integrals,
    measure_monochromatic,
    measure_plane_waves,
    measure_spherical_pulse,
)

from conftest import centered_grid, gaussian_column, random_smooth_column, rel_l2
from oracles import AnalyticPhantom, spherical_mean_exact


def small_pulse_setup(n_trans=6, n_out=12, n_radii=60):
    arr = make_transducer_array(n_trans, radius=1.0)
    out = centered_grid(n_out, 3)
    radii = default_radii(arr, out, n_radii)
    return arr, out, radii


# the off-centre Gaussian of the observed-order tests; sigma <= 0.08 keeps
# the box edge far enough out that truncating the Gaussian sets no floor
ORDER_CENTER, ORDER_SIGMA = np.array([0.08, -0.05, 0.03]), 0.08


def order_setup(n):
    """N^3 output grid, 642 (N/48)^2 transducers and 400 N/48 radii, the
    sampling of the 48^3 acceptance benchmark scaled to N."""
    out = centered_grid(n, 3)
    arr = make_transducer_array(round(642 * (n / 48) ** 2), radius=1.0)
    return out, arr, default_radii(arr, out, round(400 * n / 48))


class TestSphericalMeansRoute:
    def test_observed_order_against_closed_form(self):
        # the inversion alone on closed-form data (oracles.spherical_mean_exact).
        # Measured 5.810e-2 and 1.676e-2 at 24^3 and 32^3 (order 4.3; the
        # centred Gaussian gives 5.03e-2 and 1.53e-2); the bounds sit 10%
        # above them
        phantom = AnalyticPhantom(kind="gaussian", center=ORDER_CENTER, scale=ORDER_SIGMA)
        errs = {}
        for n in (24, 32):
            out, arr, radii = order_setup(n)
            g = spherical_mean_exact(phantom, arr.positions, radii)
            data = SphericalMeanData(array=arr, radii=radii, values=g[:, :, None])
            errs[n] = rel_l2(invert_spherical_means_3d(data, out).values[0],
                             gaussian_column(out, ORDER_SIGMA, ORDER_CENTER))
        assert np.log(errs[24] / errs[32]) / np.log(32 / 24) >= 1.8
        assert errs[24] <= 6.4e-2
        assert errs[32] <= 1.85e-2

    def test_chain_observed_order(self):
        # measure_spherical_pulse at the order_setup radii, then the
        # inversion, on the same grid.  Measured 2.550e-1 and 7.786e-2 at
        # 16^3 and 24^3 (order 2.93); the bounds sit 10% above them
        errs = {}
        for n in (16, 24):
            out, arr, radii = order_setup(n)
            truth = gaussian_column(out, ORDER_SIGMA, ORDER_CENTER)
            data = measure_spherical_pulse(KernelMatrix(grid=out, values=truth[None, :]), arr,
                                           radii)
            errs[n] = rel_l2(invert_spherical_means_3d(data, out).values[0], truth)
        assert np.log(errs[16] / errs[24]) / np.log(24 / 16) >= 1.8
        assert errs[16] <= 2.81e-1
        assert errs[24] <= 8.57e-2

    def test_zero_data_reconstructs_zero(self):
        arr, out, radii = small_pulse_setup()
        data = SphericalMeanData(
            array=arr, radii=radii, values=np.zeros((arr.n, radii.size, 2))
        )
        kern = invert_spherical_means_3d(data, out)
        assert kern.n_electrodes == 2
        assert np.all(kern.values == 0.0)

    def test_two_pixel_grid_gives_finite_kernel(self, rng):
        # the divergence is taken in closed form, so no grid floor remains
        arr, _, radii = small_pulse_setup()
        data = SphericalMeanData(array=arr, radii=radii,
                                 values=rng.standard_normal((arr.n, radii.size, 2)))
        kern = invert_spherical_means_3d(data, centered_grid(2, 3))
        assert kern.values.shape == (2, 8)
        assert np.all(np.isfinite(kern.values)) and np.any(kern.values != 0.0)

    @pytest.mark.parametrize("n_radii", [1, 2])
    def test_rejects_fewer_than_three_radii(self, n_radii):
        arr, out, _ = small_pulse_setup()
        radii = np.linspace(0.5, 1.5, n_radii)
        data = SphericalMeanData(array=arr, radii=radii,
                                 values=np.zeros((arr.n, n_radii, 1)))
        with pytest.raises(ValueError, match="at least 3 radii"):
            invert_spherical_means_3d(data, out)

    def test_gaussian_benchmark_within_ten_percent(self, gauss48, pulse_recon48):
        err = rel_l2(pulse_recon48, gauss48["truth"])
        assert err <= 0.10

    def test_ball_indicator_bounds(self):
        # Discontinuous phantom: interior/exterior levels must hold outside
        # a two-voxel shell around the jump.  The backprojection noise for
        # jump data scales like (transducer count)^{-1/2} / voxel size, so
        # this check runs on a 24^3 grid with a dense 10242-point aperture.
        ball = AnalyticPhantom(kind="ball", center=(0.2, 0.0, 0.0), scale=0.3)
        arr = make_transducer_array(10242, radius=1.0)
        out = centered_grid(24, 3)
        radii = default_radii(arr, out, 256)
        vals = spherical_mean_exact(ball, arr.positions, radii)[:, :, None]
        data = SphericalMeanData(array=arr, radii=radii, values=vals)
        rec = invert_spherical_means_3d(data, out).values[0]
        r = np.linalg.norm(out.centers() - np.array([0.2, 0.0, 0.0]), axis=1)
        h = out.spacing[0]
        inside = rec[r <= 0.3 - 2 * h]
        outside = rec[r >= 0.3 + 2 * h]
        assert inside.min() >= 0.7 and inside.max() <= 1.3
        assert outside.min() >= -0.3 and outside.max() <= 0.3

    def test_warns_when_grid_approaches_aperture(self):
        arr = make_transducer_array(12, radius=1.0)
        out = centered_grid(8, 3)
        radii = np.linspace(0.1, 2.0, 20)  # 2*dt = 0.2 > gap 0.134
        data = SphericalMeanData(
            array=arr, radii=radii, values=np.zeros((arr.n, radii.size, 1))
        )
        with pytest.warns(RuntimeWarning, match="unreliable"):
            invert_spherical_means_3d(data, out)

    def test_rejects_grid_outside_aperture(self):
        arr, _, radii = small_pulse_setup()
        out = centered_grid(8, 3, half=1.5)
        data = SphericalMeanData(
            array=arr, radii=radii, values=np.zeros((arr.n, radii.size, 1))
        )
        with pytest.raises(ValueError, match="transducer sphere"):
            invert_spherical_means_3d(data, out)

    def test_radii_must_reach_past_the_output_grid(self):
        # the backprojection reads zero past the last radius; radii that
        # end 5e-13 short of R + circumradius lie within the slack
        arr, out, _ = small_pulse_setup()
        reach = 1.0 + out.circumradius
        for end, ok in ((reach * (1.0 - 5e-13), True), (reach * (1.0 - 2e-12), False),
                        (1.0, False)):
            radii = end * np.arange(1, 41) / 40
            data = SphericalMeanData(array=arr, radii=radii,
                                     values=np.ones((arr.n, radii.size, 1)))
            if ok:
                assert np.all(np.isfinite(invert_spherical_means_3d(data, out).values))
            else:
                with pytest.raises(ValueError, match="short of R"):
                    invert_spherical_means_3d(data, out)

    def test_radii_must_start_within_a_step_of_the_output_grid(self):
        # the backprojection reads zero below the first radius too; a
        # lattice may start at most one step beyond R - circumradius, the
        # nearest any output pixel lies from a transducer, so a lattice
        # that starts at its own spacing always passes
        arr, out, _ = small_pulse_setup()
        near, reach = 1.0 - out.circumradius, 1.0 + out.circumradius
        dt = reach / 40
        for start, ok in ((dt, True), (near + dt, True), ((near + dt) * (1.0 + 1e-9), False),
                          (0.8, False)):
            radii = start + dt * np.arange(int(np.ceil((reach - start) / dt)) + 1)
            data = SphericalMeanData(array=arr, radii=radii,
                                     values=np.ones((arr.n, radii.size, 1)))
            if ok:
                assert np.all(np.isfinite(invert_spherical_means_3d(data, out).values))
            else:
                with pytest.raises(ValueError, match=rf"radii start at .*\({near:.6g}\)"):
                    invert_spherical_means_3d(data, out)

    def test_rejects_wrong_data_type(self):
        arr, out, _ = small_pulse_setup()
        mono = MonochromaticData(
            array=arr,
            frequencies=np.linspace(1.0, 5.0, 5),
            values=np.zeros((arr.n, 5, 1), dtype=complex),
        )
        with pytest.raises(TypeError, match="SphericalMeanData"):
            invert_spherical_means_3d(mono, out)


def _uneven_array(rng, n=7, radius=1.3):
    """Transducers at random points of |z| = R with unequal weights
    summing to the aperture measure."""
    pos = rng.standard_normal((n, 3))
    pos *= radius / np.linalg.norm(pos, axis=1)[:, None]
    w = rng.uniform(0.5, 1.5, n)
    return TransducerArray(positions=pos, radius=radius,
                           weights=w * 4.0 * np.pi * radius**2 / w.sum())


class TestBackprojectDivergence:
    """The closed-form divergence sum_i w_i q_i'(r_i) n_i . (x - z_i) / r_i
    of the backprojected field sum_i w_i n_i q_i(|x - z_i|)."""

    def test_linear_profile_matches_closed_form(self, rng):
        # q_ij = a_ij t^2, so q' = 2 a_ij t is linear and interpolates
        # exactly: the result is sum_i 2 a_ij w_i n_i . (x - z_i)
        arr = _uneven_array(rng)
        out = Grid(origin=(-0.31, 0.07, -0.2), spacing=(0.05, 0.04, 0.06),
                   counts=(7, 6, 5))
        t = np.linspace(0.01, 3.0, 50)
        a = rng.standard_normal((2, arr.n))
        got = _backproject_divergence(arr, t, 2.0 * a[:, :, None] * t, out, 0.7)
        d = out.centers()[None, :, :] - arr.positions[:, None, :]
        proj = np.einsum("ic,ipc->ip", arr.normals, d)
        want = 0.7 * (2.0 * a * arr.weights) @ proj
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_matches_central_difference_of_the_field(self, rng):
        # q_i(t) = sin(k_i t + phi_i) + c_i t^3 on a fine t lattice; the
        # divergence of the backprojected field by central differences
        arr = _uneven_array(rng)
        out = Grid(origin=(0.12, -0.27, -0.05), spacing=(0.07, 0.05, 0.06),
                   counts=(5, 6, 4))
        k = rng.uniform(2.0, 6.0, arr.n)
        phi = rng.uniform(0.0, 2.0 * np.pi, arr.n)
        c = rng.standard_normal(arr.n)

        def q(r):
            return np.sin(k * r + phi) + c * r**3

        def dq(r):
            return k * np.cos(k * r + phi) + 3.0 * c * r**2

        def field(x):
            # (n_pixels, 3): sum_i w_i n_i q_i(|x - z_i|)
            r = np.linalg.norm(x[:, None, :] - arr.positions[None, :, :], axis=2)
            return (q(r) * arr.weights) @ arr.normals

        t = np.linspace(1e-3, 3.0, 60001)
        got = _backproject_divergence(arr, t, dq(t[:, None]).T[None], out, 1.0)[0]
        x, h = out.centers(), 1e-4
        div = sum((field(x + h * e)[:, ax] - field(x - h * e)[:, ax]) / (2.0 * h)
                  for ax, e in enumerate(np.eye(3)))
        assert np.max(np.abs(got - div)) <= 1e-6 * np.max(np.abs(div))


class TestMonochromaticRoute:
    def test_chain_observed_order(self):
        # measure_monochromatic at the default frequencies, then the
        # inversion, on the same grid.  Measured 5.687e-2 and 1.257e-2 at
        # 24^3 and 32^3 (order 5.25); the bounds sit 10% above them
        errs = {}
        for n in (24, 32):
            out, arr, _ = order_setup(n)
            truth = gaussian_column(out, ORDER_SIGMA, ORDER_CENTER)
            data = measure_monochromatic(KernelMatrix(grid=out, values=truth[None, :]), arr,
                                         default_frequencies(out))
            errs[n] = rel_l2(invert_monochromatic_3d(data, out).values[0], truth)
        assert np.log(errs[24] / errs[32]) / np.log(32 / 24) >= 1.8
        assert errs[24] <= 6.3e-2
        assert errs[32] <= 1.39e-2

    def test_zero_data_reconstructs_zero(self):
        arr, out, _ = small_pulse_setup()
        freqs = np.linspace(1.0, 30.0, 16)
        data = MonochromaticData(
            array=arr, frequencies=freqs,
            values=np.zeros((arr.n, freqs.size, 1), dtype=complex),
        )
        kern = invert_monochromatic_3d(data, out)
        assert np.all(kern.values[0] == 0.0)

    def test_time_samples_are_default_radii(self, rng, monkeypatch):
        # the inversion's time lattice is the spherical route's radii
        # lattice, (0, R + diameter] at 4 points per period of lam_max
        arr, out, _ = small_pulse_setup()
        freqs = np.linspace(1.0, 60.0, 16)
        data = MonochromaticData(array=arr, frequencies=freqs,
                                 values=rng.standard_normal((arr.n, freqs.size, 1)) + 0j)
        seen = []

        def recording(data, t):
            seen.append(t)
            return np.zeros((1, arr.n, t.size))

        monkeypatch.setattr(synfocus.focusing, "_detector_profiles", recording)
        invert_monochromatic_3d(data, out)
        n = int(np.ceil((1.0 + out.diameter) * 60.0 * 2.0 / np.pi))
        assert n > 64
        assert np.array_equal(seen[0], default_radii(arr, out, n))

    def test_one_frequency_weighs_half_its_band(self, rng):
        # one frequency has spacing 0 and no taper: its trapezoid weight is
        # lam[0] / 2, all of [0, lam[0]], in h and in h' = (S' - h) / t
        arr = make_transducer_array(6, radius=1.0)
        lam = 7.0
        w = rng.standard_normal((arr.n, 1, 2)) + 1j * rng.standard_normal((arr.n, 1, 2))
        t = np.linspace(0.1, 3.0, 40)
        got = _detector_profiles(MonochromaticData(array=arr, frequencies=[lam], values=w), t)
        wt = w[:, 0, :].T[:, :, None]   # (n_el, n_trans, 1)
        cos, sin = np.cos(lam * t), np.sin(lam * t)
        h = 0.5 * lam * lam * (sin * wt.real - cos * wt.imag) / t
        dS = 0.5 * lam**3 * (sin * wt.imag + cos * wt.real)
        want = (dS - h) / t
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_frequencies_must_start_within_a_spacing_of_zero(self):
        # one trapezoid panel closes the band [0, lam[0]], so a lattice
        # that starts higher inverts wrong (a 16^3 Gaussian of width 0.15,
        # 128 transducers: 0.84% error at the default lattice, 2.8% and
        # 21% started two and five spacings up); one frequency has no
        # spacing and stays allowed
        arr, out, _ = small_pulse_setup()
        dl = 2.0
        for start, n, ok in ((dl, 12, True), (dl * (1.0 + 5e-13), 12, True),
                             (dl * (1.0 + 1e-9), 12, False), (3.0 * dl, 12, False),
                             (3.0 * dl, 1, True)):
            data = MonochromaticData(array=arr, frequencies=start + dl * np.arange(n),
                                     values=np.ones((arr.n, n, 1), dtype=complex))
            if ok:
                assert np.all(np.isfinite(invert_monochromatic_3d(data, out).values))
            else:
                with pytest.raises(ValueError, match=rf"frequencies start at {start:.6g}, "
                                                     rf"more than one spacing \({dl:.6g}\)"):
                    invert_monochromatic_3d(data, out)

    def test_empty_frequency_list_rejected(self):
        arr = make_transducer_array(6, radius=1.0)
        with pytest.raises(ValueError, match="frequencies must not be empty"):
            MonochromaticData(
                array=arr, frequencies=np.empty(0),
                values=np.zeros((6, 0, 1), dtype=complex),
            )

    def test_gaussian_from_wave_measurements(self):
        # Full wavegen -> focusing chain on a gridded gaussian column.
        out = centered_grid(32, 3)
        truth = gaussian_column(out, s=0.2)
        arr = make_transducer_array(162, radius=1.0)
        col = KernelMatrix(grid=out, values=truth[None, :])
        data = measure_monochromatic(col, arr, default_frequencies(out))
        rec = invert_monochromatic_3d(data, out).values[0]
        assert rel_l2(rec, truth) <= 0.15

    def test_gaussian_benchmark_within_fifteen_percent(self, gauss48, mono_recon48):
        err = rel_l2(mono_recon48, gauss48["truth"])
        assert err <= 0.15

    def test_matches_pulse_route(self, pulse_recon48, mono_recon48):
        # Both routes see the same phantom through matched discretizations.
        assert rel_l2(mono_recon48, pulse_recon48) <= 0.10


class TestFourierRoute:
    def test_roundtrip_reproduces_column(self, rng):
        out = centered_grid(64, 2)
        col = random_smooth_column(out, rng)
        data = measure_plane_waves(KernelMatrix(grid=out, values=col[None, :]))
        rec = invert_fourier(data, out).values[0]
        assert rel_l2(rec, col) <= 1e-8

    def test_closed_form_transform_without_inverse_crime(self):
        # the Gaussian's transform in closed form, 2 pi s^2 e^{-s^2 |k|^2 / 2}
        # e^{i k . c}, on the conjugate lattice, not the measure's DFT of the
        # same grid.  Measured rel L2 1.07e-3 at 16^2 and 2.95e-7 at 24^2,
        # pinned 10% above; from 32^2 on it stays near 2e-9, the floor of
        # the DFT's periodization of the Gaussian's tails
        c, s = np.array([0.08, -0.05]), 0.07
        for n, bound in ((16, 1.18e-3), (24, 3.25e-7)):
            out = centered_grid(n, 2)
            k = conjugate_lattice(out).centers()
            vals = 2.0 * np.pi * s * s * np.exp(-0.5 * s * s * np.sum(k * k, axis=1)
                                                + 1j * (k @ c))
            rec = invert_fourier(FourierData(grid=out, values=vals[:, None]), out)
            assert rel_l2(rec.values[0], gaussian_column(out, s, c)) <= bound

    def test_dc_sample_gives_constant_field(self):
        out = centered_grid(16, 2)
        kgrid = conjugate_lattice(out)
        vals = np.zeros((out.n_pixels, 1), dtype=complex)
        k = kgrid.centers()
        dc = int(np.argmin(np.linalg.norm(k, axis=1)))
        assert np.allclose(k[dc], 0.0)
        V = 3.25
        vals[dc, 0] = V
        data = FourierData(grid=out, values=vals)
        rec = invert_fourier(data, out).values[0]
        domain_measure = out.pixel_measure * out.n_pixels
        assert np.allclose(rec, V / domain_measure, rtol=1e-12, atol=1e-15)

    def test_noise_transfers_with_unit_gain(self, rng):
        from synfocus.wavegen import add_noise

        out = centered_grid(32, 2)
        col = random_smooth_column(out, rng)
        data = measure_plane_waves(KernelMatrix(grid=out, values=col[None, :]))
        noisy = add_noise(data, 0.01, seed=7)
        in_ratio = np.linalg.norm(noisy.values - data.values) / np.linalg.norm(
            data.values
        )
        clean = invert_fourier(data, out).values[0]
        pert = invert_fourier(noisy, out).values[0]
        out_ratio = np.linalg.norm(pert - clean) / np.linalg.norm(clean)
        assert abs(out_ratio / in_ratio - 1.0) <= 1e-6

    def test_lattice_mismatch_rejected(self, rng):
        out = centered_grid(16, 2)
        col = random_smooth_column(out, rng)
        data = measure_plane_waves(KernelMatrix(grid=out, values=col[None, :]))
        with pytest.raises(ValueError, match="conjugate lattice"):
            invert_fourier(data, centered_grid(32, 2))
        shifted = Grid(
            origin=np.asarray(out.origin) + 0.25,
            spacing=out.spacing,
            counts=out.counts,
        )
        with pytest.raises(ValueError, match="conjugate lattice"):
            invert_fourier(data, shifted)

    def test_output_grid_must_equal_the_measured_grid(self, rng):
        # Grid equality is exact: an equal grid built anew inverts as the
        # measured one does, a grid whose origin moved by 1e-13 relative
        # does not
        out = centered_grid(16, 2)
        col = random_smooth_column(out, rng)
        data = measure_plane_waves(KernelMatrix(grid=out, values=col[None, :]))
        rebuilt = Grid(origin=out.origin.copy(), spacing=out.spacing.copy(), counts=out.counts)
        assert np.array_equal(invert_fourier(data, rebuilt).values, invert_fourier(data, out).values)
        nudged = Grid(origin=out.origin * (1.0 + 1e-13), spacing=out.spacing, counts=out.counts)
        with pytest.raises(ValueError, match="conjugate lattice"):
            invert_fourier(data, nudged)

    def test_imaginary_residue_diagnostic(self, rng):
        out = centered_grid(16, 2)
        col = random_smooth_column(out, rng)
        data = measure_plane_waves(KernelMatrix(grid=out, values=col[None, :]))
        _, residue = invert_fourier(data, out, return_residue=True)
        assert residue.shape == (1,)
        assert residue[0] <= 1e-12
        # Breaking the Hermitian symmetry must show up in the diagnostic.
        vals = np.array(data.values)
        vals[1, 0] += 1j * np.max(np.abs(vals))
        broken = FourierData(grid=data.grid, values=vals)
        _, residue2 = invert_fourier(broken, out, return_residue=True)
        assert residue2[0] > 1e-3


def _ramp_column(offsets):
    """ds h(k ds) for the band-limited ramp kernel h of Kak & Slaney
    (1988, ch. 3): h(0) = 1/(4 ds^2), h(k ds) = -1/(pi k ds)^2 at odd k and
    0 at even k > 0."""
    ds = offsets[1] - offsets[0]
    k = np.arange(offsets.size)
    h = np.where(k % 2 == 1, -1.0 / (np.pi * np.maximum(k, 1) * ds) ** 2, 0.0)
    h[0] = 1.0 / (4.0 * ds * ds)
    return ds * h


def _reference_fbp(data, out):
    """FBP one angle and electrode at a time: np.convolve with the
    symmetric filter, np.interp with zero outside the offsets."""
    c = _ramp_column(data.offsets)
    n_off = c.size
    h = np.concatenate([c[:0:-1], c])
    x, y = (m.ravel() for m in out.mesh())
    recs = np.zeros((data.values.shape[2], out.n_pixels))
    for a, ang in enumerate(data.angles):
        s = np.cos(ang) * x + np.sin(ang) * y
        for e in range(recs.shape[0]):
            q = np.convolve(data.values[a, :, e], h)[n_off - 1:2 * n_off - 1]
            recs[e] += np.interp(s, data.offsets, q, left=0.0, right=0.0)
    return recs * (np.pi / data.angles.size)


class TestXrayRoute:
    def test_zero_sinogram_gives_zero_field(self):
        out = centered_grid(16, 2)
        data = Sinogram(
            angles=default_angles(24),
            offsets=np.linspace(-0.8, 0.8, 33),
            values=np.zeros((24, 33, 1)),
        )
        rec = invert_xray_2d(data, out).values[0]
        assert np.all(rec == 0.0)

    def test_disk_reconstruction_interior(self, disk_fbp256):
        mask = disk_fbp256["rim_mask"]
        num = np.linalg.norm((disk_fbp256["recon"] - disk_fbp256["truth"])[mask])
        den = np.linalg.norm(disk_fbp256["truth"][mask])
        assert num / den <= 0.10

    def test_radial_phantom_gives_radially_symmetric_output(self):
        s = 0.15
        angles = default_angles(180)
        offsets = np.linspace(-0.75, 0.75, 151)
        row = s * np.sqrt(2.0 * np.pi) * np.exp(-(offsets**2) / (2 * s * s))
        data = Sinogram(
            angles=angles,
            offsets=offsets,
            values=np.repeat(row[None, :, None], angles.size, axis=0),
        )
        out = centered_grid(128, 2)
        rec = invert_xray_2d(data, out).values[0].reshape(128, 128)
        for sym in (np.rot90(rec), np.rot90(rec, 2), rec.T, rec[::-1, :]):
            assert rel_l2(rec, sym) <= 1e-3
        truth = gaussian_column(out, s=s)
        assert rel_l2(rec.ravel(), truth) <= 0.05

    def test_observed_order_against_closed_form(self):
        # the FBP alone on the closed-form sinogram of the order tests'
        # Gaussian in the plane, 3N angles and the CLI's offsets at a quarter
        # pixel.  Measured 1.111e-3 and 2.715e-4 at 32^2 and 64^2 (order
        # 2.03; 6.939e-5 at 128^2); the bounds sit 10% above them.  The
        # frequency-sampled ramp stopped at 1.87e-2 with a DC bias
        c, s = ORDER_CENTER[:2], ORDER_SIGMA
        errs = {}
        for n in (32, 64):
            out = centered_grid(n, 2)
            angles = default_angles(3 * n)
            offsets = default_offsets(out)
            w = np.cos(angles) * c[0] + np.sin(angles) * c[1]
            sino = s * np.sqrt(2.0 * np.pi) * np.exp(-(offsets - w[:, None]) ** 2 / (2 * s * s))
            data = Sinogram(angles=angles, offsets=offsets, values=sino[:, :, None])
            errs[n] = rel_l2(invert_xray_2d(data, out).values[0], gaussian_column(out, s, c))
        assert np.log2(errs[32] / errs[64]) >= 1.8
        assert errs[32] <= 1.22e-3
        assert errs[64] <= 3.0e-4

    @pytest.mark.parametrize("block", [None, 1000, 1])
    @pytest.mark.parametrize("n_off", [40, 41])
    @pytest.mark.parametrize("n_el", [1, 3])
    def test_matches_reference_fbp(self, n_off, n_el, block, rng, monkeypatch):
        # blocks of 3 angles (the last one short) and of one angle take the
        # same path as the default single block
        if block is not None:
            monkeypatch.setattr(synfocus.focusing, "_XRAY_BLOCK", block)
        out = centered_grid(12, 2)  # circumradius 0.707, inside the offsets
        data = Sinogram(angles=default_angles(25), offsets=np.linspace(-1.1, 1.1, n_off),
                        values=rng.standard_normal((25, n_off, n_el)))
        ref = _reference_fbp(data, out)
        rec = invert_xray_2d(data, out).values
        assert np.max(np.abs(rec - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_angle_blocks_stay_within_budget(self, rng):
        # 64 angles x 129 offsets x 512 electrodes are 4.2e6 values (34 MB),
        # four blocks of 2**20; the filtered values of one block take 8 MB, the
        # result and its accumulators 1 MB each
        out = centered_grid(16, 2)
        data = Sinogram(angles=default_angles(64), offsets=np.linspace(-0.8, 0.8, 129),
                        values=rng.standard_normal((64, 129, 512)))
        tracemalloc.start()
        try:
            rec = invert_xray_2d(data, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20 + 6 * rec.values.nbytes

    def test_few_angles_warn(self):
        out = centered_grid(8, 2)
        data = Sinogram(
            angles=default_angles(4),
            offsets=np.linspace(-0.8, 0.8, 17),
            values=np.zeros((4, 17, 1)),
        )
        with pytest.warns(RuntimeWarning, match="undersampling"):
            invert_xray_2d(data, out)

    def test_angles_must_span_a_half_turn(self, rng):
        # the FBP weights each angle by pi / n: 90 angles over [0, pi/2)
        # used to invert a Gaussian with 79% error and no warning.  The
        # measure still takes any uniform angles in [0, pi)
        out = centered_grid(16, 2)
        kern = KernelMatrix(grid=out, values=rng.standard_normal((1, out.n_pixels)))
        for angles in (default_angles(180) / 2, default_angles(2) / 2, default_angles(9)[:7]):
            data = measure_line_integrals(kern, angles, default_offsets(out))
            with pytest.raises(ValueError, match=f"{angles.size} angles from .* not a half-turn"):
                invert_xray_2d(data, out)

    @pytest.mark.parametrize("angles", [
        default_angles(1), default_angles(2), default_angles(7), default_angles(180),
        default_angles(24) + 0.5 * np.pi / 24,
    ], ids=["1", "2", "7", "180", "rotated-24"])
    def test_half_turn_lattices_invert(self, angles, rng):
        out = centered_grid(8, 2)
        kern = KernelMatrix(grid=out, values=rng.standard_normal((1, out.n_pixels)))
        data = measure_line_integrals(kern, angles, default_offsets(out))
        # the suite turns any other warning into an error
        if angles.size < 8:  # the undersampling warning stays
            with pytest.warns(RuntimeWarning, match="undersampling"):
                rec = invert_xray_2d(data, out)
        else:
            rec = invert_xray_2d(data, out)
        assert np.all(np.isfinite(rec.values))

    def test_offsets_must_cover_grid(self):
        out = centered_grid(16, 2)  # circumradius ~0.707
        data = Sinogram(
            angles=default_angles(24),
            offsets=np.linspace(-0.5, 0.5, 21),
            values=np.zeros((24, 21, 1)),
        )
        with pytest.raises(ValueError, match="does not cover"):
            invert_xray_2d(data, out)

    def test_one_coverage_rule_for_measure_and_inversion(self, rng):
        # offsets 5e-13 short of the circumradius lie within the shared
        # tolerance: the measure takes them and its sinogram inverts on the
        # same grid; 2e-12 short, both routes refuse them
        g = centered_grid(8, 2)
        kern = KernelMatrix(grid=g, values=rng.standard_normal((2, g.n_pixels)))
        angles = default_angles(8)
        rho = g.circumradius * (1.0 - 5e-13)
        data = measure_line_integrals(kern, angles, np.linspace(-rho, rho, 33))
        assert np.all(np.isfinite(invert_xray_2d(data, g).values))
        rho = g.circumradius * (1.0 - 2e-12)
        short = Sinogram(angles=angles, offsets=np.linspace(-rho, rho, 33), values=data.values)
        with pytest.raises(ValueError, match="does not cover"):
            measure_line_integrals(kern, angles, short.offsets)
        with pytest.raises(ValueError, match="does not cover"):
            invert_xray_2d(short, g)

    def test_rejects_3d_grid(self):
        data = Sinogram(
            angles=default_angles(24),
            offsets=np.linspace(-1.0, 1.0, 21),
            values=np.zeros((24, 21, 1)),
        )
        with pytest.raises(ValueError, match="2D"):
            invert_xray_2d(data, centered_grid(8, 3))


class TestFocusKernel:
    def test_plane_route_assembles_all_electrodes(self, rng):
        out = centered_grid(16, 2)
        cols = np.stack([random_smooth_column(out, rng) for _ in range(3)])
        data = measure_plane_waves(KernelMatrix(grid=out, values=cols))
        kern = focus_kernel(data, "plane", out)
        assert kern.values.shape == (3, out.n_pixels)
        assert np.array_equal(kern.values, invert_fourier(data, out).values)
        assert rel_l2(kern.values, cols) <= 1e-8

    def test_dispatch_matches_single_route_inversions(self, rng):
        arr, out, radii = small_pulse_setup()
        vals = rng.standard_normal((arr.n, radii.size, 2))
        pulse = SphericalMeanData(array=arr, radii=radii, values=vals)
        kern = focus_kernel(pulse, "spherical", out)
        assert np.array_equal(kern.values, invert_spherical_means_3d(pulse, out).values)

        freqs = np.linspace(1.0, 20.0, 12)
        w = rng.standard_normal((arr.n, 12, 1)) + 1j * rng.standard_normal(
            (arr.n, 12, 1)
        )
        mono = MonochromaticData(array=arr, frequencies=freqs, values=w)
        assert np.array_equal(
            focus_kernel(mono, "monochromatic", out).values[0],
            invert_monochromatic_3d(mono, out).values[0],
        )

        out2 = centered_grid(12, 2)
        sino = Sinogram(
            angles=default_angles(24),
            offsets=np.linspace(-0.8, 0.8, 33),
            values=rng.standard_normal((24, 33, 1)),
        )
        assert np.array_equal(
            focus_kernel(sino, "xray", out2).values[0],
            invert_xray_2d(sino, out2).values[0],
        )

    def test_zero_data_gives_zero_kernel(self):
        out = centered_grid(12, 2)
        data = Sinogram(
            angles=default_angles(24),
            offsets=np.linspace(-0.8, 0.8, 33),
            values=np.zeros((24, 33, 2)),
        )
        kern = focus_kernel(data, "xray", out)
        assert kern.values.shape == (2, out.n_pixels)
        assert np.all(kern.values == 0.0)

    def test_scaling_linearity(self, rng):
        out = centered_grid(16, 2)
        col = random_smooth_column(out, rng)
        data = measure_plane_waves(KernelMatrix(grid=out, values=col[None, :]))
        scaled = FourierData(grid=data.grid, values=2.5 * data.values)
        k1 = focus_kernel(data, "plane", out).values
        k2 = focus_kernel(scaled, "plane", out).values
        assert rel_l2(k2, 2.5 * k1) <= 1e-12

    def test_unknown_method_rejected(self, rng):
        out = centered_grid(8, 2)
        col = random_smooth_column(out, rng)
        data = measure_plane_waves(KernelMatrix(grid=out, values=col[None, :]))
        with pytest.raises(ValueError, match="unknown method"):
            focus_kernel(data, "fourier", out)

    def test_family_mismatch_rejected(self, rng):
        out = centered_grid(8, 2)
        col = random_smooth_column(out, rng)
        data = measure_plane_waves(KernelMatrix(grid=out, values=col[None, :]))
        with pytest.raises(TypeError, match="requires"):
            focus_kernel(data, "xray", out)

    @pytest.mark.parametrize("method, name", [("spherical", "spherical-means"),
                                              ("monochromatic", "monochromatic")])
    def test_3d_inversions_refuse_a_2d_grid(self, method, name):
        # one output-grid rule for both aperture families
        arr, _, radii = small_pulse_setup()
        data = {
            "spherical": SphericalMeanData(array=arr, radii=radii,
                                           values=np.zeros((arr.n, radii.size, 1))),
            "monochromatic": MonochromaticData(array=arr, frequencies=np.linspace(1.0, 20.0, 12),
                                               values=np.zeros((arr.n, 12, 1), dtype=complex)),
        }[method]
        with pytest.raises(ValueError, match=f"^{name} inversion requires a 3D output grid$"):
            focus_kernel(data, method, centered_grid(8, 2))

    @pytest.mark.parametrize("method, invert, expect", [
        ("spherical", invert_spherical_means_3d, "spherical-means inversion requires SphericalMeanData"),
        ("monochromatic", invert_monochromatic_3d, "monochromatic inversion requires MonochromaticData"),
        ("plane", invert_fourier, "Fourier inversion requires FourierData"),
        ("xray", invert_xray_2d, "x-ray inversion requires Sinogram"),
    ])
    def test_each_inversion_names_both_types(self, method, invert, expect):
        # one type rule per route, met the same way directly and through
        # focus_kernel
        out = centered_grid(8, 2)
        wrong = Sinogram(angles=default_angles(8), offsets=np.linspace(-0.8, 0.8, 9),
                         values=np.zeros((8, 9, 1)))
        if method == "xray":
            wrong = FourierData(grid=out, values=np.zeros((out.n_pixels, 1), dtype=complex))
        message = f"^{expect}, got {type(wrong).__name__}$"
        for run in (lambda: invert(wrong, out), lambda: focus_kernel(wrong, method, out)):
            with pytest.raises(TypeError, match=message):
                run()


@pytest.mark.invariant
class TestFocusingInvariants:
    def test_all_inversions_are_linear(self, rng):
        arr, out3, radii = small_pulse_setup()
        out2 = centered_grid(12, 2)

        def pulse(v):
            return invert_spherical_means_3d(
                SphericalMeanData(array=arr, radii=radii, values=v), out3
            ).values[0]

        def mono(v):
            return invert_monochromatic_3d(
                MonochromaticData(
                    array=arr, frequencies=np.linspace(1.0, 20.0, 12), values=v
                ),
                out3,
            ).values[0]

        def plane(v):
            return invert_fourier(FourierData(grid=out2, values=v), out2).values[0]

        def xray(v):
            return invert_xray_2d(
                Sinogram(
                    angles=default_angles(24),
                    offsets=np.linspace(-0.8, 0.8, 33),
                    values=v,
                ),
                out2,
            ).values[0]

        cases = [
            (pulse, (arr.n, radii.size, 1), float),
            (mono, (arr.n, 12, 1), complex),
            (plane, (out2.n_pixels, 1), complex),
            (xray, (24, 33, 1), float),
        ]
        for op, shape, dtype in cases:
            if dtype is complex:
                a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            else:
                a = rng.standard_normal(shape)
                b = rng.standard_normal(shape)
            lhs = op(1.5 * a - 0.5 * b)
            rhs = 1.5 * op(a) - 0.5 * op(b)
            scale = np.linalg.norm(rhs)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(scale, 1.0)

    def test_zero_data_zero_output_every_route(self):
        arr, out3, radii = small_pulse_setup()
        out2 = centered_grid(12, 2)
        pulse = SphericalMeanData(
            array=arr, radii=radii, values=np.zeros((arr.n, radii.size, 1))
        )
        mono = MonochromaticData(
            array=arr,
            frequencies=np.linspace(1.0, 20.0, 12),
            values=np.zeros((arr.n, 12, 1), dtype=complex),
        )
        plane = FourierData(grid=out2, values=np.zeros((out2.n_pixels, 1), dtype=complex))
        sino = Sinogram(
            angles=default_angles(24),
            offsets=np.linspace(-0.8, 0.8, 33),
            values=np.zeros((24, 33, 1)),
        )
        assert np.all(invert_spherical_means_3d(pulse, out3).values[0] == 0.0)
        assert np.all(invert_monochromatic_3d(mono, out3).values[0] == 0.0)
        assert np.all(invert_fourier(plane, out2).values[0] == 0.0)
        assert np.all(invert_xray_2d(sino, out2).values[0] == 0.0)

    def test_radial_phantom_reconstructs_radially(self):
        # The Fibonacci aperture has no exact rotational symmetry; a radial
        # phantom must still reconstruct to a radially symmetric field up to
        # the quadrature's own discretization error.
        s = 0.2
        ph = AnalyticPhantom(kind="gaussian", center=(0.0, 0.0, 0.0), scale=s)
        arr = make_transducer_array(162, radius=1.0)
        out = centered_grid(32, 3)
        radii = default_radii(arr, out, 400)
        g = spherical_mean_exact(ph, (1.0, 0.0, 0.0), radii)
        data = SphericalMeanData(
            array=arr,
            radii=radii,
            values=np.repeat(g[None, :, None], arr.n, axis=0),
        )
        v = invert_spherical_means_3d(data, out).values[0].reshape(32, 32, 32)
        asym = max(
            rel_l2(v, np.rot90(v, axes=(1, 2))),
            rel_l2(v, np.rot90(v, axes=(0, 1))),
            rel_l2(v, np.rot90(v, axes=(0, 2))),
        )
        assert asym <= 0.01

    def test_resolution_convergence_in_radii(self):
        s = 0.2
        ph = AnalyticPhantom(kind="gaussian", center=(0.0, 0.0, 0.0), scale=s)
        arr = make_transducer_array(162, radius=1.0)
        out = centered_grid(32, 3)
        truth = gaussian_column(out, s=s)
        errs = []
        for n_radii in (100, 200, 400):
            radii = default_radii(arr, out, n_radii)
            g = spherical_mean_exact(ph, (1.0, 0.0, 0.0), radii)
            data = SphericalMeanData(
                array=arr,
                radii=radii,
                values=np.repeat(g[None, :, None], arr.n, axis=0),
            )
            rec = invert_spherical_means_3d(data, out).values[0]
            errs.append(rel_l2(rec, truth))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.02

    def test_deterministic_rerun(self, rng):
        arr, out, radii = small_pulse_setup()
        vals = rng.standard_normal((arr.n, radii.size, 1))
        data = SphericalMeanData(array=arr, radii=radii, values=vals)
        a = invert_spherical_means_3d(data, out).values[0]
        b = invert_spherical_means_3d(data, out).values[0]
        assert a.tobytes() == b.tobytes()
        out2 = centered_grid(16, 2)
        sino = Sinogram(
            angles=default_angles(24),
            offsets=np.linspace(-0.8, 0.8, 33),
            values=rng.standard_normal((24, 33, 1)),
        )
        x1 = invert_xray_2d(sino, out2).values[0]
        x2 = invert_xray_2d(sino, out2).values[0]
        assert x1.tobytes() == x2.tobytes()


class TestUniformAxes:
    """Every inversion reads a uniform axis as x[0] + k * spacing with the
    mean spacing of wavegen._uniform_spacing."""

    @pytest.mark.parametrize("family, lattice", [("xray", "offsets"), ("spherical", "radii"),
                                                 ("monochromatic", "frequencies")])
    def test_nudge_within_the_lattice_tolerance_moves_no_reconstruction(self, family, lattice,
                                                                        rng):
        # the second point moved by 0.45e-9 of a step keeps the lattice
        # within its 1e-9 tolerance.  Read as x[0] + k * mean spacing, the
        # x-ray, spherical and monochromatic reconstructions move by 0, 0
        # and 1e-11 relative; read by the first difference, they moved by
        # 1.8e-9, 1.3e-9 and 4.6e-10
        grid, measure, invert = _family_operators(family)
        data = measure(KernelMatrix(grid=grid, values=gaussian_column(
            grid, 0.15, center=rng.uniform(-0.1, 0.1, grid.dim))[None, :]))
        axis = getattr(data, lattice)
        nudged = axis.copy()
        nudged[1] += 0.45e-9 * (axis[1] - axis[0])
        want = invert(data).values
        got = invert(replace(data, **{lattice: nudged})).values
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _family_operators(family):
    """(grid, measure, invert) for one wave family at a small size."""
    if family == "plane":
        grid = centered_grid(8, 2)
        return grid, measure_plane_waves, lambda d: invert_fourier(d, grid)
    if family == "xray":
        grid = centered_grid(8, 2)
        angles, offsets = default_angles(12), np.linspace(-grid.circumradius, grid.circumradius, 33)
        return (grid, lambda k: measure_line_integrals(k, angles, offsets),
                lambda d: invert_xray_2d(d, grid))
    grid = centered_grid(6, 3, half=0.4)
    arr = make_transducer_array(8, radius=1.0)
    if family == "spherical":
        radii = default_radii(arr, grid, 24)
        return (grid, lambda k: measure_spherical_pulse(k, arr, radii),
                lambda d: invert_spherical_means_3d(d, grid))
    freqs = default_frequencies(grid, 8)
    return (grid, lambda k: measure_monochromatic(k, arr, freqs),
            lambda d: invert_monochromatic_3d(d, grid))


class TestElectrodeIndependence:
    """Each family's operators act on all electrodes at once; the result
    must equal stacking the single-electrode results."""

    @pytest.mark.parametrize("family", ["plane", "xray", "spherical", "monochromatic"])
    def test_batched_equals_stacked_single_electrodes(self, family, rng):
        grid, measure, invert = _family_operators(family)
        values = np.stack([gaussian_column(grid, 0.15, center=rng.uniform(-0.1, 0.1, grid.dim))
                           for _ in range(3)])
        data = measure(KernelMatrix(grid=grid, values=values))
        singles = [measure(KernelMatrix(grid=grid, values=values[[j]])) for j in range(3)]
        stacked = np.concatenate([d.values for d in singles], axis=-1)
        assert rel_l2(data.values, stacked) <= 1e-12

        recs = invert(data).values
        single_recs = np.stack([invert(replace(data, values=data.values[..., [j]])).values[0]
                                for j in range(3)])
        assert rel_l2(recs, single_recs) <= 1e-12
