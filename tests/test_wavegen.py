import tracemalloc
import warnings

import numpy as np
import pytest

import synfocus.core
import synfocus.wavegen
from synfocus.core import (
    Grid,
    KernelMatrix,
    TransducerArray,
    _interp,
    _padded_rows,
    _stencil,
    _support_box,
    _unit_lattice,
    make_transducer_array,
)
from synfocus.wavegen import (
    FourierData,
    MonochromaticData,
    Sinogram,
    SphericalMeanData,
    _cap_frame,
    _cap_sizes,
    _check_offsets_cover,
    _positive_spacing,
    _uniform_spacing,
    add_noise,
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

from conftest import centered_grid, count_calls, gaussian_column, rel_l2
from oracles import (
    AnalyticPhantom,
    line_integral,
    spherical_mean_exact,
    spherical_mean_quadrature,
)


def _kernel(grid, columns):
    """Wrap one or more flat columns as a KernelMatrix (rows = electrodes)."""
    cols = np.atleast_2d(columns)
    return KernelMatrix(grid=grid, values=cols)


def _support_center(grid):
    """Centre of the interpolation support box, as measure_spherical_pulse
    takes it from core._support_box."""
    lo, hi = _support_box(grid)
    return 0.5 * (lo + hi)


def _sphere_rule(grid, t):
    """Point count and per-point weight of measure_spherical_pulse's
    quadrature rule at radius t."""
    m = int(np.ceil(2.0 * np.pi * t / float(np.min(grid.spacing))))
    n = max(int(np.ceil(m * m / np.pi)), 32)
    return n, 4.0 * np.pi * t * t / n


def _reference_cap(n, t, dist, rho):
    """Per-sphere cap indices of the n-point lattice at radius t, computed
    with Python scalars: the points whose cos(theta) can reach
    (D^2 + t^2 - rho^2) / (2 D t), widened by one index."""
    if dist == 0.0:
        return np.arange(n)
    b = (dist * dist + t * t - rho * rho) / (2.0 * dist * t)
    return np.arange(min(n, max(0, int(np.ceil(0.5 * n * (1.0 - b)))) + 1))


def _cap(n, t, dist, rho):
    """measure_spherical_pulse's cap of one sphere, through _cap_sizes:
    the lattice prefix of that many points."""
    return np.arange(_cap_sizes(np.array([n]), np.array([float(t)]), dist, rho)[0])


def _turned_sphere(grid, z, t, frame):
    """The full turned quadrature lattice of measure_spherical_pulse at
    radius t about z and its per-point weight."""
    n, weight = _sphere_rule(grid, t)
    return z + t * _unit_lattice(n) @ frame, weight


def _tau_lattice(grid):
    """The line samples of measure_line_integrals: midpoints of uniform
    steps of at most half a spacing over [-half, half], half = rho + step."""
    step = 0.5 * float(np.min(grid.spacing))
    half = grid.circumradius + step
    n = int(np.ceil(2.0 * half / step))
    dtau = 2.0 * half / n
    return -half + (np.arange(n) + 0.5) * dtau, dtau


class TestSphericalPulse:
    def test_sphere_area_on_constant_column(self):
        # support box much larger than the transducer sphere: small spheres
        # stay inside the region where the column is 1, so the raw surface
        # integral is 4 pi t^2
        g = centered_grid(16, 3, half=3.0)
        kern = _kernel(g, np.ones(g.n_pixels))
        arr = make_transducer_array(6, radius=2.0)
        radii = np.array([0.15, 0.25, 0.35])
        data = measure_spherical_pulse(kern, arr, radii)
        for k, t in enumerate(radii):
            assert np.allclose(data.values[:, k, 0], 4.0 * np.pi * t * t,
                               rtol=1e-4)

    def test_zero_column(self):
        g = centered_grid(16, 3)
        arr = make_transducer_array(6, radius=2.0)
        data = measure_spherical_pulse(_kernel(g, np.zeros(g.n_pixels)),
                                       arr, np.array([0.5, 1.0]))
        assert np.all(data.values == 0.0)

    def test_gaussian_against_quadrature_oracle_3d(self):
        # off-axis transducer outside the support's bounding sphere, so each
        # sphere is measured on a cap of its turned lattice
        g = centered_grid(128, 3, half=1.0)
        kern = _kernel(g, gaussian_column(g, s=0.2))
        phantom = AnalyticPhantom(kind="gaussian", center=(0.0, 0.0, 0.0),
                                  scale=0.2, amplitude=1.0)
        z = np.array([1.2, -0.9, 1.1])
        R = float(np.linalg.norm(z))
        one = TransducerArray(positions=z[None, :],
                              weights=np.array([4.0 * np.pi * R * R]), radius=R)
        radii = R + np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
        data = measure_spherical_pulse(kern, one, radii)
        for k, t in enumerate(radii):
            ref = spherical_mean_quadrature(phantom, z, float(t), n_quad=4096)
            assert data.values[0, k, 0] == pytest.approx(ref, rel=1e-3)

    def test_observed_order_against_closed_form(self):
        # code verification by observed order (Roache 1998): the off-centre
        # gaussian of the CLI's synthetic kernel on the centred unit cube,
        # 16 transducers, 64 default radii.  Measured errors 7.52e-2,
        # 1.95e-2, 4.95e-3 (orders 1.95, 1.98); the bounds sit 10% above
        # them, and multilinear interpolation gives order 2
        c, s = np.array([0.08, -0.05, 0.03]), 0.12
        phantom = AnalyticPhantom(kind="gaussian", center=c, scale=s)
        arr = make_transducer_array(16, radius=1.0)
        errs = {}
        for n in (8, 16, 32):
            g = centered_grid(n, 3)
            kern = _kernel(g, gaussian_column(g, s, c))
            radii = default_radii(arr, g, 64)
            exact = spherical_mean_exact(phantom, arr.positions, radii)
            errs[n] = rel_l2(measure_spherical_pulse(kern, arr, radii).values[..., 0], exact)
        assert errs[8] <= 0.083
        assert errs[16] <= 0.0215
        assert errs[32] <= 0.0055
        assert np.log2(errs[8] / errs[16]) >= 1.8
        assert np.log2(errs[16] / errs[32]) >= 1.8

    def test_chunks_count_gathered_values(self, rng, monkeypatch):
        # 128 electrodes: each gather holds at most 2 M values (points x
        # electrodes) although the transducer needs 4.8 M in all
        g = centered_grid(16, 3)
        kern = _kernel(g, rng.standard_normal((128, g.n_pixels)))
        z = np.array([2.0, 0.0, 0.0])
        one = TransducerArray(positions=z[None, :],
                              weights=np.array([16.0 * np.pi]), radius=2.0)
        radii = default_radii(one, g, 200)
        gathered = []

        def counting(grid, rows, u):
            gathered.append(u.shape[1] * rows.shape[1])
            return _interp(grid, rows, u)

        monkeypatch.setattr(synfocus.wavegen, "_interp", counting)
        data = measure_spherical_pulse(kern, one, radii)
        assert sum(gathered) > 2_000_000
        assert max(gathered) <= 2_000_000
        # chunks hold whole spheres, so each column is measured as alone
        alone = measure_spherical_pulse(_kernel(g, kern.values[5]), one, radii)
        assert np.array_equal(data.values[..., 5], alone.values[..., 0])

    def test_radius_validation(self):
        g = centered_grid(8, 3)
        arr = make_transducer_array(4, radius=2.0)
        with pytest.raises(ValueError):
            measure_spherical_pulse(_kernel(g, np.ones(g.n_pixels)), arr,
                                    np.array([-0.5, 1.0]))

    def test_radii_reach_the_window_end_and_no_further(self):
        # default_radii owns the window (0, R + domain diameter]: its last
        # radius is measured, 1e-9 past it is refused
        g = centered_grid(8, 3)
        kern = _kernel(g, np.ones(g.n_pixels))
        arr = make_transducer_array(4, radius=2.0)
        radii = default_radii(arr, g, 12)
        assert radii[-1] == pytest.approx(2.0 + g.diameter, rel=1e-15)
        assert measure_spherical_pulse(kern, arr, radii).radii[-1] == radii[-1]
        with pytest.raises(ValueError, match="R \\+ domain diameter"):
            measure_spherical_pulse(kern, arr, radii * (1.0 + 1e-9))

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

    # the volumetric measures are 3-d; dim stays a parameter to keep the
    # case ids
    @pytest.mark.parametrize("dim", [3])
    def test_dropped_points_lie_outside_the_support(self, dim):
        rng = np.random.default_rng(40 + dim)
        g = Grid(origin=(-0.4, 0.1, -0.3), spacing=(0.1, 0.08, 0.12), counts=(9, 12, 7))
        lo, hi = g.origin - g.spacing, g.origin + g.counts * g.spacing
        c, rho = 0.5 * (lo + hi), 0.5 * float(np.linalg.norm(hi - lo))
        dirs = rng.standard_normal((6, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pole = np.eye(dim)[-1]
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
                    full = z + t * _unit_lattice(n) @ frame
                    kept = _cap(n, t, dist, rho)
                    assert np.array_equal(kept, _reference_cap(n, t, dist, rho))
                    dropped = np.setdiff1d(np.arange(n), kept)
                    reach = np.all((full[dropped] > lo) & (full[dropped] < hi), axis=1)
                    assert not np.any(reach)
                    pts = z + t * _unit_lattice(n, kept.size) @ frame
                    assert np.max(np.abs(pts - full[kept])) <= 1e-12
                    kept_total[name][0] += kept.size
                    kept_total[name][1] += n
        assert kept_total["center"][0] == kept_total["center"][1]
        assert kept_total["outside"][0] < 0.5 * kept_total["outside"][1]

    @pytest.mark.parametrize("dim", [3])
    def test_sizes_of_many_spheres_match_the_per_sphere_reference(self, dim):
        # one _cap_sizes call over many radii and point counts, with caps
        # wider than the sphere, one-index caps that miss the box, and D = 0
        rng = np.random.default_rng(50 + dim)
        rho = 0.7
        t = np.concatenate([rng.uniform(1e-3, 3.0, 400), [1e-6, 1e-9]])
        n = rng.integers(8, 20000, t.size)
        for dist in (0.0, 0.3 * rho, rho, 2.5 * rho):
            sizes = _cap_sizes(n, t, dist, rho)
            for nk, tk, size in zip(n.tolist(), t.tolist(), sizes.tolist()):
                assert size == _reference_cap(nk, tk, dist, rho).size


    @pytest.mark.parametrize("dim", [3])
    def test_measure_equals_full_turned_lattice(self, dim, rng):
        # the full turned lattice at the documented point count and weight
        # measure / n; the points the cap leaves out add exact zeros
        half = 0.5
        g = Grid(origin=(0.4 + half / 8,) + (-half + half / 8,) * (dim - 1),
                 spacing=(half / 4,) * dim, counts=(8,) * dim)
        kern = _kernel(g, rng.standard_normal((2, g.n_pixels)))
        c = _support_center(g)
        R = float(np.linalg.norm(c))
        base = make_transducer_array(6, radius=R)
        pos = np.array(base.positions)
        pos[0] = c  # D = 0; the others lie inside or outside the bounding sphere
        arr = TransducerArray(positions=pos, weights=base.weights, radius=R)
        radii = np.linspace(0.1, 2.2, 12)
        data = measure_spherical_pulse(kern, arr, radii)
        expect = np.zeros_like(data.values)
        for i, z in enumerate(arr.positions):
            frame, _ = _cap_frame(z, c)
            for k, t in enumerate(radii):
                pts, weight = _turned_sphere(g, z, t, frame)
                u = ((pts - g.origin) / g.spacing).T
                expect[i, k] = weight * np.sum(_interp(g, _padded_rows(g, kern.values), u), axis=0)
        assert np.max(np.abs(data.values - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("dim", [3])
    def test_off_centre_aperture_equals_per_sphere_caps(self, dim, rng):
        # the grid is shifted off the aperture centre, so the transducers
        # see different distances D to the support centre and different
        # cap sizes at one radius; each sphere's cap must still be its own
        g = Grid(origin=(0.1, -0.2, 0.05), spacing=(0.1, 0.08, 0.12), counts=(7, 6, 5))
        kern = _kernel(g, rng.standard_normal((2, g.n_pixels)))
        lo, hi = g.origin - g.spacing, g.origin + g.counts * g.spacing
        c, rho = 0.5 * (lo + hi), 0.5 * float(np.linalg.norm(hi - lo))
        # on the aperture |z| = R: one transducer at D = 0.2 rho (full
        # lattices at small radii), one at D = 1.5 rho (caps at the same
        # radii), and six spread around
        u, dc = c / np.linalg.norm(c), float(np.linalg.norm(c))
        R = dc + 0.2 * rho
        cos = (R * R + dc * dc - (1.5 * rho) ** 2) / (2.0 * R * dc)
        v = np.zeros(dim)
        v[:2] = (-u[1], u[0])
        v /= np.linalg.norm(v)
        base = make_transducer_array(6, radius=R)
        pos = np.vstack([R * u, R * (cos * u + np.sqrt(1.0 - cos * cos) * v),
                         base.positions])
        arr = TransducerArray(positions=pos, radius=R,
                              weights=np.full(len(pos), base.weights.sum() / len(pos)))
        radii = np.linspace(0.05, 1.0, 20) * (R + g.diameter)
        data = measure_spherical_pulse(kern, arr, radii)
        expect = np.zeros_like(data.values)
        sizes = np.zeros(data.values.shape[:2], dtype=int)
        for i, z in enumerate(arr.positions):
            frame, dist = _cap_frame(z, c)
            for k, t in enumerate(radii):
                n, weight = _sphere_rule(g, t)
                cap = _reference_cap(n, t, dist, rho)
                pts = z + t * _unit_lattice(n, cap.size) @ frame
                u = ((pts - g.origin) / g.spacing).T
                expect[i, k] = weight * np.sum(_interp(g, _padded_rows(g, kern.values), u), axis=0)
                sizes[i, k] = cap.size - n   # 0 for the full lattice
        # the case one lattice per radius must serve: one transducer takes
        # the full lattice at a radius where another takes a strict prefix
        both = (sizes[0] == 0) & (sizes[1] < 0) & (data.values[1, :, 0] != 0)
        assert np.any(both)
        assert np.max(np.abs(data.values - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_one_lattice_per_radius_and_cap_size(self, monkeypatch):
        # on a centred aperture every transducer sees the same D, so each
        # radius has one cap size and one lattice serves all transducers
        g = centered_grid(8, 3)
        kern = _kernel(g, gaussian_column(g, s=0.15))
        arr = make_transducer_array(24, radius=1.0)
        radii = default_radii(arr, g, 30)
        calls = []

        def counting(n, size=None):
            calls.append(n)
            return _unit_lattice(n, size)

        monkeypatch.setattr(synfocus.wavegen, "_unit_lattice", counting)
        measure_spherical_pulse(kern, arr, radii)
        assert 0 < len(calls) <= radii.size

    def test_off_centre_aperture_builds_each_input_once(self, rng, monkeypatch):
        # off centre, one radius has many cap sizes across the transducers;
        # still one lattice per radius that any sphere hits, and one padded
        # copy of the kernel rows per call
        g = Grid(origin=(0.1, -0.2, 0.05), spacing=(0.05, 0.04, 0.06), counts=(14, 12, 10))
        kern = _kernel(g, rng.standard_normal((3, g.n_pixels)))
        arr = make_transducer_array(64, radius=1.5)
        radii = default_radii(arr, g, 64)
        lo, hi = g.origin - g.spacing, g.origin + g.counts * g.spacing
        z = arr.positions
        d_min = np.linalg.norm(z - np.clip(z, lo, hi), axis=1)
        d_max = np.linalg.norm(np.maximum(np.abs(z - lo), np.abs(z - hi)), axis=1)
        hit = np.any((radii >= d_min[:, None]) & (radii <= d_max[:, None]), axis=0)
        calls = count_calls(monkeypatch, synfocus.wavegen, ("_unit_lattice", "_padded_rows"))
        padded = count_calls(monkeypatch, synfocus.core, ("_padded_rows",))
        measure_spherical_pulse(kern, arr, radii)
        assert 0 < calls["_unit_lattice"] <= np.count_nonzero(hit)
        assert calls["_padded_rows"] + padded["_padded_rows"] == 1


def _green(grid, positions, freqs):
    """exp(i lam r) / (4 pi r) * pixel_measure by direct exponentials, shape
    (n_transducers, n_freqs, n_pixels): the reference for the measure's
    phase recurrences."""
    r = np.linalg.norm(grid.centers()[None, :, :] - positions[:, None, :], axis=2)
    return (np.exp(1j * freqs[None, :, None] * r[:, None, :])
            / (4.0 * np.pi * r[:, None, :]) * grid.pixel_measure)


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
        expect = _green(g, arr.positions, freqs) @ cols.T
        assert np.max(np.abs(data.values - expect)) <= 1e-12 * np.max(np.abs(expect))

    # the volumetric measures are 3-d; dim stays a parameter to keep the
    # case ids
    @pytest.mark.parametrize("dim", [3])
    @pytest.mark.parametrize("n_f, n_el", [
        pytest.param(n_f, n_el, id=str(n_f) if n_el == 2 else f"{n_f}-{n_el}el")
        for n_el in (2, 1, 3)
        for n_f in (1, 2, 7, 16, 17, 500, "default3", "default7", "default64")])
    def test_split_against_direct_exponentials(self, dim, n_f, n_el, rng):
        # B = ceil(sqrt(n_f)) rows of step powers times Q = ceil(n_f / B)
        # rows of step^B powers: B * Q > n_f at 7, 17 and 500, prime counts
        # 2, 7 and 17, squares 1 and 16.  These lattices start away from
        # their spacing and take two exponentials; default_frequencies on
        # 16^3 starts at it (at n = 3 and 7 one ulp off the mean spacing,
        # at 64 bitwise), where the step doubles as exp(i lam_0 r).  Each
        # electrode has its own Q rows of V; the CLI's kernel has one
        g = centered_grid(6, dim)
        cols = rng.standard_normal((n_el, g.n_pixels))
        arr = make_transducer_array(5, radius=2.0)
        if isinstance(n_f, str):
            # 16^3 holds 55 default frequencies: 64 is cut to them, with a warning
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                freqs = default_frequencies(centered_grid(16, 3), int(n_f[len("default"):]))
            assert len(caught) == (n_f == "default64")
            offset = (freqs[0] - _positive_spacing(freqs, "frequencies")) / np.spacing(freqs[0])
            assert offset == (0.0 if n_f == "default64" else -1.0)
        else:
            freqs = np.linspace(37.3, 97.3, n_f)
        data = measure_monochromatic(_kernel(g, cols), arr, freqs)
        expect = _green(g, arr.positions, freqs) @ cols.T
        assert np.max(np.abs(data.values - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_pixel_blocks_stay_within_budget(self, rng):
        # 400 frequencies and 16 electrodes on 24^3: the rows of all 13824
        # pixels exceed the 4e6 complex values, so the sums run over two
        # pixel blocks
        g = centered_grid(24, 3)
        cols = rng.standard_normal((16, g.n_pixels))
        kern = _kernel(g, cols)
        arr = make_transducer_array(4, radius=2.0)
        freqs = np.linspace(37.3, 97.3, 400)
        tracemalloc.start()
        try:
            data = measure_monochromatic(kern, arr, freqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6 * 16 + data.values.nbytes
        expect = np.concatenate(
            [_green(g, arr.positions, freqs[m:m + 50]) @ cols.T for m in range(0, 400, 50)],
            axis=1)
        assert np.max(np.abs(data.values - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("first", [np.nan, np.inf, -1.0])
    def test_bad_frequencies_rejected_before_the_sums(self, first, monkeypatch):
        def no_sums(*args):
            raise AssertionError("the Green's sums ran")

        monkeypatch.setattr(synfocus.wavegen, "_green_sums", no_sums)
        g = centered_grid(6, 3)
        arr = make_transducer_array(5, radius=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="frequencies"):
                measure_monochromatic(_kernel(g, np.ones(g.n_pixels)), arr,
                                      first + np.arange(3.0))

    def test_transducer_inside_support_rejected(self):
        from synfocus.core import TransducerArray
        g = centered_grid(8, 3)
        r = 0.1
        inside = TransducerArray(positions=np.array([[r, 0.0, 0.0]]),
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
        pulse = measure_spherical_pulse(kern, arr, t)
        for i in range(arr.n):
            gt = pulse.values[i, :, 0]
            for m, lam in enumerate(freqs):
                red = np.trapezoid(gt * np.exp(1j * lam * t) / (4 * np.pi * t), t)
                assert abs(red - mono.values[i, m, 0]) <= 0.02 * abs(mono.values[i, m, 0])


    def test_gaussian_against_closed_form(self):
        # W(z, lam) = int e^{i lam t} / (4 pi t) M(z, t) dt with M the
        # closed-form spherical integral, by the trapezoid rule over t within
        # 12 scales of the centre (4e3 and 4e5 nodes agree to 1e-17).  The
        # pixel sum of a smooth, decaying column converges faster than any
        # power: measured 5.08e-2, 3.59e-8 and 8.41e-10 at 8^3, 16^3 and
        # 32^3 on the centred unit cube; the bounds sit 15% above the last
        # two.  s = 0.07 keeps the box edge 6 scales from the centre (the
        # CLI's 0.12 truncates the column at 3e-4).
        c, s = np.array([0.08, -0.05, 0.03]), 0.07
        phantom = AnalyticPhantom(kind="gaussian", center=c, scale=s)
        arr = make_transducer_array(16, radius=1.0)
        freqs = np.array([4.0, 12.0, 20.0])
        exact = np.empty((arr.n, freqs.size), dtype=complex)
        for i, z in enumerate(arr.positions):
            d = np.linalg.norm(z - c)
            t = np.linspace(d - 12.0 * s, d + 12.0 * s, 20001)
            pulse = spherical_mean_exact(phantom, z, t) / (4.0 * np.pi * t)
            exact[i] = np.trapezoid(pulse * np.exp(1j * freqs[:, None] * t), t, axis=1)
        errs = {}
        for n in (16, 32):
            g = centered_grid(n, 3)
            data = measure_monochromatic(_kernel(g, gaussian_column(g, s, c)), arr, freqs)
            errs[n] = rel_l2(data.values[..., 0], exact)
        assert errs[16] <= 4.1e-8
        assert errs[32] <= 9.7e-10


class TestDefaultSampling:
    """The default sampling rules that wavegen owns for the CLI."""

    @pytest.mark.parametrize("grid", [
        centered_grid(8, 2), centered_grid(33, 2),
        Grid(origin=(-0.4, 0.1), spacing=(0.1, 0.08), counts=(9, 12)),
    ], ids=["8", "33", "off-centre"])
    def test_offsets_quarter_spacing_symmetric_and_covering(self, grid):
        offsets = default_offsets(grid)
        rho = grid.circumradius
        assert np.max(np.diff(offsets)) <= float(np.min(grid.spacing)) / 4
        assert np.max(np.abs(offsets + offsets[::-1])) <= 4 * np.spacing(rho)
        assert -offsets[0] >= rho and offsets[-1] >= rho
        _check_offsets_cover(offsets, grid)

    def test_frequency_cut_warns_with_both_counts(self):
        g = centered_grid(16, 3)  # floor(2 * diameter / dx) = 55
        with pytest.warns(RuntimeWarning, match="measuring 55 of the 64 requested"):
            cut = default_frequencies(g, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full, some = default_frequencies(g), default_frequencies(g, 55)
            assert default_frequencies(g, 7).size == 7
        assert np.array_equal(cut, full) and np.array_equal(cut, some)


class TestAxisValidation:
    @pytest.mark.parametrize("name", ["frequencies", "radii", "angles", "offsets"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_uniform_spacing_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            _uniform_spacing(np.array([0.0, bad, 2.0]), name)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            _uniform_spacing(np.array([bad]), name)

    @pytest.mark.parametrize("axis", ["angles", "offsets", "radii", "frequencies"])
    def test_empty_axis_rejected_by_name(self, axis):
        # an empty angle axis used to be accepted (and the FBP divided by
        # zero), empty offsets failed inside numpy, empty radii with IndexError
        arr = make_transducer_array(4, radius=1.0)
        empty = np.empty(0)
        build = {
            "angles": lambda: Sinogram(angles=empty, offsets=np.linspace(-1.0, 1.0, 5),
                                       values=np.zeros((0, 5, 1))),
            "offsets": lambda: Sinogram(angles=default_angles(8), offsets=empty,
                                        values=np.zeros((8, 0, 1))),
            "radii": lambda: SphericalMeanData(array=arr, radii=empty,
                                               values=np.zeros((arr.n, 0, 1))),
            "frequencies": lambda: MonochromaticData(array=arr, frequencies=empty,
                                                     values=np.zeros((arr.n, 0, 1))),
        }
        with pytest.raises(ValueError, match=f"{axis} must not be empty"):
            build[axis]()

    @pytest.mark.parametrize("cls, lattice, dtype", [(SphericalMeanData, "radii", float),
                                                     (MonochromaticData, "frequencies", complex)])
    def test_aperture_containers_share_one_rule(self, cls, lattice, dtype):
        # frozen lattice and values of the family's dtype, a positive
        # uniform lattice, values (n_transducers, lattice size, n_electrodes)
        arr = make_transducer_array(4, radius=1.0)
        data = cls(arr, [0.5, 1.0, 1.5], np.zeros((arr.n, 3, 2)))
        axis = getattr(data, lattice)
        assert axis.dtype == float and data.values.dtype == dtype
        assert not axis.flags.writeable and not data.values.flags.writeable
        with pytest.raises(ValueError, match=f"{lattice} must be positive"):
            cls(arr, [0.0, 0.5, 1.0], np.zeros((arr.n, 3, 2)))
        with pytest.raises(ValueError, match=f"{lattice} must be uniformly spaced"):
            cls(arr, [0.5, 1.0, 2.0], np.zeros((arr.n, 3, 2)))
        for shape in ((arr.n + 1, 3, 2), (arr.n, 2, 2)):
            with pytest.raises(ValueError, match=rf"\(n_transducers, n_{lattice}, n_electrodes\)"):
                cls(arr, [0.5, 1.0, 1.5], np.zeros(shape))

    @pytest.mark.parametrize("case", ["empty offsets", "angle at pi", "asymmetric offsets",
                                      "nan radius", "uneven radii"])
    def test_measures_check_axes_before_work(self, case, monkeypatch):
        # the axis is named before any interpolation runs, and before the
        # line integrals gather the padded kernel rows (the angle range and
        # the offsets' symmetry used to be checked only by Sinogram, after
        # the whole operator was built and applied)
        def no_interp(*args):
            raise AssertionError("the measure interpolated")

        monkeypatch.setattr(synfocus.wavegen, "_interp", no_interp)
        monkeypatch.setattr(synfocus.wavegen, "_stencil", no_interp)
        monkeypatch.setattr(synfocus.wavegen, "_padded_rows", no_interp)
        g2, g3 = centered_grid(8, 2), centered_grid(8, 3)
        arr = make_transducer_array(4, radius=2.0)
        run, axis = {
            "empty offsets": (lambda: measure_line_integrals(
                _kernel(g2, np.ones(g2.n_pixels)), default_angles(4), np.empty(0)),
                "offsets must not be empty"),
            "angle at pi": (lambda: measure_line_integrals(
                _kernel(g2, np.ones(g2.n_pixels)), np.pi * np.arange(1, 5) / 4,
                np.linspace(-1.0, 1.0, 9)),
                "angles must lie in"),
            "asymmetric offsets": (lambda: measure_line_integrals(
                _kernel(g2, np.ones(g2.n_pixels)), default_angles(4),
                np.linspace(-1.0, 2.0, 9)),
                "offsets must be symmetric about zero"),
            "nan radius": (lambda: measure_spherical_pulse(
                _kernel(g3, np.ones(g3.n_pixels)), arr, np.array([0.5, np.nan, 1.5])),
                "radii must be finite"),
            "uneven radii": (lambda: measure_spherical_pulse(
                _kernel(g3, np.ones(g3.n_pixels)), arr, np.array([0.5, 1.0, 2.0])),
                "radii must be uniformly spaced"),
        }[case]
        with pytest.raises(ValueError, match=axis):
            run()

    def test_single_non_finite_angle_rejected(self):
        with pytest.raises(ValueError, match="angles must be finite"):
            Sinogram(angles=np.array([np.nan]), offsets=np.linspace(-1.0, 1.0, 5),
                     values=np.zeros((1, 5, 1)))


@pytest.mark.parametrize("measure", ["spherical_pulse", "monochromatic"])
def test_volumetric_measures_reject_2d_grid(measure):
    g = centered_grid(8, 2)
    kern = _kernel(g, np.ones(g.n_pixels))
    arr = make_transducer_array(4, radius=2.0)
    with pytest.raises(ValueError, match=f"measure_{measure} needs a 3d kernel grid"):
        if measure == "spherical_pulse":
            measure_spherical_pulse(kern, arr, np.array([0.5, 1.0]))
        else:
            measure_monochromatic(kern, arr, np.array([3.0, 6.0]))


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

    def test_observed_order_against_closed_form(self):
        # an off-centre gaussian (s = 0.1) on the centred unit square against
        # its closed-form line integrals at 7 angles and 21 offsets.
        # Measured max errors 2.05e-3 at 32^2 and 5.35e-4 at 64^2 (order
        # 1.94; relative L2 6.94e-3 and 1.77e-3); the bounds sit 10% above
        # them, and bilinear interpolation gives order 2
        c, s = np.array([0.08, -0.05]), 0.1
        phantom = AnalyticPhantom(kind="gaussian", center=c, scale=s)
        angles = np.linspace(0.0, np.pi, 7, endpoint=False) + 0.1
        offsets = np.linspace(-0.75, 0.75, 21)
        exact = np.array([[line_integral(phantom, a, o) for o in offsets] for a in angles])
        errs = {}
        for n in (32, 64):
            g = centered_grid(n, 2)
            sino = measure_line_integrals(_kernel(g, gaussian_column(g, s, c)), angles, offsets)
            errs[n] = np.max(np.abs(sino.values[..., 0] - exact))
        assert errs[32] <= 2.3e-3
        assert errs[64] <= 5.9e-4
        assert np.log2(errs[32] / errs[64]) >= 1.8

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

    @pytest.mark.parametrize("n_el", [1, 64])
    def test_sparse_operator_equals_gather(self, n_el, rng):
        # at angles 0 and pi/2 the offsets (odd multiples of half a
        # spacing) put whole lines on pixel centres, where the stencil
        # has zero-weight corners; the outer offsets miss the grid
        g = centered_grid(16, 2)
        kern = _kernel(g, rng.standard_normal((n_el, g.n_pixels)))
        offsets = np.linspace(-33 / 32, 33 / 32, 34)
        tau, dtau = _tau_lattice(g)
        for angles in (np.array([0.0, np.pi / 2]), np.array([1.1])):
            sino = measure_line_integrals(kern, angles, offsets)
            expect = np.empty_like(sino.values)
            for a, ang in enumerate(angles):
                w = np.array([np.cos(ang), np.sin(ang)])
                d = np.array([-np.sin(ang), np.cos(ang)])
                pts = offsets[:, None, None] * w + tau[None, :, None] * d
                cols = _interp(g, _padded_rows(g, kern.values), ((pts.reshape(-1, 2) - g.origin) / g.spacing).T)
                expect[a] = dtau * cols.reshape(offsets.size, tau.size, n_el).sum(axis=1)
            assert np.all(expect[:, [0, -1]] == 0.0)
            assert (np.max(np.abs(sino.values - expect))
                    <= 1e-13 * np.max(np.abs(expect)))

    def test_uncovering_offsets_rejected(self):
        g = centered_grid(16, 2)
        with pytest.raises(ValueError, match="circumscribed"):
            measure_line_integrals(_kernel(g, np.zeros(256)),
                                   np.array([0.0]),
                                   np.linspace(-0.5, 0.5, 5))


class TestAddNoise:
    def _data(self, rng, n=16, n_el=1, n_trans=8, n_radii=100):
        g = centered_grid(n, 3)
        kern = _kernel(g, rng.standard_normal((n_el, g.n_pixels)))
        arr = make_transducer_array(n_trans, radius=2.0)
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

    @pytest.mark.parametrize("level", [np.nan, np.inf, -0.01])
    def test_bad_level_rejected_by_name(self, level, rng):
        with pytest.raises(ValueError, match="noise level must be finite and >= 0"):
            add_noise(self._data(rng), level, seed=7)


class TestHandover:
    """The measures and add_noise hand the arrays they make to their
    containers (core._Handover) instead of having them copied: the bits
    stay those of the copying code, no output shares memory with its
    input, and a call holds about one copy of its values."""

    @staticmethod
    def _measured(family, rng):
        """(kernel, data) of ``family`` from a small random 2-electrode kernel."""
        g = centered_grid(8, 3 if family in ("spherical", "monochromatic") else 2)
        kern = _kernel(g, rng.standard_normal((2, g.n_pixels)))
        arr = make_transducer_array(6, radius=2.0)
        return kern, {
            "spherical": lambda: measure_spherical_pulse(kern, arr, np.linspace(0.5, 3.0, 20)),
            "monochromatic": lambda: measure_monochromatic(kern, arr, default_frequencies(g, 8)),
            "plane": lambda: measure_plane_waves(kern),
            "xray": lambda: measure_line_integrals(kern, default_angles(12), default_offsets(g)),
        }[family]()

    @staticmethod
    def _noisy_by_sum(data, level, seed):
        """add_noise's values by the formula v + noise of the copying code."""
        rng = np.random.default_rng(seed)
        v = data.values
        rms = float(np.sqrt(np.mean(np.abs(v) ** 2)))
        if isinstance(data, FourierData):
            g = data.grid
            eta = measure_plane_waves(_kernel(g, rng.standard_normal((v.shape[1], g.n_pixels))))
            return v + level * rms / (g.pixel_measure * np.sqrt(g.n_pixels)) * eta.values
        if np.iscomplexobj(v):
            noise = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
            return v + level * rms * noise / np.sqrt(2.0)
        return v + level * rms * rng.standard_normal(v.shape)

    @pytest.mark.parametrize("family", ["spherical", "monochromatic", "plane", "xray"])
    def test_noise_bits_and_no_shared_memory(self, family, rng):
        kern, data = self._measured(family, rng)
        assert not np.shares_memory(data.values, kern.values)
        clean = data.values.copy()
        noisy = add_noise(data, 0.05, seed=11)
        assert np.array_equal(noisy.values, self._noisy_by_sum(data, 0.05, 11))
        assert np.array_equal(data.values, clean)
        assert not np.shares_memory(noisy.values, data.values)
        assert not noisy.values.flags.writeable

    @staticmethod
    def _traced(call):
        """call()'s result and the peak of the memory it traced."""
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # an 18 MB sinogram (16^2 pixels, 180 angles, 99 offsets, 128
    # electrodes); traced peaks above what is already held, in units of
    # its nbytes, measured 1.49 for the measure (the values and one block
    # of angles of P) and 1.13 for add_noise (the noisy values and the
    # finite check's mask); copying into the containers read 2.35 and 2.13
    _GRID, _ANGLES, _N_EL = centered_grid(16, 2), default_angles(180), 128

    def test_line_integrals_hold_one_copy(self):
        g = self._GRID
        kern = _kernel(g, np.random.default_rng(0).standard_normal((self._N_EL, g.n_pixels)))
        sino, peak = self._traced(
            lambda: measure_line_integrals(kern, self._ANGLES, default_offsets(g)))
        assert sino.values.nbytes >= 16e6
        assert peak <= 1.7 * sino.values.nbytes

    def test_add_noise_holds_one_copy(self):
        offsets = default_offsets(self._GRID)
        shape = (self._ANGLES.size, offsets.size, self._N_EL)
        sino = Sinogram(self._ANGLES, offsets, np.random.default_rng(0).standard_normal(shape))
        _, peak = self._traced(lambda: add_noise(sino, 0.05, seed=3))
        assert sino.values.nbytes >= 16e6
        assert peak <= 1.25 * sino.values.nbytes


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


def _dot_gap(ak, y, k, aty):
    """|<A k, y> - <k, A^H y>| relative to |A k| |y|."""
    gap = abs(np.vdot(y, ak) - np.vdot(aty, k))
    return gap / (np.linalg.norm(ak) * np.linalg.norm(y))


@pytest.mark.invariant
class TestTransposes:
    """<A k, y> = <k, A^H y> for each family, with A^H built here from the
    family's definition; two electrodes (three for xray) at once."""

    def test_xray(self, rng):
        # the sinogram of the identity kernel is the sampling operator P
        g = Grid(origin=(-0.4, 0.1), spacing=(0.1, 0.08), counts=(9, 12))
        k = rng.standard_normal((3, g.n_pixels))
        angles, offsets = default_angles(7), np.linspace(-g.circumradius, g.circumradius, 15)
        ak = measure_line_integrals(_kernel(g, k), angles, offsets).values
        P = measure_line_integrals(_kernel(g, np.eye(g.n_pixels)), angles, offsets).values
        y = rng.standard_normal(ak.shape)
        aty = P.reshape(-1, g.n_pixels).T @ y.reshape(-1, 3)
        assert _dot_gap(ak, y, k.T, aty) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3])
    def test_plane(self, dim, rng):
        g = Grid(origin=(-0.3, 0.2, 0.1)[:dim], spacing=(0.1, 0.15, 0.2)[:dim],
                 counts=(5, 6, 3)[:dim])
        k = rng.standard_normal((2, g.n_pixels))
        ak = measure_plane_waves(_kernel(g, k)).values
        y = rng.standard_normal(ak.shape) + 1j * rng.standard_normal(ak.shape)
        # the DFT as a dense matrix: pixel_measure * exp(i k_m . x_p)
        dft = g.pixel_measure * np.exp(1j * conjugate_lattice(g).centers() @ g.centers().T)
        aty = dft.conj().T @ y
        assert _dot_gap(ak, y, k.T, aty) <= 1e-13

    # the volumetric measures are 3-d; dim stays a parameter to keep the
    # case ids
    @pytest.mark.parametrize("dim", [3])
    def test_spherical(self, dim, rng):
        # the transpose spreads each weighted sample back onto its stencil;
        # the full turned lattice adds zeros where the measured cap stops
        g = Grid(origin=(0.1, -0.2, 0.05), spacing=(0.1, 0.08, 0.12), counts=(7, 6, 5))
        arr = make_transducer_array(5, radius=1.2)
        radii = default_radii(arr, g, 10)
        k = rng.standard_normal((2, g.n_pixels))
        ak = measure_spherical_pulse(_kernel(g, k), arr, radii).values
        y = rng.standard_normal(ak.shape)
        aty = np.zeros_like(k)
        padded, inner = tuple(g.counts[::-1] + 2), (slice(1, -1),) * dim
        for i, z in enumerate(arr.positions):
            frame, _ = _cap_frame(z, _support_center(g))
            for r, t in enumerate(radii):
                pts, weight = _turned_sphere(g, z, t, frame)
                _, index, w = _stencil(g, ((pts - g.origin) / g.spacing).T)
                # binned over the padded grid, the zero layer cropped off
                spread = np.bincount(index.ravel(), weights=w.ravel(),
                                     minlength=np.prod(padded)).reshape(padded)[inner].ravel()
                aty += weight * y[i, r][:, None] * spread[None, :]
        assert _dot_gap(ak, y, k, aty) <= 1e-13

    def test_monochromatic(self, rng):
        g = centered_grid(6, 3)
        arr = make_transducer_array(5, radius=2.0)
        freqs = np.array([2.0, 3.5, 5.0])
        k = rng.standard_normal((2, g.n_pixels))
        ak = measure_monochromatic(_kernel(g, k), arr, freqs).values
        y = rng.standard_normal(ak.shape) + 1j * rng.standard_normal(ak.shape)
        aty = np.einsum("imp,imj->jp", _green(g, arr.positions, freqs).conj(), y)
        assert _dot_gap(ak, y, k, aty) <= 1e-13
