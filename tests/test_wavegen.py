import tracemalloc
import warnings

import numpy as np
import pytest

import synfocus.wavegen
from synfocus.core import (
    Grid,
    KernelMatrix,
    TransducerArray,
    make_transducer_array,
)
from synfocus.wavegen import (
    FourierData,
    MonochromaticData,
    Sinogram,
    SphericalMeanData,
    _KB_ALPHA,
    _KB_MU2,
    _KB_ORDER,
    _KB_VOLUME,
    _blob_coefficients,
    _check_offsets_cover,
    _i_series,
    _kb_blob,
    _kb_shell,
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

from conftest import centered_grid, gaussian_column, rel_l2, stencil_gather
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


def _tau_lattice(grid):
    """The line samples of measure_line_integrals: midpoints of uniform
    steps of at most half a spacing over [-half, half], half = rho + step."""
    step = 0.5 * float(np.min(grid.spacing))
    half = grid.circumradius + step
    n = int(np.ceil(2.0 * half / step))
    dtau = 2.0 * half / n
    return -half + (np.arange(n) + 0.5) * dtau, dtau


def _direct_blob_sum(kernel, array, radii):
    """measure_spherical_pulse without distance bins: each pixel's blob
    integrates over each sphere as (2 pi t / r_p) [B(|t - r_p|) - B(t + r_p)]
    at its own distance r_p from the transducer, 4 pi t^2 b(t) at r_p = 0."""
    g = kernel.grid
    a = 2.0 * float(np.max(g.spacing))
    r = np.linalg.norm(g.centers()[None] - array.positions[:, None], axis=2)[:, None, :]
    t = radii[None, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        shell = 2.0 * np.pi * t / r * (_kb_shell(np.abs(t - r), a) - _kb_shell(t + r, a))
    shell = np.where(r > 0.0, shell, 4.0 * np.pi * t * t * _kb_blob(t, a))
    return shell @ _blob_coefficients(kernel, a).T


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

    @pytest.mark.parametrize("case, bound", [("chain", 1e-5), ("constant", 1e-5), ("centre", 3e-5)])
    def test_bins_match_the_direct_blob_sum(self, case, bound):
        # the binning error alone, at bins of h / 8: measured 5.5e-6 on the
        # synthetic kernel's geometry (transducers outside the grid), 8.6e-6
        # on the constant column's (inside it) and 2.2e-5 with a transducer
        # on a pixel centre, whose bins give the limit 4 pi t^2 b(t) to
        # fourth order; bins of h / 4 read 9.0e-5, 2.6e-4 and 3.0e-4
        if case == "chain":
            g = centered_grid(16, 3)
            kern = _kernel(g, gaussian_column(g, 0.12, (0.08, -0.05, 0.03)))
            arr = make_transducer_array(16, radius=1.0)
            radii = default_radii(arr, g, 64)
        else:
            g = centered_grid(16, 3, half=3.0)
            kern = _kernel(g, np.ones(g.n_pixels) if case == "constant" else gaussian_column(g, 1.0))
            arr = make_transducer_array(6, radius=2.0)
            radii = np.array([0.15, 0.25, 0.35])
        if case == "centre":
            centre = g.centers()[7 + 16 * (9 + 16 * 5)]
            R = float(np.linalg.norm(centre))
            arr = TransducerArray(positions=np.vstack([centre, make_transducer_array(5, R).positions]),
                                  weights=np.full(6, 4.0 * np.pi * R * R / 6), radius=R)
        binned = measure_spherical_pulse(kern, arr, radii).values
        assert rel_l2(binned, _direct_blob_sum(kern, arr, radii)) <= bound

    def test_zero_column(self):
        g = centered_grid(16, 3)
        arr = make_transducer_array(6, radius=2.0)
        data = measure_spherical_pulse(_kernel(g, np.zeros(g.n_pixels)),
                                       arr, np.array([0.5, 1.0]))
        assert np.all(data.values == 0.0)

    def test_gaussian_against_quadrature_oracle_3d(self):
        # off-axis transducer outside the grid's bounding sphere
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
        # 16 transducers, 64 default radii.  The Kaiser-Bessel blobs measure
        # errors 2.97e-2, 2.62e-3, 3.72e-4 (orders 3.50, 2.81).  The bounds
        # sit 10% above the errors of the former multilinear quadrature
        # (7.52e-2, 1.95e-2, 4.95e-3, orders 1.95, 1.98) and stay as they were
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


class TestKaiserBesselBlob:
    """The blob's Bessel series and the constants read from its Fourier
    transform, against scipy and quadrature."""

    def test_series_against_scipy(self):
        from scipy.special import iv

        x = np.linspace(0.0, _KB_ALPHA, 401)[1:]
        for nu in (_KB_ORDER, _KB_ORDER + 1):
            got = (0.5 * x) ** nu * _i_series(nu, 0.25 * x * x)
            assert np.max(np.abs(got / iv(nu, x) - 1.0)) <= 1e-14

    @staticmethod
    def _legendre(lo, hi, n=64):
        """Gauss-Legendre nodes and weights on [lo, hi]."""
        node, weight = np.polynomial.legendre.leggauss(n)
        return lo + 0.5 * (hi - lo) * (node + 1.0), 0.5 * (hi - lo) * weight

    def test_transform_vanishes_at_the_lattice_frequency(self):
        from scipy.optimize import brentq
        from scipy.special import jv

        j = brentq(lambda v: jv(3.5, v), 6.0, 7.5)
        assert _KB_ALPHA == pytest.approx(np.sqrt((4.0 * np.pi) ** 2 - j * j), rel=1e-14)
        # radius a = 2h with h = 1: the radial transform
        # 4 pi int s^2 b(s) sinc(2 omega s) ds at omega = 0 and 1 / h
        a = 2.0
        s, w = self._legendre(0.0, a)
        b = _kb_blob(s, a)
        volume = 4.0 * np.pi * np.sum(w * s ** 2 * b)
        assert volume == pytest.approx(_KB_VOLUME * a ** 3, rel=1e-13)
        mu2 = 4.0 * np.pi * np.sum(w * s ** 4 * b) / (3.0 * volume)
        assert mu2 == pytest.approx(_KB_MU2 * a * a, rel=1e-13)
        assert abs(4.0 * np.pi * np.sum(w * s ** 2 * b * np.sinc(2.0 * s))) <= 1e-12 * volume

    @pytest.mark.parametrize("u", [0.0, 0.3, 1.1, 1.9])
    def test_shell_primitive_against_quadrature(self, u):
        # B(u) = int_u^a s b(s) ds
        a = 2.0
        s, w = self._legendre(u, a)
        assert float(_kb_shell(u, a)) == pytest.approx(np.sum(w * s * _kb_blob(s, a)), rel=1e-13)


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

        monkeypatch.setattr(synfocus.wavegen, "_blob_coefficients", no_interp)
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
                cols = stencil_gather(g, kern.values, ((pts.reshape(-1, 2) - g.origin) / g.spacing).T)
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

    @pytest.mark.parametrize("counts", [(16, 16), (12, 20), (6, 8, 10)])
    def test_forward_dft_makes_an_owned_array_with_the_same_bits(self, counts, rng):
        g = Grid(origin=rng.uniform(-0.6, -0.4, len(counts)), spacing=1.0 / np.array(counts),
                 counts=counts)
        cols = rng.standard_normal((3, g.n_pixels))
        values = synfocus.wavegen._forward_dft(cols, g)
        assert values.flags.c_contiguous and values.flags.owndata
        # the bits of the product (ft * phase) * pixel_measure, taken on
        # the electrode-first layout and transposed
        axes = tuple(range(1, g.dim + 1))
        ft = np.fft.fftshift(np.fft.ifftn(cols.reshape((3,) + counts[::-1]), axes=axes)
                             * g.n_pixels, axes=axes)
        phase = synfocus.wavegen._kgrid_phase(conjugate_lattice(g), g.origin)
        assert np.array_equal(values, (ft * phase * g.pixel_measure).reshape(3, -1).T)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_plane_data_keep_the_transforms_array(self, noise, rng, monkeypatch):
        made = []

        def recording(*args):
            made.append(forward_dft(*args))
            return made[-1]

        forward_dft = synfocus.wavegen._forward_dft
        monkeypatch.setattr(synfocus.wavegen, "_forward_dft", recording)
        g = centered_grid(8, 2)
        data = add_noise(measure_plane_waves(_kernel(g, rng.standard_normal((2, g.n_pixels)))),
                         noise, seed=5)
        assert np.shares_memory(data.values, made[-1])

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
        # A = P W S, written out: S sharpens k to k - (mu2 / 2) Lap_h k with
        # edge-replicated padding and scales by pixel_measure / int(b); W
        # bins c_p / r_p at r_p on nodes n delta, delta = a / 16, with cubic
        # Lagrange weights, node -1 folded onto node 1 with a flipped sign;
        # P is the profile 2 pi t [B(|t - n delta|) - B(t + n delta)], which
        # vanishes at node 0.  Inside the grid, transducer 0 sits on a pixel
        # centre, binned at the limit x -> 0+ of the weights over r, and
        # transducer 1 within delta of it, so its weights fold; outside, no
        # pair comes near the lowest nodes
        g = Grid(origin=(0.1, -0.2, 0.05), spacing=(0.1, 0.08, 0.12), counts=(7, 6, 5))
        a = 2.0 * float(np.max(g.spacing))
        delta = a / 16
        n_px = g.n_pixels
        mu2 = _KB_MU2 * a * a
        S = np.diag(np.full(n_px, 1.0 + mu2 * np.sum(g.spacing ** -2.0)))
        flat = np.arange(n_px).reshape(tuple(g.counts[::-1]))
        for d in range(dim):
            for step in (-1, 1):
                ends = np.clip(np.arange(g.counts[d]) + step, 0, g.counts[d] - 1)
                S[flat.ravel(), np.take(flat, ends, axis=dim - 1 - d).ravel()] -= (
                    0.5 * mu2 / g.spacing[d] ** 2)
        S *= g.pixel_measure / (_KB_VOLUME * a ** 3)

        centre = g.centers()[100]
        R = float(np.linalg.norm(centre))
        near = centre + 0.5 * delta * np.cross(centre / R, (0.0, 0.0, 1.0))
        inside = TransducerArray(
            positions=np.vstack([centre, R * near / np.linalg.norm(near),
                                 make_transducer_array(4, radius=R).positions]),
            weights=np.full(6, 4.0 * np.pi * R * R / 6), radius=R)
        outside = make_transducer_array(5, radius=2.5)
        for arr in (inside, outside):
            radii = default_radii(arr, g, 10)
            k = rng.standard_normal((2, n_px))
            ak = measure_spherical_pulse(_kernel(g, k), arr, radii).values
            y = rng.standard_normal(ak.shape)
            r = np.linalg.norm(g.centers()[None] - arr.positions[:, None], axis=2)
            n_nodes = int(np.max(r) / delta) + 3
            nodes = delta * np.arange(1, n_nodes + 1)[:, None]
            P = 2.0 * np.pi * radii * (_kb_shell(np.abs(radii - nodes), a)
                                       - _kb_shell(radii + nodes, a))
            M = np.zeros((arr.n, radii.size, n_px))
            for i in range(arr.n):
                W = np.zeros((n_nodes + 1, n_px))   # nodes 0 .. n_nodes
                for p in range(n_px):
                    x = r[i, p] / delta
                    base = int(np.floor(x))
                    for node in range(base - 1, base + 3):
                        others = [m for m in range(base - 1, base + 3) if m != node]
                        if x > 0.0:
                            weight = np.prod([(x - m) / (node - m) for m in others]) / r[i, p]
                        elif node == 0:
                            continue   # the profile vanishes there
                        else:   # the limit x -> 0+ of the weight over r
                            weight = (np.prod([(x - m) / (node - m) for m in others if m])
                                      / (node * delta))
                        W[abs(node), p] += np.sign(node) * weight
                M[i] = P.T @ W[1:]
            aty = np.einsum("ikp,ikj->jp", M, y) @ S
            assert _dot_gap(ak, y, k, aty) <= 1e-13
        assert np.count_nonzero(r > 1.0) == r.size   # the outside aperture
        r = np.linalg.norm(g.centers()[None] - inside.positions[:, None], axis=2)
        assert np.count_nonzero(r == 0.0) == 1 and np.count_nonzero(r < delta) == 2

    def test_monochromatic(self, rng):
        g = centered_grid(6, 3)
        arr = make_transducer_array(5, radius=2.0)
        freqs = np.array([2.0, 3.5, 5.0])
        k = rng.standard_normal((2, g.n_pixels))
        ak = measure_monochromatic(_kernel(g, k), arr, freqs).values
        y = rng.standard_normal(ak.shape) + 1j * rng.standard_normal(ak.shape)
        aty = np.einsum("imp,imj->jp", _green(g, arr.positions, freqs).conj(), y)
        assert _dot_gap(ak, y, k, aty) <= 1e-13
