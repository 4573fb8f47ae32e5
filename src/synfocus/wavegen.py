"""Synthetic measurements of the kernel under unfocused wave families.

Each measure_* operation evaluates the boundary-response functional
integral(kernel_column * w) dx for one family of incident waves w:
spherical delta pulses (spherical surface integrals of the kernel),
time-harmonic spherical waves (kernel against the outgoing Green's
function), plane waves (Fourier samples on the conjugate lattice) and
pencil-beam lines (the X-ray transform).  Sound speed is 1 throughout,
so time samples and radii are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .core import Grid, _frozen_array, _interp, _unit_lattice


def _uniform_spacing(x, name):
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return 0.0
    d = np.diff(x)
    if np.any(d <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if np.max(np.abs(d - d[0])) > 1e-9 * abs(d[0]):
        raise ValueError(f"{name} must be uniformly spaced")
    return float((x[-1] - x[0]) / (x.size - 1))   # x[0] + k * mean stays near x[k]


@dataclass(frozen=True)
class SphericalMeanData:
    """Spherical (2d: circular) surface integrals of the kernel columns.

    values[i, k, j]: transducer i, radius k, electrode j.  These are raw
    integrals per Eq.-(3)-style measurements, not normalized averages.
    """

    array: object
    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "radii", _frozen_array(self.radii, ndim=1))
        object.__setattr__(self, "values", _frozen_array(self.values, ndim=3))
        if self.radii[0] <= 0:
            raise ValueError("radii must start above 0")
        _uniform_spacing(self.radii, "radii")
        n_t, n_r, _ = self.values.shape
        if n_t != self.array.n or n_r != self.radii.size:
            raise ValueError("values shape must be (n_transducers, n_radii, n_electrodes)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def axes(self):
        return [("radius", self.radii)]


@dataclass(frozen=True)
class MonochromaticData:
    """Kernel columns integrated against the Green's function
    exp(i lam |x-z|) / (4 pi |x-z|), per transducer and frequency."""

    array: object
    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frequencies", _frozen_array(self.frequencies, ndim=1))
        object.__setattr__(self, "values",
                           _frozen_array(self.values, dtype=complex, ndim=3))
        if self.frequencies.size == 0:
            raise ValueError("empty frequency list")
        if self.frequencies[0] <= 0:
            raise ValueError("frequencies must be positive")
        _uniform_spacing(self.frequencies, "frequencies")
        n_t, n_f, _ = self.values.shape
        if n_t != self.array.n or n_f != self.frequencies.size:
            raise ValueError("values shape must be (n_transducers, n_freqs, n_electrodes)")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("values must be finite")

    def axes(self):
        return [("frequency", self.frequencies)]


@dataclass(frozen=True)
class FourierData:
    """Fourier samples of kernel columns given on ``grid``.

    values[m, j] is the sample of electrode j at wave vector m of
    ``kgrid``, the ascending (fftshifted) lattice conjugate to ``grid``,
    in its x-fastest layout; the phases refer to ``grid.origin``.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_array(self.values, dtype=complex, ndim=2))
        if self.values.shape[0] != self.grid.n_pixels:
            raise ValueError("values rows must match the k-lattice size")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("values must be finite")

    @property
    def kgrid(self):
        return conjugate_lattice(self.grid)

    def axes(self):
        return [(f"k{d}", ax) for d, ax in enumerate(self.kgrid.axes())]


@dataclass(frozen=True)
class Sinogram:
    """Line integrals of 2d kernel columns: values[a, s, j] for normal
    angle a and signed offset s."""

    angles: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", _frozen_array(self.angles, ndim=1))
        object.__setattr__(self, "offsets", _frozen_array(self.offsets, ndim=1))
        object.__setattr__(self, "values", _frozen_array(self.values, ndim=3))
        if np.any(self.angles < 0) or np.any(self.angles >= np.pi):
            raise ValueError("angles must lie in [0, pi)")
        if self.angles.size > 1:
            _uniform_spacing(self.angles, "angles")
        _uniform_spacing(self.offsets, "offsets")
        span = self.offsets + self.offsets[::-1]
        if np.max(np.abs(span)) > 1e-9 * max(abs(self.offsets[0]), abs(self.offsets[-1])):
            raise ValueError("offsets must be symmetric about zero")
        if self.values.shape[:2] != (self.angles.size, self.offsets.size):
            raise ValueError("values shape must be (n_angles, n_offsets, n_electrodes)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def axes(self):
        return [("angle", self.angles), ("offset", self.offsets)]


def default_radii(array, grid, n):
    """n uniform radii spanning (0, R + domain diameter]."""
    tmax = array.radius + grid.diameter
    return tmax * (np.arange(n) + 1.0) / n


def default_frequencies(grid, n=None):
    """Uniform wavenumbers in [dlam, pi/dx] with dlam = pi/(2*diameter)."""
    dlam = np.pi / (2.0 * grid.diameter)
    lam_max = np.pi / float(np.min(grid.spacing))
    n_max = int(np.floor(lam_max / dlam))
    if n is None or n > n_max:
        n = n_max
    return dlam * (np.arange(n) + 1.0)


def default_angles(n):
    return np.pi * np.arange(n) / n


def default_offsets(grid, n):
    """Symmetric uniform offsets covering the grid's circumscribed disk."""
    rho = grid.circumradius
    return np.linspace(-rho, rho, n)


def _cap_frame(z, c):
    """Orthonormal rows turning the unit lattice's pole (3d: +z, 2d: angle
    0) from z toward c, and the distance |c - z|; z = c keeps the lattice."""
    dist = float(np.linalg.norm(c - z))
    if dist == 0.0:
        return np.eye(z.size), dist
    a = (c - z) / dist
    if z.size == 2:
        return np.array([a, [-a[1], a[0]]]), dist
    e1 = np.cross(a, np.eye(3)[np.argmin(np.abs(a))])
    e1 /= np.linalg.norm(e1)
    return np.array([e1, np.cross(a, e1), a]), dist


def _cap_indices(n, dim, t, dist, rho):
    """Indices of the n-point lattice turned by _cap_frame whose points at
    radius t can lie within rho of c (see measure_spherical_pulse), plus one."""
    if dist == 0.0:
        return np.arange(n)
    b = (dist * dist + t * t - rho * rho) / (2.0 * dist * t)
    if dim == 2:
        m = int(n * np.arccos(np.clip(b, -1.0, 1.0)) / (2.0 * np.pi)) + 1
        return np.arange(-m, m + 1) if 2 * m + 1 < n else np.arange(n)
    # Fibonacci heights 1 - (2k + 1) / n fall with k, so the cap is k < k_max
    return np.arange(min(n, max(0, int(np.ceil(0.5 * n * (1.0 - b)))) + 1))


def measure_spherical_pulse(kernel, array, radii, oversample=2):
    """Surface (2d: arc) integrals of each kernel column over the spheres
    |x - z_i| = t_k.

    Uniform angular quadrature with ceil(2 pi t / dx) * oversample points
    per great circle and multilinear interpolation; samples outside the
    grid contribute zero.  Each lattice is turned so that its pole (2d:
    angle 0) points from z_i at the centre c of the support box (half-diagonal
    rho).  By the law of cosines only points with cos(theta) >= (D^2 + t^2 -
    rho^2) / (2 D t), D = |c - z_i|, can reach the box; only that cap (one
    Fibonacci index range; 2d: an arc) is generated.
    """
    grid = kernel.grid
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    tmax = array.radius + grid.diameter
    if np.any(radii > tmax * (1 + 1e-12)):
        raise ValueError("radii must lie within (0, R + domain diameter]")
    if array.dim != grid.dim:
        raise ValueError("transducer dimension must match the kernel grid")
    dx = float(np.min(grid.spacing))
    # per radius: quadrature point count and weight; the points themselves
    # are generated chunk by chunk to keep memory bounded
    m = np.ceil(2.0 * np.pi * radii / dx).astype(np.int64) * oversample
    if grid.dim == 2:
        n_points, meas = np.maximum(m, 8), 2.0 * np.pi * radii
    else:
        n_points = np.maximum(np.ceil(m * m / np.pi).astype(np.int64), 32)
        meas = 4.0 * np.pi * radii * radii
    weights = meas / n_points

    values = np.zeros((array.n, radii.size, kernel.n_electrodes))
    # interpolation support: pixel-center hull padded by one spacing
    box_lo = grid.origin - grid.spacing
    box_hi = grid.origin + grid.counts * grid.spacing
    center = 0.5 * (box_lo + box_hi)
    rho = 0.5 * float(np.linalg.norm(box_hi - box_lo))
    budget = 2_000_000
    for i in range(array.n):
        z = array.positions[i]
        # spheres that miss the support box or enclose it integrate to zero
        d_min = np.linalg.norm(z - np.clip(z, box_lo, box_hi))
        d_max = np.linalg.norm(np.maximum(np.abs(z - box_lo), np.abs(z - box_hi)))
        active = np.nonzero((radii >= d_min) & (radii <= d_max))[0]
        frame, dist = _cap_frame(z, center)
        caps = [_cap_indices(int(n_points[k]), grid.dim, radii[k], dist, rho)
                for k in active]
        begins = np.concatenate([[0], np.cumsum([c.size for c in caps])])
        start = 0
        while start < active.size:
            # greedy chunks of at most budget points (at least one sphere)
            stop = max(start + 1, int(np.searchsorted(
                begins, begins[start] + budget, side="right")) - 1)
            ks = active[start:stop]
            block = np.concatenate(
                [radii[k] * _unit_lattice(int(n_points[k]), grid.dim, caps[start + j])
                 for j, k in enumerate(ks)], axis=0)
            offsets = begins[start:stop] - begins[start]
            cols = _interp(grid, kernel.values, z[None, :] + block @ frame)
            sums = np.add.reduceat(cols, offsets, axis=0)
            values[i, ks, :] = weights[ks, None] * sums
            start = stop
    return SphericalMeanData(array=array, radii=radii, values=values)


def measure_monochromatic(kernel, array, frequencies):
    """Kernel columns against the outgoing Green's function:
    values[i, m, j] = sum_px kernel(j, px) exp(i lam_m r) / (4 pi r) * pixel_area
    with r = |x_px - z_i|.  Transducers must sit strictly outside the
    interior grid's domain box."""
    grid = kernel.grid
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size == 0:
        raise ValueError("need at least one frequency")
    if array.dim != grid.dim:
        raise ValueError("transducer dimension must match the kernel grid")
    lo, hi = grid.bounds()
    outside = np.any((array.positions < lo[None, :]) | (array.positions > hi[None, :]),
                     axis=1)
    if not np.all(outside):
        raise ValueError("singular kernel: transducers must lie strictly outside "
                         "the interior grid support")
    dlam = _uniform_spacing(freqs, "frequencies")
    centers = grid.centers()
    values = np.empty((array.n, freqs.size, kernel.n_electrodes), dtype=complex)
    block = max(1, int(4e6 // max(centers.shape[0], 1)))
    green = np.empty((min(block, freqs.size), centers.shape[0]), dtype=complex)
    for i in range(array.n):
        r = np.linalg.norm(centers - array.positions[i][None, :], axis=1)
        # exp(i lam_m r) on the uniform lattice: one complex multiply per step
        phase = np.exp(1j * freqs[0] * r) * (grid.pixel_measure / (4.0 * np.pi * r))
        step = np.exp(1j * dlam * r)
        for m0 in range(0, freqs.size, block):
            n_m = min(block, freqs.size - m0)
            for m in range(n_m):
                green[m] = phase
                phase *= step
            values[i, m0:m0 + n_m, :] = green[:n_m] @ kernel.values.T
    return MonochromaticData(array=array, frequencies=freqs, values=values)


def conjugate_lattice(grid):
    """Ascending (fftshifted) wave-vector lattice conjugate to a grid."""
    spacing = 2.0 * np.pi / (grid.counts * grid.spacing)
    origin = -spacing * (grid.counts // 2)
    return Grid(origin=origin, spacing=spacing, counts=grid.counts)


def _kgrid_phase(kgrid, origin):
    """exp(i k . origin) on the k-lattice, shaped counts[::-1]."""
    kaxes = kgrid.axes()
    phase = np.ones(tuple(kgrid.counts[::-1]), dtype=complex)
    for d in range(kgrid.dim):
        shape = [1] * kgrid.dim
        shape[kgrid.dim - 1 - d] = kgrid.counts[d]
        phase = phase * np.exp(1j * kaxes[d] * origin[d]).reshape(shape)
    return phase


def _forward_dft(columns, grid):
    """Fourier samples Delta * sum_p l_p exp(i k . x_p) for each column,
    returned in the ascending k-lattice layout, shape (n_k, n_el)."""
    n_el = columns.shape[0]
    shaped = columns.reshape((n_el,) + tuple(grid.counts[::-1]))
    axes = tuple(range(1, grid.dim + 1))
    ft = np.fft.ifftn(shaped, axes=axes) * grid.n_pixels
    ft = np.fft.fftshift(ft, axes=axes)
    phase = _kgrid_phase(conjugate_lattice(grid), grid.origin)
    ft = ft * phase[None, ...] * grid.pixel_measure
    return ft.reshape(n_el, -1).T


def _inverse_dft(values, grid):
    """Inverse of _forward_dft: complex columns (n_el, n_pixels) on grid
    from samples (n_k, n_el) in the ascending k-lattice layout."""
    phase = _kgrid_phase(conjugate_lattice(grid), grid.origin).ravel()
    n_el = values.shape[1]
    spectra = (values.T / (phase * grid.pixel_measure)).reshape(
        (n_el,) + tuple(grid.counts[::-1]))
    axes = tuple(range(1, grid.dim + 1))
    cols = scipy.fft.fftn(scipy.fft.ifftshift(spectra, axes=axes), axes=axes)
    return cols.reshape(n_el, -1) / grid.n_pixels


def measure_plane_waves(kernel):
    """Fourier samples of each kernel column on the conjugate DFT lattice:
    values[m, j] ~ integral exp(i k_m . x) kernel_j(x) dx."""
    return FourierData(grid=kernel.grid, values=_forward_dft(kernel.values, kernel.grid))


def measure_line_integrals(kernel, angles, offsets):
    """X-ray transform of 2d kernel columns.

    The line for (angle a, offset s) is {s*w + tau*d} with w = (cos a,
    sin a) and d = (-sin a, cos a), sampled at half-pixel steps with
    multilinear interpolation.
    """
    grid = kernel.grid
    if grid.dim != 2:
        raise ValueError("line integrals support 2d kernels only")
    angles = np.asarray(angles, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    rho = grid.circumradius
    if np.max(np.abs(offsets)) < rho * (1 - 1e-12):
        raise ValueError("offsets must cover the grid's circumscribed disk")
    step = 0.5 * float(np.min(grid.spacing))
    half = rho + step
    n_tau = int(np.ceil(2.0 * half / step))
    dtau = 2.0 * half / n_tau
    tau = -half + (np.arange(n_tau) + 0.5) * dtau
    values = np.zeros((angles.size, offsets.size, kernel.n_electrodes))
    # one interpolation call per angle covers the whole offset x tau lattice
    for a, ang in enumerate(angles):
        w = np.array([np.cos(ang), np.sin(ang)])
        d = np.array([-np.sin(ang), np.cos(ang)])
        pts = offsets[:, None, None] * w + tau[None, :, None] * d
        cols = _interp(grid, kernel.values, pts.reshape(-1, 2))
        values[a] = dtau * np.sum(cols.reshape(offsets.size, n_tau, -1), axis=1)
    return Sinogram(angles=angles, offsets=offsets, values=values)


def add_noise(data, level, seed):
    """Seeded Gaussian noise with standard deviation level * RMS(values).

    Real-valued families receive i.i.d. real noise.  MonochromaticData
    receives circular complex noise of the same per-sample RMS.
    FourierData receives the transform of real white noise (Hermitian
    pairs stay conjugate), so a real kernel stays real under inversion and
    the noise norm carries through the unitary inverse one to one.
    """
    if level < 0:
        raise ValueError("noise level must be nonnegative")
    if level == 0:
        return data
    rng = np.random.default_rng(seed)
    v = data.values
    rms = float(np.sqrt(np.mean(np.abs(v) ** 2)))
    if isinstance(data, FourierData):
        # white noise on the source grid, pushed through the same
        # transform as the measurement
        source = data.grid
        w = rng.standard_normal((v.shape[1], source.n_pixels))
        eta = _forward_dft(w, source)
        scale = level * rms / (source.pixel_measure * np.sqrt(source.n_pixels))
        noisy = v + scale * eta
    elif np.iscomplexobj(v):
        noise = (rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
        noisy = v + level * rms * noise / np.sqrt(2.0)
    else:
        noisy = v + level * rms * rng.standard_normal(v.shape)
    return replace(data, values=noisy)
