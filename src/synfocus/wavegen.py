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
    return float(d[0])


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
    """Fourier samples of the kernel columns on the conjugate DFT lattice.

    ``kgrid`` is the ascending (fftshifted) wave-vector lattice conjugate
    to the interior grid; values[m, j] follows kgrid's x-fastest layout.
    ``origin`` records the interior grid origin the phases refer to.
    """

    kgrid: Grid
    values: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_array(self.values, dtype=complex, ndim=2))
        object.__setattr__(self, "origin", _frozen_array(self.origin, ndim=1))
        if self.values.shape[0] != self.kgrid.n_pixels:
            raise ValueError("values rows must match the k-lattice size")
        if self.origin.size != self.kgrid.dim:
            raise ValueError("origin dimension must match the k-lattice")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("values must be finite")

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


def measure_spherical_pulse(kernel, array, radii, oversample=2):
    """Surface (2d: arc) integrals of each kernel column over the spheres
    |x - z_i| = t_k.

    Uniform angular quadrature with ceil(2 pi t / dx) * oversample points
    per great circle and multilinear interpolation; samples outside the
    grid contribute zero.
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
    n_points = np.empty(radii.size, dtype=np.int64)
    weights = np.empty(radii.size)
    for k, t in enumerate(radii):
        m = int(np.ceil(2.0 * np.pi * t / dx)) * oversample
        if grid.dim == 2:
            n_points[k] = max(m, 8)
            meas = 2.0 * np.pi * t
        else:
            n_points[k] = max(int(np.ceil(m * m / np.pi)), 32)
            meas = 4.0 * np.pi * t * t
        weights[k] = meas / n_points[k]

    values = np.zeros((array.n, radii.size, kernel.n_electrodes))
    # interpolation support: pixel-center hull padded by one spacing
    box_lo = grid.origin - grid.spacing
    box_hi = grid.origin + grid.counts * grid.spacing
    corners = np.array(np.meshgrid(*zip(box_lo, box_hi), indexing="ij"))
    corners = corners.reshape(grid.dim, -1).T
    budget = 2_000_000
    for i in range(array.n):
        z = array.positions[i]
        # spheres entirely inside the support hole or enclosing it integrate
        # to zero; skip them
        d_min = np.linalg.norm(z - np.clip(z, box_lo, box_hi))
        d_max = np.max(np.linalg.norm(corners - z[None, :], axis=1))
        active = np.nonzero((radii >= d_min) & (radii <= d_max))[0]
        start = 0
        while start < active.size:
            stop = start + 1
            n_pts = n_points[active[start]]
            while (
                stop < active.size
                and n_pts + n_points[active[stop]] <= budget
            ):
                n_pts += n_points[active[stop]]
                stop += 1
            ks = active[start:stop]
            block = np.concatenate(
                [radii[k] * _unit_lattice(int(n_points[k]), grid.dim) for k in ks], axis=0)
            offsets = np.concatenate(
                [[0], np.cumsum(n_points[ks])[:-1]]
            )
            cols = _interp(grid, kernel.values, z[None, :] + block)
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
    centers = grid.centers()
    area = grid.pixel_measure
    K = kernel.values
    values = np.empty((array.n, freqs.size, kernel.n_electrodes), dtype=complex)
    block = max(1, int(4e6 // max(centers.shape[0], 1)))
    for i in range(array.n):
        r = np.linalg.norm(centers - array.positions[i][None, :], axis=1)
        inv = area / (4.0 * np.pi * r)
        for m0 in range(0, freqs.size, block):
            lam = freqs[m0:m0 + block]
            green = np.exp(1j * np.outer(r, lam)) * inv[:, None]
            values[i, m0:m0 + block, :] = (K @ green).T
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
    kgrid = conjugate_lattice(grid)
    phase = _kgrid_phase(kgrid, grid.origin)
    ft = ft * phase[None, ...] * grid.pixel_measure
    return ft.reshape(n_el, -1).T, kgrid


def measure_plane_waves(kernel):
    """Fourier samples of each kernel column on the conjugate DFT lattice:
    values[m, j] ~ integral exp(i k_m . x) kernel_j(x) dx."""
    values, kgrid = _forward_dft(kernel.values, kernel.grid)
    return FourierData(kgrid=kgrid, values=values, origin=kernel.grid.origin)


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
        # white noise on the source lattice, pushed through the same
        # transform as the measurement
        kgrid = data.kgrid
        source = Grid(origin=data.origin,
                      spacing=2.0 * np.pi / (kgrid.counts * kgrid.spacing),
                      counts=kgrid.counts)
        w = rng.standard_normal((v.shape[1], source.n_pixels))
        eta, _ = _forward_dft(w, source)
        scale = level * rms / (source.pixel_measure * np.sqrt(source.n_pixels))
        noisy = v + scale * eta
    elif np.iscomplexobj(v):
        noise = (rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
        noisy = v + level * rms * noise / np.sqrt(2.0)
    else:
        noisy = v + level * rms * rng.standard_normal(v.shape)
    return replace(data, values=noisy)
