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

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import Grid, _Handover, _frozen_array, _padded_rows, _stencil

_LATTICE_RTOL = 1e-9   # relative tolerance of a lattice's uniform spacing and symmetry
_END_RTOL = 1e-12   # relative slack of a lattice end for the rounding of the reach it covers


def _uniform_spacing(x, name):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    if x.size == 0:
        raise ValueError(f"{name} must not be empty")
    if x.size < 2:
        return 0.0
    d = np.diff(x)
    if np.any(d <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if np.max(np.abs(d - d[0])) > _LATTICE_RTOL * abs(d[0]):
        raise ValueError(f"{name} must be uniformly spaced")
    return float((x[-1] - x[0]) / (x.size - 1))   # x[0] + k * mean stays near x[k]


def _check_sinogram_axes(angles, offsets):
    """Check sinogram axes: uniform angles in [0, pi) and uniform offsets
    symmetric about zero."""
    if np.any(angles < 0) or np.any(angles >= np.pi):
        raise ValueError("angles must lie in [0, pi)")
    _uniform_spacing(angles, "angles")
    _uniform_spacing(offsets, "offsets")
    span = offsets + offsets[::-1]
    if np.max(np.abs(span)) > _LATTICE_RTOL * max(abs(offsets[0]), abs(offsets[-1])):
        raise ValueError("offsets must be symmetric about zero")


def _positive_spacing(x, name):
    """Spacing of a nonempty, finite, positive, uniform lattice: the radii
    of the spherical family or the frequencies of the monochromatic one."""
    spacing = _uniform_spacing(x, name)
    if x[0] <= 0:
        raise ValueError(f"{name} must be positive")
    return spacing


def _freeze_aperture(data, lattice, dtype):
    """The container rule of both aperture families: frozen values of shape
    (n_transducers, lattice size, n_electrodes) on a positive uniform lattice."""
    axis = _frozen_array(getattr(data, lattice), lattice, ndim=1)
    values = _frozen_array(data.values, "values", dtype=dtype, ndim=3)
    object.__setattr__(data, lattice, axis)
    object.__setattr__(data, "values", values)
    _positive_spacing(axis, lattice)
    if values.shape[:2] != (data.array.n, axis.size):
        raise ValueError(f"values shape must be (n_transducers, n_{lattice}, n_electrodes)")


@dataclass(frozen=True, eq=False)
class SphericalMeanData:
    """Spherical surface integrals of the kernel columns.

    values[i, k, j]: transducer i, radius k, electrode j.  These are raw
    integrals per Eq.-(3)-style measurements, not normalized averages.
    """

    array: object
    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze_aperture(self, "radii", float)

    def axes(self):
        return [("radius", self.radii)]


@dataclass(frozen=True, eq=False)
class MonochromaticData:
    """Kernel columns integrated against the Green's function
    exp(i lam |x-z|) / (4 pi |x-z|), per transducer and frequency."""

    array: object
    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze_aperture(self, "frequencies", complex)

    def axes(self):
        return [("frequency", self.frequencies)]


@dataclass(frozen=True, eq=False)
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
                           _frozen_array(self.values, "values", dtype=complex, ndim=2))
        if self.values.shape[0] != self.grid.n_pixels:
            raise ValueError("values rows must match the k-lattice size")

    @property
    def kgrid(self):
        return conjugate_lattice(self.grid)

    def axes(self):
        return [(f"k{d}", ax) for d, ax in enumerate(self.kgrid.axes())]


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Line integrals of 2d kernel columns: values[a, s, j] for normal
    angle a and signed offset s."""

    angles: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", _frozen_array(self.angles, "angles", ndim=1))
        object.__setattr__(self, "offsets", _frozen_array(self.offsets, "offsets", ndim=1))
        object.__setattr__(self, "values", _frozen_array(self.values, "values", ndim=3))
        _check_sinogram_axes(self.angles, self.offsets)
        if self.values.shape[:2] != (self.angles.size, self.offsets.size):
            raise ValueError("values shape must be (n_angles, n_offsets, n_electrodes)")

    def axes(self):
        return [("angle", self.angles), ("offset", self.offsets)]


def _window_end(array, grid):
    """R + domain diameter, the end of the radii and time window."""
    return array.radius + grid.diameter


def default_radii(array, grid, n):
    """n uniform radii, or time samples, spanning (0, R + domain diameter]."""
    return _window_end(array, grid) * (np.arange(n) + 1.0) / n


def default_frequencies(grid, n=None):
    """n uniform wavenumbers in [dlam, pi/dx], dlam = pi/(2*diameter).  The
    band holds floor(2 * diameter / dx) of them: all if n is None, and a
    larger n is cut to that count with a RuntimeWarning."""
    dlam = np.pi / (2.0 * grid.diameter)
    lam_max = np.pi / float(np.min(grid.spacing))
    n_max = int(np.floor(lam_max / dlam))
    if n is not None and n > n_max:
        warnings.warn(f"measuring {n_max} of the {n} requested frequencies; [dlam, pi/dx] "
                      "holds floor(2 * diameter / dx)", RuntimeWarning, stacklevel=2)
    n = n_max if n is None else min(n, n_max)
    return dlam * (np.arange(n) + 1.0)


def default_angles(n):
    return np.pi * np.arange(n) / n


def default_offsets(grid):
    """8 ceil(rho / h) + 3 uniform offsets over [-rho, rho] (rho the grid's
    circumradius, h its finest spacing): below h / 4 apart, so the ramp
    filter's band limit clears the sharp near-electrode kernel peaks."""
    rho = grid.circumradius
    n = 8 * int(np.ceil(rho / float(np.min(grid.spacing)))) + 3
    return np.linspace(-rho, rho, n)


def _check_offsets_cover(offsets, grid):
    """The coverage rule of both x-ray routes: offsets span the grid's
    circumscribed disk, up to _END_RTOL for the rounding of rho."""
    rho = grid.circumradius
    if min(-offsets[0], offsets[-1]) < rho * (1.0 - _END_RTOL):
        raise ValueError(f"offset range [{offsets[0]:.6g}, {offsets[-1]:.6g}] does not cover "
                         f"the grid's circumscribed disk (radius {rho:.6g})")


def _i_series(nu, z):
    """sum_k z^k / (k! Gamma(k + nu + 1)) by Horner's rule, so I_nu(x) =
    (x/2)^nu _i_series(nu, x^2/4), to double precision for x <= alpha."""
    s = 0.0 * z   # a float for a float z, as at import
    for k in range(_SERIES_TERMS - 1, -1, -1):
        s = s * z + 1.0 / (math.factorial(k) * math.gamma(k + nu + 1.0))
    return s


# The radial Kaiser-Bessel blob of measure_spherical_pulse (Lewitt, JOSA A
# 7, 1990; Matej & Lewitt, IEEE TMI 15, 1996): b(s) = w^m I_m(alpha w) /
# I_m(alpha), w = sqrt(1 - s^2/a^2), m = 2.  alpha = sqrt((4 pi)^2 - j^2),
# j the first zero of J_{7/2}, puts the first zero of its 3-d transform at
# the lattice frequency 1/h when a = 2h; that transform at 0 gives its
# volume (integral over R^3, per a^3) and second moment per axis (per a^2).
_KB_ORDER = 2
_KB_ALPHA = math.sqrt((4.0 * math.pi) ** 2 - 6.987932000500520 ** 2)
_KB_Z = 0.25 * _KB_ALPHA ** 2   # the series argument at w = 1
_SERIES_TERMS = 40
_KB_NORM = float(_i_series(_KB_ORDER, _KB_Z))   # I_m(alpha) / (alpha/2)^m
_KB_VOLUME = math.pi ** 1.5 * float(_i_series(_KB_ORDER + 1.5, _KB_Z)) / _KB_NORM
_KB_MU2 = 0.5 * float(_i_series(_KB_ORDER + 2.5, _KB_Z) / _i_series(_KB_ORDER + 1.5, _KB_Z))
_BINS_PER_RADIUS = 16   # distance-bin spacing a / 16, h / 8 on a cubic grid
# cubic Lagrange weights of the nodes b - 1, b, b + 1, b + 2 at b + f, one
# row per node, as coefficients of 1, f, f^2, f^3; only node b has f^0
_LAGRANGE = np.array([[0.0, -1.0 / 3.0, 0.5, -1.0 / 6.0], [1.0, -0.5, -1.0, 0.5],
                      [0.0, 1.0, 0.5, -0.5], [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0]])


def _kb_blob(s, a, nu=_KB_ORDER):
    """The blob b(s) of radius a, zero for s >= a, as a series in w^2; nu =
    m + 1 gives w^(m+1) I_(m+1)(alpha w) / I_m(alpha) instead."""
    y = 1.0 - (np.asarray(s, dtype=float) / a) ** 2
    out = np.zeros_like(y)
    inside = y > 0.0
    out[inside] = y[inside] ** nu * _i_series(nu, _KB_Z * y[inside]) / _KB_NORM
    return out


def _kb_shell(u, a):
    """B(u) = integral_u^a s b(s) ds = a^2 w^(m+1) I_(m+1)(alpha w) / (alpha I_m(alpha))."""
    return 0.5 * a * a * _kb_blob(u, a, _KB_ORDER + 1)


def _blob_coefficients(kernel, a):
    """Blob coefficients (n_electrodes, n_pixels) of the kernel columns k:
    k - (mu2 / 2) Lap_h k with edge-replicated padding, mu2 the blob's
    second moment per axis, times pixel_measure / integral(b)."""
    grid = kernel.grid
    k = kernel.values.reshape((-1,) + tuple(grid.counts[::-1]))
    lap = sum(np.diff(np.pad(k, [(0, 0)] * (3 - d) + [(1, 1)] + [(0, 0)] * d, mode="edge"),
                      2, axis=3 - d) / h ** 2 for d, h in enumerate(grid.spacing))
    scale = grid.pixel_measure / (_KB_VOLUME * a ** 3)
    return ((k - 0.5 * _KB_MU2 * a * a * lap) * scale).reshape(k.shape[0], -1)


def measure_spherical_pulse(kernel, array, radii):
    """Surface integrals of each kernel column over the spheres
    |x - z_i| = t_k on a 3d grid.

    The column is one radial Kaiser-Bessel blob b of radius a = 2
    max(spacing) per pixel (see _KB_ALPHA), with the coefficients c of
    _blob_coefficients.  A blob at distance r from z_i integrates over the
    sphere of radius t to (2 pi t / r) g(t, r), g(t, r) = B(|t - r|) -
    B(t + r) with B in closed form (_kb_shell), or 4 pi t^2 b(t) at r = 0.
    So per transducer c_p / r_p is binned at r_p on nodes delta = a / 16
    apart with cubic Lagrange weights, node -1 folded onto node 1 with a
    flipped sign (g is odd in r), and one product with the profile
    2 pi t g(t, rho) on the nodes gives every radius of every electrode.
    In cell b = floor(x), x = r / delta, the weights are cubics in
    f = x - b: each pair adds c f^d / r, d = 0..3, to four moment
    histograms, one bincount each per block of transducers, which
    _LAGRANGE spreads onto the nodes.  At r = 0 these take their limits
    r -> 0+ (c / r falls on node 0, where g vanishes), which give
    4 pi t^2 b(t) to fourth order in delta.  No scipy is loaded.
    """
    grid = kernel.grid
    if grid.dim != 3:
        raise ValueError("measure_spherical_pulse needs a 3d kernel grid")
    radii = np.asarray(radii, dtype=float)
    _positive_spacing(radii, "radii")
    if radii[-1] > _window_end(array, grid) * (1 + _END_RTOL):
        raise ValueError("radii must lie within (0, R + domain diameter]")
    a = 2.0 * float(np.max(grid.spacing))
    delta = a / _BINS_PER_RADIUS
    q = _blob_coefficients(kernel, a) / delta   # c / r = q / x
    (n_el, n_px), n_t, shape = q.shape, array.n, tuple(grid.counts[::-1])
    # squared per-axis distances in bin units, (n_transducers, counts[d]); the
    # floor 1e-200 bins x = 0 as x -> 0+, and cells lo + 2 .. int(x_max), one to
    # spare at each end, hold every pair: no node below lo + 1 unless lo = 0
    sq = [((ax - array.positions[:, d, None]) / delta) ** 2 for d, ax in enumerate(grid.axes())]
    sq[0] += 1e-200
    lo = max(int(np.sqrt(np.min(sum(np.min(s, axis=1) for s in sq)))) - 3, 0)
    n_bins = int(np.sqrt(np.max(sum(np.max(s, axis=1) for s in sq)))) + 2 - lo
    block = max(1, min(n_t, (1 << 16) // n_px))   # (transducer, pixel) pairs at once
    x, f, w = np.empty((3, block * n_px))
    base = np.empty(block * n_px, dtype=np.intp)
    moments = np.empty((4, n_t, n_bins, n_el))
    for i0 in range(0, n_t, block):
        n = min(block, n_t - i0)
        xs, fs, ws, bs = (v[:n * n_px].reshape(n, n_px) for v in (x, f, w, base))
        cube = xs.reshape((n,) + shape)   # x^2 = dx^2 + dy^2 + dz^2 from the per-axis rows
        np.add(sq[2][i0:i0 + n, :, None, None], sq[1][i0:i0 + n, None, :, None], out=cube[..., :1])
        np.add(cube[..., :1], sq[0][i0:i0 + n, None, None, :], out=cube)
        np.sqrt(xs, out=xs)
        np.copyto(bs, xs, casting="unsafe")   # floor, as x >= 0
        np.subtract(xs, bs, out=fs)
        np.reciprocal(xs, out=xs)
        bs += n_bins * np.arange(n)[:, None] - lo
        for j in range(n_el):
            np.multiply(xs, q[j], out=ws)
            for d in range(4):
                if d:
                    ws *= fs
                moments[d, i0:i0 + n, :, j] = np.bincount(
                    bs.ravel(), ws.ravel(), minlength=n * n_bins).reshape(n, n_bins)
    hist = np.zeros((n_t, n_bins + 3, n_el))   # nodes lo - 1 .. lo + n_bins + 1
    for o in range(4):
        hist[:, o:o + n_bins] += np.tensordot(_LAGRANGE[o], moments, axes=1)
    hist[:, 2] -= hist[:, 0]
    rho = delta * np.arange(lo + 1, lo + n_bins + 2)[:, None]
    profile = 2.0 * np.pi * radii * (_kb_shell(np.abs(radii - rho), a) - _kb_shell(radii + rho, a))
    return SphericalMeanData(array=array, radii=radii, values=_Handover(profile.T @ hist[:, 2:]))


def measure_monochromatic(kernel, array, frequencies):
    """Kernel columns against the outgoing Green's function:
    values[i, m, j] = sum_px kernel(j, px) exp(i lam_m r) / (4 pi r) * pixel_area
    with r = |x_px - z_i|.  Transducers must sit strictly outside the
    interior grid's domain box.

    The frequencies lie on a uniform lattice lam_m = lam_0 + m dlam.  With
    B = ceil(sqrt(n_f)), Q = ceil(n_f / B) and m = q B + p, the phase
    splits as exp(i lam_m r) = step^p * exp(i lam_0 r) step^(q B) with
    step = exp(i dlam r).  Per transducer the sums take two complex
    exponentials (one when the lattice starts at its own spacing, lam_0 =
    dlam to a few ulps as default_frequencies gives, since exp(i lam_0 r)
    is then the step), the rows U[p] = step^p (p < B) and, per electrode
    j with the real amplitude row a_j = kernel_j area / (4 pi r),
    V_j[q] = exp(i lam_0 r) a_j (step^B)^q (q < Q) at one multiply each,
    with step^B continuing U's recurrence, and one complex GEMM
    U(B, n_px) @ V^T(n_px, n_el Q), cropped to n_f: about
    (1 + n_el) sqrt(n_f) pixel-length row operations where a recurrence
    over the frequencies takes 2 n_f.  Entry q B + p carries p roundings
    from U and q from V, but step^B carries B of its own, so the
    worst-case phase error is still of order n_f roundings, as for the
    plain recurrence; in both it is dominated by the rounding of step
    itself, of the size direct exponentials make in lam_m r.  The GEMM
    accumulates over pixel blocks sized so that the work rows stay within
    4e6 complex values.
    """
    grid = kernel.grid
    if grid.dim != 3:
        raise ValueError("measure_monochromatic needs a 3d kernel grid")
    freqs = np.asarray(frequencies, dtype=float)
    dlam = _positive_spacing(freqs, "frequencies")
    lo, hi = grid.bounds()
    outside = np.any((array.positions < lo[None, :]) | (array.positions > hi[None, :]),
                     axis=1)
    if not np.all(outside):
        raise ValueError("singular kernel: transducers must lie strictly outside "
                         "the interior grid support")
    values = _green_sums(kernel, array.positions, freqs[0], dlam, freqs.size)
    return MonochromaticData(array=array, frequencies=freqs, values=_Handover(values))


def _green_sums(kernel, positions, lam0, dlam, n_f):
    """values[i, m, j] of measure_monochromatic for lam_m = lam0 + m dlam,
    by the two-level split of its docstring, with each electrode's kernel
    row folded into its own rows V_j rather than multiplied onto U: about
    (1 + n_el) sqrt(n_f) row multiplies per pixel block."""
    grid = kernel.grid
    n_el, n_px = kernel.n_electrodes, grid.n_pixels
    n_b = int(np.ceil(np.sqrt(n_f)))
    n_q = -(-n_f // n_b)
    x = np.stack([m.ravel() for m in grid.mesh()])   # (dim, n_pixels)
    # the 4e6 complex-value budget: the coordinate rows, the GEMM's result,
    # its running sum and the output rows, and a ufunc buffer's worth for
    # the casts and small objects come off first; each pixel of a block
    # then holds U, the n_el Q rows V, step^B and, as one complex row's
    # floats each pair, r, a scratch row and the n_el amplitude rows a
    fixed = 0.5 * x.size + 3 * n_el * n_b * n_q + np.getbufsize()
    n_rows = n_b + n_el * n_q + 1 + -(-(n_el + 2) // 2)
    block = min(n_px, max(1, int((4e6 - fixed) // n_rows)))
    work = np.empty(n_rows * block, dtype=complex)
    # a lattice that starts at its own spacing (default_frequencies; the
    # mean spacing can be a few ulps off lam0) has exp(i lam0 r) = step
    start_is_step = n_f > 1 and abs(lam0 - dlam) <= 4 * np.spacing(dlam)
    values = np.empty((positions.shape[0], n_f, n_el), dtype=complex)
    for i, z in enumerate(positions):
        sums = 0.0
        for p0 in range(0, n_px, block):
            n = min(block, n_px - p0)
            px = slice(p0, p0 + n)
            # the work rows of this block: U, V (q-major), step^B, then r,
            # a scratch row and the amplitude rows as complex rows' floats
            rows = work[:n_rows * n].reshape(n_rows, n)
            U, ratio = rows[:n_b], rows[n_b + n_el * n_q]
            V = rows[n_b:n_b + n_el * n_q].reshape(n_q, n_el, n)
            reals = rows[n_b + n_el * n_q + 1:].view(float).reshape(-1, n)
            r, s, a = reals[0], reals[1], reals[2:2 + n_el]
            # r = sqrt(d0*d0 + d1*d1 + d2*d2) from the coordinate rows
            np.subtract(x[0, px], z[0], out=r)
            r *= r
            for d in range(1, grid.dim):
                np.subtract(x[d, px], z[d], out=s)
                s *= s
                r += s
            np.sqrt(r, out=r)
            U[0] = 1.0
            if n_b > 1:
                np.multiply(r, 1j * dlam, out=U[1])
                np.exp(U[1], out=U[1])
            # exp(i lam0 r), in step^B's row until step^B is formed
            phase = U[1] if start_is_step else ratio
            if not start_is_step:
                np.multiply(r, 1j * lam0, out=phase)
                np.exp(phase, out=phase)
            # a_j = k_j area / (4 pi r) and V_j[0] = exp(i lam0 r) a_j
            np.multiply(r, 4.0 * np.pi, out=s)
            np.divide(grid.pixel_measure, s, out=s)
            np.multiply(kernel.values[:, px], s, out=a)
            np.multiply(a, phase, out=V[0])
            for p in range(2, n_b):
                np.multiply(U[p - 1], U[1], out=U[p])
            if n_q > 1:
                np.multiply(U[n_b - 1], U[1], out=ratio)
            for q in range(1, n_q):
                np.multiply(V[q - 1], ratio, out=V[q])
            sums = sums + U @ V.reshape(n_q * n_el, n).T
        # frequency q B + p of electrode j is sums[p, q n_el + j]
        values[i] = sums.reshape(n_b, n_q, n_el).transpose(1, 0, 2).reshape(-1, n_el)[:n_f]
    return values


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
    returned in the ascending k-lattice layout, shape (n_k, n_el), as a new
    C-ordered array: the last product is written through a view with the
    electrode axis last, so a container takes the result without a copy."""
    n_el = columns.shape[0]
    shape = (n_el,) + tuple(grid.counts[::-1])
    axes = tuple(range(1, grid.dim + 1))
    ft = np.fft.ifftn(columns.reshape(shape), axes=axes) * grid.n_pixels
    ft = np.fft.fftshift(ft, axes=axes)
    ft *= _kgrid_phase(conjugate_lattice(grid), grid.origin)
    out = np.empty((grid.n_pixels, n_el), dtype=complex)
    np.multiply(ft, grid.pixel_measure, out=out.T.reshape(shape))
    return out


def _inverse_dft(values, grid):
    """Inverse of _forward_dft: complex columns (n_el, n_pixels) on grid
    from samples (n_k, n_el) in the ascending k-lattice layout."""
    phase = _kgrid_phase(conjugate_lattice(grid), grid.origin).ravel()
    n_el = values.shape[1]
    spectra = (values.T / (phase * grid.pixel_measure)).reshape(
        (n_el,) + tuple(grid.counts[::-1]))
    axes = tuple(range(1, grid.dim + 1))
    cols = np.fft.fftn(np.fft.ifftshift(spectra, axes=axes), axes=axes)
    return cols.reshape(n_el, -1) / grid.n_pixels


def measure_plane_waves(kernel):
    """Fourier samples of each kernel column on the conjugate DFT lattice:
    values[m, j] ~ integral exp(i k_m . x) kernel_j(x) dx."""
    return FourierData(grid=kernel.grid,
                       values=_Handover(_forward_dft(kernel.values, kernel.grid)))


def measure_line_integrals(kernel, angles, offsets):
    """X-ray transform of 2d kernel columns.

    The line for (angle a, offset s) is {s*w + tau*d} with w = (cos a,
    sin a) and d = (-sin a, cos a), sampled at half-pixel steps with
    multilinear interpolation.  The tau-sum is linear, so the sinogram is
    one sparse operator P applied to all electrodes, values = P @ rows,
    with rows the kernel columns on the zero-padded grid (see
    core._padded_rows): a row per line (angle-major), a column per padded
    pixel, entries dtau times the summed stencil weights.  P is built and applied in row blocks of
    whole angles, about 5e4 line points each, so memory stays bounded.
    """
    import scipy.sparse

    grid = kernel.grid
    if grid.dim != 2:
        raise ValueError("line integrals support 2d kernels only")
    angles = np.asarray(angles, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    _check_sinogram_axes(angles, offsets)
    _check_offsets_cover(offsets, grid)
    step = 0.5 * float(np.min(grid.spacing))
    half = grid.circumradius + step
    n_tau = int(np.ceil(2.0 * half / step))
    dtau = 2.0 * half / n_tau
    tau = -half + (np.arange(n_tau) + 0.5) * dtau
    chunk = max(1, 50_000 // (offsets.size * n_tau))
    rows = _padded_rows(grid, kernel.values)
    values = np.empty((angles.size, offsets.size, kernel.n_electrodes))
    for a0 in range(0, angles.size, chunk):
        ang = angles[a0:a0 + chunk, None, None]
        c, s = np.cos(ang), np.sin(ang)
        pts = np.stack((offsets[:, None] * c - tau * s, offsets[:, None] * s + tau * c))
        u = (pts.reshape(2, -1) - grid.origin[:, None]) / grid.spacing[:, None]
        near, index, weight = _stencil(grid, u)
        # the rows of P for these angles; the CSR conversion sums the
        # entries a pixel collects along a line
        P = scipy.sparse.csr_matrix(
            (dtau * weight.ravel(), (np.repeat(near // n_tau, index.shape[1]), index.ravel())),
            shape=(ang.size * offsets.size, rows.shape[0]))
        values[a0:a0 + ang.size] = (P @ rows).reshape(ang.size, offsets.size, -1)
    return Sinogram(angles=angles, offsets=offsets, values=_Handover(values))


def add_noise(data, level, seed):
    """Seeded Gaussian noise with standard deviation level * RMS(values).

    Real-valued families receive i.i.d. real noise.  MonochromaticData
    receives circular complex noise of the same per-sample RMS.
    FourierData receives the transform of real white noise (Hermitian
    pairs stay conjugate), so a real kernel stays real under inversion and
    the noise norm carries through the unitary inverse one to one.
    """
    if not 0.0 <= level < np.inf:
        raise ValueError(f"noise level must be finite and >= 0, got {level!r}")
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
        noisy = _forward_dft(w, source)
        noisy *= level * rms / (source.pixel_measure * np.sqrt(source.n_pixels))
    elif np.iscomplexobj(v):
        noisy = np.empty(v.shape, dtype=complex)
        noisy.real = rng.standard_normal(v.shape)
        noisy.imag = rng.standard_normal(v.shape)
        noisy *= level * rms
        noisy /= np.sqrt(2.0)
    else:
        noisy = rng.standard_normal(v.shape)
        noisy *= level * rms
    # the noise is this call's own array, so v is added in place and the
    # sum handed over, not copied
    noisy += v
    return replace(data, values=_Handover(noisy))
