"""Synthetic focusing: reconstruct point-focused kernels from wave-family data.

Each inversion consumes the responses of one unfocused wave family and
returns the measurement kernel on a requested output grid as a
KernelMatrix, one row per electrode in the data's order; every route
processes all electrodes in one batch.  The routes are exact-inversion
formulas (Fourier, x-ray) or filtered backprojections (spherical means,
monochromatic); all reduce to linear post-processing of the measured
data, so they commute with noise and superposition.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .core import KernelMatrix, TransducerArray, _frozen_array
from .wavegen import (
    FourierData,
    MonochromaticData,
    Sinogram,
    SphericalMeanData,
    _inverse_dft,
)

PULSE_CONSTANT = 1.0 / (8.0 * np.pi**2)
MONO_CONSTANT = -1.0 / (2.0 * np.pi**2)


@dataclass(frozen=True)
class FilteredDetectorData:
    """Per-transducer filtered time profiles, ready for backprojection.

    values[i, k] is the filtered detector trace of transducer i at time
    t_samples[k]; the backprojection evaluates it at t = |z_i - x|.
    """

    array: TransducerArray
    t_samples: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _frozen_array(self.t_samples, ndim=1)
        v = _frozen_array(self.values, ndim=2)
        if t.size < 2:
            raise ValueError("need at least two time samples")
        if np.any(t <= 0.0):
            raise ValueError("time samples must be positive")
        d = np.diff(t)
        if np.any(d <= 0.0) or not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
            raise ValueError("time samples must be uniformly increasing")
        if v.shape != (self.array.positions.shape[0], t.size):
            raise ValueError(
                f"values shape {v.shape} does not match "
                f"{self.array.positions.shape[0]} transducers x {t.size} times"
            )
        object.__setattr__(self, "t_samples", t)
        object.__setattr__(self, "values", v)


def _lerp(f, x, xp):
    """Linear interpolation of every row of f (n_rows, n_samples), sampled
    on the uniform lattice xp, at the points x; zero outside [xp[0], xp[-1]]
    as np.interp with left=right=0.  The weights are computed once for all
    rows."""
    u = (x - xp[0]) / (xp[1] - xp[0])
    # truncation is floor where u >= 0; outside points get zero weights, so
    # their indices only need clipping into range
    j = np.minimum(u.astype(np.intp), xp.size - 2)
    inside = (u >= 0.0) & (u <= xp.size - 1)
    wr = (u - j) * inside
    return (np.take(f, j, axis=1, mode="clip") * (inside - wr)
            + np.take(f[:, 1:], j, axis=1, mode="clip") * wr)


def _backproject_divergence(array, t_samples, profiles, out, constant):
    """Backproject filtered profiles and take the divergence.

    ``profiles[j, i, k]`` is the filtered trace of electrode j at
    transducer i and time t_samples[k].  Builds, per electrode, the vector
    field sum_i w_i n_i q_i(|z_i - x|) on the output grid (linear
    interpolation in t, zero outside the sampled interval), then returns
    constant * div of it, computed with central differences (one-sided at
    the grid faces).  Result shape (n_electrodes, n_pixels), x-fastest.
    """
    if out.dim != 3:
        raise ValueError("backprojection output grid must be 3D")
    x, y, z = (m.ravel() for m in out.mesh())
    wn = array.weights[:, None] * array.normals
    field = np.zeros((3, profiles.shape[0], out.n_pixels))
    for i, p in enumerate(array.positions):
        t = np.sqrt((x - p[0]) ** 2 + (y - p[1]) ** 2 + (z - p[2]) ** 2)
        q = _lerp(profiles[:, i], t, t_samples)
        for c in range(3):
            field[c] += wn[i, c] * q
    shape = (profiles.shape[0],) + tuple(out.counts[::-1])
    div = np.zeros(shape)
    for c in range(3):
        # coordinate c varies along storage axis 3 - c (arrays are el,z,y,x)
        div += np.gradient(field[c].reshape(shape), out.spacing[c], axis=3 - c,
                           edge_order=2)
    return constant * div.reshape(profiles.shape[0], -1)


def _check_inside_sphere(out, array):
    """Reject output grids not strictly inside the transducer sphere."""
    reach = out.circumradius
    radius = np.min(np.linalg.norm(array.positions, axis=1))
    if reach >= radius:
        raise ValueError(
            f"output grid reaches {reach:.6g} from the origin, outside the "
            f"transducer sphere of radius {radius:.6g}"
        )
    return reach, radius


def invert_spherical_means_3d(data, out):
    """Reconstruct kernel columns from spherical-pulse responses (3D).

    Filters each transducer trace with (1/t) d/dt (g/t), where g is the
    measured spherical integral as a function of radius, then evaluates
    the filtered backprojection divergence formula on the output grid.
    """
    if not isinstance(data, SphericalMeanData):
        raise TypeError("expected SphericalMeanData")
    if data.array.positions.shape[1] != 3 or out.dim != 3:
        raise ValueError("spherical-means inversion requires 3D data and grid")
    reach, radius = _check_inside_sphere(out, data.array)
    dt = data.radii[1] - data.radii[0]
    if radius - reach < 2.0 * dt:
        warnings.warn(
            "output grid comes within two radial steps of the transducer "
            "sphere; values in that shell are unreliable (filter stencil "
            "truncation)",
            RuntimeWarning,
            stacklevel=2,
        )
    t = data.radii[:, None]
    g = data.values / t
    prof = np.gradient(g, data.radii, axis=1, edge_order=2) / t
    recs = _backproject_divergence(data.array, data.radii, prof.transpose(2, 0, 1),
                                   out, PULSE_CONSTANT)
    return KernelMatrix(grid=out, values=recs)


def _detector_profiles(data, t):
    """Filtered time profiles (n_electrodes, n_transducers, n_t) from the
    monochromatic responses.

    Evaluates h(z, t) = -(1/t) * integral over the frequency band of
    [cos(lt) Im W - sin(lt) Re W] l dl by trapezoid quadrature on the
    data's frequency lattice, with a cosine taper over the top 10% of
    the band to suppress ringing from the hard cutoff.  The band is
    extended down to zero frequency where the integrand vanishes.
    """
    lam = data.frequencies
    lam_max = lam[-1]
    taper = np.ones_like(lam)
    if lam.size > 1:
        edge = 0.9 * lam_max
        hi = lam > edge
        taper[hi] = 0.5 * (1.0 + np.cos(np.pi * (lam[hi] - edge) / (lam_max - edge)))
        # trapezoid on [0, lam_max]: the integrand vanishes at lam=0, so the
        # band below the first node contributes only through its half-panel
        dl = lam[1] - lam[0]
        wq = np.full(lam.size, dl)
        wq[0] = 0.5 * (dl + lam[0])
        wq[-1] *= 0.5
    else:
        wq = np.array([0.5 * lam[0]])
    w = data.values.transpose(2, 1, 0)  # (n_el, n_freq, n_trans)
    ct = np.cos(lam[None, :] * t[:, None])  # (n_t, n_freq)
    st = np.sin(lam[None, :] * t[:, None])
    coef = (wq * taper * lam)[None, :]
    # contiguous operands keep the stacked products on BLAS
    prof = (-(ct * coef) @ np.ascontiguousarray(w.imag)
            + (st * coef) @ np.ascontiguousarray(w.real))  # (n_el, n_t, n_trans)
    prof /= t[:, None]
    return prof.transpose(0, 2, 1)


def invert_monochromatic_3d(data, out):
    """Reconstruct kernel columns from monochromatic responses (3D).

    Synthesizes filtered time profiles from the frequency sweep, then
    applies the same backprojection divergence as the pulse route, with
    its own normalization.
    """
    if not isinstance(data, MonochromaticData):
        raise TypeError("expected MonochromaticData")
    if data.array.positions.shape[1] != 3 or out.dim != 3:
        raise ValueError("monochromatic inversion requires 3D data and grid")
    _, radius = _check_inside_sphere(out, data.array)
    t_max = radius + out.diameter
    # sample the fastest oscillation cos(lam_max t) at 4 points/period
    n_times = max(int(np.ceil(t_max * data.frequencies[-1] * 2.0 / np.pi)), 64)
    t = np.linspace(0.0, t_max, n_times + 1)[1:]
    profiles = _detector_profiles(data, t)
    recs = _backproject_divergence(data.array, t, profiles, out, MONO_CONSTANT)
    return KernelMatrix(grid=out, values=recs)


def invert_fourier(data, out, return_residue=False):
    """Invert plane-wave responses by inverse DFT back to the pixel grid.

    The data's source grid must match the output grid; any mismatch in
    counts, spacing, or origin is rejected.  The reconstruction is exact
    to roundoff for data produced by the forward transform; the imaginary
    part (zero for consistent data) is dropped, and its relative norm per
    electrode is available as a diagnostic.
    """
    if not isinstance(data, FourierData):
        raise TypeError("expected FourierData")
    same = (
        tuple(data.grid.counts) == tuple(out.counts)
        and np.allclose(data.grid.spacing, out.spacing, rtol=1e-9, atol=0.0)
        and np.allclose(data.grid.origin, out.origin, rtol=1e-9, atol=1e-12)
    )
    if not same:
        raise ValueError(
            "frequency lattice does not match the conjugate lattice of the "
            "output grid (counts, spacing, or origin differ)"
        )
    cols = _inverse_dft(data.values, out)
    kernel = KernelMatrix(grid=out, values=cols.real)
    if return_residue:
        scale = np.linalg.norm(cols, axis=1)
        imag = np.linalg.norm(cols.imag, axis=1)
        residues = np.divide(imag, scale, out=np.zeros(cols.shape[0]), where=scale > 0.0)
        return kernel, residues
    return kernel


def invert_xray_2d(data, out):
    """Reconstruct kernel columns from line-integral data (2D FBP).

    Ramp-filters each projection in the offset variable (frequency-domain
    ramp, band-limited at the offset Nyquist frequency, zero-padded to
    avoid circular wrap), backprojects with linear interpolation, and
    weights by pi / n_angles.
    """
    if not isinstance(data, Sinogram):
        raise TypeError("expected Sinogram")
    if out.dim != 2:
        raise ValueError("x-ray inversion requires a 2D output grid")
    n_angles = data.angles.size
    if n_angles < 8:
        warnings.warn(
            f"only {n_angles} projection angles; expect severe angular "
            "undersampling artifacts",
            RuntimeWarning,
            stacklevel=2,
        )
    reach = out.circumradius
    if data.offsets[0] > -reach or data.offsets[-1] < reach:
        raise ValueError(
            f"offset range [{data.offsets[0]:.6g}, {data.offsets[-1]:.6g}] does "
            f"not cover the output grid (circumradius {reach:.6g})"
        )
    ds = data.offsets[1] - data.offsets[0]
    n_off = data.offsets.size
    n_pad = scipy.fft.next_fast_len(2 * n_off)
    ramp = np.abs(scipy.fft.fftfreq(n_pad, d=ds))
    x, y = (m.ravel() for m in out.mesh())
    recs = np.zeros((data.values.shape[2], out.n_pixels))
    for a, ang in enumerate(data.angles):
        # ramp-filter every electrode's projection in one zero-padded FFT
        q = scipy.fft.ifft(scipy.fft.fft(data.values[a].T, n=n_pad, axis=1) * ramp,
                           axis=1).real[:, :n_off]
        recs += _lerp(q, np.cos(ang) * x + np.sin(ang) * y, data.offsets)
    recs *= np.pi / n_angles
    return KernelMatrix(grid=out, values=recs)


_METHODS = {
    "spherical": (SphericalMeanData, invert_spherical_means_3d),
    "monochromatic": (MonochromaticData, invert_monochromatic_3d),
    "plane": (FourierData, invert_fourier),
    "xray": (Sinogram, invert_xray_2d),
}


def focus_kernel(data, method, out):
    """Reconstruct a full kernel matrix on ``out`` from wave-family data.

    ``method`` is one of 'spherical', 'monochromatic', 'plane', 'xray'
    and must match the data type.  Rows of the result are electrodes in
    the data's order.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(_METHODS)}"
        )
    want, invert = _METHODS[method]
    if not isinstance(data, want):
        raise TypeError(
            f"method {method!r} requires {want.__name__}, got {type(data).__name__}"
        )
    return invert(data, out)
