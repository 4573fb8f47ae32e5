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

import numpy as np
import scipy.sparse

from .core import KernelMatrix
from .wavegen import (FourierData, MonochromaticData, Sinogram, SphericalMeanData, _END_RTOL,
                      _LATTICE_RTOL, _check_offsets_cover, _inverse_dft, _uniform_spacing,
                      _window_end, default_radii)

PULSE_CONSTANT = 1.0 / (8.0 * np.pi**2)
MONO_CONSTANT = -1.0 / (2.0 * np.pi**2)
_XRAY_BLOCK = 2**20  # cap on the filtered values, and on the weights, of one block of x-ray angles
_MIN_RADII = 3  # the spherical route's second-order t differences need 3 radii


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


def _backproject_divergence(array, t_samples, dprofiles, out, constant):
    """Backproject filtered profiles in divergence form.

    ``dprofiles[j, i, k]`` is q_ij'(t_samples[k]), the t-derivative of the
    filtered trace of electrode j at transducer i.  The inversion is
    constant * div_x sum_i w_i n_i q_i(|x - z_i|); its divergence is taken
    in closed form, sum_i w_i q_i'(r_i) n_i . (x - z_i) / r_i with
    r_i = |x - z_i|, so no field is built or differentiated on the output
    grid (linear interpolation in t, zero outside the sampled interval).
    Result shape (n_electrodes, n_pixels), x-fastest.
    """
    x = np.stack([m.ravel() for m in out.mesh()])   # (3, n_pixels)
    recs = np.zeros((dprofiles.shape[0], out.n_pixels))
    for i, (p, n) in enumerate(zip(array.positions, array.normals)):
        r = np.sqrt((x[0] - p[0]) ** 2 + (x[1] - p[1]) ** 2 + (x[2] - p[2]) ** 2)
        q = _lerp(dprofiles[:, i], r, t_samples)
        # in place: fewer pixel-sized temporaries per transducer
        q *= (n @ x - n @ p) * (array.weights[i] / r)
        recs += q
    return constant * recs


def _require(data, want, inversion):
    """The one type rule of each invert_*: ``data`` is a ``want``."""
    if not isinstance(data, want):
        raise TypeError(f"{inversion} inversion requires {want.__name__}, "
                        f"got {type(data).__name__}")


def _check_inside_sphere(out, array):
    """Reject output grids not strictly inside the transducer sphere."""
    reach, radius = out.circumradius, array.radius
    if reach >= radius:
        raise ValueError(
            f"output grid reaches {reach:.6g} from the origin, outside the "
            f"transducer sphere of radius {radius:.6g}"
        )
    return reach, radius


def invert_spherical_means_3d(data, out):
    """Reconstruct kernel columns from spherical-pulse responses (3D).

    Filters each transducer trace with (1/t) d/dt (g/t), where g is the
    measured spherical integral as a function of radius, differentiates
    the filtered trace once more in t, and evaluates the closed-form
    divergence of the backprojection on the output grid.  Both t
    derivatives are second-order differences, so at least _MIN_RADII radii
    are needed.  The backprojection reads zero outside the radii, so they
    must reach R + the output grid's circumradius, the farthest any output
    pixel lies from a transducer, and start at most one step beyond R -
    that circumradius, the nearest (both up to the relative _END_RTOL).
    """
    _require(data, SphericalMeanData, "spherical-means")
    if out.dim != 3:
        raise ValueError("spherical-means inversion requires a 3D output grid")
    if data.radii.size < _MIN_RADII:
        raise ValueError(f"spherical-means inversion needs at least {_MIN_RADII} radii for "
                         f"its radial filter stencil, got {data.radii.size}")
    reach, radius = _check_inside_sphere(out, data.array)
    if data.radii[-1] < (radius + reach) * (1.0 - _END_RTOL):
        raise ValueError(f"radii end at {data.radii[-1]:.6g}, short of R + the output grid's "
                         f"circumradius ({radius + reach:.6g})")
    dt = data.radii[1] - data.radii[0]
    if data.radii[0] > (radius - reach + dt) * (1.0 + _END_RTOL):
        raise ValueError(f"radii start at {data.radii[0]:.6g}, more than one step ({dt:.6g}) "
                         f"beyond R - the output grid's circumradius ({radius - reach:.6g})")
    if radius - reach < 2.0 * dt:
        warnings.warn(
            "output grid comes within two radial steps of the transducer "
            "sphere; values in that shell are unreliable (filter stencil "
            "truncation)",
            RuntimeWarning,
            stacklevel=2,
        )
    t = data.radii[:, None]
    prof = np.gradient(data.values / t, data.radii, axis=1, edge_order=2) / t
    dprof = np.gradient(prof, data.radii, axis=1, edge_order=2)
    recs = _backproject_divergence(data.array, data.radii, dprof.transpose(2, 0, 1),
                                   out, PULSE_CONSTANT)
    return KernelMatrix(grid=out, values=recs)


def _detector_profiles(data, t):
    """t-derivatives h'(z, t) of the filtered time profiles, shape
    (n_electrodes, n_transducers, n_t), from the monochromatic responses.

    The profile is h = S / t with S(z, t) = -integral over the frequency
    band of [cos(lt) Im W - sin(lt) Re W] l dl, so h' = (S' - h) / t with
    S' = integral of [sin(lt) Im W + cos(lt) Re W] l^2 dl: the exact
    derivative of the same trapezoid quadrature on the data's frequency
    lattice, not a difference on the t lattice.  A cosine taper over the
    top 10% of the band suppresses ringing from the hard cutoff.  The
    band is extended down to zero frequency where the integrand vanishes.
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
    wi, wr = np.ascontiguousarray(w.imag), np.ascontiguousarray(w.real)
    prof = (-(ct * coef) @ wi + (st * coef) @ wr) / t[:, None]  # (n_el, n_t, n_trans)
    coef = coef * lam
    dprof = ((st * coef) @ wi + (ct * coef) @ wr - prof) / t[:, None]
    return dprof.transpose(0, 2, 1)


def invert_monochromatic_3d(data, out):
    """Reconstruct kernel columns from monochromatic responses (3D).

    Synthesizes the t-derivatives of the filtered time profiles from the
    frequency sweep on the default_radii time lattice of the output grid,
    then applies the same closed-form backprojection divergence as the
    pulse route, with its own normalization.
    """
    _require(data, MonochromaticData, "monochromatic")
    if out.dim != 3:
        raise ValueError("monochromatic inversion requires a 3D output grid")
    _check_inside_sphere(out, data.array)
    # sample the fastest oscillation cos(lam_max t) at 4 points/period
    t_end = _window_end(data.array, out)
    n_times = max(int(np.ceil(t_end * data.frequencies[-1] * 2.0 / np.pi)), 64)
    t = default_radii(data.array, out, n_times)
    profiles = _detector_profiles(data, t)
    recs = _backproject_divergence(data.array, t, profiles, out, MONO_CONSTANT)
    return KernelMatrix(grid=out, values=recs)


def invert_fourier(data, out, return_residue=False):
    """Invert plane-wave responses by inverse DFT back to the pixel grid.

    The data's source grid must equal the output grid (Grid compares
    counts, spacing and origin exactly).  The reconstruction is exact
    to roundoff for data produced by the forward transform; the imaginary
    part (zero for consistent data) is dropped, and its relative norm per
    electrode is available as a diagnostic.
    """
    _require(data, FourierData, "Fourier")
    if data.grid != out:
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

    Ramp-filters over offsets with the Toeplitz matrix F[i, k] = c[|i - k|],
    c[k] = ds h(k ds) for the band-limited ramp kernel h (Kak & Slaney 1988,
    ch. 3): 1/(4 ds) at k = 0, -1/(pi^2 k^2 ds) at odd k, 0 at even k > 0;
    backprojects with linear interpolation in the offset; weights by
    pi / n_angles, so the angles must be theta_0 + pi k / n_angles, a
    half-turn up to the relative _LATTICE_RTOL.  A block of angles (at
    most _XRAY_BLOCK filtered values and weights) is one product
    F @ values and one CSR matrix with 1 - f and f at columns a*n_off + j
    and a*n_off + j + 1 for a pixel's offset index j + f at angle a.  The coverage check keeps j + f in
    [0, n_off - 1] up to rounding, so no pixel needs an outside mask.
    """
    _require(data, Sinogram, "x-ray")
    if out.dim != 2:
        raise ValueError("x-ray inversion requires a 2D output grid")
    n_angles = data.angles.size
    if n_angles > 1:
        span = n_angles * _uniform_spacing(data.angles, "angles")
        if abs(span - np.pi) > _LATTICE_RTOL * np.pi:
            raise ValueError(f"{n_angles} angles from {data.angles[0]:.6g} to "
                             f"{data.angles[-1]:.6g} span {span:.6g}, not a half-turn (pi)")
    if n_angles < 8:
        warnings.warn(
            f"only {n_angles} projection angles; expect severe angular "
            "undersampling artifacts",
            RuntimeWarning,
            stacklevel=2,
        )
    _check_offsets_cover(data.offsets, out)
    ds = data.offsets[1] - data.offsets[0]
    n_off, n_el, n_pix = data.offsets.size, data.values.shape[2], out.n_pixels
    c = np.zeros(n_off)
    c[0], c[1::2] = 0.25 / ds, -1.0 / (np.pi**2 * ds) / np.arange(1, n_off, 2) ** 2
    F = c[np.abs(np.arange(n_off)[:, None] - np.arange(n_off))]
    nb = min(n_angles, max(1, _XRAY_BLOCK // max(n_off * n_el, 2 * n_pix)))
    xy1 = np.stack([*(m.ravel() for m in out.mesh()), np.ones(n_pix)], axis=1) / ds
    T = np.stack([np.cos(data.angles), np.sin(data.angles), np.full(n_angles, -data.offsets[0])])
    q_buf, u_buf = np.empty((nb, n_off, n_el)), np.empty(nb * n_pix)
    w_buf, j_buf = np.empty(2 * nb * n_pix), np.empty(2 * nb * n_pix, dtype=np.int32)
    recs = np.zeros((n_pix, n_el))
    for a0 in range(0, n_angles, nb):
        m = min(nb, n_angles - a0)
        q = np.matmul(F, data.values[a0:a0 + m], out=q_buf[:m])
        u = np.matmul(xy1, T[:, a0:a0 + m], out=u_buf[:m * n_pix].reshape(n_pix, m))
        w, j = (b[:2 * m * n_pix].reshape(n_pix, m, 2) for b in (w_buf, j_buf))
        np.clip(u, 0, n_off - 2, out=j[..., 0], casting="unsafe")  # j + 1 stays on the block
        np.subtract(u, j[..., 0], out=w[..., 1])
        np.subtract(1.0, w[..., 1], out=w[..., 0])
        j[..., 0] += np.arange(0, m * n_off, n_off, dtype=np.int32)
        np.add(j[..., 0], 1, out=j[..., 1])
        # each row's columns increase and are distinct, so scipy takes B as built
        B = scipy.sparse.csr_matrix(
            (w.ravel(), j.ravel(), np.arange(0, 2 * m * n_pix + 1, 2 * m, dtype=np.int32)),
            shape=(n_pix, m * n_off))
        recs += B @ q.reshape(m * n_off, n_el)
    return KernelMatrix(grid=out, values=recs.T * (np.pi / n_angles))


_METHODS = {
    "spherical": invert_spherical_means_3d,
    "monochromatic": invert_monochromatic_3d,
    "plane": invert_fourier,
    "xray": invert_xray_2d,
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
    return _METHODS[method](data, out)
