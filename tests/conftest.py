import numpy as np
import pytest

from synfocus.core import Grid


def rel_l2(a, b):
    """Relative L2 distance of a from reference b."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def centered_grid(n, dim, half=0.5):
    """n^dim pixel grid with centers filling (-half, half)^dim."""
    h = 2.0 * half / n
    return Grid(origin=(-half + h / 2,) * dim, spacing=(h,) * dim, counts=(n,) * dim)


def gaussian_column(grid, s, center=None):
    c = np.zeros(grid.dim) if center is None else np.asarray(center, dtype=float)
    pts = grid.centers()
    return np.exp(-np.sum((pts - c) ** 2, axis=1) / (2.0 * s * s))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


# ---------------------------------------------------------------------------
# Shared heavy pipelines (session scope): the canonical 3d focusing benchmark
# (centered gaussian, 642 transducers on the unit sphere, 400 radii, 48^3
# output) and the 2d disk FBP benchmark.  Built once, reused by the module
# tests and the acceptance tests.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def gauss48():
    """Geometry bundle for the canonical 3d gaussian benchmark."""
    from synfocus.core import make_transducer_array
    from synfocus.oracles import AnalyticPhantom
    from synfocus.wavegen import default_radii

    grid = centered_grid(48, 3)
    arr = make_transducer_array(642, radius=1.0)
    return {
        "grid": grid,
        "s": 0.2,
        "array": arr,
        "phantom": AnalyticPhantom(kind="gaussian", center=(0.0, 0.0, 0.0), scale=0.2),
        "truth": gaussian_column(grid, s=0.2),
        "radii": default_radii(arr, grid, 400),
    }


@pytest.fixture(scope="session")
def pulse_data48(gauss48):
    """Spherical-integral profiles of the gaussian from the closed-form oracle."""
    from synfocus.oracles import spherical_mean_exact
    from synfocus.wavegen import SphericalMeanData

    arr = gauss48["array"]
    radii = gauss48["radii"]
    vals = spherical_mean_exact(gauss48["phantom"], arr.positions, radii)[:, :, None]
    return SphericalMeanData(array=arr, radii=radii, values=vals)


@pytest.fixture(scope="session")
def pulse_recon48(gauss48, pulse_data48):
    """Backprojection reconstruction of the gaussian at 48^3 (flat array)."""
    from synfocus.focusing import invert_spherical_means_3d

    return invert_spherical_means_3d(pulse_data48, gauss48["grid"]).values[0]


@pytest.fixture(scope="session")
def mono_data48(gauss48):
    """Frequency-domain detector values for the same gaussian benchmark.

    Every transducer sits at distance 1 from the phantom center, so the
    time-domain spherical integral is the closed form spherical_mean_exact
    (cross-checked against the quadrature oracle in test_oracles); its
    weighted Fourier transform over a dense time lattice gives W(lam) =
    integral g(t) e^{i lam t} / (4 pi t) dt exactly to trapezoid accuracy.
    """
    from synfocus.oracles import spherical_mean_exact
    from synfocus.wavegen import MonochromaticData, default_frequencies

    arr = gauss48["array"]
    freqs = default_frequencies(gauss48["grid"])
    d = 1.0
    t = np.linspace(5e-4, d + np.sqrt(3.0) / 2.0, 3740)
    g = spherical_mean_exact(gauss48["phantom"], (d, 0.0, 0.0), t)
    wt = np.full(t.size, t[1] - t[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5
    ker = np.exp(1j * np.outer(t, freqs)) / (4.0 * np.pi * t[:, None])
    W = (g * wt) @ ker
    vals = np.repeat(W[None, :], arr.n, axis=0)[:, :, None]
    return MonochromaticData(array=arr, frequencies=freqs, values=vals)


@pytest.fixture(scope="session")
def mono_recon48(gauss48, mono_data48):
    """Monochromatic-route reconstruction at 48^3 (flat array)."""
    from synfocus.focusing import invert_monochromatic_3d

    return invert_monochromatic_3d(mono_data48, gauss48["grid"]).values[0]


@pytest.fixture(scope="session")
def disk_fbp256():
    """Analytic disk sinogram (360 angles x 256 offsets) and its FBP recon."""
    from synfocus.oracles import AnalyticPhantom, disk_sinogram
    from synfocus.wavegen import Sinogram, default_angles
    from synfocus.focusing import invert_xray_2d

    grid = centered_grid(256, 2)
    center = np.array([0.05, -0.08])
    radius = 0.3
    disk = AnalyticPhantom(kind="ball", center=center, scale=radius)
    angles = default_angles(360)
    offsets = np.linspace(-0.75, 0.75, 256)
    sino = disk_sinogram(disk, angles, offsets)
    data = Sinogram(angles=angles, offsets=offsets, values=sino[:, :, None])
    recon = invert_xray_2d(data, grid).values[0]
    r = np.linalg.norm(grid.centers() - center[None, :], axis=1)
    return {
        "grid": grid,
        "center": center,
        "radius": radius,
        "data": data,
        "recon": recon,
        "truth": (r <= radius).astype(float),
        "rim_mask": np.abs(r - radius) > 2.0 * grid.spacing[0],
    }


def random_smooth_column(grid, rng, k=6):
    """Random mixture of gaussian bumps well inside the domain."""
    lo, hi = grid.bounds()
    span = hi - lo
    vals = np.zeros(grid.n_pixels)
    pts = grid.centers()
    for _ in range(k):
        c = lo + span * (0.25 + 0.5 * rng.random(grid.dim))
        s = float(np.min(span)) * (0.05 + 0.15 * rng.random())
        a = rng.standard_normal()
        vals += a * np.exp(-np.sum((pts - c) ** 2, axis=1) / (2.0 * s * s))
    return vals
