import math
from pathlib import Path

import numpy as np
import pytest

from synfocus.core import Grid, _padded_rows, _stencil


def rel_l2(a, b):
    """Relative L2 distance of a from reference b."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def centered_grid(n, dim, half=0.5):
    """n^dim pixel grid with centers filling (-half, half)^dim."""
    h = 2.0 * half / n
    return Grid(origin=(-half + h / 2,) * dim, spacing=(h,) * dim, counts=(n,) * dim)


def stencil_gather(grid, columns, u):
    """Multilinear interpolation of ``columns`` (n_cols, n_pixels) at index
    coordinates ``u`` (dim, n_points), shape (n_points, n_cols): the
    weighted gather of core._stencil from the zero-padded rows, zero
    outside its support."""
    near, index, weight = _stencil(grid, u)
    out = np.zeros((u.shape[1], columns.shape[0]))
    out[near] = np.einsum("pc,pcj->pj", weight, _padded_rows(grid, columns)[index])
    return out


def count_calls(monkeypatch, module, names):
    """Calls of each of ``module``'s functions ``names`` from now on, as a
    dict the caller may reset."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _f=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


# Readers of the record the package writes, built on numpy and the header
# text alone: the package itself has no readers.

def csv_header(path):
    """The leading '#' lines of a record CSV as {name: text}, split at the
    first ': ' ('# axis k0: ...' gives 'axis k0'; a line without one maps
    to '')."""
    header = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                break
            name, _, text = line[1:].strip().partition(": ")
            header[name] = text
    return header


def read_csv(path):
    """(csv_header(path), values) with the values parsed by np.loadtxt as
    a 2-d float array.  A table (a '# shape:' line) comes back as complex
    `re,im` pairs if its '# dtype:' says so, checked to hold one line per
    row of its shape and reshaped to it."""
    header = csv_header(path)
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    if "shape" in header:
        shape = tuple(int(n) for n in header["shape"].split(","))
        if header["dtype"] == "complex":
            values = values.view(complex)
        assert values.shape == (math.prod(shape[:-1]), shape[-1]), (path, values.shape)
        values = values.reshape(shape)
    return header, values


def declared_shape(header):
    """The value shape a record CSV's header declares: its '# shape:' for a
    table, one row per electrode for a kernel and one value per line for a
    field, over the grid's pixels."""
    if "shape" in header:
        return tuple(int(n) for n in header["shape"].split(","))
    counts = header["grid"].split("counts=")[1]
    pixels = math.prod(int(n) for n in counts.split(","))
    return (int(header["electrodes"]), pixels) if "electrodes" in header else (pixels, 1)


def read_pgm(path):
    """A plain (P2) PGM as (its four header lines, pixel rows from the top)."""
    with open(path) as f:
        header = [next(f).rstrip("\n") for _ in range(4)]
    return header, np.loadtxt(path, dtype=int, skiprows=4, ndmin=2)


def read_metrics(out_dir):
    """out_dir/metrics.txt as {name: value text}; every line must be
    'name = value'."""
    items = {}
    for line in (Path(out_dir) / "metrics.txt").read_text().splitlines():
        name, sep, value = line.partition(" = ")
        assert sep, f"malformed metrics line: {line!r}"
        items[name] = value
    return items


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
    from oracles import AnalyticPhantom
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
    from oracles import spherical_mean_exact
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
    from oracles import spherical_mean_exact
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
    from oracles import AnalyticPhantom, disk_sinogram
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
