"""Grids, fields, phantoms and measurement geometry.

Conventions shared by every module in the package:

* fields are flat float arrays in row-major order with the x index
  fastest, i.e. flat = ix + nx*(iy + ny*iz)
* a grid's origin is the coordinate of the first pixel center; pixel i
  sits at origin + i*spacing and the domain box extends half a spacing
  beyond the outermost centers
* index coordinates u = (x - origin) / spacing of points on a grid are
  coordinate-major, shape (dim, n_points), so each axis is one contiguous
  row (see _stencil)
* containers are frozen after construction and their arrays are read-only
  and finite, both enforced by _frozen_array; a container copies an array
  it is given, unless a producer in the package hands over one it has
  just made (see _Handover); a Grid compares by value, every container
  holding an array by identity
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass

import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
_MAX_APERTURE_RADIUS = 1e150   # squares of coordinates and 4 pi R^2 stay finite


class _Handover:
    """An array that a producer in the package has just made and holds
    nowhere else, passed to a container in its place: _frozen_array then
    freezes that array itself instead of a copy.  A caller's own array is
    never wrapped, so it is copied and stays writable."""

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = array


def _frozen_array(a, name, dtype=float, ndim=None):
    """C-ordered, read-only array of ``a`` as ``dtype`` (of rank ``ndim`` if
    given), rejected under ``name`` unless every entry is finite, and whole
    for integers.  It is a copy, unless ``a`` is a _Handover of an array
    that already has the dtype and C order and owns its data (a view's base
    may be held elsewhere): that array is frozen in place."""
    integer = np.issubdtype(dtype, np.integer)
    if isinstance(a, _Handover):
        out = np.asarray(a.array, dtype=float if integer else dtype, order="C")
        if not out.flags.owndata:
            out = out.copy()
    else:
        out = np.array(a, dtype=float if integer else dtype, copy=True, order="C")
    if ndim is not None and out.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    if integer and not np.all((out == np.trunc(out)) & (np.abs(out) < np.iinfo(dtype).max)):
        raise ValueError(f"{name} must be integers")
    out = out.astype(dtype, copy=False)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform rectilinear pixel grid in 2 or 3 dimensions.  Grids compare
    and hash by value."""

    origin: np.ndarray
    spacing: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", _frozen_array(self.origin, "grid origin", ndim=1))
        object.__setattr__(self, "spacing", _frozen_array(self.spacing, "grid spacing", ndim=1))
        object.__setattr__(self, "counts",
                           _frozen_array(self.counts, "grid counts", dtype=np.int64, ndim=1))
        dim = self.origin.size
        if dim not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {dim}")
        if self.spacing.size != dim or self.counts.size != dim:
            raise ValueError("origin, spacing and counts must have equal length")
        if np.any(self.spacing <= 0):
            raise ValueError("grid spacing must be positive on every axis")
        if np.any(self.counts < 2):
            raise ValueError("grid needs at least 2 pixels per axis")

    def _key(self):
        return tuple(tuple(a.tolist()) for a in (self.origin, self.spacing, self.counts))

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def dim(self):
        return int(self.origin.size)

    @property
    def n_pixels(self):
        return int(np.prod(self.counts))

    @property
    def pixel_measure(self):
        """Area (2d) or volume (3d) of one pixel."""
        return float(np.prod(self.spacing))

    def axes(self):
        """Per-axis center coordinates."""
        return [self.origin[d] + self.spacing[d] * np.arange(self.counts[d])
                for d in range(self.dim)]

    def bounds(self):
        """Domain box (lo, hi), half a pixel beyond the outermost centers."""
        lo = self.origin - 0.5 * self.spacing
        hi = self.origin + (self.counts - 0.5) * self.spacing
        return lo, hi

    def mesh(self):
        """Coordinate arrays (X, Y[, Z]), each shaped counts[::-1]."""
        axes = self.axes()
        grids = np.meshgrid(*axes[::-1], indexing="ij")
        return tuple(grids[::-1])

    def centers(self):
        """(n_pixels, dim) pixel-center coordinates in storage order."""
        return np.stack([m.ravel() for m in self.mesh()], axis=1)

    @property
    def diameter(self):
        lo, hi = self.bounds()
        return float(np.linalg.norm(hi - lo))

    @property
    def circumradius(self):
        """Distance from the origin to the farthest corner of the domain box."""
        lo, hi = self.bounds()
        return float(np.sqrt(np.sum(np.maximum(np.abs(lo), np.abs(hi)) ** 2)))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Flat sample array bound to a grid, x index fastest."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, "field values", ndim=1))
        if self.values.size != self.grid.n_pixels:
            raise ValueError(
                f"field has {self.values.size} values for a grid of "
                f"{self.grid.n_pixels} pixels")

    def reshape(self):
        """View shaped counts[::-1], so arr[..., iy, ix] indexes the field."""
        return self.values.reshape(tuple(self.grid.counts[::-1]))


@dataclass(frozen=True, eq=False)
class Disk:
    """Circular (2d) or spherical (3d) inclusion added to the log conductivity."""

    center: np.ndarray
    radius: float
    amplitude: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen_array(self.center, "disk center", ndim=1))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if not 0 < self.radius < np.inf:
            raise ValueError("disk radius must be positive and finite")
        if not abs(self.amplitude) <= 1.0:
            raise ValueError("disk amplitude must lie in [-1, 1]")


@dataclass(frozen=True, eq=False)
class Phantom:
    """Log-conductivity field."""

    field: ScalarField

    @property
    def grid(self):
        return self.field.grid

    def conductivity(self):
        return np.exp(self.field.values)


def build_phantom_disks(grid, disks):
    """Rasterize disk inclusions onto a log-conductivity field.

    A pixel belongs to a disk when its center lies in the closed disk;
    overlapping disks add their amplitudes.  Disks must lie entirely
    inside the grid's domain box.
    """
    disks = tuple(d if isinstance(d, Disk) else Disk(*d) for d in disks)
    lo, hi = grid.bounds()
    for i, d in enumerate(disks):
        if d.center.size != grid.dim:
            raise ValueError(f"disk {i}: center has dimension {d.center.size}, "
                             f"grid has {grid.dim}")
        if np.any(d.center - d.radius < lo) or np.any(d.center + d.radius > hi):
            raise ValueError(
                f"disk {i} (center {d.center.tolist()}, radius {d.radius}) "
                f"extends outside the domain box {lo.tolist()}..{hi.tolist()}")
    values = np.zeros(grid.n_pixels)
    if disks:
        pts = grid.centers()
        for d in disks:
            inside = np.linalg.norm(pts - d.center, axis=1) <= d.radius
            values += d.amplitude * inside
    return Phantom(field=ScalarField(grid, values))


@dataclass(frozen=True, eq=False)
class TransducerArray:
    """Point transducers on a sphere centered at the origin.

    Weights are quadrature weights for integrals over the aperture, so
    they sum to its measure 4*pi*R^2.  The outward normals follow from the
    positions, as positions / R.
    """

    positions: np.ndarray
    weights: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", self._checked_radius(self.radius))
        object.__setattr__(self, "positions",
                           _frozen_array(self.positions, "transducer positions", ndim=2))
        object.__setattr__(self, "weights",
                           _frozen_array(self.weights, "transducer weights", ndim=1))
        if self.positions.shape[1] != 3:
            raise ValueError("transducer positions must be 3d points")
        if self.weights.size != self.n:
            raise ValueError("positions and weights must agree in length")
        r = np.linalg.norm(self.positions, axis=1)
        if not np.all(np.abs(r - self.radius) <= 1e-12 * self.radius):
            raise ValueError("transducer positions must lie on the aperture, |z| = R")
        measure = 4 * np.pi * self.radius ** 2
        if not abs(self.weights.sum() - measure) <= 1e-6 * measure:
            raise ValueError("quadrature weights must sum to the aperture measure")

    @staticmethod
    def _checked_radius(radius):
        """``radius`` as a float, rejected unless positive and at most
        _MAX_APERTURE_RADIUS, where R^2 and 4 pi R^2 are still finite."""
        radius = float(radius)
        if not 0 < radius <= _MAX_APERTURE_RADIUS:
            raise ValueError("aperture radius must be positive and finite, "
                             f"at most {_MAX_APERTURE_RADIUS:g}")
        return radius

    @property
    def n(self):
        return self.positions.shape[0]

    @property
    def normals(self):
        return self.positions / self.radius


def make_transducer_array(n, radius):
    """Equal-weight transducers on the n-point Fibonacci lattice of that radius."""
    if n < 4:
        raise ValueError("need at least 4 transducers")
    radius = TransducerArray._checked_radius(radius)
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    unit = np.stack([rho * np.cos(GOLDEN_ANGLE * k), rho * np.sin(GOLDEN_ANGLE * k), z], axis=1)
    return TransducerArray(radius * unit, np.full(n, 4 * np.pi * radius ** 2 / n), radius)


@dataclass(frozen=True, eq=False)
class BoundaryElectrodes:
    """One electrode per boundary cell face of a 2d grid.

    Electrodes are ordered left edge (increasing y), right edge, bottom
    edge (increasing x), top edge.  ``current`` is the prescribed current
    density per electrode; the face layout is computed from the grid:
    ``cells`` (flat index of the boundary cell), ``points`` (face
    midpoints), ``normal_spacing`` (cell spacing across the face) and
    ``segment_length`` (face length), so the injected current is
    sum(current * segment_length).  Balance is not enforced here; the
    conduction solver rejects incompatible data.
    """

    grid: Grid
    current: np.ndarray
    cells: np.ndarray = dataclasses.field(init=False, repr=False)
    points: np.ndarray = dataclasses.field(init=False, repr=False)
    normal_spacing: np.ndarray = dataclasses.field(init=False, repr=False)
    segment_length: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        grid = self.grid
        if grid.dim != 2:
            raise ValueError("boundary electrodes require a 2d grid")
        nx, ny = int(grid.counts[0]), int(grid.counts[1])
        object.__setattr__(self, "current",
                           _frozen_array(self.current, "electrode current", ndim=1))
        if self.current.size != 2 * (nx + ny):
            raise ValueError(f"{self.current.size} currents for the "
                             f"{2 * (nx + ny)} boundary faces of the grid")
        hx, hy = float(grid.spacing[0]), float(grid.spacing[1])
        lo, hi = grid.bounds()
        ax, ay = grid.axes()
        ix = np.concatenate([np.zeros(ny, np.int64), np.full(ny, nx - 1),
                             np.arange(nx), np.arange(nx)])
        iy = np.concatenate([np.arange(ny), np.arange(ny),
                             np.zeros(nx, np.int64), np.full(nx, ny - 1)])
        points = np.stack([
            np.concatenate([np.full(ny, lo[0]), np.full(ny, hi[0]), ax, ax]),
            np.concatenate([ay, ay, np.full(nx, lo[1]), np.full(nx, hi[1])])], axis=1)
        across = np.repeat([hx, hy], [2 * ny, 2 * nx])
        along = np.repeat([hy, hx], [2 * ny, 2 * nx])
        object.__setattr__(self, "cells", _frozen_array(ix + nx * iy, "electrode cells", np.int64))
        object.__setattr__(self, "points", _frozen_array(points, "electrode points"))
        object.__setattr__(self, "normal_spacing", _frozen_array(across, "normal spacing"))
        object.__setattr__(self, "segment_length", _frozen_array(along, "segment length"))

    @property
    def n(self):
        return self.current.size

    def total_current(self):
        return float(np.sum(self.current * self.segment_length))


def square_boundary_electrodes(grid, left=0.0, right=0.0):
    """Electrodes on every boundary face of a 2d grid, with a constant
    current density on the left and on the right edge and none on the
    bottom and top edges (ordered as in BoundaryElectrodes)."""
    nx, ny = (int(c) for c in grid.counts[:2])
    current = np.repeat([left, right, 0.0], [ny, ny, 2 * nx])
    return BoundaryElectrodes(grid=grid, current=current)


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Linearized measurement kernel: one row per electrode, one column per
    interior pixel.  Entry (j, i) is the boundary-voltage response at
    electrode j to a unit log-conductivity density on pixel i.

    The conduction kernels (forward_eit) approximate that density: they
    perturb the phantom cells whose centres lie in pixel i and divide by
    the nominal pixel area, not by the area of those cells.  Where a pixel
    is not a whole number of cells wide (1.75 at the CLI default) the
    member cells cover 0.327 to 1.306 times the pixel area (ROADMAP item 1).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, "kernel entries", ndim=2))
        if self.values.shape[0] == 0:
            raise ValueError("kernel needs at least one electrode row")
        if self.values.shape[1] != self.grid.n_pixels:
            raise ValueError(
                f"kernel has {self.values.shape[1]} columns for a grid of "
                f"{self.grid.n_pixels} pixels")

    @property
    def n_electrodes(self):
        return self.values.shape[0]

    def column_field(self, j):
        """Kernel row j as a ScalarField on the interior grid."""
        return ScalarField(self.grid, self.values[j])


def _stencil(grid, u):
    """Multilinear interpolation stencil at index coordinates ``u``
    (dim, n_points), u = (x - origin) / spacing, on the grid padded by one
    zero layer on every side (see _padded_rows).

    Returns (near, index, weight): the indices of the points inside the
    support box -1 < u < counts (the pixel-center hull padded by one
    spacing) and, for each, the flat padded-grid indices and weights of its
    2^dim corners, shape (n_near, 2^dim), in product((0, 1), repeat=dim) order.
    Corners outside the grid land on the zero layer, so the hull rolls off
    linearly."""
    inside = (u > -1.0) & (u < grid.counts[:, None])
    near = np.flatnonzero(functools.reduce(operator.and_, inside))
    u = np.take(u, near, axis=1)
    lo = np.floor(u)
    frac = u - lo
    strides = np.cumprod(np.concatenate([[1], grid.counts[:-1] + 2]))
    # padded index lo + 1 of the lower corner; the corner block's axis d
    # holds the lower and upper neighbour along d
    base = (strides @ lo + strides.sum()).astype(np.int64)
    weight = np.stack((1.0 - frac[0], frac[0]))
    offset = np.array([0, 1])
    for d in range(1, grid.dim):
        weight = (weight[:, None] * np.stack((1.0 - frac[d], frac[d]))).reshape(2 << d, -1)
        offset = (offset[:, None] + np.array([0, strides[d]])).ravel()
    return near, (base + offset[:, None]).T, weight.T


def _padded_rows(grid, columns):
    """``columns`` (n_cols, n_pixels) as one row per pixel of the grid
    padded by one zero layer on every side, shape (prod(counts + 2), n_cols)."""
    shape = tuple(grid.counts[::-1])
    rows = np.zeros(tuple(np.add(shape, 2)) + (columns.shape[0],))
    rows[(slice(1, -1),) * grid.dim] = np.moveaxis(columns.reshape((-1,) + shape), 0, -1)
    return rows.reshape(-1, columns.shape[0])
