"""Grids, fields, phantoms and measurement geometry.

Conventions shared by every module in the package:

* fields are flat float arrays in row-major order with the x index
  fastest, i.e. flat = ix + nx*(iy + ny*iz)
* a grid's origin is the coordinate of the first pixel center; pixel i
  sits at origin + i*spacing and the domain box extends half a spacing
  beyond the outermost centers
* containers are frozen after construction and their arrays are read-only
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def _frozen_array(a, dtype=float, ndim=None):
    out = np.array(a, dtype=dtype, copy=True, order="C")
    if ndim is not None and out.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {out.shape}")
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
        object.__setattr__(self, "origin", _frozen_array(self.origin, ndim=1))
        object.__setattr__(self, "spacing", _frozen_array(self.spacing, ndim=1))
        object.__setattr__(self, "counts", _frozen_array(self.counts, dtype=np.int64, ndim=1))
        dim = self.origin.size
        if dim not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {dim}")
        if self.spacing.size != dim or self.counts.size != dim:
            raise ValueError("origin, spacing and counts must have equal length")
        if not np.all(np.isfinite(self.origin)) or not np.all(np.isfinite(self.spacing)):
            raise ValueError("grid origin and spacing must be finite")
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


@dataclass(frozen=True)
class ScalarField:
    """Flat sample array bound to a grid, x index fastest."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, ndim=1))
        if self.values.size != self.grid.n_pixels:
            raise ValueError(
                f"field has {self.values.size} values for a grid of "
                f"{self.grid.n_pixels} pixels")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def reshape(self):
        """View shaped counts[::-1], so arr[..., iy, ix] indexes the field."""
        return self.values.reshape(tuple(self.grid.counts[::-1]))


@dataclass(frozen=True)
class Disk:
    """Circular (2d) or spherical (3d) inclusion added to the log conductivity."""

    center: np.ndarray
    radius: float
    amplitude: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen_array(self.center, ndim=1))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")
        if not abs(self.amplitude) <= 1.0:
            raise ValueError("disk amplitude must lie in [-1, 1]")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TransducerArray:
    """Point transducers on a circle (2d) or sphere (3d) centered at the origin.

    Weights are quadrature weights for integrals over the aperture, so
    they sum to its measure: 2*pi*R in 2d, 4*pi*R^2 in 3d.
    """

    positions: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "positions", _frozen_array(self.positions, ndim=2))
        object.__setattr__(self, "normals", _frozen_array(self.normals, ndim=2))
        object.__setattr__(self, "weights", _frozen_array(self.weights, ndim=1))
        object.__setattr__(self, "radius", float(self.radius))
        n, dim = self.positions.shape
        if dim not in (2, 3):
            raise ValueError("transducer positions must be 2d or 3d points")
        if self.normals.shape != (n, dim) or self.weights.size != n:
            raise ValueError("positions, normals and weights must agree in length")
        if not self.radius > 0:
            raise ValueError("aperture radius must be positive")
        r = np.linalg.norm(self.positions, axis=1)
        if np.any(np.abs(r - self.radius) > 1e-12 * self.radius):
            raise ValueError("transducer positions must lie on the aperture, |z| = R")
        nn = np.linalg.norm(self.normals, axis=1)
        if np.any(np.abs(nn - 1.0) > 1e-12):
            raise ValueError("transducer normals must be unit vectors")
        measure = 2 * np.pi * self.radius if dim == 2 else 4 * np.pi * self.radius ** 2
        if abs(self.weights.sum() - measure) > 1e-6 * measure:
            raise ValueError("quadrature weights must sum to the aperture measure")

    @property
    def n(self):
        return self.positions.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]


def _unit_lattice(n, dim, k=None):
    """n equally weighted unit vectors: uniform angles on the circle in 2d,
    a Fibonacci lattice on the sphere in 3d; ``k`` picks indices (2d: any int)."""
    k = np.arange(n) if k is None else k
    if dim == 2:
        ang = 2.0 * np.pi * k / n
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    z = 1.0 - (2.0 * k + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = GOLDEN_ANGLE * k
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def make_transducer_array(n, radius, dim=3):
    """Equal-weight transducer layout on the unit lattice (see _unit_lattice)."""
    if n < 4:
        raise ValueError("need at least 4 transducers")
    if not radius > 0:
        raise ValueError("aperture radius must be positive")
    if dim not in (2, 3):
        raise ValueError("transducer arrays are 2d or 3d")
    unit = _unit_lattice(n, dim)
    measure = 2 * np.pi * radius if dim == 2 else 4 * np.pi * radius ** 2
    weights = np.full(n, measure / n)
    return TransducerArray(positions=radius * unit, normals=unit,
                           weights=weights, radius=radius)


@dataclass(frozen=True)
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
        object.__setattr__(self, "current", _frozen_array(self.current, ndim=1))
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
        object.__setattr__(self, "cells", _frozen_array(ix + nx * iy, dtype=np.int64))
        object.__setattr__(self, "points", _frozen_array(points))
        object.__setattr__(self, "normal_spacing", _frozen_array(across))
        object.__setattr__(self, "segment_length", _frozen_array(along))

    @property
    def n(self):
        return self.current.size

    def total_current(self):
        return float(np.sum(self.current * self.segment_length))


def square_boundary_electrodes(grid, left=0.0, right=0.0, bottom=0.0, top=0.0):
    """Electrodes on every boundary face of a 2d grid, with a constant
    current density on each edge (ordered as in BoundaryElectrodes)."""
    nx, ny = (int(c) for c in grid.counts[:2])
    current = np.repeat([left, right, bottom, top], [ny, ny, nx, nx])
    return BoundaryElectrodes(grid=grid, current=current)


@dataclass(frozen=True)
class KernelMatrix:
    """Linearized measurement kernel: one row per electrode, one column per
    interior pixel.  Entry (j, i) is the boundary-voltage response at
    electrode j to a unit log-conductivity density on pixel i.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, ndim=2))
        if self.values.shape[1] != self.grid.n_pixels:
            raise ValueError(
                f"kernel has {self.values.shape[1]} columns for a grid of "
                f"{self.grid.n_pixels} pixels")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel entries must be finite")

    @property
    def n_electrodes(self):
        return self.values.shape[0]

    def column_field(self, j):
        """Kernel row j as a ScalarField on the interior grid."""
        return ScalarField(self.grid, self.values[j])


def _interp(grid, columns, points):
    """Multilinear interpolation of every row of ``columns`` (n_cols,
    n_pixels) at ``points`` (n_points, dim); returns (n_points, n_cols).

    Points beyond the pixel-center hull roll off linearly to zero within
    one spacing and are zero farther out.
    """
    u = (points - grid.origin[None, :]) / grid.spacing[None, :]
    n_cols = columns.shape[0]
    out = np.zeros((points.shape[0], n_cols))
    near = np.all((u > -1.0) & (u < grid.counts[None, :]), axis=1)
    if not np.any(near):
        return out
    u = u[near]
    i0 = np.floor(u).astype(np.int64)
    frac = u - i0
    # a zero layer on every side keeps all 2^dim corners valid (rows: pixels)
    padded = np.pad(columns.reshape((n_cols,) + tuple(grid.counts[::-1])),
                    [(0, 0)] + [(1, 1)] * grid.dim).reshape(n_cols, -1).T.copy()
    strides = np.cumprod(np.concatenate([[1], grid.counts[:-1] + 2]))
    base = (i0 + 1) @ strides
    sub = np.zeros((u.shape[0], n_cols))
    for corner in itertools.product((0, 1), repeat=grid.dim):
        w = np.ones(u.shape[0])
        for d in range(grid.dim):
            w *= frac[:, d] if corner[d] else (1.0 - frac[:, d])
        sub += w[:, None] * np.take(padded, base + np.dot(corner, strides), axis=0)
    out[near] = sub
    return out


def interp_field(field, points):
    """Multilinear interpolation of a ScalarField at arbitrary points.

    Points outside the convex hull of the pixel centers roll off linearly
    to zero within one spacing and are zero beyond; the kernel is assumed
    supported inside the grid.
    """
    g = field.grid
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != g.dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, grid has {g.dim}")
    out = _interp(g, field.values[None, :], pts)[:, 0]
    return out[0] if squeeze else out
