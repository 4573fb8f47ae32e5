"""Conduction forward problem on the square and the measurement kernel.

The solver discretizes div(sigma grad u) = 0 with prescribed Neumann
current on the boundary using a conservative 5-point scheme: both u and
sigma live at cell centers and the face conductance is the harmonic mean
of the two adjacent cells.  With injected current density g on a boundary
face of length L the discrete balance for each cell reads

    sum_faces c_f (u_a - u_b) = sum_boundary_faces g * L

which is a symmetric positive-semidefinite system with the constants as
null space.  Solutions are gauged by subtracting the mean of the
boundary trace.

The measurement kernel is the linearization of the boundary trace with
respect to local log-conductivity changes.  ``kernel_bruteforce``
measures it column by column with finite perturbations and is the ground
truth; ``kernel_adjoint`` evaluates the same discrete derivative exactly
with one extra solve per electrode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from .core import (Grid, KernelMatrix, Phantom, ScalarField,
                   square_boundary_electrodes, _frozen_array)

DEFAULT_TOL = 1e-10
DEFAULT_EPS = 1e-3
_MAXITER = 50_000


@dataclass(frozen=True)
class ConductionSolution:
    """Interior potential, gauged boundary trace and solver residual."""

    potential: ScalarField
    boundary_trace: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "boundary_trace", _frozen_array(self.boundary_trace, ndim=1))
        object.__setattr__(self, "residual", float(self.residual))


def left_right_current_pattern(grid, amplitude=1.0):
    """Current density +amplitude entering the left edge, -amplitude leaving
    the right edge, zero on top and bottom.

    The sign split (rather than equal signs on both edges) is what makes
    the Neumann data compatible on the square.
    """
    return square_boundary_electrodes(grid, left=amplitude, right=-amplitude)


def _faces(grid, sigma):
    """Face lists for the 5-point stencil.

    Returns (a, b, cond) index/conductance arrays where ``cond`` already
    carries the transverse/normal spacing ratio, plus the per-side
    sensitivities d cond / d eps for a log-perturbation of sigma on the
    a-side and b-side cells (used by the adjoint kernel).
    """
    nx, ny = int(grid.counts[0]), int(grid.counts[1])
    hx, hy = float(grid.spacing[0]), float(grid.spacing[1])
    s = sigma.reshape(ny, nx)

    ia, ib, cond, da, db = [], [], [], [], []
    for axis, geom in ((0, hy / hx), (1, hx / hy)):
        if axis == 0:
            sa, sb = s[:, :-1], s[:, 1:]
            idx = np.arange(nx * ny).reshape(ny, nx)
            a, b = idx[:, :-1], idx[:, 1:]
        else:
            sa, sb = s[:-1, :], s[1:, :]
            idx = np.arange(nx * ny).reshape(ny, nx)
            a, b = idx[:-1, :], idx[1:, :]
        sa, sb = sa.ravel(), sb.ravel()
        den = sa + sb
        c = 2.0 * sa * sb / den
        ia.append(a.ravel()); ib.append(b.ravel()); cond.append(geom * c)
        # d/d eps of the harmonic mean when sigma -> sigma*e^eps on one side
        da.append(geom * sa * 2.0 * sb * sb / (den * den))
        db.append(geom * sb * 2.0 * sa * sa / (den * den))
    return (np.concatenate(ia), np.concatenate(ib), np.concatenate(cond),
            np.concatenate(da), np.concatenate(db))


def _assemble(grid, sigma):
    """Conduction matrix and the face lists it was built from (see _faces)."""
    faces = _faces(grid, sigma)
    a, b, c = faces[:3]
    n = grid.n_pixels
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([c, c, -c, -c])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr(), faces


def _electrode_faces(grid, electrodes):
    """Match electrode points to boundary cell faces.

    Returns (cell index, normal axis, face length) per electrode.
    """
    lo, hi = grid.bounds()
    nx, ny = int(grid.counts[0]), int(grid.counts[1])
    hx, hy = float(grid.spacing[0]), float(grid.spacing[1])
    scale = float(np.max(hi - lo))
    cells = np.empty(electrodes.n, dtype=np.int64)
    axes = np.empty(electrodes.n, dtype=np.int64)
    lengths = np.empty(electrodes.n)
    for j, p in enumerate(electrodes.points):
        if abs(p[0] - lo[0]) <= 1e-9 * scale or abs(p[0] - hi[0]) <= 1e-9 * scale:
            iy = int(round((p[1] - grid.origin[1]) / hy))
            if not (0 <= iy < ny) or abs(grid.origin[1] + iy * hy - p[1]) > 1e-9 * scale:
                raise ValueError(f"electrode {j} is not aligned with a boundary face")
            ix = 0 if abs(p[0] - lo[0]) <= 1e-9 * scale else nx - 1
            cells[j], axes[j], lengths[j] = ix + nx * iy, 0, hy
        elif abs(p[1] - lo[1]) <= 1e-9 * scale or abs(p[1] - hi[1]) <= 1e-9 * scale:
            ix = int(round((p[0] - grid.origin[0]) / hx))
            if not (0 <= ix < nx) or abs(grid.origin[0] + ix * hx - p[0]) > 1e-9 * scale:
                raise ValueError(f"electrode {j} is not aligned with a boundary face")
            iy = 0 if abs(p[1] - lo[1]) <= 1e-9 * scale else ny - 1
            cells[j], axes[j], lengths[j] = ix + nx * iy, 1, hx
        else:
            raise ValueError(f"electrode {j} does not lie on the domain boundary")
    return cells, axes, lengths


def _check_compatible(electrodes):
    total = electrodes.total_current()
    scale = float(np.sum(np.abs(electrodes.current) * electrodes.segment_length))
    if scale > 0 and abs(total) > 1e-10 * scale:
        raise ValueError(
            f"incompatible Neumann data: net injected current {total:g} != 0")


def _solve_spd(A, b, tol, x0=None):
    """Conjugate gradients on the singular compatible system; returns the
    solution and its relative residual."""
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0
    x, info = cg(A, b, x0=x0, rtol=tol, atol=0.0, maxiter=_MAXITER)
    res = float(np.linalg.norm(A @ x - b)) / bnorm
    if info != 0 or not np.isfinite(res) or res > 10 * tol:
        raise RuntimeError(
            f"conduction solver did not converge: relative residual {res:g} "
            f"(target {tol:g})")
    return x, res


def solve_conduction(phantom, electrodes, tol=DEFAULT_TOL):
    """Solve the Neumann conduction problem for one current pattern.

    Returns the cell-centered potential and the boundary trace at the
    electrode points, both gauged so the trace has zero mean.
    """
    return _solve_conduction_arrays(phantom.grid, phantom.conductivity(),
                                    electrodes, tol)


def _solve_conduction_arrays(grid, sigma, electrodes, tol, x0=None):
    if grid.dim != 2:
        raise ValueError("the conduction solver is 2d only")
    _check_compatible(electrodes)
    faces = _electrode_faces(grid, electrodes)
    A, _ = _assemble(grid, sigma)
    b = np.zeros(grid.n_pixels)
    np.add.at(b, faces[0], electrodes.current * faces[2])
    u, res = _solve_spd(A, b, tol, x0=x0)
    trace = _boundary_trace(grid, u, sigma, electrodes, faces)
    shift = trace.mean()
    return ConductionSolution(potential=ScalarField(grid, u - shift),
                              boundary_trace=trace - shift,
                              residual=res)


def _boundary_trace(grid, u, sigma, electrodes, faces):
    """One-sided reconstruction of u at the boundary, u_cell + (h/2) g/sigma;
    second order for the prescribed-flux boundary."""
    cells, axes_, _ = faces
    normal_h = np.where(axes_ == 0, float(grid.spacing[0]), float(grid.spacing[1]))
    return u[cells] + 0.5 * normal_h * electrodes.current / sigma[cells]


def _interior_map(phantom_grid, interior):
    """Map phantom cells to interior pixels by cell-center membership
    (half-open pixel boxes).  Returns per-cell pixel index, -1 outside."""
    if interior.dim != phantom_grid.dim:
        raise ValueError("interior grid dimension must match the phantom grid")
    centers = phantom_grid.centers()
    lo = interior.origin - 0.5 * interior.spacing
    idx = np.floor((centers - lo[None, :]) / interior.spacing[None, :]).astype(np.int64)
    ok = np.all((idx >= 0) & (idx < interior.counts[None, :]), axis=1)
    flat = idx[:, 0].copy()
    mult = 1
    for d in range(1, interior.dim):
        mult *= int(interior.counts[d - 1])
        flat += idx[:, d] * mult
    flat[~ok] = -1
    counts = np.bincount(flat[ok], minlength=interior.n_pixels)
    if np.any(counts == 0):
        raise ValueError("every interior pixel must contain at least one "
                         "phantom cell center; use a coarser interior grid")
    return flat


def kernel_bruteforce(phantom, electrodes, interior, eps=DEFAULT_EPS,
                      tol=DEFAULT_TOL):
    """Measurement kernel by finite perturbation, one solve per pixel.

    Entry (j, i) is [h_perturbed(y_j) - h(y_j)] / (eps * pixel_area) where
    the perturbation adds eps to log sigma on interior pixel i.
    """
    if not eps > 0:
        raise ValueError("perturbation size eps must be positive")
    grid = phantom.grid
    cell2pix = _interior_map(grid, interior)
    base = solve_conduction(phantom, electrodes, tol)
    base_u = base.potential.values
    log_sigma = phantom.field.values
    area = interior.pixel_measure

    values = np.empty((electrodes.n, interior.n_pixels))
    for i in range(interior.n_pixels):
        pert = log_sigma + eps * (cell2pix == i)
        sol = _solve_conduction_arrays(grid, np.exp(pert), electrodes, tol,
                                       x0=base_u.copy())
        values[:, i] = (sol.boundary_trace - base.boundary_trace) / (eps * area)
    return KernelMatrix(grid=interior, values=values, electrodes=electrodes)


def kernel_adjoint(phantom, electrodes, interior, tol=DEFAULT_TOL):
    """Measurement kernel via adjoint solves, one per electrode.

    Computes the exact derivative of the gauged boundary trace with
    respect to per-pixel log-conductivity: the trace functional for each
    electrode is solved back through the same conduction operator, and the
    derivative of every face conductance is accumulated against the
    forward/adjoint gradients.  Matches kernel_bruteforce up to the
    brute-force linearization error.
    """
    grid = phantom.grid
    if grid.dim != 2:
        raise ValueError("the conduction solver is 2d only")
    _check_compatible(electrodes)
    cell2pix = _interior_map(grid, interior)
    sigma = phantom.conductivity()
    faces = _electrode_faces(grid, electrodes)
    cells, axes_, _ = faces
    A, (a, b, _, da, db) = _assemble(grid, sigma)
    n = grid.n_pixels

    rhs = np.zeros(n)
    np.add.at(rhs, cells, electrodes.current * faces[2])
    u, _ = _solve_spd(A, rhs, tol)
    du = u[a] - u[b]

    n_el = electrodes.n
    area = interior.pixel_measure
    inside = cell2pix >= 0
    values = np.zeros((n_el, interior.n_pixels))

    # mean-adjusted trace functionals keep each adjoint system compatible
    mean_vec = np.zeros(n)
    np.add.at(mean_vec, cells, 1.0 / n_el)
    for j in range(n_el):
        t = -mean_vec.copy()
        t[cells[j]] += 1.0
        w, _ = _solve_spd(A, t, tol)
        dw = w[a] - w[b]
        sens = np.zeros(n)
        np.add.at(sens, a, -da * dw * du)
        np.add.at(sens, b, -db * dw * du)
        np.add.at(values[j], cell2pix[inside], sens[inside])

    # direct term: the trace reconstruction (h/2) g / sigma_cell depends on
    # sigma of the electrode's own boundary cell
    normal_h = np.where(axes_ == 0, float(grid.spacing[0]), float(grid.spacing[1]))
    direct = np.zeros((n_el, interior.n_pixels))
    for j in range(n_el):
        pix = cell2pix[cells[j]]
        if pix >= 0:
            direct[j, pix] = -0.5 * normal_h[j] * electrodes.current[j] / sigma[cells[j]]
    direct -= direct.mean(axis=0, keepdims=True)
    values += direct
    values /= area
    return KernelMatrix(grid=interior, values=values, electrodes=electrodes)
