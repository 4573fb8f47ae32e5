"""Conduction forward problem on the square and the measurement kernel.

The solver discretizes div(sigma grad u) = 0 with prescribed Neumann
current on the boundary using a conservative 5-point scheme: both u and
sigma live at cell centers and the face conductance is the harmonic mean
of the two adjacent cells.  With injected current density g on a boundary
face of length L the discrete balance for each cell reads

    sum_faces c_f (u_a - u_b) = sum_boundary_faces g * L

which is a symmetric positive-semidefinite system with the constants as
null space.  Pinning cell 0 to zero removes the null space; the reduced
SPD system is factored once per conductivity with a sparse LU, and for
compatible data its solution, extended by the pinned zero, satisfies the
full system.  Every result is then gauged by subtracting the mean of the
boundary trace, or is a difference of potentials, so the pin never shows.

The measurement kernel is the linearization of the boundary trace with
respect to local log-conductivity changes.  ``kernel_bruteforce``
measures it with a finite perturbation of every pixel and is the ground
truth: the exact change of each perturbed solve is a low-rank
(Sherman-Morrison-Woodbury) update of one factorization, so no pixel is
refactored.  ``kernel_adjoint`` evaluates the discrete derivative
exactly with a block of adjoint solves against the forward
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import (Grid, KernelMatrix, Phantom, ScalarField,
                   square_boundary_electrodes, _frozen_array)

DEFAULT_EPS = 1e-3
# relative residual above which a conduction solve is reported as failed
_MAX_RESIDUAL = 1e-9
# relative residual above which a solve takes one iterative-refinement step
_REFINE_ABOVE = 1e-12
# right-hand sides per block solve; bounds the dense blocks' memory (per
# column, splu solves 16-column blocks as fast as 64-column ones)
_BLOCK = 16


@dataclass(frozen=True, eq=False)
class ConductionSolution:
    """Interior potential, gauged boundary trace and solver residual."""

    potential: ScalarField
    boundary_trace: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "boundary_trace", _frozen_array(self.boundary_trace, ndim=1))
        object.__setattr__(self, "residual", float(self.residual))


def left_right_current_pattern(grid):
    """Unit current density entering the left edge and leaving the right
    edge, zero on top and bottom.

    The sign split (rather than equal signs on both edges) is what makes
    the Neumann data compatible on the square.
    """
    return square_boundary_electrodes(grid, left=1.0, right=-1.0)


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
    idx = np.arange(nx * ny).reshape(ny, nx)

    ia, ib, cond, da, db = [], [], [], [], []
    for axis, geom in ((0, hy / hx), (1, hx / hy)):
        if axis == 0:
            sa, sb = s[:, :-1], s[:, 1:]
            a, b = idx[:, :-1], idx[:, 1:]
        else:
            sa, sb = s[:-1, :], s[1:, :]
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


def _check_electrodes(grid, electrodes):
    """Check that the electrodes sit on the faces of ``grid`` and that
    their current pattern is compatible."""
    if electrodes.grid != grid:
        raise ValueError("the electrodes belong to another grid than the phantom")
    total = electrodes.total_current()
    if abs(total) > 1e-10 * float(np.sum(np.abs(electrodes.current) * electrodes.segment_length)):
        raise ValueError(f"incompatible Neumann data: net injected current {total:g} != 0")


def _factor(A):
    """Factor the conduction matrix once, with cell 0 pinned to zero.

    Returns ``solve(b, pinned=False) -> (x, residual)`` for one right-hand
    side or a column block, with x[0] = 0.  By default b is compatible and
    ``residual`` is the worst relative residual of the full system
    A x = b over the columns; the pinned row collects the rounding of the
    whole solve, so a residual above ``_REFINE_ABOVE`` gets one step of
    iterative refinement.  With ``pinned=True`` the residual is that of
    the reduced system A[1:, 1:] x[1:] = b[1:], which needs no compatible
    b (Green's columns).
    """
    lu = splu(A[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))

    def solve(b, pinned=False):
        rows = slice(int(pinned), None)
        bnorm = np.linalg.norm(b[rows], axis=0)
        bnorm = np.where(bnorm > 0, bnorm, 1.0)

        def residual(x):
            r = A @ x - b
            return r, float(np.max(np.linalg.norm(r[rows], axis=0) / bnorm))

        x = np.zeros_like(b)
        x[1:] = lu.solve(b[1:])
        r, res = residual(x)
        if res > _REFINE_ABOVE:
            x[1:] -= lu.solve(r[1:])
            res = residual(x)[1]
        if not np.isfinite(res) or res > _MAX_RESIDUAL:
            raise RuntimeError(
                f"conduction solve failed: relative residual {res:g} "
                f"(limit {_MAX_RESIDUAL:g})")
        return x, res

    return solve


def _forward(grid, sigma, electrodes):
    """Factor the conduction matrix of sigma and solve for the injected
    current.  Returns the gauged solution, the factored solve and the face
    lists of the matrix (see _faces)."""
    A, faces = _assemble(grid, sigma)
    solve = _factor(A)
    cells = electrodes.cells
    b = np.zeros(grid.n_pixels)
    np.add.at(b, cells, electrodes.current * electrodes.segment_length)
    u, res = solve(b)
    # one-sided reconstruction of u at the boundary, u_cell + (h/2) g/sigma;
    # second order for the prescribed-flux boundary
    trace = u[cells] + 0.5 * electrodes.normal_spacing * electrodes.current / sigma[cells]
    shift = trace.mean()
    sol = ConductionSolution(potential=ScalarField(grid, u - shift),
                             boundary_trace=trace - shift, residual=res)
    return sol, solve, faces


def solve_conduction(phantom, electrodes):
    """Solve the Neumann conduction problem for one current pattern.

    Returns the cell-centered potential and the boundary trace at the
    electrode points, both gauged so the trace has zero mean.
    """
    _check_electrodes(phantom.grid, electrodes)
    return _forward(phantom.grid, phantom.conductivity(), electrodes)[0]


def _interior_map(phantom_grid, interior):
    """Map phantom cells to interior pixels by cell-center membership
    (half-open pixel boxes).  Returns per-cell pixel index, -1 outside."""
    if interior.dim != phantom_grid.dim:
        raise ValueError("interior grid dimension must match the phantom grid")
    centers = phantom_grid.centers()
    lo = interior.origin - 0.5 * interior.spacing
    idx = np.floor((centers - lo[None, :]) / interior.spacing[None, :]).astype(np.int64)
    ok = np.all((idx >= 0) & (idx < interior.counts[None, :]), axis=1)
    flat = np.ravel_multi_index(idx.T, interior.counts, mode="clip", order="F")
    flat[~ok] = -1
    counts = np.bincount(flat[ok], minlength=interior.n_pixels)
    if np.any(counts == 0):
        raise ValueError("every interior pixel must contain at least one "
                         "phantom cell center; use a coarser interior grid")
    return flat


def _neighbourhoods(cell2pix, a, b, n_pixels):
    """Per pixel p, the cells N_p whose rows of the conduction matrix a
    perturbation of p changes: its own cells and their face neighbours.

    Returns the faces ``f`` that touch a pixel, paired with that pixel
    ``p`` (a face between two pixels appears once for each), the local
    index of each face's a- and b-cell in N_p, and the sorted N_p as the
    rows of an (n_pixels, max |N_p|) array, padded with cell 0.
    """
    n = cell2pix.size
    pa, pb = cell2pix[a], cell2pix[b]
    fa, fb = np.flatnonzero(pa >= 0), np.flatnonzero((pb >= 0) & (pb != pa))
    f = np.concatenate([fa, fb])
    p = np.concatenate([pa[fa], pb[fb]])
    uniq, inv = np.unique(np.tile(p, 2) * n + np.concatenate([a[f], b[f]]),
                          return_inverse=True)
    counts = np.bincount(uniq // n, minlength=n_pixels)
    loc = np.arange(uniq.size) - np.repeat(np.cumsum(counts) - counts, counts)
    nb = np.zeros((n_pixels, counts.max()), np.int64)
    nb[uniq // n, loc] = uniq % n
    return f, p, loc[inv[:f.size]], loc[inv[f.size:]], nb


def _green_blocks(solve, n, cells):
    """Pinned Green's columns (length n) at ``cells``, in blocks of
    ``_BLOCK``: yields (j0, x) with x[:, j] the column of cells[j0 + j]."""
    for j0 in range(0, cells.size, _BLOCK):
        e = np.zeros((n, min(_BLOCK, cells.size - j0)))
        e[cells[j0:j0 + _BLOCK], np.arange(e.shape[1])] = 1.0
        yield j0, solve(e, pinned=True)[0]


def kernel_bruteforce(phantom, electrodes, interior, eps=DEFAULT_EPS):
    """Measurement kernel by finite perturbation, as exact low-rank updates.

    Entry (j, i) is [h_perturbed(y_j) - h(y_j)] / (eps * pixel_area) where
    the perturbation adds eps to log sigma on interior pixel i.

    The perturbation changes the conduction matrix only on N_i, the
    pixel's cells and their face neighbours, by a dense block B_i built
    from the exact perturbed harmonic means.  With P the pinned inverse
    (the inverse with cell 0 removed, zero in row and column 0) and u the
    pinned potential, the Sherman-Morrison-Woodbury identity gives the
    exact change of the potential,

        du = -P S_i (I + B_i G_i)^-1 B_i u[N_i],   G_i = P[N_i, N_i],

    where S_i selects N_i; cell 0 adds nothing, as its row of P and u[0]
    are zero.  Green's columns of one factorization, solved in blocks,
    supply G_i (the columns at the cells of every N_i) and the rows of
    P S_i at the electrode cells (the columns there, P being symmetric);
    no matrix is refactored per pixel.  The small systems are solved as
    one stack, every N_i padded with cell 0 to the largest size.  The
    trace also changes through the direct term (h/2) g / sigma of the
    electrodes whose cell lies in pixel i.
    """
    if not eps > 0:
        raise ValueError("perturbation size eps must be positive")
    grid = phantom.grid
    n_pix = interior.n_pixels
    cell2pix = _interior_map(grid, interior)
    sol = solve_conduction(phantom, electrodes)
    # the factorization solves for the potential pinned to zero at cell 0
    u = sol.potential.values - sol.potential.values[0]
    sigma = phantom.conductivity()
    A, (a, b, cond, _, _) = _assemble(grid, sigma)
    solve = _factor(A)

    f, p, la, lb, nb = _neighbourhoods(cell2pix, a, b, n_pix)
    # exact change of each touched face conductance: the harmonic mean
    # with sigma scaled by e^eps on the sides that lie in pixel p
    ka, kb = cell2pix[a[f]] == p, cell2pix[b[f]] == p
    sa = sigma[a[f]] * np.where(ka, np.exp(eps), 1.0)
    sb = sigma[b[f]] * np.where(kb, np.exp(eps), 1.0)
    dc = cond[f] * np.expm1(eps) * (kb * sa + ka * sb) / (sa + sb)

    # B_p = sum over its faces of dc (e_a - e_b)(e_a - e_b)^T on N_p
    k = nb.shape[1]
    B = np.zeros((n_pix, k, k))
    np.add.at(B, (p, la, la), dc)
    np.add.at(B, (p, lb, lb), dc)
    np.add.at(B, (p, la, lb), -dc)
    np.add.at(B, (p, lb, la), -dc)

    # Green's columns at every cell of some N_p, in blocks of consecutive
    # cells; each fills the columns of the G_p whose N_p holds its cell
    G = np.empty((n_pix, k, k))
    green = np.unique(nb)
    for j0, x in _green_blocks(solve, grid.n_pixels, green):
        cs = green[j0:j0 + x.shape[1]]
        i, l = np.nonzero((nb >= cs[0]) & (nb <= cs[-1]))
        G[i, :, l] = x[nb[i], np.searchsorted(cs, nb[i, l])[:, None]]

    # z_p = (I + B_p G_p)^-1 B_p u[N_p], so du = -P Z with z_p in column p;
    # the padding adds zero rows to B_p, zero rows and columns to G_p
    # (cell 0) and so zero entries to z_p
    z = np.linalg.solve(np.eye(k) + B @ G, B @ u[nb][:, :, None])
    Z = sp.csr_matrix((z.ravel(), (nb.ravel(), np.repeat(np.arange(n_pix), k))),
                      shape=(grid.n_pixels, n_pix))

    # du at the electrode cells
    cells_el = electrodes.cells
    values = np.empty((electrodes.n, n_pix))
    for j0, x in _green_blocks(solve, grid.n_pixels, cells_el):
        values[j0:j0 + x.shape[1]] = -(Z.T @ x).T

    # direct term of the electrodes whose boundary cell lies in the pixel
    pix = cell2pix[cells_el]
    on = np.flatnonzero(pix >= 0)
    values[on, pix[on]] += (0.5 * electrodes.normal_spacing[on] * electrodes.current[on]
                            / sigma[cells_el[on]] * np.expm1(-eps))
    values -= values.mean(axis=0, keepdims=True)
    values /= eps * interior.pixel_measure
    return KernelMatrix(grid=interior, values=values)


def kernel_adjoint(phantom, electrodes, interior):
    """Measurement kernel via block adjoint solves.

    Computes the exact derivative of the gauged boundary trace with
    respect to per-pixel log-conductivity: the trace functionals of all
    electrodes are solved back through the factored forward operator in
    column blocks, and one sparse operator accumulates the derivative of
    every face conductance against the forward/adjoint gradients.  Matches
    kernel_bruteforce up to the brute-force linearization error.
    """
    grid = phantom.grid
    _check_electrodes(grid, electrodes)
    cells = electrodes.cells
    cell2pix = _interior_map(grid, interior)
    sigma = phantom.conductivity()
    sol, solve, (a, b, _, da, db) = _forward(grid, sigma, electrodes)
    u = sol.potential.values
    du = u[a] - u[b]

    # adjoint solution w -> per pixel, the sum over its cells of
    # -(d cond / d eps) (w_a - w_b) (u_a - u_b) for each side of every face
    wa, wb = -da * du, -db * du
    rows = cell2pix[np.concatenate([a, a, b, b])]
    cols = np.concatenate([a, b, a, b])
    vals = np.concatenate([wa, -wa, wb, -wb])
    keep = rows >= 0
    sens = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(interior.n_pixels, grid.n_pixels))

    # mean-adjusted trace functionals keep each adjoint system compatible
    n_el = electrodes.n
    mean_vec = np.zeros(grid.n_pixels)
    np.add.at(mean_vec, cells, 1.0 / n_el)
    values = np.empty((n_el, interior.n_pixels))
    for j0 in range(0, n_el, _BLOCK):
        js = np.arange(j0, min(j0 + _BLOCK, n_el))
        t = np.repeat(-mean_vec[:, None], js.size, axis=1)
        t[cells[js], js - j0] += 1.0
        values[js] = (sens @ solve(t)[0]).T

    # direct term: the trace reconstruction (h/2) g / sigma_cell depends on
    # sigma of the electrode's own boundary cell
    pix = cell2pix[cells]
    on = np.flatnonzero(pix >= 0)
    direct = np.zeros_like(values)
    direct[on, pix[on]] = (-0.5 * electrodes.normal_spacing[on]
                          * electrodes.current[on] / sigma[cells[on]])
    values += direct - direct.mean(axis=0, keepdims=True)
    values /= interior.pixel_measure
    return KernelMatrix(grid=interior, values=values)
