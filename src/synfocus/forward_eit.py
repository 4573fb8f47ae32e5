"""Conduction forward problem on the square and the measurement kernel.

The solver discretizes div(sigma grad u) = 0 with prescribed Neumann
current on the boundary using a conservative 5-point scheme: both u and
sigma live at cell centers and the face conductance is the harmonic mean
of the two adjacent cells.  With injected current density g on a boundary
face of length L the discrete balance for each cell reads

    sum_faces c_f (u_a - u_b) = sum_boundary_faces g * L

which is a symmetric positive-semidefinite system with the constants as
null space.  Pinning cell 0 to zero removes the null space; the reduced
SPD system is factored with SuperLU in ``solve_conduction``, and for
compatible data its solution, extended by the pinned zero, satisfies the
full system.  Every result is then gauged by subtracting the mean of the
boundary trace, or is a difference of potentials, so the pin never shows.

The measurement kernel is the linearization of the boundary trace with
respect to local log-conductivity changes.  Adding eps to log sigma on a
pixel changes the conduction matrix only near that pixel, so the exact
change of the trace is a low-rank (Sherman-Morrison-Woodbury) update of
the unperturbed system.  ``kernel_bruteforce`` takes a finite eps and is
the finite-difference ground truth; ``kernel_adjoint`` is the eps -> 0
limit of the same update, the exact discrete derivative.  The update
needs the pinned inverse at the electrode cells (both kernels) and on
each pixel's cells and their face neighbours (brute force only).  Both
come from one block elimination over the grid rows (``_eliminate``), by
substitution (``_electrode_columns``) and by a backward sweep
(``_row_sweep``).

One conduction pass (``_kernels``: one ``solve_conduction``, one
elimination, one sweep and one stream of electrode columns) serves both
kernels: ``kernel_bruteforce`` also computes the exact derivative and
leaves it in a one-entry memo, which the next ``kernel_adjoint`` takes
out and returns when it gets the same phantom and electrodes objects
and an equal interior grid.  A lone ``kernel_adjoint`` makes its own
pass without the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import KernelMatrix, ScalarField, square_boundary_electrodes, _frozen_array

DEFAULT_EPS = 1e-3
# relative residual above which a conduction solve is reported as failed
_MAX_RESIDUAL = 1e-9
# relative residual above which a solve takes one iterative-refinement step
_REFINE_ABOVE = 1e-12
# grid rows per slab of the electrode columns' residual check
_SLAB_ROWS = 8

# (phantom, electrodes, interior, exact kernel) of the last successful
# kernel_bruteforce call, until the next kernel_adjoint takes it out
_adjoint_memo = None


@dataclass(frozen=True, eq=False)
class ConductionSolution:
    """Interior potential, gauged boundary trace and solver residual."""

    potential: ScalarField
    boundary_trace: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "boundary_trace",
                           _frozen_array(self.boundary_trace, "boundary trace", ndim=1))
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
    carries the transverse/normal spacing ratio.
    """
    nx, ny = int(grid.counts[0]), int(grid.counts[1])
    hx, hy = float(grid.spacing[0]), float(grid.spacing[1])
    s = sigma.reshape(ny, nx)
    idx = np.arange(nx * ny).reshape(ny, nx)

    ia, ib, cond = [], [], []
    for sa, sb, a, b, geom in ((s[:, :-1], s[:, 1:], idx[:, :-1], idx[:, 1:], hy / hx),
                               (s[:-1, :], s[1:, :], idx[:-1, :], idx[1:, :], hx / hy)):
        ia.append(a.ravel()); ib.append(b.ravel())
        cond.append(geom * (2.0 * sa * sb / (sa + sb)).ravel())
    return np.concatenate(ia), np.concatenate(ib), np.concatenate(cond)


def _assemble(grid, faces):
    """Conduction matrix of the face lists (a, b, cond) of _faces."""
    a, b, c = faces
    n = grid.n_pixels
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([c, c, -c, -c])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _check_electrodes(grid, electrodes):
    """Check that the electrodes sit on the faces of ``grid`` and that
    their current pattern is compatible."""
    if electrodes.grid != grid:
        raise ValueError("the electrodes belong to another grid than the phantom")
    total = electrodes.total_current()
    if abs(total) > 1e-10 * float(np.sum(np.abs(electrodes.current) * electrodes.segment_length)):
        raise ValueError(f"incompatible Neumann data: net injected current {total:g} != 0")


def solve_conduction(phantom, electrodes):
    """Solve the Neumann conduction problem for one current pattern.

    Returns the cell-centered potential and the boundary trace at the
    electrode points, both gauged so the trace has zero mean, and the
    relative residual of A u = b.  SuperLU factors the system with cell 0
    pinned to zero; the pinned row collects the rounding of the whole
    solve, so a residual above ``_REFINE_ABOVE`` gets one refinement step.
    """
    grid = phantom.grid
    _check_electrodes(grid, electrodes)
    sigma = phantom.conductivity()
    A = _assemble(grid, _faces(grid, sigma))
    lu = splu(A[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    cells = electrodes.cells
    b = np.zeros(grid.n_pixels)
    np.add.at(b, cells, electrodes.current * electrodes.segment_length)
    bnorm = np.linalg.norm(b) or 1.0
    u = np.zeros_like(b)
    u[1:] = lu.solve(b[1:])
    r = A @ u - b
    res = np.linalg.norm(r) / bnorm
    if res > _REFINE_ABOVE:
        u[1:] -= lu.solve(r[1:])
        res = np.linalg.norm(A @ u - b) / bnorm
    if not np.isfinite(res) or res > _MAX_RESIDUAL:
        raise RuntimeError(f"conduction solve failed: relative residual {res:g} "
                           f"(limit {_MAX_RESIDUAL:g})")
    # one-sided reconstruction of u at the boundary, u_cell + (h/2) g/sigma;
    # second order for the prescribed-flux boundary
    trace = u[cells] + 0.5 * electrodes.normal_spacing * electrodes.current / sigma[cells]
    shift = trace.mean()
    return ConductionSolution(potential=ScalarField(grid, u - shift),
                              boundary_trace=trace - shift, residual=res)


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


def _eliminate(A, nx, ny):
    """Block forward elimination of the conduction matrix A over its ny grid
    rows of nx cells (recursive Green's functions; Svizhenko et al., J.
    Appl. Phys. 91, 2343, 2002).  A is block tridiagonal, with tridiagonal
    row blocks D_k and diagonal couplings C_k of rows k and k + 1.  With
    cell 0 pinned as an identity row and column (matrix A~, whose inverse
    is the pinned inverse P but for a unit entry at cell 0) the Schur
    complements are S_0 = D_0 and S_k = D_k - C_{k-1} S_{k-1}^-1 C_{k-1}.
    Returns (block, c, sinv): block(k) is the dense D_k, c holds the
    diagonals of the C_k and sinv the ny dense S_k^-1 (ny nx^2 values).
    """
    d = A.diagonal().reshape(ny, nx)
    e = np.append(A.diagonal(1), 0.0).reshape(ny, nx)[:, :-1]
    c = A.diagonal(nx).reshape(ny - 1, nx)
    d[0, 0], e[0, :1], c[:1, 0] = 1.0, 0.0, 0.0

    def block(k):
        return np.diag(d[k]) + np.diag(e[k], 1) + np.diag(e[k], -1)

    sinv = np.empty((ny, nx, nx))
    sinv[0] = np.linalg.inv(block(0))
    for k in range(1, ny):
        sinv[k] = np.linalg.inv(block(k) - c[k - 1, :, None] * sinv[k - 1] * c[k - 1])
    return block, c, sinv


def _electrode_columns(A, elim, cells):
    """Columns P[:, cells] of the pinned inverse, nx at a time, by block
    forward substitution y_k = b_k - C_{k-1} S_{k-1}^-1 y_{k-1} and back
    substitution x_k = S_k^-1 (y_k - C_k x_{k+1}) against the elimination
    ``elim`` of A.  The unit right-hand sides are zeroed at cell 0, so
    every x is zero there and the column of cell 0 is zero, as in P.
    Yields (j0, x) with x[:, j] the column of cells[j0 + j], once every
    column's residual in the reduced system A[1:, 1:] x[1:] = b[1:] is
    within ``_MAX_RESIDUAL``; the next block overwrites x.  The residual
    is summed over slabs of _SLAB_ROWS grid rows, whose rows of A reach
    only the cells of the slab and of the grid rows next to it, so no
    block-sized residual is ever held.
    """
    _, c, sinv = elim
    ny, nx = sinv.shape[:2]
    slabs = []
    for r0 in range(0, ny, _SLAB_ROWS):
        lo, hi = r0 * nx, min(r0 + _SLAB_ROWS, ny) * nx
        near = slice(max(lo - nx, 0), min(hi + nx, ny * nx))
        slabs.append((lo, hi, near, A[lo:hi, near]))
    buf = np.empty(ny * nx * nx)
    for j0 in range(0, cells.size, nx):
        at = cells[j0:j0 + nx]
        x = buf[:ny * nx * at.size].reshape(ny * nx, at.size)
        x[...] = 0.0
        x[at, np.arange(at.size)] = at != 0
        y = x.reshape(ny, nx, -1)
        for k in range(1, ny):
            y[k] -= c[k - 1, :, None] * (sinv[k - 1] @ y[k - 1])
        y[-1] = sinv[-1] @ y[-1]
        for k in range(ny - 2, -1, -1):
            y[k] = sinv[k] @ (y[k] - c[k, :, None] * y[k + 1])
        squares = np.zeros(at.size)
        for lo, hi, near, a in slabs:
            r = a @ x[near]
            own = np.flatnonzero((at >= lo) & (at < hi))
            r[at[own] - lo, own] -= 1.0
            if lo == 0:
                r[0] = 0.0
            squares += np.einsum("ij,ij->j", r, r)
        worst = float(np.max(np.sqrt(squares)))
        if not worst <= _MAX_RESIDUAL:
            raise RuntimeError(f"electrode columns failed: residual {worst:g} in "
                               f"block {j0 // nx} (limit {_MAX_RESIDUAL:g})")
        yield j0, x


def _row_sweep(elim, w):
    """Blocks P[k, l], |k - l| <= w, of the pinned inverse by one backward
    sweep over the grid rows of the elimination ``elim`` of _eliminate:
    P[k, l] = -S_k^-1 C_k P[k+1, l] for k < l <= k + w and
    P[k, k] = S_k^-1 - S_k^-1 C_k P[k+1, k], with P[k+1, k] = P[k, k+1]^T.
    Yields (k, ring) for k = ny - 1, ..., 0 once band row k is done: ring
    holds rows k, ..., k + w, row r being P[r, r], ..., P[r, r + w] side
    by side in ring[r % (w + 1)].  After its yield, each band row's
    residual (A~ P)[k, l] - delta_kl I, k <= l <= k + w, is checked
    column-wise against ``_MAX_RESIDUAL``.
    """
    block, c, sinv = elim
    ny, nx = sinv.shape[:2]
    span = (w + 1) * nx
    ring = np.zeros((w + 1, nx, span))
    # band row k one block wider, P[k, k], ..., P[k, k + w + 1]: the last
    # block only enters the residual of row k + 1
    new = np.zeros((nx, span + nx))

    def check(r):
        t = min(w, ny - 1 - r) + 1
        own = ring[r % (w + 1), :, :t * nx]
        res = block(r) @ own
        res[:, :nx] -= np.eye(nx)
        if r:
            res += c[r - 1, :, None] * new[:, nx:(t + 1) * nx]
        if r < ny - 1:
            res[:, :nx] += c[r, :, None] * own[:, nx:2 * nx].T
            res[:, nx:] += c[r, :, None] * ring[(r + 1) % (w + 1), :, :(t - 1) * nx]
        worst = float(np.max(np.sqrt(np.einsum("ij,ij->j", res, res))))
        if not worst <= _MAX_RESIDUAL:
            raise RuntimeError(
                f"row sweep failed: residual {worst:g} in block row {r} "
                f"(limit {_MAX_RESIDUAL:g})")

    ring[(ny - 1) % (w + 1), :, :nx] = sinv[-1]
    yield ny - 1, ring
    for k in range(ny - 2, -1, -1):
        t = min(w + 1, ny - 1 - k)
        lk = sinv[k] * c[k]
        new[:, nx:(t + 1) * nx] = -lk @ ring[(k + 1) % (w + 1), :, :t * nx]
        new[:, :nx] = sinv[k] - lk @ new[:, nx:2 * nx].T
        check(k + 1)
        ring[k % (w + 1)] = new[:, :span]
        yield k, ring
    check(0)


def _band_entries(ring, r, rows, cols):
    """Blocks P[N_p, N_p] of a stack of pixels from the band rows of
    _row_sweep in ``ring``, which holds rows r, ..., r + w.  Cell a of N_p
    is (rows[p, a], cols[p, a]), its grid row counted from r; P[a, b] is
    read from band row min(ra, rb) at block offset |ra - rb|, transposed
    below the diagonal."""
    ra, rb = rows[:, :, None], rows[:, None, :]
    ca, cb = cols[:, :, None], cols[:, None, :]
    up = ra <= rb
    return ring[(r + np.minimum(ra, rb)) % ring.shape[0], np.where(up, ca, cb),
                np.abs(ra - rb) * ring.shape[1] + np.where(up, cb, ca)]


def _pixel_greens(elim, nb):
    """The stack of G_p = P[N_p, N_p] for the neighbourhoods ``nb`` of
    _neighbourhoods, from one _row_sweep of the elimination ``elim``.  w
    is the widest row span of any N_p; the pixels whose N_p starts in grid
    row r are gathered as soon as the sweep holds rows r, ..., r + w.
    Cell 0, padding or pinned, gets zero rows and columns."""
    ny, nx = elim[2].shape[:2]
    row, col = np.divmod(nb, nx)
    pin = nb == 0
    lo = np.where(pin, ny, row).min(axis=1)
    w = int(np.max(np.where(pin, -1, row).max(axis=1) - lo))
    row = np.where(pin, lo[:, None], row) - lo[:, None]
    order = np.argsort(lo, kind="stable")
    bounds = np.searchsorted(lo[order], np.arange(ny + 1))
    n_pix, k = nb.shape
    G = np.empty((n_pix, k, k))
    for r, ring in _row_sweep(elim, w):
        sel = order[bounds[r]:bounds[r + 1]]
        G[sel] = _band_entries(ring, r, row[sel], col[sel])
    G[pin[:, :, None] | pin[:, None, :]] = 0.0
    return G


def _kernels(phantom, electrodes, interior, epss):
    """Kernels of kernel_bruteforce for each eps >= 0 of ``epss``, from one
    conduction pass: one solve_conduction, one elimination, at most one
    band sweep and one stream of electrode columns.  Every per-pixel
    quantity is written per unit eps, so that eps = 0 is the exact
    derivative; there the Woodbury factor is the identity, and it needs
    neither G_i nor the small solves.  Each eps has its own B_i, as the
    change of the face conductances depends on it; the z stacks are the
    column groups of one sparse Z, so each column block takes one product.
    """
    grid = phantom.grid
    n_pix = interior.n_pixels
    cell2pix = _interior_map(grid, interior)
    sol = solve_conduction(phantom, electrodes)
    # the update acts on the potential pinned to zero at cell 0
    u = sol.potential.values - sol.potential.values[0]
    sigma = phantom.conductivity()
    a, b, cond = faces = _faces(grid, sigma)
    A = _assemble(grid, faces)
    elim = _eliminate(A, int(grid.counts[0]), int(grid.counts[1]))

    f, p, la, lb, nb = _neighbourhoods(cell2pix, a, b, n_pix)
    k = nb.shape[1]
    ka, kb = cell2pix[a[f]] == p, cell2pix[b[f]] == p
    at = (np.tile(p, 4), np.concatenate([la, lb, la, lb]), np.concatenate([la, lb, lb, la]))
    G = _pixel_greens(elim, nb) if any(epss) else None
    growths = [np.expm1(eps) / eps if eps else 1.0 for eps in epss]
    z = np.empty((len(epss), n_pix, k))
    for zi, eps, growth in zip(z, epss, growths):
        # exact change per unit eps of each touched face conductance: the
        # harmonic mean with sigma scaled by e^eps on the sides in pixel p
        sa = sigma[a[f]] * np.where(ka, np.exp(eps), 1.0)
        sb = sigma[b[f]] * np.where(kb, np.exp(eps), 1.0)
        dc = cond[f] * growth * (kb * sa + ka * sb) / (sa + sb)
        # B_p = sum over its faces of dc (e_a - e_b)(e_a - e_b)^T on N_p
        B = np.zeros((n_pix, k, k))
        np.add.at(B, at, np.concatenate([dc, dc, -dc, -dc]))
        # z_p = (I + eps B_p G_p)^-1 B_p u[N_p], so du / eps = -P Z with
        # z_p in column p; the padding adds zero rows to B_p, zero rows and
        # columns to G_p (cell 0) and so zero entries to z_p
        w = B @ u[nb][:, :, None]
        if eps:
            w = np.linalg.solve(np.eye(k) + eps * (B @ G), w)
        zi[...] = w[:, :, 0]
    del B, G, w
    Z = sp.csr_matrix((z.ravel(), (np.tile(nb.ravel(), len(epss)),
                                   np.repeat(np.arange(len(epss) * n_pix), k))),
                      shape=(grid.n_pixels, len(epss) * n_pix))
    del z, zi

    # du / eps at the electrode cells
    cells = electrodes.cells
    values = [np.empty((electrodes.n, n_pix)) for _ in epss]
    for j0, x in _electrode_columns(A, elim, cells):
        zx = Z.T @ x
        for i, v in enumerate(values):
            np.negative(zx[i * n_pix:(i + 1) * n_pix].T, out=v[j0:j0 + x.shape[1]])
    # the column block, its product and the S_k^-1 go before the copies
    # the kernels make of values
    del x, zx, elim

    # direct term (h/2) g / sigma of the electrodes whose cell lies in the
    # pixel, times expm1(-eps) / eps
    pix = cell2pix[cells]
    on = np.flatnonzero(pix >= 0)
    direct = 0.5 * electrodes.normal_spacing[on] * electrodes.current[on] / sigma[cells[on]]
    kernels = []
    for eps, growth in zip(epss, growths):
        v = values.pop(0)
        v[on, pix[on]] -= direct * (np.exp(-eps) * growth)
        v -= v.mean(axis=0, keepdims=True)
        v /= interior.pixel_measure
        kernels.append(KernelMatrix(grid=interior, values=v))
    return kernels


def kernel_bruteforce(phantom, electrodes, interior, eps=DEFAULT_EPS):
    """Measurement kernel by finite perturbation, as exact low-rank updates.

    Entry (j, i) is [h_perturbed(y_j) - h(y_j)] / (eps * pixel_area) where
    the perturbation adds eps to log sigma on the phantom cells whose
    centres lie in interior pixel i, and pixel_area is the nominal area
    interior.pixel_measure, not the area of those cells.  At 1.75 cells
    per pixel (the CLI default and every bench workload) the member cells
    cover 0.327 to 1.306 times pixel_area (ROADMAP item 1).

    The perturbation changes the conduction matrix only on N_i, the
    pixel's cells and their face neighbours, by eps times a dense block
    B_i built from the exact perturbed harmonic means.  With P the pinned
    inverse (the inverse with cell 0 removed, zero in row and column 0)
    and u the pinned potential, the Sherman-Morrison-Woodbury identity
    gives the exact change of the potential,

        du / eps = -P S_i (I + eps B_i G_i)^-1 B_i u[N_i],   G_i = P[N_i, N_i],

    where S_i selects N_i; cell 0 adds nothing, as its row of P and u[0]
    are zero.  All of P comes from one block elimination over the ny grid
    rows of nx cells (ny dense nx x nx inverses): block forward and back
    substitution gives the rows of P S_i at the electrode cells (P is
    symmetric), nx at a time, and a backward sweep the blocks of P within
    w block rows of the diagonal, w being the widest row span of any N_i,
    which hold every G_i.  The kernel holds the ny inverses, one block of
    columns (ny nx^2 values each) and a window of w + 1 band rows
    ((w + 1)^2 nx^2), never the whole band; every column and band block
    used is checked by its residual.  No matrix is refactored per pixel.
    The small systems are solved as one stack, every N_i padded with cell
    0.  The trace also changes through the direct term (h/2) g / sigma of
    the electrodes whose cell lies in pixel i.

    One conduction pass serves this kernel and the exact derivative of
    kernel_adjoint: each block of electrode columns is multiplied by both
    sets of z_i.  The derivative is left in a one-entry memo with the
    phantom, electrodes and interior it belongs to, for the next
    kernel_adjoint call (see there).  Every call sets or clears that
    entry, also when it raises.

    eps must be positive with exp(eps) finite; anything else is rejected
    before any solve.
    """
    global _adjoint_memo
    _adjoint_memo = None
    with np.errstate(over="ignore"):
        if not (eps > 0 and np.isfinite(np.exp(eps))):
            raise ValueError(
                f"perturbation size eps must be positive with exp(eps) finite, got {eps!r}")
    brute, exact = _kernels(phantom, electrodes, interior, (eps, 0.0))
    _adjoint_memo = (phantom, electrodes, interior, exact)
    return brute


def kernel_adjoint(phantom, electrodes, interior):
    """Measurement kernel as the exact derivative of the gauged boundary
    trace with respect to per-pixel log-conductivity, per nominal pixel
    area.  As in kernel_bruteforce, a pixel's log-conductivity is that of
    the phantom cells whose centres lie in it, and the derivative is
    divided by interior.pixel_measure, not by the area of those cells
    (ROADMAP item 1).

    This is the eps -> 0 limit of kernel_bruteforce's update, where the
    Woodbury factor drops out: entry (j, i) is -P[c_j, N_i] B_i u[N_i]
    plus the derivative of the direct term, B_i being the derivative of
    the conduction matrix.  The rows P[c_j, :], the adjoint solutions of
    the trace functionals, are the Green's columns at the electrode cells,
    taken by block substitution from the same elimination over the grid
    rows; the adjoint needs no backward sweep.

    kernel_bruteforce computes this kernel in its own pass and leaves it
    in a one-entry memo.  Every call takes that entry out and returns it
    when it was made for the same phantom and electrodes objects (by
    identity) and an equal interior Grid; otherwise the kernel is
    computed here.  Phantom and BoundaryElectrodes are frozen, compare by
    identity and hold read-only arrays, so the same objects still
    describe the same problem.
    """
    global _adjoint_memo
    memo, _adjoint_memo = _adjoint_memo, None
    if (memo is not None and memo[0] is phantom and memo[1] is electrodes
            and memo[2] == interior):
        return memo[3]
    return _kernels(phantom, electrodes, interior, (0.0,))[0]
