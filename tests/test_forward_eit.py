import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import synfocus.forward_eit
from synfocus.cli import INTERIOR_MARGIN, default_phantom
from synfocus.core import (
    BoundaryElectrodes,
    Grid,
    Phantom,
    ScalarField,
    build_phantom_disks,
    square_boundary_electrodes,
)
from synfocus.forward_eit import (
    kernel_adjoint,
    kernel_bruteforce,
    left_right_current_pattern,
    solve_conduction,
)

from conftest import centered_grid, count_calls, rel_l2


def _edge_slices(nx, ny):
    return {
        "left": slice(0, ny),
        "right": slice(ny, 2 * ny),
        "bottom": slice(2 * ny, 2 * ny + nx),
        "top": slice(2 * ny + nx, 2 * (nx + ny)),
    }


def _interp_trace(fine_el, fine_trace, coarse_el, nx_f, ny_f, nx_c, ny_c):
    """Resample a fine boundary trace at coarse electrode points, edge by
    edge (each edge is parametrized by its tangential coordinate)."""
    out = np.empty(coarse_el.n)
    fs = _edge_slices(nx_f, ny_f)
    cs = _edge_slices(nx_c, ny_c)
    tang = {"left": 1, "right": 1, "bottom": 0, "top": 0}
    for edge, axis in tang.items():
        xf = fine_el.points[fs[edge], axis]
        xc = coarse_el.points[cs[edge], axis]
        out[cs[edge]] = np.interp(xc, xf, fine_trace[fs[edge]])
    return out


def _flat(grid):
    return build_phantom_disks(grid, [])


def _unit_square(nx, ny):
    """nx x ny grid covering the unit square, hx != hy for nx != ny."""
    return Grid(origin=(-0.5 + 0.5 / nx, -0.5 + 0.5 / ny), spacing=(1 / nx, 1 / ny),
                counts=(nx, ny))


def _stock_matrix(g):
    """Conduction matrix of the stock phantom on ``g``."""
    fe = synfocus.forward_eit
    return fe._assemble(g, fe._faces(g, default_phantom(g).conductivity()))


def _phantom_grid(cells):
    """centered_grid(cells, 2), or _unit_square(*cells) for a pair."""
    return _unit_square(*cells) if isinstance(cells, tuple) else centered_grid(cells, 2)


def _refactor_kernel(phantom, electrodes, interior, eps):
    """Brute-force kernel with one solve_conduction (one factorization)
    per perturbed pixel, cells assigned to pixels by center membership."""
    grid = phantom.grid
    lo = interior.origin - 0.5 * interior.spacing
    idx = np.floor((grid.centers() - lo) / interior.spacing).astype(int)
    inside = np.all((idx >= 0) & (idx < interior.counts), axis=1)
    pix = np.where(inside, idx[:, 0] + interior.counts[0] * idx[:, 1], -1)
    base = solve_conduction(phantom, electrodes).boundary_trace
    out = np.empty((electrodes.n, interior.n_pixels))
    for i in range(interior.n_pixels):
        log_sigma = phantom.field.values + eps * (pix == i)
        pert = Phantom(field=ScalarField(grid=grid, values=log_sigma))
        trace = solve_conduction(pert, electrodes).boundary_trace
        out[:, i] = (trace - base) / (eps * interior.pixel_measure)
    return out


# (phantom cells per axis or (nx, ny), interior pixels, interior
# half-width, eps)
_REFACTOR_CASES = [
    (14, 8, 0.5 - INTERIOR_MARGIN, 1e-3),  # uneven cells per pixel
    (12, 8, 0.5, 1e-3),   # pixels hold electrode cells and pinned cell 0
    (16, 8, 0.5, 2e-2),   # finite update away from the linear regime
    ((24, 16), 8, 0.5, 1e-3),  # nx != ny and hx != hy: 3 x 2 cells per pixel
    (24, 8, 0.5, 1e-3),   # 3 cells per pixel: N_p spans 5 grid rows, w = 4
]


def _case_id(value):
    return "x".join(map(str, value)) if isinstance(value, tuple) else None


@pytest.fixture(scope="module")
def fine_oracle():
    """512x512 reference solve of the two-disk phantom and the flat one."""
    g = centered_grid(512, 2)
    el = left_right_current_pattern(g)
    disks = solve_conduction(default_phantom(g), el)
    flat = solve_conduction(_flat(g), el)
    return g, el, disks.boundary_trace, flat.boundary_trace


class TestSolveConduction:
    def test_uniform_conductivity_linear_exact(self):
        # the non-square grid with hx != hy fails if the face layout swaps
        # nx/ny or the normal and tangential spacings
        for g in (centered_grid(32, 2), _unit_square(24, 16)):
            el = left_right_current_pattern(g)
            sol = solve_conduction(_flat(g), el)
            exact = -el.points[:, 0]
            exact = exact - exact.mean()
            err = np.max(np.abs(sol.boundary_trace - exact)) / np.max(np.abs(exact))
            assert err <= 1e-6

    def test_zero_current_zero_solution(self):
        g = centered_grid(16, 2)
        el = square_boundary_electrodes(g)
        sol = solve_conduction(default_phantom(g), el)
        assert np.max(np.abs(sol.boundary_trace)) <= 1e-12
        assert np.max(np.abs(sol.potential.values)) <= 1e-12

    @pytest.mark.invariant
    def test_gauge_and_residual(self):
        g = centered_grid(48, 2)
        el = left_right_current_pattern(g)
        sol = solve_conduction(default_phantom(g), el)
        assert abs(np.mean(sol.boundary_trace)) <= 1e-12
        assert sol.residual <= 1e-10

    def test_refined_residual_at_256(self):
        # the pinned row collects the rounding of the whole solve; one
        # refinement step keeps the full-system residual at roundoff
        g = centered_grid(256, 2)
        sol = solve_conduction(default_phantom(g), left_right_current_pattern(g))
        assert sol.residual <= 1e-12

    def test_incompatible_current_rejected(self):
        g = centered_grid(8, 2)
        el = square_boundary_electrodes(g, left=1.0, right=1.0)  # net inflow
        with pytest.raises(ValueError, match="incompatible Neumann data"):
            solve_conduction(_flat(g), el)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_current_rejected_before_factoring(self, bad, monkeypatch):
        # named when the electrodes are built; a NaN current used to pass
        # the compatibility test and fail only after factoring
        def no_solve(*args, **kwargs):
            raise AssertionError("factored a non-finite current")

        monkeypatch.setattr(synfocus.forward_eit, "splu", no_solve)
        g = centered_grid(8, 2)
        current = left_right_current_pattern(g).current.copy()
        current[3] = bad
        with pytest.raises(ValueError, match="electrode current must be finite"):
            solve_conduction(_flat(g), BoundaryElectrodes(grid=g, current=current))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowed_conductivity_raises(self):
        # exp(800) is inf, so the faces of that cell carry NaN conductances;
        # the solvers must fail instead of returning NaNs
        for g in (centered_grid(16, 2), _unit_square(24, 16)):
            el = left_right_current_pattern(g)
            log_sigma = np.zeros(g.n_pixels)
            log_sigma[100] = 800.0
            ph = Phantom(field=ScalarField(grid=g, values=log_sigma))
            with pytest.raises(RuntimeError):
                solve_conduction(ph, el)
            with pytest.raises(RuntimeError):
                kernel_adjoint(ph, el, centered_grid(8, 2))
            with pytest.raises(RuntimeError):
                kernel_bruteforce(ph, el, centered_grid(8, 2))

    def test_disk_phantom_vs_fine_grid(self, fine_oracle):
        gf, elf, fine_disk, fine_flat = fine_oracle
        g = centered_grid(64, 2)
        el = left_right_current_pattern(g)
        dh = (solve_conduction(default_phantom(g), el).boundary_trace
              - solve_conduction(_flat(g), el).boundary_trace)
        dh_ref = _interp_trace(elf, fine_disk - fine_flat, el, 512, 512, 64, 64)
        # the log-contrast 0.05 disks shift the trace by a small fraction
        scale = np.max(np.abs(fine_flat))
        rel = np.max(np.abs(dh_ref)) / scale
        assert 5e-4 < rel < 5e-2
        assert rel_l2(dh, dh_ref) <= 0.05

    @pytest.mark.invariant
    def test_grid_convergence_first_order(self, fine_oracle):
        gf, elf, fine_disk, _ = fine_oracle
        errs = []
        for n in (64, 128, 256):
            g = centered_grid(n, 2)
            el = left_right_current_pattern(g)
            tr = solve_conduction(default_phantom(g), el).boundary_trace
            ref = _interp_trace(elf, fine_disk, el, 512, 512, n, n)
            errs.append(rel_l2(tr, ref))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[1] >= 1.8  # at least first order
        assert errs[1] / errs[2] >= 1.8


class TestKernels:
    def test_adjoint_matches_bruteforce(self):
        phantom_grid = centered_grid(32, 2)
        interior = centered_grid(16, 2)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        brute = kernel_bruteforce(ph, el, interior)
        adj = kernel_adjoint(ph, el, interior)
        assert rel_l2(adj.values, brute.values) <= 0.02

    @pytest.mark.parametrize("grid_n, pixels, half, eps", _REFACTOR_CASES, ids=_case_id)
    def test_bruteforce_matches_per_pixel_refactor(self, grid_n, pixels, half, eps):
        phantom_grid = _phantom_grid(grid_n)
        interior = centered_grid(pixels, 2, half=half)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        ref = _refactor_kernel(ph, el, interior, eps)
        k = kernel_bruteforce(ph, el, interior, eps=eps).values
        assert rel_l2(k, ref) <= 1e-7

    @pytest.mark.parametrize("grid_n, pixels, half", [c[:3] for c in _REFACTOR_CASES],
                             ids=_case_id)
    def test_adjoint_matches_refactor_central_difference(self, grid_n, pixels, half):
        # the central difference of per-pixel refactoring is the derivative
        # to O(h^2)
        phantom_grid = _phantom_grid(grid_n)
        interior = centered_grid(pixels, 2, half=half)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        h = 1e-4
        ref = 0.5 * (_refactor_kernel(ph, el, interior, h)
                     + _refactor_kernel(ph, el, interior, -h))
        k = kernel_adjoint(ph, el, interior).values
        assert rel_l2(k, ref) <= 1e-7

    def test_each_call_factors_once(self, monkeypatch):
        # one SuperLU factorization per computed kernel, for the potential;
        # each kernel also runs the block elimination once, and only the
        # brute force sweeps its band for the G_i.  The brute force leaves
        # the exact derivative for the adjoint that follows it on the same
        # objects, which then solves nothing; the next adjoint computes it
        counts = count_calls(monkeypatch, synfocus.forward_eit,
                             ("splu", "_eliminate", "_row_sweep"))
        phantom_grid = centered_grid(12, 2)
        interior = centered_grid(6, 2)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        for run, expected in ((lambda: solve_conduction(ph, el), (1, 0, 0)),
                              (lambda: kernel_bruteforce(ph, el, interior), (1, 1, 1)),
                              (lambda: kernel_adjoint(ph, el, interior), (0, 0, 0)),
                              (lambda: kernel_adjoint(ph, el, interior), (1, 1, 0))):
            counts.update(dict.fromkeys(counts, 0))
            run()
            assert tuple(counts.values()) == expected

    def test_one_face_list_per_assembly(self, monkeypatch):
        # each conduction matrix is assembled from face lists built for it:
        # the kernel pass reuses its own face lists, and solve_conduction
        # builds its own
        counts = count_calls(monkeypatch, synfocus.forward_eit, ("_faces", "_assemble"))
        phantom_grid = centered_grid(12, 2)
        interior = centered_grid(6, 2)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        for run, assemblies in ((lambda: solve_conduction(ph, el), 1),
                                (lambda: kernel_bruteforce(ph, el, interior), 2),
                                (lambda: kernel_adjoint(ph, el, centered_grid(4, 2)), 2)):
            counts.update(dict.fromkeys(counts, 0))
            run()
            assert counts == {"_faces": assemblies, "_assemble": assemblies}

    @pytest.mark.parametrize("cells, pixels, half", [(48, 24, 0.5 - INTERIOR_MARGIN),
                                                     ((24, 16), 8, 0.5)], ids=_case_id)
    def test_memo_adjoint_equals_fresh_adjoint(self, cells, pixels, half, monkeypatch):
        # the adjoint that kernel_bruteforce leaves behind, taken with an
        # equal interior built anew, is bitwise the one computed on its own
        counts = count_calls(monkeypatch, synfocus.forward_eit, ("splu", "_eliminate"))
        phantom_grid = _phantom_grid(cells)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        kernel_bruteforce(ph, el, centered_grid(pixels, 2, half=half))
        counts.update(dict.fromkeys(counts, 0))
        memo = kernel_adjoint(ph, el, centered_grid(pixels, 2, half=half))
        assert tuple(counts.values()) == (0, 0)
        fresh = kernel_adjoint(ph, el, centered_grid(pixels, 2, half=half))
        assert tuple(counts.values()) == (1, 1)
        assert np.array_equal(memo.values, fresh.values)

    @pytest.mark.parametrize("other", ["phantom", "electrodes", "interior", "used"])
    def test_memo_misses_other_inputs(self, other, monkeypatch):
        # a new phantom object with equal values, another electrodes object
        # or an unequal interior computes the adjoint anew, as does a second
        # adjoint call after the memo's one hit
        counts = count_calls(monkeypatch, synfocus.forward_eit, ("splu", "_eliminate"))
        phantom_grid = centered_grid(12, 2)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        interior = centered_grid(6, 2)
        kernel_bruteforce(ph, el, interior)
        if other == "used":
            kernel_adjoint(ph, el, interior)
        args = {"phantom": (default_phantom(phantom_grid), el, interior),
                "electrodes": (ph, left_right_current_pattern(phantom_grid), interior),
                "interior": (ph, el, centered_grid(6, 2, half=0.4)),
                "used": (ph, el, interior)}[other]
        counts.update(dict.fromkeys(counts, 0))
        got = kernel_adjoint(*args)
        assert tuple(counts.values()) == (1, 1)
        assert got.grid == args[2]
        assert np.array_equal(got.values, kernel_adjoint(*args).values)

    @pytest.mark.parametrize("failure", ["corrupted sweep", "rejected eps"])
    def test_raising_bruteforce_leaves_no_memo(self, failure, monkeypatch):
        # a brute force that raises clears the entry its predecessor on the
        # same objects left
        phantom_grid = centered_grid(16, 2)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        interior = centered_grid(8, 2)
        kernel_bruteforce(ph, el, interior)
        with monkeypatch.context() as patch:
            if failure == "corrupted sweep":
                sweep = synfocus.forward_eit._row_sweep

                def corrupted_sweep(*args):
                    for k, ring in sweep(*args):
                        if k == 8:
                            ring[k % ring.shape[0], :, -ring.shape[1]:] *= 1.0 + 1e-6
                        yield k, ring

                patch.setattr(synfocus.forward_eit, "_row_sweep", corrupted_sweep)
                with pytest.raises(RuntimeError, match="row sweep failed"):
                    kernel_bruteforce(ph, el, interior)
            else:
                with pytest.raises(ValueError, match="eps must be positive"):
                    kernel_bruteforce(ph, el, interior, eps=-1e-3)
        counts = count_calls(monkeypatch, synfocus.forward_eit, ("splu",))
        kernel_adjoint(ph, el, interior)
        assert counts["splu"] == 1

    def test_row_sweep_band_matches_dense_inverse(self):
        # every block P[k, l], |k - l| <= w, of the pinned inverse, on a
        # grid with nx != ny
        nx, ny, w = 7, 5, 2
        g = _unit_square(nx, ny)
        A = _stock_matrix(g).toarray()
        A[0, :] = A[:, 0] = 0.0
        A[0, 0] = 1.0
        P = np.linalg.inv(A)
        elim = synfocus.forward_eit._eliminate(sp.csr_matrix(A), nx, ny)
        for k, ring in synfocus.forward_eit._row_sweep(elim, w):
            for off in range(min(w, ny - 1 - k) + 1):
                band = ring[k % (w + 1), :, off * nx:(off + 1) * nx]
                exact = P[k * nx:(k + 1) * nx, (k + off) * nx:(k + off + 1) * nx]
                assert np.max(np.abs(band - exact)) <= 1e-13 * np.max(np.abs(P))

    def test_electrode_columns_match_dense_inverse(self):
        # P[:, cells] at every electrode cell of a grid with nx != ny, in
        # blocks of nx = 7 columns, the last one partial; the corner
        # electrodes of the left and bottom edges sit at pinned cell 0,
        # whose column and row of P are zero
        nx, ny = 7, 5
        g = _unit_square(nx, ny)
        A = _stock_matrix(g)
        P = np.zeros((nx * ny, nx * ny))
        P[1:, 1:] = np.linalg.inv(A[1:, 1:].toarray())
        cells = left_right_current_pattern(g).cells
        assert np.count_nonzero(cells == 0) == 2
        got = np.empty((nx * ny, cells.size))
        elim = synfocus.forward_eit._eliminate(A, nx, ny)
        for j0, x in synfocus.forward_eit._electrode_columns(A, elim, cells):
            assert x.shape[1] == min(nx, cells.size - j0)
            got[:, j0:j0 + x.shape[1]] = x
        assert np.max(np.abs(got - P[:, cells])) <= 1e-13 * np.max(np.abs(P))
        assert not np.any(got[:, cells == 0]) and not np.any(got[0])

    def test_corrupted_column_block_raises(self, monkeypatch):
        # a wrong entry in one Schur inverse corrupts the column blocks,
        # which fail their reduced-system residual check; the adjoint runs
        # no band sweep, so the column check is the one that fires
        eliminate = synfocus.forward_eit._eliminate

        def corrupted_eliminate(*args):
            block, c, sinv = eliminate(*args)
            sinv[5, 3, 4] *= 1.0 + 1e-6
            return block, c, sinv

        monkeypatch.setattr(synfocus.forward_eit, "_eliminate", corrupted_eliminate)
        phantom_grid = centered_grid(16, 2)
        el = left_right_current_pattern(phantom_grid)
        with pytest.raises(RuntimeError, match="electrode columns failed"):
            kernel_adjoint(default_phantom(phantom_grid), el, centered_grid(8, 2))

    def test_corrupted_band_block_raises(self, monkeypatch):
        # a wrong entry in the widest band block of one row fails the
        # residual check of the sweep
        sweep = synfocus.forward_eit._row_sweep

        def corrupted_sweep(*args):
            for k, ring in sweep(*args):
                if k == 8:
                    ring[k % ring.shape[0], :, -ring.shape[1]:] *= 1.0 + 1e-6
                yield k, ring

        monkeypatch.setattr(synfocus.forward_eit, "_row_sweep", corrupted_sweep)
        phantom_grid = centered_grid(16, 2)
        el = left_right_current_pattern(phantom_grid)
        with pytest.raises(RuntimeError, match="row sweep failed"):
            kernel_bruteforce(default_phantom(phantom_grid), el, centered_grid(8, 2))

    def test_row_sweep_memory(self, monkeypatch):
        # The elimination holds S_k^-1 for every grid row, ny nx^2 values
        # (64 nx^2 here), and the backward sweep a window of w + 1 band
        # rows, (w + 1)^2 nx^2 (16 nx^2).  The rest, the diagonals (3 ny nx),
        # the row being built ((w + 2) nx^2), its residual ((w + 1) nx^2)
        # and the indices gathered for one grid row of pixels, stays below
        # half of those two terms.  Storing the whole band, ny (w + 1) nx^2
        # values, exceeds the bound.  The window runs from the start of the
        # elimination to the end of the sweep and leaves out B_i and G_i,
        # which are allocated between the two and belong to the update.
        nx = ny = 64
        w = 3  # two cells per pixel: every N_p spans four grid rows
        bound = 1.5 * 8 * (ny * nx * nx + (w + 1) ** 2 * nx * nx)
        marks, growth = [], []
        eliminate = synfocus.forward_eit._eliminate
        sweep = synfocus.forward_eit._row_sweep

        def traced_eliminate(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            elim = eliminate(*args)
            current, peak = tracemalloc.get_traced_memory()
            marks.append((current - start, peak - start))
            return elim

        def traced_sweep(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield from sweep(*args)
            held, peak = marks[0]
            growth.append(max(peak, held + tracemalloc.get_traced_memory()[1] - start))

        monkeypatch.setattr(synfocus.forward_eit, "_eliminate", traced_eliminate)
        monkeypatch.setattr(synfocus.forward_eit, "_row_sweep", traced_sweep)
        phantom_grid = centered_grid(nx, 2)
        interior = centered_grid(32, 2, half=0.5 - INTERIOR_MARGIN)
        el = left_right_current_pattern(phantom_grid)
        tracemalloc.start()
        try:
            kernel_bruteforce(default_phantom(phantom_grid), el, interior)
        finally:
            tracemalloc.stop()
        assert len(marks) == len(growth) == 1
        assert marks[0][0] >= 8 * ny * nx * nx  # the S_k^-1 are held
        assert growth[0] < bound

    def test_electrode_columns_memory(self):
        # A block of nx electrode columns holds ny nx^2 values.  Its
        # residual is summed over slabs of 8 grid rows: at most two slab
        # residuals are alive, 2 * 8 nx^2 values (ny nx^2 / 6 at ny = 96),
        # and the slices of A taken for them hold its ~5 ny nx entries at
        # 12 bytes each (ny nx^2 / 12.8).  With the substitution's nx^2
        # temporaries that stays below half of the block, so the bound is
        # 1.5 ny nx^2 values; a whole residual A @ x, another ny nx^2,
        # exceeds it.
        nx = ny = 96
        g = centered_grid(nx, 2)
        A = _stock_matrix(g)
        elim = synfocus.forward_eit._eliminate(A, nx, ny)
        cells = left_right_current_pattern(g).cells
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            blocks = sum(1 for _ in synfocus.forward_eit._electrode_columns(A, elim, cells))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert blocks == 4
        assert peak < 1.5 * 8 * ny * nx * nx

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf, 1e300])
    def test_bruteforce_rejects_non_positive_eps(self, eps, monkeypatch):
        # rejected by name before any solve, also where exp(eps) overflows
        def no_solve(*args, **kwargs):
            raise AssertionError("factored before checking eps")

        monkeypatch.setattr(synfocus.forward_eit, "splu", no_solve)
        phantom_grid = centered_grid(8, 2)
        el = left_right_current_pattern(phantom_grid)
        with pytest.raises(ValueError, match="eps must be positive"):
            kernel_bruteforce(_flat(phantom_grid), el, centered_grid(4, 2), eps=eps)

    def test_bruteforce_eps_richardson(self):
        phantom_grid = centered_grid(16, 2)
        interior = centered_grid(8, 2)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        exact = kernel_adjoint(ph, el, interior).values
        k1 = kernel_bruteforce(ph, el, interior, eps=2e-2).values
        k2 = kernel_bruteforce(ph, el, interior, eps=1e-2).values
        ratio = np.linalg.norm(k1 - exact) / np.linalg.norm(k2 - exact)
        assert 1.7 <= ratio <= 2.3

    @pytest.mark.invariant
    def test_kernel_linearity_quadratic_remainder(self, rng):
        phantom_grid = centered_grid(16, 2)
        interior = centered_grid(8, 2)
        el = left_right_current_pattern(phantom_grid)
        flat = _flat(phantom_grid)
        kern = kernel_adjoint(flat, el, interior)
        # smooth random perturbation direction on the interior grid
        xx, yy = interior.mesh()
        f = np.cos(3 * xx) * np.sin(2 * yy) + 0.3 * rng.standard_normal(xx.shape)
        f = f.reshape(-1)
        area = interior.pixel_measure
        predicted = kern.values @ f * area

        # piecewise-constant prolongation of f onto the phantom cells
        centers = phantom_grid.centers()
        lo = interior.origin - 0.5 * interior.spacing
        idx = np.floor((centers - lo) / interior.spacing).astype(int)
        f_cells = f[idx[:, 0] + idx[:, 1] * 8]
        base = solve_conduction(flat, el).boundary_trace

        def measured(eps):
            pert = Phantom(field=ScalarField(grid=phantom_grid,
                                             values=eps * f_cells))
            h = solve_conduction(pert, el).boundary_trace
            return (h - base) / eps

        e1 = np.linalg.norm(measured(2e-2) - predicted)
        e2 = np.linalg.norm(measured(1e-2) - predicted)
        assert e1 / e2 >= 1.7  # remainder is O(eps) after division by eps

    @pytest.mark.invariant
    def test_kernel_reflection_symmetry(self):
        # sigma = 1 with the left/right pattern is invariant under y -> -y
        phantom_grid = centered_grid(16, 2)
        interior = centered_grid(8, 2)
        el = left_right_current_pattern(phantom_grid)
        k = kernel_bruteforce(_flat(phantom_grid), el, interior).values
        nx = ny = 8
        pix = k.reshape(k.shape[0], ny, nx)[:, ::-1, :].reshape(k.shape[0], -1)
        edges = _edge_slices(16, 16)
        flipped = np.empty_like(pix)
        flipped[edges["left"]] = pix[edges["left"]][::-1]
        flipped[edges["right"]] = pix[edges["right"]][::-1]
        flipped[edges["bottom"]] = pix[edges["top"]]
        flipped[edges["top"]] = pix[edges["bottom"]]
        assert np.max(np.abs(k - flipped)) <= 1e-8 * np.max(np.abs(k))

    def test_zero_current_zero_kernel(self):
        phantom_grid = centered_grid(16, 2)
        interior = centered_grid(8, 2)
        el = square_boundary_electrodes(phantom_grid)
        k = kernel_adjoint(_flat(phantom_grid), el, interior)
        assert np.max(np.abs(k.values)) <= 1e-12

    def test_electrodes_of_another_grid_rejected(self):
        phantom_grid = centered_grid(16, 2)
        interior = centered_grid(8, 2)
        ph = _flat(phantom_grid)
        others = [centered_grid(12, 2), centered_grid(16, 2, half=0.6),
                  Grid(origin=phantom_grid.origin + 0.01, spacing=phantom_grid.spacing,
                       counts=phantom_grid.counts)]
        for other in others:
            el = left_right_current_pattern(other)
            with pytest.raises(ValueError, match="another grid"):
                solve_conduction(ph, el)
            with pytest.raises(ValueError, match="another grid"):
                kernel_bruteforce(ph, el, interior)
            with pytest.raises(ValueError, match="another grid"):
                kernel_adjoint(ph, el, interior)
        # an equal grid built separately is the same grid
        same = centered_grid(16, 2)
        assert solve_conduction(ph, left_right_current_pattern(same)).residual <= 1e-10

    def test_interior_must_be_covered(self):
        phantom_grid = centered_grid(8, 2)
        toofine = centered_grid(32, 2)  # pixels with no phantom cell centers
        el = left_right_current_pattern(phantom_grid)
        with pytest.raises(ValueError, match="interior pixel"):
            kernel_bruteforce(_flat(phantom_grid), el, toofine)
