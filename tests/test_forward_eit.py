import numpy as np
import pytest

import synfocus.forward_eit
from synfocus.cli import INTERIOR_MARGIN, default_phantom
from synfocus.core import (
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

from conftest import centered_grid, rel_l2


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


# (phantom cells, interior pixels, interior half-width, eps)
_REFACTOR_CASES = [
    (14, 8, 0.5 - INTERIOR_MARGIN, 1e-3),  # uneven cells per pixel
    (12, 8, 0.5, 1e-3),   # pixels hold electrode cells and pinned cell 0
    (16, 8, 0.5, 2e-2),   # finite update away from the linear regime
]


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
        for g in (centered_grid(32, 2),
                  Grid(origin=(-0.5 + 1 / 48, -0.5 + 1 / 32), spacing=(1 / 24, 1 / 16),
                       counts=(24, 16))):
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowed_conductivity_raises(self):
        # exp(800) is inf, so the faces of that cell carry NaN conductances;
        # the solvers must fail instead of returning NaNs
        g = centered_grid(16, 2)
        el = left_right_current_pattern(g)
        log_sigma = np.zeros(g.n_pixels)
        log_sigma[100] = 800.0
        ph = Phantom(field=ScalarField(grid=g, values=log_sigma))
        with pytest.raises(RuntimeError):
            solve_conduction(ph, el)
        with pytest.raises(RuntimeError):
            kernel_adjoint(ph, el, centered_grid(8, 2))

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

    @pytest.mark.parametrize("grid_n, pixels, half, eps", _REFACTOR_CASES)
    def test_bruteforce_matches_per_pixel_refactor(self, grid_n, pixels, half, eps):
        phantom_grid = centered_grid(grid_n, 2)
        interior = centered_grid(pixels, 2, half=half)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        ref = _refactor_kernel(ph, el, interior, eps)
        k = kernel_bruteforce(ph, el, interior, eps=eps).values
        assert rel_l2(k, ref) <= 1e-7

    @pytest.mark.parametrize("grid_n, pixels, half", [c[:3] for c in _REFACTOR_CASES])
    def test_adjoint_matches_refactor_central_difference(self, grid_n, pixels, half):
        # the central difference of per-pixel refactoring is the derivative
        # to O(h^2)
        phantom_grid = centered_grid(grid_n, 2)
        interior = centered_grid(pixels, 2, half=half)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        h = 1e-4
        ref = 0.5 * (_refactor_kernel(ph, el, interior, h)
                     + _refactor_kernel(ph, el, interior, -h))
        k = kernel_adjoint(ph, el, interior).values
        assert rel_l2(k, ref) <= 1e-7

    def test_each_call_factors_once(self, monkeypatch):
        calls = []
        splu = synfocus.forward_eit.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(synfocus.forward_eit, "splu", counting_splu)
        phantom_grid = centered_grid(12, 2)
        interior = centered_grid(6, 2)
        ph = default_phantom(phantom_grid)
        el = left_right_current_pattern(phantom_grid)
        for run in (lambda: solve_conduction(ph, el),
                    lambda: kernel_bruteforce(ph, el, interior),
                    lambda: kernel_adjoint(ph, el, interior)):
            calls.clear()
            run()
            assert len(calls) == 1

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan])
    def test_bruteforce_rejects_non_positive_eps(self, eps):
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
