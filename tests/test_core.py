import dataclasses
import itertools

import numpy as np
import pytest

from synfocus.core import (
    _stencil,
    BoundaryElectrodes,
    Disk,
    Grid,
    KernelMatrix,
    ScalarField,
    TransducerArray,
    build_phantom_disks,
    make_transducer_array,
    square_boundary_electrodes,
)
from synfocus.forward_eit import ConductionSolution, left_right_current_pattern
from synfocus.wavegen import FourierData, MonochromaticData, Sinogram, SphericalMeanData

from conftest import centered_grid, stencil_gather


class TestGrid:
    def test_axes_and_centers_layout(self):
        g = Grid(origin=(0.0, 10.0), spacing=(1.0, 2.0), counts=(3, 2))
        ax, ay = g.axes()
        assert np.allclose(ax, [0.0, 1.0, 2.0])
        assert np.allclose(ay, [10.0, 12.0])
        # flat order is x-fastest
        pts = g.centers()
        assert pts.shape == (6, 2)
        assert np.allclose(pts[0], [0.0, 10.0])
        assert np.allclose(pts[1], [1.0, 10.0])
        assert np.allclose(pts[3], [0.0, 12.0])

    def test_reshape_matches_flat_order(self):
        g = centered_grid(4, 3)
        vals = np.arange(g.n_pixels, dtype=float)
        f = ScalarField(grid=g, values=vals)
        cube = f.reshape()
        assert cube.shape == (4, 4, 4)
        # value at (ix, iy, iz) lives at flat ix + nx*(iy + ny*iz)
        assert cube[2, 1, 3] == 3 + 4 * (1 + 4 * 2)

    def test_bounds_pad_half_spacing(self):
        g = Grid(origin=(0.5,) * 2, spacing=(1.0,) * 2, counts=(4, 4))
        lo, hi = g.bounds()
        assert np.allclose(lo, [0.0, 0.0])
        assert np.allclose(hi, [4.0, 4.0])
        assert g.pixel_measure == 1.0

    def test_mesh_matches_centers(self):
        g = Grid(origin=(0.0, 0.0, 0.0), spacing=(1.0, 2.0, 3.0), counts=(2, 3, 4))
        X, Y, Z = g.mesh()
        pts = g.centers()
        assert np.allclose(X.ravel(), pts[:, 0])
        assert np.allclose(Y.ravel(), pts[:, 1])
        assert np.allclose(Z.ravel(), pts[:, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(origin=(0.0,), spacing=(1.0,), counts=(4,))  # 1d unsupported
        with pytest.raises(ValueError):
            Grid(origin=(0.0, 0.0), spacing=(1.0, -1.0), counts=(4, 4))
        with pytest.raises(ValueError):
            Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), counts=(4, 1))

    def test_counts_must_be_whole_numbers(self):
        # 2.9 used to truncate to 2, and 1e30 to raise OverflowError
        for counts in ((2.9, 3), (1e30, 3)):
            with pytest.raises(ValueError, match="grid counts must be integers"):
                Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), counts=counts)
        g = Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), counts=(64.0, 3))
        assert g.counts.dtype == np.int64 and g.counts.tolist() == [64, 3]

    def test_arrays_are_read_only(self):
        g = centered_grid(4, 2)
        with pytest.raises(ValueError):
            g.origin[0] = 7.0

    def test_equality_and_hash_by_value(self):
        a = Grid(origin=(0.0, 1.0), spacing=(0.5, 0.25), counts=(4, 3))
        b = Grid(origin=[0.0, 1.0], spacing=np.array([0.5, 0.25]), counts=(4, 3))
        assert a == b and not a != b
        assert hash(a) == hash(b)
        for other in (Grid(origin=(0.0, 1.5), spacing=(0.5, 0.25), counts=(4, 3)),
                      Grid(origin=(0.0, 1.0), spacing=(0.5, 0.5), counts=(4, 3)),
                      Grid(origin=(0.0, 1.0), spacing=(0.5, 0.25), counts=(4, 4)),
                      Grid(origin=(0.0, 1.0, 0.0), spacing=(0.5, 0.25, 1.0),
                           counts=(4, 3, 2))):
            assert a != other and not a == other
        assert a != "grid" and a != a.origin.tolist()


# every array field a container freezes, with the name it is rejected under
_ARRAY_FIELDS = [
    (Grid, "origin", "grid origin"),
    (Grid, "spacing", "grid spacing"),
    (Grid, "counts", "grid counts"),
    (ScalarField, "values", "field values"),
    (Disk, "center", "disk center"),
    (TransducerArray, "positions", "transducer positions"),
    (TransducerArray, "weights", "transducer weights"),
    (BoundaryElectrodes, "current", "electrode current"),
    (KernelMatrix, "values", "kernel entries"),
    (ConductionSolution, "boundary_trace", "boundary trace"),
    (SphericalMeanData, "radii", "radii"),
    (SphericalMeanData, "values", "values"),
    (MonochromaticData, "frequencies", "frequencies"),
    (MonochromaticData, "values", "values"),
    (FourierData, "values", "values"),
    (Sinogram, "angles", "angles"),
    (Sinogram, "offsets", "offsets"),
    (Sinogram, "values", "values"),
]


def _ids(v):
    return v.__name__ if isinstance(v, type) else v


class TestArrayContainers:
    def test_compare_by_identity(self):
        # containers holding arrays never compare their arrays: == is
        # identity and does not raise, even on equal grids built apart
        def grid():
            return Grid(origin=(0.0, 1.0), spacing=(0.5, 0.25), counts=(3, 2))

        makers = [
            lambda: KernelMatrix(grid(), np.ones((2, 6))),
            lambda: ScalarField(grid(), np.ones(6)),
            lambda: build_phantom_disks(grid(), []),
            lambda: Disk((0.0, 0.0), 0.5, 0.1),
            lambda: square_boundary_electrodes(grid(), left=1.0, right=-1.0),
            lambda: make_transducer_array(8, 1.5),
        ]
        for make in makers:
            x, y = make(), make()
            assert x == x and not x != x
            assert x != y and not x == y
            assert hash(x) == hash(x)

    @staticmethod
    def _valid_args(container):
        """Valid constructor arguments of ``container``."""
        g = Grid(origin=(0.0, 1.0), spacing=(0.5, 0.25), counts=(3, 2))
        arr = make_transducer_array(6, 1.0)
        return {
            Grid: dict(origin=(0.0, 1.0), spacing=(0.5, 0.25), counts=(3, 2)),
            ScalarField: dict(grid=g, values=np.ones(6)),
            Disk: dict(center=(0.0, 0.0), radius=0.1, amplitude=0.05),
            TransducerArray: dict(positions=arr.positions, weights=arr.weights, radius=1.0),
            BoundaryElectrodes: dict(grid=g, current=np.zeros(10)),
            KernelMatrix: dict(grid=g, values=np.ones((2, 6))),
            ConductionSolution: dict(potential=ScalarField(g, np.zeros(6)),
                                     boundary_trace=np.zeros(10), residual=0.0),
            SphericalMeanData: dict(array=arr, radii=(0.5, 1.0, 1.5),
                                    values=np.zeros((6, 3, 1))),
            MonochromaticData: dict(array=arr, frequencies=(2.0, 4.0),
                                    values=np.zeros((6, 2, 1), complex)),
            FourierData: dict(grid=g, values=np.zeros((6, 1), complex)),
            Sinogram: dict(angles=(0.0, np.pi / 2), offsets=(-1.0, 0.0, 1.0),
                           values=np.zeros((2, 3, 1))),
        }[container]

    @pytest.mark.parametrize("container, field, name", _ARRAY_FIELDS, ids=_ids)
    def test_non_finite_array_rejected_by_name(self, container, field, name):
        args = self._valid_args(container)
        container(**args)
        base = np.asarray(args[field]) + 0.0   # integer counts become float
        bads = [np.nan, np.inf, -np.inf]
        if base.dtype.kind == "c":
            bads.append(complex(0.0, np.nan))
        for bad in bads:
            values = base.copy()
            values.flat[-1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                container(**{**args, field: values})

    @staticmethod
    def _check_copied(make, mine, field):
        """``make(mine)`` holds a frozen copy in ``field``: ``mine`` stays
        writable, and writing to it afterwards leaves the container unchanged."""
        made = make(mine)
        held = getattr(made, field)
        before = held.copy()
        assert mine.flags.writeable
        mine += 1
        assert not np.shares_memory(held, mine)
        assert np.array_equal(getattr(made, field), before)

    @pytest.mark.parametrize("container, field", [f[:2] for f in _ARRAY_FIELDS], ids=_ids)
    def test_construction_copies_the_callers_array(self, container, field):
        # a C-ordered array of the held dtype, which a container could
        # otherwise freeze in place
        args = self._valid_args(container)
        mine = getattr(container(**args), field).copy()
        self._check_copied(lambda a: container(**{**args, field: a}), mine, field)

    @pytest.mark.parametrize("container", [SphericalMeanData, MonochromaticData, FourierData,
                                           Sinogram], ids=_ids)
    def test_replace_copies_the_callers_values(self, container):
        data = container(**self._valid_args(container))
        mine = data.values.copy()
        self._check_copied(lambda a: dataclasses.replace(data, values=a), mine, "values")


class TestScalarField:
    def test_size_mismatch_rejected(self):
        g = centered_grid(4, 2)
        with pytest.raises(ValueError):
            ScalarField(grid=g, values=np.zeros(5))

    def test_nonfinite_rejected(self):
        g = centered_grid(2, 2)
        with pytest.raises(ValueError):
            ScalarField(grid=g, values=np.array([0.0, np.nan, 0.0, 0.0]))


class TestPhantom:
    def test_disk_membership_and_overlap(self):
        g = centered_grid(8, 2)
        ph = build_phantom_disks(
            g,
            [
                Disk(center=(0.0, 0.0), radius=0.2, amplitude=0.5),
                Disk(center=(0.0, 0.0), radius=0.4, amplitude=0.25),
            ],
        )
        vals = ph.field.reshape()
        center = vals[4, 4]  # pixel center (0.0625, 0.0625), inside both
        assert center == pytest.approx(0.75)
        assert ph.conductivity().max() == pytest.approx(np.exp(0.75))

    def test_closed_disk_boundary_pixel(self):
        g = Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), counts=(3, 3))
        ph = build_phantom_disks(g, [Disk(center=(1.0, 1.0), radius=1.0, amplitude=1.0)])
        vals = ph.field.reshape()
        assert vals[1, 0] == 1.0  # center (0, 1) at distance exactly 1: closed disk
        assert vals[0, 0] == 0.0  # corner at distance sqrt(2)

    def test_disk_outside_domain_rejected(self):
        g = centered_grid(8, 2)
        with pytest.raises(ValueError, match="disk 0"):
            build_phantom_disks(g, [Disk(center=(0.45, 0.0), radius=0.2, amplitude=0.1)])

    @pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0, -0.1])
    def test_radius_must_be_positive_and_finite(self, radius):
        # an infinite radius used to pass and be rejected only by
        # build_phantom_disks, as a disk outside the domain box
        with pytest.raises(ValueError, match="disk radius must be positive and finite"):
            Disk(center=(0.0, 0.0), radius=radius, amplitude=0.1)

    def test_amplitude_bound(self):
        with pytest.raises(ValueError):
            Disk(center=(0.0, 0.0), radius=0.1, amplitude=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_center_rejected(self, bad):
        # a NaN center used to pass the domain-box check of
        # build_phantom_disks and rasterize to an all-zero phantom
        with pytest.raises(ValueError, match="disk center must be finite"):
            Disk(center=(bad, 0.0), radius=0.1, amplitude=0.05)
        with pytest.raises(ValueError, match="disk center must be finite"):
            build_phantom_disks(centered_grid(8, 2), [((0.0, bad), 0.1, 0.05)])


class TestTransducerArray:
    def test_fibonacci_on_sphere(self):
        arr = make_transducer_array(100, radius=2.0)
        assert arr.positions.shape == (100, 3)
        assert np.allclose(np.linalg.norm(arr.positions, axis=1), 2.0)
        assert np.allclose(np.linalg.norm(arr.normals, axis=1), 1.0)
        # outward radial normals and aperture-measure weights
        assert np.allclose(arr.normals, arr.positions / 2.0)
        assert np.sum(arr.weights) == pytest.approx(4.0 * np.pi * 4.0)

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            make_transducer_array(3, radius=1.0)

    def test_off_sphere_rejected(self):
        arr = make_transducer_array(6, radius=1.0)
        bad = arr.positions.copy()
        bad[0] *= 1.1
        with pytest.raises(ValueError, match=r"\|z\| = R"):
            TransducerArray(positions=bad, weights=arr.weights, radius=1.0)

    @pytest.mark.parametrize("field, message", [
        ("positions", "transducer positions must be finite"),
        ("weights", "transducer weights must be finite")])
    def test_nan_rejected(self, field, message):
        arr = make_transducer_array(6, radius=1.0)
        args = dict(positions=arr.positions.copy(), weights=arr.weights.copy(), radius=1.0)
        args[field].flat[0] = np.nan
        with pytest.raises(ValueError, match=message):
            TransducerArray(**args)

    @pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0, -1.0])
    def test_radius_must_be_positive_and_finite(self, radius):
        # an infinite radius used to pass both aperture tests (they
        # compare against inf) and give all-zero normals
        arr = make_transducer_array(6, radius=1.0)
        with pytest.raises(ValueError, match="aperture radius must be positive and finite"):
            TransducerArray(positions=arr.positions, weights=arr.weights, radius=radius)
        # inf times the lattice's zeros must not warn before the check
        with pytest.raises(ValueError, match="aperture radius must be positive and finite"):
            make_transducer_array(6, radius=radius)

    @pytest.mark.parametrize("radius", [1e200, np.float64(1e200), 1.5e150])
    def test_huge_finite_radius_rejected_by_name(self, radius):
        # finite radii above 1e150; at 1e200, R^2 used to overflow (an
        # OverflowError from the float power, a RuntimeWarning from numpy's
        # squares) before the radius was named
        arr = make_transducer_array(6, radius=1.0)
        with pytest.raises(ValueError, match="aperture radius .* at most 1e\\+150"):
            TransducerArray(positions=radius * arr.positions, weights=arr.weights, radius=radius)
        with pytest.raises(ValueError, match="aperture radius .* at most 1e\\+150"):
            make_transducer_array(6, radius=radius)

    def test_largest_radius_accepted(self):
        arr = make_transducer_array(6, radius=1e150)
        assert arr.radius == 1e150
        assert np.allclose(arr.weights.sum(), 4.0 * np.pi * 1e300)

    def test_planar_positions_rejected(self):
        ang = 2.0 * np.pi * np.arange(6) / 6
        pos = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        with pytest.raises(ValueError, match="must be 3d points"):
            TransducerArray(positions=pos, weights=np.full(6, 4.0 * np.pi / 6), radius=1.0)

    def test_normals_are_derived_radial(self):
        # a sphere about the origin fixes the outward normal, so it is
        # neither an argument nor settable
        arr = make_transducer_array(12, radius=1.7)
        assert np.array_equal(arr.normals, arr.positions / 1.7)
        with pytest.raises(AttributeError):
            arr.normals = arr.positions
        with pytest.raises(TypeError):
            TransducerArray(positions=arr.positions, normals=arr.normals,
                            weights=arr.weights, radius=1.7)


class TestBoundaryElectrodes:
    def test_ordering_and_counts(self):
        g = Grid(origin=(0.5, 0.5), spacing=(1.0, 1.0), counts=(3, 2))
        el = square_boundary_electrodes(g, left=1.0, right=-1.0)
        assert el.n == 2 * (3 + 2)
        # left edge first, increasing y, at x = 0
        assert np.allclose(el.points[0], [0.0, 0.5])
        assert np.allclose(el.points[1], [0.0, 1.5])
        # then right edge at x = 3
        assert np.allclose(el.points[2], [3.0, 0.5])
        # bottom edge at y = 0, increasing x
        assert np.allclose(el.points[4], [0.5, 0.0])
        assert el.current[0] == 1.0 and el.current[2] == -1.0
        # boundary cells, x-fastest: left column, right column, bottom row, top row
        assert el.cells.tolist() == [0, 3, 2, 5, 0, 1, 2, 3, 4, 5]
        # left/right faces lie hx across and hy along, bottom/top the reverse
        g2 = Grid(origin=(0.5, 1.0), spacing=(1.0, 2.0), counts=(3, 2))
        el2 = square_boundary_electrodes(g2)
        assert el2.cells.tolist() == el.cells.tolist()
        assert el2.normal_spacing.tolist() == [1.0] * 4 + [2.0] * 6
        assert el2.segment_length.tolist() == [2.0] * 4 + [1.0] * 6
        assert np.allclose(el2.points[[0, 2, 4, 7]], [[0.0, 1.0], [3.0, 1.0],
                                                      [0.5, 0.0], [0.5, 4.0]])

    def test_current_length_must_match_faces(self):
        g = Grid(origin=(0.5, 0.5), spacing=(1.0, 1.0), counts=(3, 2))
        BoundaryElectrodes(grid=g, current=np.zeros(10))
        for n in (9, 11):
            with pytest.raises(ValueError, match="boundary faces"):
                BoundaryElectrodes(grid=g, current=np.zeros(n))
        with pytest.raises(ValueError, match="2d grid"):
            square_boundary_electrodes(centered_grid(4, 3))

    def test_left_right_pattern_balances(self):
        g = centered_grid(6, 2)
        el = left_right_current_pattern(g)
        assert el.total_current() == pytest.approx(0.0, abs=1e-15)


class TestKernelMatrix:
    def test_shape_validation(self):
        g = centered_grid(4, 2)
        with pytest.raises(ValueError):
            KernelMatrix(grid=g, values=np.zeros((2, 15)))

    def test_zero_electrode_rows_rejected(self):
        # every measure divides its work by the electrode count or
        # reshapes by it, so the empty kernel is refused at construction
        g = centered_grid(4, 2)
        with pytest.raises(ValueError, match="at least one electrode row"):
            KernelMatrix(grid=g, values=np.zeros((0, 16)))

    def test_column_field(self):
        g = centered_grid(4, 2)
        vals = np.arange(2 * 16, dtype=float).reshape(2, 16)
        k = KernelMatrix(grid=g, values=vals)
        f = k.column_field(1)
        assert np.allclose(f.values, vals[1])
        assert f.grid is k.grid


def _index(grid, points):
    """Index coordinates (points - origin) / spacing, as _stencil takes them."""
    return ((points - grid.origin) / grid.spacing).T


class TestInterpField:
    """The weighted gather of _stencil (conftest.stencil_gather) of one field
    in index coordinates."""

    @pytest.mark.invariant
    def test_multilinear_reproduces_linear_functions(self):
        g = centered_grid(6, 2)
        pts = g.centers()
        vals = 1.5 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1]
        rng = np.random.default_rng(3)
        q = rng.uniform(-0.35, 0.35, size=(50, 2))  # inside the center hull
        expect = 1.5 + 2.0 * q[:, 0] - 0.5 * q[:, 1]
        assert np.allclose(stencil_gather(g, vals[None], _index(g, q))[:, 0], expect, atol=1e-13)

    def test_exact_at_centers(self):
        g = centered_grid(5, 3)
        vals = np.sin(np.arange(g.n_pixels, dtype=float))
        got = stencil_gather(g, vals[None], _index(g, g.centers()))[:, 0]
        assert np.allclose(got, vals, atol=1e-14)

    def test_zero_outside_support(self):
        g = centered_grid(4, 2)
        ones = np.ones((1, 16))
        far = np.array([[2.0, 0.0], [0.0, -3.0]])
        assert np.allclose(stencil_gather(g, ones, _index(g, far)), 0.0)
        # rolls off linearly: half a spacing beyond the last center -> 1/2
        edge = np.array([[0.375 + 0.125, 0.0]])
        assert stencil_gather(g, ones, _index(g, edge))[0, 0] == pytest.approx(0.5)

    @pytest.mark.invariant
    @pytest.mark.parametrize("dim", [2, 3])
    def test_padded_stencil_weights_and_indices(self, dim):
        # inside the center hull the corner weights are a partition of
        # unity; every corner, also in the roll-off shell, indexes the grid
        # padded by one layer
        rng = np.random.default_rng(30 + dim)
        g = Grid(origin=(-0.4, 0.1, -0.2)[:dim], spacing=(0.3, 0.2, 0.25)[:dim],
                 counts=(5, 4, 3)[:dim])
        hull = rng.uniform(0.0, 1.0, (500, dim)) * (g.counts - 1)
        near, index, weight = _stencil(g, hull.T)
        assert near.size == hull.shape[0]
        assert index.shape == weight.shape == (hull.shape[0], 2 ** dim)
        assert np.max(np.abs(weight.sum(axis=1) - 1.0)) <= 1e-15
        shell = rng.uniform(-1.0, 1.0, (500, dim)) * (g.counts + 1) + 0.5 * (g.counts - 1)
        _, index, weight = _stencil(g, np.concatenate([hull, shell]).T)
        assert np.all(weight >= 0.0)
        assert np.all(index >= 0) and np.all(index < np.prod(g.counts + 2))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_support_box_bounds_the_stencil(self, dim):
        # each face of the support box, the pixel-center hull padded by one
        # spacing, one axis at a time from the box's centre: a billionth of
        # a spacing inside it the stencil reaches the point, as far outside
        # it does not
        g = Grid(origin=(-0.4, 0.1, -0.2)[:dim], spacing=(0.3, 0.2, 0.25)[:dim],
                 counts=(5, 4, 3)[:dim])
        lo, hi = g.origin - g.spacing, g.origin + g.counts * g.spacing
        pts, inside = [], []
        for d, (face, inward) in itertools.product(range(dim), ((lo, 1.0), (hi, -1.0))):
            for sign in (1.0, -1.0):
                p = 0.5 * (lo + hi)
                p[d] = face[d] + sign * inward * 1e-9 * g.spacing[d]
                pts.append(p)
                inside.append(sign > 0)
        near, _, _ = _stencil(g, _index(g, np.array(pts)))
        assert near.tolist() == np.flatnonzero(inside).tolist()


def _multilinear_loop(grid, columns, points):
    """Per-point multilinear interpolation with zero outside the pixel
    centers, written out corner by corner."""
    counts = [int(c) for c in grid.counts]
    out = np.zeros((points.shape[0], columns.shape[0]))
    for p, x in enumerate(points):
        u = (x - grid.origin) / grid.spacing
        if np.any(u <= -1.0) or np.any(u >= grid.counts):
            continue
        i0 = np.floor(u).astype(int)
        for corner in itertools.product((0, 1), repeat=grid.dim):
            idx = i0 + np.array(corner)
            if np.any(idx < 0) or np.any(idx >= grid.counts):
                continue
            w = 1.0
            for d in range(grid.dim):
                f = u[d] - i0[d]
                w *= f if corner[d] else 1.0 - f
            flat = 0
            for d in reversed(range(grid.dim)):
                flat = flat * counts[d] + int(idx[d])
            out[p] += w * columns[:, flat]
    return out


class TestInterpRollOff:
    """Points in the one-spacing shell beyond the pixel centers, at box
    corners and along edges, where some interpolation corners fall outside
    the grid."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_corners_and_edges_match_explicit_loop(self, dim):
        rng = np.random.default_rng(11 + dim)
        counts = (5, 4, 3)[:dim]
        spacing = np.array((0.3, 0.2, 0.25)[:dim])
        g = Grid(origin=(-0.4, 0.1, -0.2)[:dim], spacing=spacing, counts=counts)
        lo = g.origin
        hi = g.origin + (g.counts - 1) * spacing
        columns = rng.standard_normal((3, g.n_pixels))
        pts = []
        # every box corner: each coordinate in its roll-off shell
        for side in itertools.product((0, 1), repeat=dim):
            shell = rng.uniform(0.0, 1.0, (8, dim)) * spacing
            pts.append(np.where(side, hi + shell, lo - shell))
        # edges (3d) and sides (2d): one coordinate free inside the hull
        for free in range(dim):
            for side in itertools.product((0, 1), repeat=dim - 1):
                shell = rng.uniform(0.0, 1.0, (8, dim)) * spacing
                p = np.where(np.insert(side, free, 0), hi + shell, lo - shell)
                p[:, free] = rng.uniform(lo[free], hi[free], 8)
                pts.append(p)
        pts = np.concatenate(pts)
        expect = _multilinear_loop(g, columns, pts)
        assert np.count_nonzero(expect) == expect.size
        assert np.max(np.abs(stencil_gather(g, columns, _index(g, pts)) - expect)) <= 1e-13
