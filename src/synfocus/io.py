"""CSV / PGM / metrics serialization.

CSV files are the quantitative record: values are written with repr so
load(save(x)) is bit-identical.  Geometry travels in `#`-comment headers.
PGM images are for quick visual inspection only; the min-max scale is
recorded in the header comment.
"""

import numpy as np

from .core import Grid, KernelMatrix, ScalarField


def _grid_header(grid):
    return (
        f"# grid: dim={grid.dim}"
        f" origin={','.join(repr(float(v)) for v in grid.origin)}"
        f" spacing={','.join(repr(float(v)) for v in grid.spacing)}"
        f" counts={','.join(str(int(v)) for v in grid.counts)}\n"
    )


def _parse_grid_header(line):
    if not line.startswith("# grid:"):
        raise ValueError(f"expected a '# grid:' header, got {line!r}")
    fields = dict(tok.split("=", 1) for tok in line[len("# grid:"):].split())
    origin = [float(v) for v in fields["origin"].split(",")]
    spacing = [float(v) for v in fields["spacing"].split(",")]
    counts = [int(v) for v in fields["counts"].split(",")]
    return Grid(origin=origin, spacing=spacing, counts=counts)


def _write_rows(f, block):
    """One comma-separated line of reprs per row of a 2-d float block.
    Rows become Python floats one at a time: a whole-table ``tolist`` would
    hold ~32 bytes per value and raise the peak memory of large tables."""
    for row in np.asarray(block, dtype=float):
        f.write(",".join(map(repr, row.tolist())) + "\n")


def save_field_csv(path, field):
    """One value per line, x-fastest flat order, grid in the header."""
    with open(path, "w") as f:
        f.write(_grid_header(field.grid))
        f.write("# layout: flat, x-fastest\n")
        _write_rows(f, field.values[:, None])


def load_field_csv(path):
    with open(path) as f:
        grid = _parse_grid_header(f.readline().rstrip("\n"))
        values = [float(s) for s in f if not s.startswith("#")]
    return ScalarField(grid=grid, values=np.array(values))


def save_kernel_csv(path, kernel):
    """One line per electrode; columns are pixels in x-fastest order."""
    with open(path, "w") as f:
        f.write(_grid_header(kernel.grid))
        f.write(f"# electrodes: {kernel.n_electrodes}\n")
        f.write("# layout: one row per electrode, pixels x-fastest\n")
        f.write("# units: boundary-voltage change per unit log-conductivity "
                "perturbation, per pixel\n")
        _write_rows(f, kernel.values)


def load_kernel_csv(path):
    with open(path) as f:
        grid = _parse_grid_header(f.readline().rstrip("\n"))
        rows = [
            [float(s) for s in line.split(",")]
            for line in f
            if not line.startswith("#")
        ]
    return KernelMatrix(grid=grid, values=np.array(rows))


def save_table_csv(path, header_lines, axes, values):
    """Generic data table: named 1D axes followed by a value block.

    axes is a list of (name, 1d-array) pairs written as header lines;
    values (real or complex) is written one row per line.  Complex
    entries are written as re+imj pairs `re,im`.
    """
    arr = np.asarray(values)
    flat = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr[None, :]
    with open(path, "w") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        for name, ax in axes:
            f.write(f"# axis {name}: {','.join(repr(float(v)) for v in ax)}\n")
        f.write(f"# shape: {','.join(str(n) for n in arr.shape)}\n")
        if np.iscomplexobj(arr):
            f.write("# dtype: complex\n")
            flat = np.ascontiguousarray(flat, dtype=complex).view(float)
        else:
            f.write("# dtype: real\n")
        _write_rows(f, flat)


def load_table_csv(path):
    """Inverse of save_table_csv: returns (axes dict, values array)."""
    axes = {}
    shape = None
    complex_data = False
    rows = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# axis "):
                name, _, rest = line[len("# axis "):].partition(": ")
                axes[name] = np.array([float(v) for v in rest.split(",")])
            elif line.startswith("# shape: "):
                shape = tuple(int(v) for v in line[len("# shape: "):].split(","))
            elif line.startswith("# dtype: "):
                complex_data = line.endswith("complex")
            elif line.startswith("#"):
                continue
            elif line:
                rows.append([float(v) for v in line.split(",")])
    arr = np.array(rows)
    if complex_data:
        arr = arr[:, 0::2] + 1j * arr[:, 1::2]
    if shape is not None:
        arr = arr.reshape(shape)
    return axes, arr


def save_pgm(path, field):
    """Plain-text PGM (P2), min-max scaled to 0..255; the scale is in the
    comment.

    Row order is top-to-bottom (decreasing y) so the image matches the
    usual orientation of the domain.  3D fields export the middle z slice.
    """
    grid = field.grid
    img = field.reshape()
    if grid.dim == 3:
        img = img[grid.counts[2] // 2]
    lo = float(np.min(img))
    hi = float(np.max(img))
    span = hi - lo if hi > lo else 1.0
    pix = np.rint((img - lo) / span * 255).astype(int)
    pix = pix[::-1]  # top row = max y
    with open(path, "w") as f:
        f.write("P2\n")
        f.write(f"# min={repr(lo)} max={repr(hi)}\n")
        f.write(f"{pix.shape[1]} {pix.shape[0]}\n255\n")
        for row in pix:
            f.write(" ".join(str(v) for v in row) + "\n")


def load_pgm(path):
    """Returns (pixel array [rows from top], min, max) from save_pgm output."""
    with open(path) as f:
        magic = f.readline().strip()
        if magic != "P2":
            raise ValueError(f"not a plain PGM file: {magic!r}")
        scale = f.readline().strip()
        fields = dict(tok.split("=", 1) for tok in scale[1:].split())
        w, h = (int(v) for v in f.readline().split())
        f.readline()  # maxval
        pix = np.array([int(v) for v in f.read().split()]).reshape(h, w)
    return pix, float(fields["min"]), float(fields["max"])


def save_metrics(path, metrics):
    """`name = value` lines; floats via repr, everything else via str."""
    with open(path, "w") as f:
        for name, value in metrics.items():
            text = repr(value) if isinstance(value, float) else str(value)
            f.write(f"{name} = {text}\n")


def load_metrics(path):
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.partition(" = ")
            out[name] = value
    return out
