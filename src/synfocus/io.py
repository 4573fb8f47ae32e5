"""CSV / PGM / metrics serialization.

CSV files are the quantitative record: every value is written as
Python's ``'%.16e' % x``, whose 17 significant digits make load(save(x))
bit-identical.  Geometry travels in `#`-comment headers.
PGM images are for quick visual inspection only; the min-max scale is
recorded in the header comment.
"""

import math

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


# Value blocks are formatted in numpy, about _BLOCK values at a time, so
# the temporaries stay a few hundred kB whatever the table size.  Each
# value gets a record of _WORDS native uint32 words: its text, NUL padding
# and its separator in the last byte; dropping the NULs leaves the lines.
_BLOCK = 1 << 14
_WORDS = 6  # 24 bytes: a fast-path text of at most 23 bytes and its separator
# 10**k is exact in a 64-bit mantissa for k <= 27 (5**27 < 2**64), which
# covers decimal exponents e = 16 - k in -10..42 with one step of
# correction either way
_POW10 = np.array([10 ** k for k in range(28)], dtype=np.longdouble)
_E_MIN, _E_MAX = -10, 42
# the rounding argument in _format_records needs longdouble arithmetic with
# a 64-bit mantissa (x87 extended); elsewhere every value takes the
# '%.16e' path
_FAST = bool(np.longdouble(1) + np.longdouble(2) ** -63 > 1)


def _words(*columns):
    """Native uint32 words whose four bytes are the given columns."""
    stacked = np.stack(np.broadcast_arrays(*columns), axis=-1)
    return stacked.astype(np.uint8).view(np.uint32)[..., 0]


_i, _e = np.arange(10000), np.arange(-99, 100)
_DIGITS4 = _words(*(ord("0") + _i // 10 ** p % 10 for p in (3, 2, 1, 0)))
_DIGITS3E = _words(*(ord("0") + _i[:1000] // 10 ** p % 10 for p in (2, 1, 0)), ord("e"))
# [sign slot, d0, '.', d1] for the two leading digits; '-' fills the slot
_HEAD = _words(0, ord("0") + _i[:100] // 10, ord("."), ord("0") + _i[:100] % 10)
_MINUS = _words(ord("-"), 0, 0, 0)
# [exponent sign, two digits, NUL] for e = -99..99; the NUL takes the separator
_EXP = _words(np.where(_e < 0, ord("-"), ord("+")), ord("0") + abs(_e) // 10,
              ord("0") + abs(_e) % 10, 0)
del _i, _e


def _scaled(x, k):
    """x * 10**k in longdouble with one rounding, for |k| <= 27."""
    s = x * _POW10[np.maximum(k, 0)]
    return np.divide(s, _POW10[np.maximum(-k, 0)], out=s, where=k < 0)


def _format_records(a):
    """``'%.16e' % v`` of each value of a 1-d float array as NUL-padded
    records of uint32 words, the last byte of each left for a separator.

    Zeros and finite values with decimal exponent e in [_E_MIN, _E_MAX]
    are formatted here: the 17 digits of x are rint(|x| * 10**(16 - e)).
    Inf, nan, other exponents, values whose scaled s lands on a half or
    rounds up to the next decade (no double does at 17 digits), and every
    nonzero value where longdouble arithmetic is narrower than 64 bits go
    through '%.16e' itself, which is the same format.
    """
    ax = np.abs(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
    fast = (e >= _E_MIN) & (e <= _E_MAX) & _FAST
    e = np.where(fast, e, 0).astype(np.int64)
    x = np.where(fast, ax, 1.0).astype(np.longdouble)
    s = _scaled(x, 16 - e)
    for step, wrong in ((-1, s < 1e16), (1, s >= 1e17)):  # log10 was off by one
        e[wrong] += step
        s[wrong] = _scaled(x[wrong], 16 - e[wrong])
    # s carries one rounding to a 64-bit mantissa.  Below 2**57 every half
    # integer is representable and rounding is monotone, so s stays on the
    # exact product's side of each half and rint(s) is its correctly
    # rounded value, unless s lands on a half itself.
    d = np.rint(s)
    fast &= (np.abs(s - d) < 0.5) & (d < 1e17)  # or it rounds to the next decade
    zero = ax == 0  # all digits and the exponent 0; the sign bit gives '-0.'
    d[zero], fast[zero] = 0, True
    head, tail = np.divmod(d.astype(np.uint64), 10 ** 11)  # d0..d5, d6..d16
    mid, tail = np.divmod(tail, 10 ** 7)                     # d6..d9, d10..d16
    head, tail = head.astype(np.uint32), tail.astype(np.uint32)
    slow = ~fast
    text = ["%.16e" % v for v in a[slow].tolist()]
    # a 24-byte text (negative, 3-digit exponent) needs a wider record
    words = _WORDS + any(len(t) == 4 * _WORDS for t in text)
    rec = np.zeros((a.size, words), np.uint32)
    rec[:, 0] = _HEAD[head // 10 ** 4] | np.where(np.signbit(a), _MINUS, 0)
    rec[:, 1] = _DIGITS4[head % 10 ** 4]
    rec[:, 2] = _DIGITS4[mid]
    rec[:, 3] = _DIGITS4[tail // 1000]
    rec[:, 4] = _DIGITS3E[tail % 1000]
    rec[:, 5] = _EXP[e + 99]
    if text:
        rec[slow] = np.array(text, dtype=f"S{4 * words}").view(np.uint32).reshape(-1, words)
    return rec


def _write_rows(f, block):
    """One comma-separated line per row of a 2-d float block, each value
    written as ``'%.16e' % v``: 17 significant digits, enough for a
    bit-exact round trip.  Rows go to the file about _BLOCK values at a
    time."""
    block = np.asarray(block, dtype=float)
    rows, cols = block.shape
    if cols == 0:
        f.write("\n" * rows)
        return
    step = max(1, _BLOCK // cols)
    for i in range(0, rows, step):
        rec = _format_records(block[i:i + step].ravel())
        buf = rec.view(np.uint8).reshape(-1, cols, 4 * rec.shape[1])
        buf[:, :-1, -1] = ord(",")
        buf[:, -1, -1] = ord("\n")
        f.write(buf.tobytes().replace(b"\0", b"").decode("ascii"))


def _read_values(lines):
    """The value lines among `lines` (those not starting with '#') as a
    2-d float array, parsed by np.loadtxt.  Without a nonblank value line
    (a table of no rows or no columns) the result is an empty (0, 0)
    array, where loadtxt would warn that the input held no data."""
    rows = [line for line in lines if not line.startswith("#")]
    if not any(line.strip() for line in rows):  # stops at the first value
        return np.empty((0, 0))
    return np.loadtxt(rows, delimiter=",", ndmin=2)


def save_field_csv(path, field):
    """One value per line, x-fastest flat order, grid in the header."""
    with open(path, "w") as f:
        f.write(_grid_header(field.grid))
        f.write("# layout: flat, x-fastest\n")
        _write_rows(f, field.values[:, None])


def load_field_csv(path):
    with open(path) as f:
        grid = _parse_grid_header(f.readline().rstrip("\n"))
        values = _read_values(f)
    return ScalarField(grid=grid, values=values.ravel())


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
        values = _read_values(f)
    return KernelMatrix(grid=grid, values=values)


def save_table_csv(path, header_lines, axes, values):
    """Generic data table: named 1D axes followed by a value block.

    axes is a list of (name, 1d-array) pairs written as header lines;
    values (real or complex) is written one row per line.  Complex
    entries are written as re+imj pairs `re,im`.
    """
    arr = np.asarray(values)
    flat = arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1])
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
    with open(path) as f:
        lines = f.readlines()
    for line in lines:
        line = line.rstrip("\n")
        if line.startswith("# axis "):
            name, _, rest = line[len("# axis "):].partition(": ")
            axes[name] = np.array([float(v) for v in rest.split(",")])
        elif line.startswith("# shape: "):
            shape = tuple(int(v) for v in line[len("# shape: "):].split(","))
        elif line.startswith("# dtype: "):
            complex_data = line.endswith("complex")
    arr = _read_values(lines)
    if complex_data:  # (re, im) pairs, so -0.0, inf and nan come back exactly
        arr = arr.view(complex)
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
