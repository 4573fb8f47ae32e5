"""CSV / PGM / metrics serialization; the package writes this record and
never reads it back.

CSV files are the quantitative record: every value is written as
Python's ``'%.16e' % x``, whose 17 significant digits make
``np.loadtxt(path, delimiter=",")`` return the written doubles bit for
bit.  Geometry, data axes, shape and dtype travel in `#` header lines;
complex tables hold `re,im` pairs (``.view(complex)``).  PGM images are
for quick visual inspection only; the min-max scale is in the header
comment.
"""

import math

import numpy as np


def _grid_header(grid):
    return (
        f"# grid: dim={grid.dim}"
        f" origin={','.join(repr(float(v)) for v in grid.origin)}"
        f" spacing={','.join(repr(float(v)) for v in grid.spacing)}"
        f" counts={','.join(str(int(v)) for v in grid.counts)}\n"
    )


# Value blocks are formatted in numpy, about _BLOCK values at a time, so
# the temporaries stay a few MB whatever the table size.  Each value gets
# a record of _WORDS native uint32 words: its text, NUL padding and its
# separator in the last byte; dropping the NULs leaves the lines.
# With glibc's malloc, 2**13 and 2**14 values per block left 1.5-2 MB more
# peak RSS in a whole `endtoend` xray or `kernel` run, or had the freed
# temporaries trimmed from the heap and faulted back in on every block;
# 2**15 did neither.
_BLOCK = 1 << 15
_WORDS = 6  # 24 bytes: a fast-path text of at most 23 bytes and its separator
# 10**k for k <= 22 is exact in binary64 (5**22 < 2**53), which covers
# decimal exponents e = 16 - k in -6..16; _SPLIT is Dekker's 2**27 + 1
_POW10 = np.array([float(10 ** k) for k in range(23)])
_SPLIT = 2.0 ** 27 + 1


def _halves(v):
    """v = hi + lo exactly, each half with at most 26 significant bits
    (Dekker's split), so products of halves are exact."""
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _times_pow10(x, k):
    """(y, err) with y = fl(x * 10**k) and y + err = x * 10**k exactly
    (Dekker's two-product, Numer. Math. 18, 1971), for 0 <= k <= 22."""
    y = x * _POW10[k]
    xh, xl = _halves(x)
    p = _POW10_HI[k]
    err = np.subtract(y, xh * p)
    err -= np.multiply(xl, p, out=p)
    p = _POW10_LO[k]
    err -= np.multiply(xh, p, out=xh)
    return y, np.subtract(np.multiply(xl, p, out=xl), err, out=err)


def _words(*columns):
    """Native uint32 words whose four bytes are the given columns."""
    stacked = np.stack(np.broadcast_arrays(*columns), axis=-1)
    return stacked.astype(np.uint8).view(np.uint32)[..., 0]


_i, _e = np.arange(10000), np.arange(-99, 100)
_DIGITS4 = _words(*(ord("0") + _i // 10 ** p % 10 for p in (3, 2, 1, 0)))
_DIGITS3E = _words(*(ord("0") + _i[:1000] // 10 ** p % 10 for p in (2, 1, 0)), ord("e"))
# [sign slot, d0, '.', d1] for the two leading digits d0d1, then the same
# with '-' in the slot at d0d1 + 100
_HEAD = _words(np.repeat([0, ord("-")], 100), ord("0") + _i[:200] % 100 // 10,
               ord("."), ord("0") + _i[:200] % 10)
# [exponent sign, two digits, NUL] for e = -99..99; the NUL takes the separator
_EXP = _words(np.where(_e < 0, ord("-"), ord("+")), ord("0") + abs(_e) // 10,
              ord("0") + abs(_e) % 10, 0)
del _i, _e


def _digits(a):
    """(d, k, slow) for a 1-d float array: |a| * 10**k rounds to the 17
    digits d in [10**16, 10**17), so ``'%.16e' % a`` holds d and the
    exponent 16 - k, except at the indices slow.

    Zeros and finite values with decimal exponent in [-6, 16] get here
    the exact product |a| * 10**k rounded to an integer.  Inf, nan, other
    exponents, exact products that lie on a half, and those that round up
    to the next decade are left to '%.16e' itself, listed in slow.
    """
    x = np.abs(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    fast = (e >= -6) & (e <= 16)
    k = np.where(fast, 16 - e, 16).astype(np.intp)
    np.copyto(x, 1.0, where=~fast)
    y, err = _times_pow10(x, k)
    # log10 can be off by one next to a power of ten.  The exact product
    # y + err, not the rounded digits, says which decade x lies in: 1e-06
    # is 9.99999999999999954748e-07, whose y rounds up to 1e16.
    low = (y < 1e16) | ((y == 1e16) & (err < 0))
    high = (y > 1e17) | ((y == 1e17) & (err >= 0))
    i = np.flatnonzero(low | high)
    if i.size:
        k[i] += np.where(low[i], 1, -1)
        fast[i] &= (k[i] >= 0) & (k[i] <= 22)
        y[i], err[i] = _times_pow10(x[i], np.clip(k[i], 0, 22))
    # y is an integer (its ulp is 2 or more above 2**53), so the rounded
    # product is y + rint(err), unless err lies on a half
    r = np.rint(err)
    fast &= np.abs(err - r) != 0.5
    d = (y.astype(np.int64) + r.astype(np.int64)).view(np.uint64)
    fast &= d < 10 ** 17  # or it rounds to the next decade
    # the rest get the digits and exponent of zero, which keep every table
    # index in range; zeros keep them ('-0.' by the sign bit)
    slow = np.flatnonzero(~fast)
    d[slow], k[slow] = 0, 16
    return d, k, slow[a[slow] != 0]


def _format_records(a):
    """``'%.16e' % v`` of each value of a 1-d float array as NUL-padded
    records of uint32 words, the last byte of each left for a separator."""
    d, k, slow = _digits(a)
    text = ["%.16e" % v for v in a[slow].tolist()]
    # digit groups d0d1, d2..d5, d6..d9, d10..d13 and d14..d16; the tables
    # take int64 indices much faster than uint64 ones
    head = d // 10 ** 11                     # d0..d5
    d -= head * 10 ** 11                     # d6..d16
    d01 = head // 10 ** 4
    head -= d01 * 10 ** 4
    mid = d // 10 ** 7                       # d6..d9
    d -= mid * 10 ** 7                       # d10..d16
    t4 = d // 1000
    d -= t4 * 1000
    # a 24-byte text (negative, 3-digit exponent) needs a wider record
    words = _WORDS + any(len(t) == 4 * _WORDS for t in text)
    rec = np.zeros((a.size, words), np.uint32)
    rec[:, 0] = _HEAD[d01.view(np.int64) + 100 * np.signbit(a)]
    rec[:, 1] = _DIGITS4[head.view(np.int64)]
    rec[:, 2] = _DIGITS4[mid.view(np.int64)]
    rec[:, 3] = _DIGITS4[t4.view(np.int64)]
    rec[:, 4] = _DIGITS3E[d.view(np.int64)]
    rec[:, 5] = _EXP[115 - k]  # e + 99 for e = 16 - k
    if text:
        rec[slow] = np.array(text, dtype=f"S{4 * words}").view(np.uint32).reshape(-1, words)
    return rec


def _write_csv(path, header, block):
    """The header text, then one comma-separated line per row of a 2-d
    float block, each value written as ``'%.16e' % v``: 17 significant
    digits, enough for a bit-exact round trip.  Rows go to the file about
    _BLOCK values at a time, as bytes, so lines end in '\\n' on every
    platform and no text layer decodes and re-encodes them."""
    block = np.asarray(block, dtype=float)
    rows, cols = block.shape
    with open(path, "wb") as f:
        f.write(header.encode())
        if cols == 0:
            f.write(b"\n" * rows)
            return
        step = max(1, _BLOCK // cols)
        for i in range(0, rows, step):
            rec = _format_records(block[i:i + step].ravel())
            buf = rec.view(np.uint8).reshape(-1, cols, 4 * rec.shape[1])
            buf[:, :-1, -1] = ord(",")
            buf[:, -1, -1] = ord("\n")
            f.write(buf.tobytes().translate(None, b"\0"))


def save_field_csv(path, field):
    """One value per line, x-fastest flat order, grid in the header."""
    _write_csv(path, _grid_header(field.grid) + "# layout: flat, x-fastest\n",
               field.values[:, None])


def save_kernel_csv(path, kernel):
    """One line per electrode; columns are pixels in x-fastest order."""
    header = (f"{_grid_header(kernel.grid)}"
              f"# electrodes: {kernel.n_electrodes}\n"
              "# layout: one row per electrode, pixels x-fastest\n"
              "# units: boundary-voltage change per unit log-conductivity "
              "perturbation, per pixel\n")
    _write_csv(path, header, kernel.values)


def save_table_csv(path, header_lines, axes, values):
    """Generic data table: named 1D axes followed by a value block.

    axes is a list of (name, 1d-array) pairs written as header lines;
    values (real or complex) is written one row per line.  Complex
    entries are written as re+imj pairs `re,im`.
    """
    arr = np.asarray(values)
    flat = arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1])
    header = [f"# {line}\n" for line in header_lines]
    header += [f"# axis {name}: {','.join(repr(float(v)) for v in ax)}\n"
               for name, ax in axes]
    header.append(f"# shape: {','.join(str(n) for n in arr.shape)}\n")
    if np.iscomplexobj(arr):
        header.append("# dtype: complex\n")
        flat = np.ascontiguousarray(flat, dtype=complex).view(float)
    else:
        header.append("# dtype: real\n")
    _write_csv(path, "".join(header), flat)


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


def save_metrics(path, metrics):
    """`name = value` lines; floats via repr, everything else via str."""
    with open(path, "w") as f:
        for name, value in metrics.items():
            text = repr(value) if isinstance(value, float) else str(value)
            f.write(f"{name} = {text}\n")
