"""Configuration-driven pipeline runner.

Reproduces the experiment shapes end-to-end: disk phantom on a centered
unit square, finite-difference conduction solve, brute-force measurement
kernel, unfocused wave-family measurement, synthetic focusing, and image
/ metrics export.  Configs are flat `key = value` text; ExperimentConfig
declares the full key set and the default values.
"""

import argparse
import logging
import numbers
import os
import sys
import time
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from . import focusing, io, wavegen
from .core import (
    Disk,
    Grid,
    KernelMatrix,
    build_phantom_disks,
    make_transducer_array,
)
from .forward_eit import (
    _interior_map,
    kernel_adjoint,
    kernel_bruteforce,
    left_right_current_pattern,
    solve_conduction,
)

logger = logging.getLogger("synfocus")

# families whose inversion runs in 3d; they use the synthetic kernel path
VOLUMETRIC = ("spherical", "monochromatic")
# stages of each mode, in run order
CHAINS = {
    "phantom": ("phantom",),
    "forward": ("phantom", "forward"),
    "kernel": ("phantom", "kernel", "kernel_adjoint"),
    "measure": ("kernel", "measure"),
    "focus": ("kernel", "measure", "focus"),
    "endtoend": ("phantom", "forward", "kernel", "measure", "focus"),
    "validate": ("validate_forward", "validate_fourier", "validate_spherical"),
}
MODES = tuple(CHAINS)

# the whole-number keys besides grid, each with its least value
_COUNTS = {"pixels": 1, "transducers": 1, "radii": 1, "frequencies": 1, "angles": 1, "seed": 0}


def _is_int(v):  # a Python or numpy integer; a bool is not a count
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "endtoend"
    grid: tuple = (64, 64)
    pixels: int = 32
    transducers: int = 128
    radii: int = 256
    frequencies: int = 64
    angles: int = 180
    family: str = "plane"
    noise: float = 0.0
    seed: int = 0
    out: str = "."

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"invalid value for 'mode': {self.mode!r}")
        if self.family not in focusing._METHODS:
            raise ValueError(f"invalid value for 'family': {self.family!r}")
        g = tuple(self.grid) if isinstance(self.grid, (tuple, list)) else (self.grid,)
        g = g * 2 if len(g) == 1 else g
        if len(g) != 2 or not all(_is_int(v) and v >= 2 for v in g):
            raise ValueError(f"invalid value for 'grid': {self.grid!r} (need 1 or 2 integer counts >= 2)")
        object.__setattr__(self, "grid", tuple(int(v) for v in g))
        for key, least in _COUNTS.items():
            if not _is_int(getattr(self, key)) or getattr(self, key) < least:
                raise ValueError(f"invalid value for '{key}': must be an integer >= {least}")
        if isinstance(self.noise, bool) or not (isinstance(self.noise, numbers.Real)
                                                and 0.0 <= self.noise < np.inf):
            raise ValueError("invalid value for 'noise': must be a real number, finite and >= 0")
        if not isinstance(self.out, (str, os.PathLike)):
            raise ValueError(f"invalid value for 'out': {self.out!r} is not a path")
        if "".join(str(self.out).splitlines()) != str(self.out):  # one metrics.txt line per key
            raise ValueError(f"invalid value for 'out': {self.out!r} holds a line break")
        if self.mode == "endtoend" and self.family in VOLUMETRIC:
            raise ValueError(
                f"invalid value for 'family': {self.family!r} reconstructs in 3d "
                "and cannot drive the 2d conduction chain; use mode 'measure' or "
                "'focus', or family 'plane'/'xray'"
            )
        if (self.family == "spherical" and "focus" in CHAINS[self.mode]
                and self.radii < focusing._MIN_RADII):
            raise ValueError(f"invalid value for 'radii': the spherical inversion needs at "
                             f"least {focusing._MIN_RADII} for its gradient filter")
        # chains that build a kernel: each conduction-kernel pixel must hold a
        # grid cell centre; the synthetic 3d kernel needs two pixels per axis
        # and an aperture of enough transducers to measure it
        if "kernel" not in CHAINS[self.mode]:
            return
        try:
            if not _uses_synthetic_kernel(self):
                _interior_map(_centered_grid(self.grid), _interior_grid(self))
                return
            _centered_grid((self.pixels,) * 3)
        except ValueError as e:
            raise ValueError(f"invalid value for 'pixels': {e}") from None
        try:
            make_transducer_array(self.transducers, radius=1.0)
        except ValueError as e:
            raise ValueError(f"invalid value for 'transducers': {e}") from None


DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def parse_config(text):
    """Parse flat `key = value` lines into a fully populated config.

    `#` starts a comment; blank lines are skipped; lists are
    comma-separated.  Unknown keys and malformed lines are rejected with
    the offending line number; ExperimentConfig refuses every config the
    CLI refuses, with the same message.
    """
    return ExperimentConfig(**_parse_items(text))


def _parse_items(text):
    """Raw values of the keys that `text` sets, each converted to the type
    of its default (a tuple default takes comma-separated ints)."""
    data, lines = {}, {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key or not value:
            raise ValueError(f"line {num}: expected 'key = value', got {raw.strip()!r}")
        if key not in DEFAULTS:
            raise ValueError(f"line {num}: unknown key {key!r}")
        if key in lines:
            raise ValueError(f"line {num}: {key!r} already set on line {lines[key]}")
        lines[key] = num
        default = DEFAULTS[key]
        try:
            if isinstance(default, tuple):
                data[key] = tuple(int(tok.strip()) for tok in value.split(","))
            else:
                data[key] = type(default)(value)
        except ValueError:
            raise ValueError(f"invalid value for '{key}': {value!r}") from None
    return data


# ---------------------------------------------------------------------------
# pipeline pieces (centered unit square / cube domain)


def _centered_grid(counts, width=1.0):
    """Cell-centered grid on the centered square or cube of side `width`."""
    h = width / np.asarray(counts, dtype=float)
    return Grid(origin=h / 2 - width / 2, spacing=h, counts=counts)


# the interior pixel grid stays away from the electrode boundary, where the
# kernel has a (physical) near-singular sensitivity spike
INTERIOR_MARGIN = 1.0 / 16.0


def _interior_grid(cfg):
    return _centered_grid((cfg.pixels,) * 2, 1.0 - 2.0 * INTERIOR_MARGIN)


def default_phantom(grid):
    """The stock two-disk phantom: +-0.05 log-conductivity inclusions."""
    disks = (
        Disk(center=(-0.16, 0.08), radius=0.16, amplitude=0.05),
        Disk(center=(0.17, -0.13), radius=0.13, amplitude=-0.05),
    )
    return build_phantom_disks(grid, disks)


# centre and standard deviation of the synthetic 3d Gaussian column
SYNTHETIC_CENTER = np.array([0.08, -0.05, 0.03])
SYNTHETIC_SCALE = 0.12


def _synthetic_kernel_3d(pixels):
    """Single-column 3d kernel (off-center Gaussian) for the volumetric
    families, which have no 2d conduction counterpart."""
    grid = _centered_grid((pixels,) * 3)
    pts = grid.centers()
    col = np.exp(-np.sum((pts - SYNTHETIC_CENTER) ** 2, axis=1)
                 / (2.0 * SYNTHETIC_SCALE**2))
    return KernelMatrix(grid=grid, values=col[None, :])


def _uses_synthetic_kernel(cfg):
    """Whether the chain measures the synthetic 3d kernel instead of the
    EIT brute-force kernel (kernel mode always builds the latter)."""
    return cfg.family in VOLUMETRIC and cfg.mode in ("measure", "focus")


def _measure(cfg, kernel):
    """Measure the kernel under cfg.family with wavegen's default sampling."""
    if cfg.family == "plane":
        return wavegen.measure_plane_waves(kernel)
    if cfg.family == "xray":
        return wavegen.measure_line_integrals(kernel, wavegen.default_angles(cfg.angles),
                                              wavegen.default_offsets(kernel.grid))
    array = make_transducer_array(cfg.transducers, radius=1.0)
    if cfg.family == "spherical":
        radii = wavegen.default_radii(array, kernel.grid, cfg.radii)
        return wavegen.measure_spherical_pulse(kernel, array, radii)
    freqs = wavegen.default_frequencies(kernel.grid, cfg.frequencies)
    return wavegen.measure_monochromatic(kernel, array, freqs)


def _save_kernel_images(out_dir, name, kernel):
    n_el = kernel.n_electrodes
    picks = sorted(set(int(round(i)) for i in np.linspace(0, n_el - 1, min(n_el, 4))))
    for j in picks:
        io.save_pgm(out_dir / f"{name}_e{j:03d}.pgm", kernel.column_field(j))


def _save_field(out_dir, name, field):
    io.save_field_csv(out_dir / f"{name}.csv", field)
    io.save_pgm(out_dir / f"{name}.pgm", field)


def _rel_frobenius(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# ---------------------------------------------------------------------------
# stages: each adds to an ordered metrics dict and writes its files


class _Stage:
    """Context that times a stage and renames its errors after it; other
    exceptions (KeyboardInterrupt, SystemExit) propagate unchanged."""

    def __init__(self, name, metrics):
        self.name = name
        self.metrics = metrics

    def __enter__(self):
        logger.info("stage %s", self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.metrics[f"time_{self.name}"] = round(time.perf_counter() - self.t0, 6)
        if isinstance(exc, Exception):
            raise RuntimeError(f"stage '{self.name}' failed: {exc}") from exc


def _config_echo(cfg):
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        out[f"config_{f.name}"] = ",".join(str(x) for x in v) if isinstance(v, tuple) else v
    return out


class _Run:
    """State shared by the stages of one chain.  Each piece is built on
    first use, inside the stage that first needs it."""

    def __init__(self, cfg, out_dir, metrics):
        self.cfg = cfg
        self.out_dir = out_dir
        self.metrics = metrics
        self.data = None

    @cached_property
    def phantom(self):
        return default_phantom(_centered_grid(self.cfg.grid))

    @cached_property
    def electrodes(self):
        return left_right_current_pattern(self.phantom.grid)

    @cached_property
    def kernel(self):
        """EIT brute force, or the synthetic 3d column (see _uses_synthetic_kernel)."""
        if _uses_synthetic_kernel(self.cfg):
            return _synthetic_kernel_3d(self.cfg.pixels)
        logger.info("building brute-force kernel (%dx%d interior, %d electrodes)",
                    self.cfg.pixels, self.cfg.pixels, self.electrodes.n)
        return kernel_bruteforce(self.phantom, self.electrodes, _interior_grid(self.cfg))


def _stage_phantom(run):
    _save_field(run.out_dir, "phantom", run.phantom.field)


def _stage_forward(run):
    sol = solve_conduction(run.phantom, run.electrodes)
    _save_field(run.out_dir, "potential", sol.potential)
    io.save_table_csv(run.out_dir / "trace.csv", ["boundary trace per electrode"],
                      [("electrode", np.arange(run.electrodes.n))],
                      sol.boundary_trace)
    run.metrics["residual"] = float(sol.residual)


def _stage_kernel(run):
    io.save_kernel_csv(run.out_dir / "kernel.csv", run.kernel)
    _save_kernel_images(run.out_dir, "kernel", run.kernel)


def _stage_kernel_adjoint(run):
    adj = kernel_adjoint(run.phantom, run.electrodes, run.kernel.grid)
    io.save_kernel_csv(run.out_dir / "kernel_adjoint.csv", adj)
    run.metrics["adjoint_vs_bruteforce"] = _rel_frobenius(adj.values, run.kernel.values)


def _stage_measure(run):
    cfg = run.cfg
    run.data = wavegen.add_noise(_measure(cfg, run.kernel), cfg.noise, cfg.seed)
    for name, axis in run.data.axes():
        run.metrics[f"axis_{name}"] = axis.size
    io.save_table_csv(run.out_dir / "data.csv", [f"family: {cfg.family}"],
                      run.data.axes(), run.data.values)


def _stage_focus(run):
    recon = focusing.focus_kernel(run.data, run.cfg.family, run.kernel.grid)
    io.save_kernel_csv(run.out_dir / "recon.csv", recon)
    _save_kernel_images(run.out_dir, "recon", recon)
    run.metrics["kernel_error"] = _rel_frobenius(recon.values, run.kernel.values)


def _stage_validate_forward(run):
    grid = _centered_grid((24, 24))
    phantom = build_phantom_disks(grid, ())
    electrodes = left_right_current_pattern(grid)
    sol = solve_conduction(phantom, electrodes)
    trace_exact = -electrodes.points[:, 0]
    trace_exact = trace_exact - np.mean(trace_exact)
    err = np.max(np.abs(sol.boundary_trace - trace_exact))
    run.metrics["forward_linear_error"] = float(err)
    run.metrics["check_forward"] = "pass" if err <= 1e-6 else "fail"


def _stage_validate_fourier(run):
    grid = _centered_grid((16, 16))
    cols = np.random.default_rng(run.cfg.seed).standard_normal((3, grid.n_pixels))
    kernel = KernelMatrix(grid=grid, values=cols)
    rec = focusing.focus_kernel(wavegen.measure_plane_waves(kernel), "plane", grid)
    err = _rel_frobenius(rec.values, kernel.values)
    run.metrics["fourier_roundtrip_error"] = err
    run.metrics["check_fourier"] = "pass" if err <= 1e-8 else "fail"


def _stage_validate_spherical(run):
    # the spherical measure of the synthetic Gaussian at 16^3 against
    # its closed form 2 pi t s^2/d [e^{-(t-d)^2/2s^2} - e^{-(t+d)^2/2s^2}],
    # d = |z - centre|; measured 1.95e-2, and the bound leaves a 28% margin
    kernel = _synthetic_kernel_3d(16)
    array = make_transducer_array(16, radius=1.0)
    t = wavegen.default_radii(array, kernel.grid, 64)
    got = wavegen.measure_spherical_pulse(kernel, array, t).values[..., 0]
    s2 = SYNTHETIC_SCALE**2
    d = np.linalg.norm(array.positions - SYNTHETIC_CENTER, axis=1)[:, None]
    exact = 2.0 * np.pi * t * s2 / d * (np.exp(-(t - d) ** 2 / (2.0 * s2))
                                        - np.exp(-(t + d) ** 2 / (2.0 * s2)))
    err = _rel_frobenius(got, exact)
    run.metrics["spherical_closed_form_error"] = err
    run.metrics["check_spherical"] = "pass" if err <= 0.025 else "fail"


STAGES = {
    "phantom": _stage_phantom,
    "forward": _stage_forward,
    "kernel": _stage_kernel,
    "kernel_adjoint": _stage_kernel_adjoint,
    "measure": _stage_measure,
    "focus": _stage_focus,
    "validate_forward": _stage_validate_forward,
    "validate_fourier": _stage_validate_fourier,
    "validate_spherical": _stage_validate_spherical,
}


def run_chain(cfg, out_dir, metrics):
    """Run the stages CHAINS lists for cfg.mode, adding their metrics to
    `metrics`.  Stages that record 'check_*' results get a 'status' key,
    'fail' if any check did not pass.  Warnings the stages raise are
    logged and, if any, recorded under a single 'warnings' key, also when
    a stage fails."""
    run = _Run(cfg, out_dir, metrics)
    with warnings.catch_warnings(record=True) as caught:
        # record every warning, whatever filters the caller has active
        warnings.simplefilter("always")
        try:
            for name in CHAINS[cfg.mode]:
                with _Stage(name, metrics):
                    STAGES[name](run)
            checks = [v for k, v in metrics.items() if k.startswith("check_")]
            if checks:
                metrics["status"] = "ok" if all(v == "pass" for v in checks) else "fail"
        finally:
            if caught:
                metrics["warnings"] = "; ".join(str(w.message) for w in caught)
                logger.warning("%s", metrics["warnings"])


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        raise _UsageError(message)


def main(argv=None):
    parser = _Parser(prog="synfocus", description=__doc__)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output directory (default from config)")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument("--quiet", action="store_true", help="log warnings only, no progress lines")

    try:
        args = parser.parse_args(argv)
        text = Path(args.config).read_text() if args.config else ""
        items = _parse_items(text)
        items["mode"] = args.mode
        if args.out is not None:
            items["out"] = args.out
        if args.seed is not None:
            items["seed"] = args.seed
        cfg = ExperimentConfig(**items)
        # an out that is a file, or lies under one, is a config error too
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (_UsageError, ValueError, OSError) as e:
        print(f"synfocus: config error: {e}", file=sys.stderr)
        return 1

    logger.setLevel(logging.WARNING if args.quiet else logging.INFO)
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("[synfocus] %(message)s"))
    logger.addHandler(handler)
    metrics = _config_echo(cfg)
    metrics["numpy_version"] = np.__version__
    metrics["scipy_version"] = scipy.__version__
    try:
        try:
            run_chain(cfg, out_dir, metrics)
        finally:
            # a failed stage still leaves the timings recorded up to it
            io.save_metrics(out_dir / "metrics.txt", metrics)
        logger.info("metrics written to %s", out_dir / "metrics.txt")
    except Exception as e:
        print(f"synfocus: {e}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
    if metrics.get("status") == "fail":
        print("synfocus: validation checks failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
