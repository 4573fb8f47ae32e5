"""Configuration-driven pipeline runner.

Reproduces the experiment shapes end-to-end: disk phantom on a centered
unit square, finite-difference conduction solve, brute-force measurement
kernel, unfocused wave-family measurement, synthetic focusing, and image
/ metrics export.  Configs are flat `key = value` text; ExperimentConfig
declares the full key set and the default values.
"""

import argparse
import logging
import sys
import time
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import focusing, io, oracles, wavegen
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

MODES = ("phantom", "forward", "kernel", "measure", "focus", "endtoend", "validate")
FAMILIES = ("plane", "xray", "spherical", "monochromatic")
# families whose inversion runs in 3d; they use the synthetic kernel path
VOLUMETRIC = ("spherical", "monochromatic")
# stages of each chain mode, in run order (validate has its own runner)
CHAINS = {
    "phantom": ("phantom",),
    "forward": ("phantom", "forward"),
    "kernel": ("phantom", "kernel", "kernel_adjoint"),
    "measure": ("kernel", "measure"),
    "focus": ("kernel", "measure", "focus"),
    "endtoend": ("phantom", "forward", "kernel", "measure", "focus"),
}

_POSITIVE = ("pixels", "transducers", "radii", "frequencies", "angles")


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
        if self.family not in FAMILIES:
            raise ValueError(f"invalid value for 'family': {self.family!r}")
        g = tuple(int(v) for v in (self.grid if isinstance(self.grid, (tuple, list)) else (self.grid,)))
        if len(g) == 1:
            g = (g[0], g[0])
        if len(g) != 2 or any(v < 2 for v in g):
            raise ValueError(f"invalid value for 'grid': {self.grid!r} (need 1 or 2 counts >= 2)")
        object.__setattr__(self, "grid", g)
        for key in _POSITIVE:
            if getattr(self, key) <= 0:
                raise ValueError(f"invalid value for '{key}': must be positive")
        if self.noise < 0.0:
            raise ValueError("invalid value for 'noise': must be >= 0")
        if self.mode == "endtoend" and self.family in VOLUMETRIC:
            raise ValueError(
                f"invalid value for 'family': {self.family!r} reconstructs in 3d "
                "and cannot drive the 2d conduction chain; use mode 'measure' or "
                "'focus', or family 'plane'/'xray'"
            )
        if self.family == "spherical" and self.radii < 3:
            raise ValueError("invalid value for 'radii': the spherical family "
                             "needs at least 3 for its gradient filter")


DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _check_interior(cfg):
    """Reject, before any stage runs, a 'pixels' value too fine for 'grid'
    in chains that build the conduction kernel."""
    if "kernel" in CHAINS.get(cfg.mode, ()) and not _uses_synthetic_kernel(cfg):
        try:
            _interior_map(_centered_grid(cfg.grid), _interior_grid(cfg))
        except ValueError as e:
            raise ValueError(f"invalid value for 'pixels': {e}") from None


def parse_config(text):
    """Parse flat `key = value` lines into a fully populated config.

    `#` starts a comment; blank lines are skipped; lists are
    comma-separated.  Unknown keys and malformed lines are rejected with
    the offending line number.
    """
    return ExperimentConfig(**_parse_items(text))


def _parse_items(text):
    """Raw values of the keys that `text` sets, each converted to the type
    of its default (a tuple default takes comma-separated ints)."""
    data = {}
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


def _synthetic_kernel_3d(cfg):
    """Single-column 3d kernel (off-center Gaussian) for the volumetric
    families, which have no 2d conduction counterpart."""
    grid = _centered_grid((cfg.pixels,) * 3)
    center = np.array([0.08, -0.05, 0.03])
    pts = grid.centers()
    col = np.exp(-np.sum((pts - center) ** 2, axis=1) / (2.0 * 0.12**2))
    return KernelMatrix(grid=grid, values=col[None, :])


def _uses_synthetic_kernel(cfg):
    """Whether the chain measures the synthetic 3d kernel instead of the
    EIT brute-force kernel (kernel mode always builds the latter)."""
    return cfg.family in VOLUMETRIC and cfg.mode in ("measure", "focus")


def _measure(cfg, kernel):
    if cfg.family == "plane":
        return wavegen.measure_plane_waves(kernel)
    if cfg.family == "xray":
        angles = wavegen.default_angles(cfg.angles)
        # offsets at a quarter of the pixel spacing: the ramp filter's band
        # limit then clears the sharp near-electrode kernel peaks
        h = float(np.min(kernel.grid.spacing))
        n_off = 8 * int(np.ceil(kernel.grid.circumradius / h)) + 3
        offsets = wavegen.default_offsets(kernel.grid, n_off)
        return wavegen.measure_line_integrals(kernel, angles, offsets)
    array = make_transducer_array(cfg.transducers, radius=1.0, dim=3)
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
# runners: each adds to an ordered metrics dict and writes its files


class _Stage:
    """Context that times a stage and renames failures after it."""

    def __init__(self, name, metrics):
        self.name = name
        self.metrics = metrics

    def __enter__(self):
        logger.info("stage %s", self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.metrics[f"time_{self.name}"] = round(time.perf_counter() - self.t0, 6)
        if exc is not None and not isinstance(exc, _StageError):
            raise _StageError(f"stage '{self.name}' failed: {exc}") from exc
        return False


class _StageError(RuntimeError):
    pass


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
            return _synthetic_kernel_3d(self.cfg)
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
    run.data = _measure(cfg, run.kernel)
    if cfg.noise > 0.0:
        run.data = wavegen.add_noise(run.data, cfg.noise, cfg.seed)
    io.save_table_csv(run.out_dir / "data.csv", [f"family: {cfg.family}"],
                      run.data.axes(), run.data.values)


def _stage_focus(run):
    recon = focusing.focus_kernel(run.data, run.cfg.family, run.kernel.grid)
    io.save_kernel_csv(run.out_dir / "recon.csv", recon)
    _save_kernel_images(run.out_dir, "recon", recon)
    run.metrics["kernel_error"] = _rel_frobenius(recon.values, run.kernel.values)


STAGES = {
    "phantom": _stage_phantom,
    "forward": _stage_forward,
    "kernel": _stage_kernel,
    "kernel_adjoint": _stage_kernel_adjoint,
    "measure": _stage_measure,
    "focus": _stage_focus,
}


def run_chain(cfg, out_dir, metrics):
    """Run the stages CHAINS lists for cfg.mode, adding their metrics to
    `metrics`.  Warnings the stages raise are logged and, if any, recorded
    under a single 'warnings' key, also when a stage fails."""
    run = _Run(cfg, out_dir, metrics)
    with warnings.catch_warnings(record=True) as caught:
        # record every warning, whatever filters the caller has active
        warnings.simplefilter("always")
        try:
            for name in CHAINS[cfg.mode]:
                with _Stage(name, metrics):
                    STAGES[name](run)
        finally:
            if caught:
                metrics["warnings"] = "; ".join(str(w.message) for w in caught)
                logger.warning("%s", metrics["warnings"])


def run_validate(cfg, out_dir, metrics):
    """Quick numerical self-checks, added to `metrics`; any failure flips
    the exit code to 2."""
    with _Stage("validate_forward", metrics):
        grid = _centered_grid((24, 24))
        phantom = build_phantom_disks(grid, ())
        electrodes = left_right_current_pattern(grid)
        sol = solve_conduction(phantom, electrodes)
        trace_exact = -electrodes.points[:, 0]
        trace_exact = trace_exact - np.mean(trace_exact)
        err = np.max(np.abs(sol.boundary_trace - trace_exact))
        metrics["forward_linear_error"] = float(err)
        metrics["check_forward"] = "pass" if err <= 1e-6 else "fail"

    with _Stage("validate_fourier", metrics):
        grid = _centered_grid((16, 16))
        cols = np.random.default_rng(cfg.seed).standard_normal((3, grid.n_pixels))
        kernel = KernelMatrix(grid=grid, values=cols)
        rec = focusing.focus_kernel(wavegen.measure_plane_waves(kernel), "plane", grid)
        err = _rel_frobenius(rec.values, kernel.values)
        metrics["fourier_roundtrip_error"] = err
        metrics["check_fourier"] = "pass" if err <= 1e-8 else "fail"

    with _Stage("validate_oracle", metrics):
        ph = oracles.AnalyticPhantom(kind="gaussian", center=(0.0, 0.0, 0.0),
                                     scale=0.2, amplitude=1.0)
        z = np.array([2.0, 0.0, 0.0])
        coarse = oracles.spherical_mean_quadrature(ph, z, 2.0, n_quad=2048)
        fine = oracles.spherical_mean_quadrature(ph, z, 2.0, n_quad=8192)
        err = abs(coarse - fine) / abs(fine)
        metrics["oracle_selfconvergence"] = float(err)
        metrics["check_oracle"] = "pass" if err <= 1e-6 else "fail"

    failed = [k for k, v in metrics.items() if k.startswith("check_") and v != "pass"]
    metrics["status"] = "fail" if failed else "ok"


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
        _check_interior(cfg)
    except (_UsageError, ValueError, OSError) as e:
        print(f"synfocus: config error: {e}", file=sys.stderr)
        return 1

    logger.setLevel(logging.WARNING if args.quiet else logging.INFO)
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("[synfocus] %(message)s"))
    logger.addHandler(handler)
    out_dir = Path(cfg.out)
    metrics = _config_echo(cfg)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = run_validate if cfg.mode == "validate" else run_chain
        try:
            runner(cfg, out_dir, metrics)
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
