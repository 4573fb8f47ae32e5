"""Configuration-driven pipeline runner.

Reproduces the experiment shapes end-to-end: disk phantom on a centered
unit square, finite-difference conduction solve, brute-force measurement
kernel, unfocused wave-family measurement, synthetic focusing, and image
/ metrics export.  Configs are flat `key = value` text; see DEFAULTS for
the full key set and default values.
"""

import argparse
import sys
import time
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import focusing, io, oracles, wavegen
from .core import (
    Disk,
    Grid,
    KernelMatrix,
    Phantom,
    ScalarField,
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

DEFAULTS = {
    "mode": "endtoend",
    "grid": (64, 64),
    "pixels": 32,
    "transducers": 128,
    "radii": 256,
    "frequencies": 64,
    "angles": 180,
    "family": "plane",
    "noise": 0.0,
    "seed": 0,
    "out": ".",
}

_INT_KEYS = ("pixels", "transducers", "radii", "frequencies", "angles", "seed")
_POSITIVE = ("pixels", "transducers", "radii", "frequencies", "angles")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = DEFAULTS["mode"]
    grid: tuple = DEFAULTS["grid"]
    pixels: int = DEFAULTS["pixels"]
    transducers: int = DEFAULTS["transducers"]
    radii: int = DEFAULTS["radii"]
    frequencies: int = DEFAULTS["frequencies"]
    angles: int = DEFAULTS["angles"]
    family: str = DEFAULTS["family"]
    noise: float = DEFAULTS["noise"]
    seed: int = DEFAULTS["seed"]
    out: str = DEFAULTS["out"]

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


def _check_interior(cfg):
    """Reject, before any stage runs, a 'pixels' value too fine for 'grid'
    in chains that build the conduction kernel."""
    if "kernel" in CHAINS.get(cfg.mode, ()) and not _uses_synthetic_kernel(cfg):
        try:
            _interior_map(_conduction_grid(cfg), _interior_grid(cfg))
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
        try:
            if key == "grid":
                data[key] = tuple(int(tok.strip()) for tok in value.split(","))
            elif key in _INT_KEYS:
                data[key] = int(value)
            elif key == "noise":
                data[key] = float(value)
            else:
                data[key] = value
        except ValueError:
            raise ValueError(f"invalid value for '{key}': {value!r}") from None
    return data


# ---------------------------------------------------------------------------
# pipeline pieces (centered unit square / cube domain)


def _conduction_grid(cfg):
    nx, ny = cfg.grid
    hx, hy = 1.0 / nx, 1.0 / ny
    return Grid(origin=(-0.5 + hx / 2, -0.5 + hy / 2), spacing=(hx, hy), counts=(nx, ny))


# the interior pixel grid stays away from the electrode boundary, where the
# kernel has a (physical) near-singular sensitivity spike
INTERIOR_MARGIN = 1.0 / 16.0


def _interior_grid(cfg):
    n = cfg.pixels
    h = (1.0 - 2.0 * INTERIOR_MARGIN) / n
    lo = -0.5 + INTERIOR_MARGIN
    return Grid(origin=(lo + h / 2,) * 2, spacing=(h,) * 2, counts=(n, n))


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
    n = cfg.pixels
    h = 1.0 / n
    grid = Grid(origin=(-0.5 + h / 2,) * 3, spacing=(h,) * 3, counts=(n, n, n))
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
# runners: each returns an ordered metrics dict and writes its files


class _Stage:
    """Context that times a stage and renames failures after it."""

    def __init__(self, name, metrics, log):
        self.name = name
        self.metrics = metrics
        self.log = log

    def __enter__(self):
        self.log(f"stage {self.name}")
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

    def __init__(self, cfg, out_dir, log):
        self.cfg = cfg
        self.out_dir = out_dir
        self.log = log
        self.metrics = _config_echo(cfg)
        self.data = None

    @cached_property
    def phantom(self):
        return default_phantom(_conduction_grid(self.cfg))

    @cached_property
    def electrodes(self):
        return left_right_current_pattern(self.phantom.grid)

    @cached_property
    def kernel(self):
        """EIT brute force, or the synthetic 3d column (see _uses_synthetic_kernel)."""
        if _uses_synthetic_kernel(self.cfg):
            return _synthetic_kernel_3d(self.cfg)
        self.log(f"building brute-force kernel ({self.cfg.pixels}x{self.cfg.pixels} "
                 f"interior, {self.electrodes.n} electrodes)")
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


def run_chain(cfg, out_dir, log):
    """Run the stages CHAINS lists for cfg.mode."""
    run = _Run(cfg, out_dir, log)
    for name in CHAINS[cfg.mode]:
        with _Stage(name, run.metrics, log):
            STAGES[name](run)
    return run.metrics


def run_validate(cfg, out_dir, log):
    """Quick numerical self-checks; any failure flips the exit code to 2."""
    metrics = _config_echo(cfg)
    rng = np.random.default_rng(cfg.seed)

    with _Stage("validate_forward", metrics, log):
        n = 24
        h = 1.0 / n
        grid = Grid(origin=(-0.5 + h / 2,) * 2, spacing=(h,) * 2, counts=(n, n))
        phantom = Phantom(field=ScalarField(grid=grid, values=np.zeros(n * n)), disks=())
        electrodes = left_right_current_pattern(grid)
        sol = solve_conduction(phantom, electrodes)
        trace_exact = -electrodes.points[:, 0]
        trace_exact = trace_exact - np.mean(trace_exact)
        err = np.max(np.abs(sol.boundary_trace - trace_exact))
        metrics["forward_linear_error"] = float(err)
        metrics["check_forward"] = "pass" if err <= 1e-6 else "fail"

    with _Stage("validate_fourier", metrics, log):
        m = 16
        h = 1.0 / m
        grid = Grid(origin=(-0.5 + h / 2,) * 2, spacing=(h,) * 2, counts=(m, m))
        cols = rng.standard_normal((3, m * m))
        kernel = KernelMatrix(grid=grid, values=cols)
        rec = focusing.focus_kernel(wavegen.measure_plane_waves(kernel), "plane", grid)
        err = _rel_frobenius(rec.values, kernel.values)
        metrics["fourier_roundtrip_error"] = err
        metrics["check_fourier"] = "pass" if err <= 1e-8 else "fail"

    with _Stage("validate_oracle", metrics, log):
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
    return metrics


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
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")

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

    log = (lambda msg: None) if args.quiet else (lambda msg: print(f"[synfocus] {msg}"))
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = run_validate if cfg.mode == "validate" else run_chain
        metrics = runner(cfg, out_dir, log)
        io.save_metrics(out_dir / "metrics.txt", metrics)
    except Exception as e:
        print(f"synfocus: {e}", file=sys.stderr)
        return 2
    log(f"metrics written to {out_dir / 'metrics.txt'}")
    if metrics.get("status") == "fail":
        print("synfocus: validation checks failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
