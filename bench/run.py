"""synfocus benchmark: runs one workload through the ``synfocus`` CLI.

Usage (from the repository root):

    python3 bench/run.py --workload eit_kernel --seed 1 --seconds 30 --trace 0

A workload is a short fixed list of operations; each operation is one
in-process call of ``synfocus.cli.main`` on a config file generated from
the seed.  A pass runs the list once; passes repeat until ``--seconds``
is used up and times are reported as the median over passes.  Every
operation is checked: exit code 0, a ``metrics.txt``, the expected output
files, and its reported error inside a fixed bound.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken from
spans recorded around calls into each synfocus module (see tracing.py).
The last stdout line is the JSON result; the line before it records the
environment.  See NOTES.md for why each workload exists.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# BLAS/OpenMP pools are capped before numpy is imported; a second BLAS
# thread doubled CPU time on the monochromatic operation without lowering
# its wall time.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5

ROOT = Path.cwd()
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SPEC = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Op:
    """One CLI call: mode, config keys, the error key its metrics.txt
    reports with the bound it must lie in, and the files it must write."""

    mode: str
    config: dict
    error_key: str
    error_bounds: tuple
    files: tuple

    @property
    def family(self):
        return self.config.get("family", "kernel")


@dataclass(frozen=True)
class Workload:
    ops: tuple
    layers: tuple     # span labels the traced run must see called


_FOCUS_FILES = ("kernel.csv", "data.csv", "recon.csv", "recon_e000.pgm")
_ENDTOEND_FILES = ("phantom.csv", "phantom.pgm", "trace.csv") + _FOCUS_FILES

WORKLOADS = {
    # conduction layer: brute-force and adjoint kernels, ~95% of the pass
    "eit_kernel": Workload(
        ops=(
            Op("kernel", dict(grid=48, pixels=24), "adjoint_vs_bruteforce",
               (0.0, 0.02), ("kernel.csv", "kernel_adjoint.csv", "kernel_e000.pgm")),
        ),
        layers=("cli.main", "core.build_phantom_disks",
                "forward_eit.solve_conduction", "forward_eit.kernel_bruteforce",
                "forward_eit.kernel_adjoint", "io.save_kernel_csv", "io.save_pgm"),
    ),
    # 2-d wave families: line integrals, FBP over 128 electrodes and the
    # sinogram CSV; the conduction layer is a minor share
    "wave2d": Workload(
        ops=(
            Op("endtoend", dict(family="xray", grid=32, pixels=16, angles=180),
               "kernel_error", (0.0, 0.12), _ENDTOEND_FILES),
            Op("endtoend", dict(family="plane", grid=32, pixels=16),
               "kernel_error", (0.008, 0.012), _ENDTOEND_FILES),
        ),
        layers=("cli.main", "core.build_phantom_disks",
                "forward_eit.solve_conduction", "forward_eit.kernel_bruteforce",
                "wavegen.measure_line_integrals", "wavegen.measure_plane_waves",
                "wavegen.add_noise", "focusing.focus_kernel.xray",
                "focusing.focus_kernel.plane", "io.save_table_csv",
                "io.save_kernel_csv", "io.save_pgm", "io.save_field_csv"),
    ),
    # 3-d families on one synthetic electrode, no conduction solve: the
    # spherical-mean quadrature and the monochromatic Green's sums
    "volume3d": Workload(
        ops=(
            Op("focus", dict(family="spherical", pixels=16, transducers=96, radii=96),
               "kernel_error", (0.0, 0.15), _FOCUS_FILES),
            Op("focus", dict(family="monochromatic", pixels=24, transducers=128,
                             frequencies=64),
               "kernel_error", (0.0, 0.06), _FOCUS_FILES),
        ),
        layers=("cli.main", "core.make_transducer_array",
                "wavegen.measure_spherical_pulse", "wavegen.measure_monochromatic",
                "wavegen.add_noise", "focusing.focus_kernel.spherical",
                "focusing.focus_kernel.monochromatic", "io.save_table_csv",
                "io.save_kernel_csv", "io.save_pgm"),
    ),
}

FAMILIES = ("plane", "xray", "spherical", "monochromatic")


def write_configs(workload, name, seed):
    """Write one config file per operation; returns (config, output dir)
    pairs."""
    paths = []
    for i, op in enumerate(workload.ops):
        out = RUN_DIR / name / f"op{i}_{op.mode}_{op.family}"
        keys = dict(op.config, noise=0.01, seed=seed, out=out)
        lines = [f"{k} = {v}" for k, v in keys.items()]
        cfg = RUN_DIR / name / f"op{i}.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text("\n".join(lines) + "\n")
        paths.append((cfg, out))
    return paths


def measure_setup(env):
    """Seconds from interpreter start until synfocus is imported, median
    of fresh processes (the cost every CLI run pays)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import synfocus.cli"],
                       env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def check_op(op, code, out):
    """(error or None, reason for failure or None)."""
    if code != 0:
        return None, f"exit code {code}"
    metrics_path = out / "metrics.txt"
    if not metrics_path.is_file():
        return None, "no metrics.txt"
    missing = [f for f in op.files if not (out / f).is_file() or (out / f).stat().st_size == 0]
    if missing:
        return None, f"missing outputs {missing}"
    metrics = {}
    for line in metrics_path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        metrics[key] = value
    try:
        error = float(metrics[op.error_key])
    except (KeyError, ValueError):
        return None, f"no numeric {op.error_key} in metrics.txt"
    lo, hi = op.error_bounds
    if not (error > 0.0 and lo <= error <= hi):
        return error, f"{op.error_key} = {error!r} outside {op.error_bounds}"
    return error, None


def run_pass(cli, workload, paths):
    """Run every operation once; returns (seconds per op, errors, failures)."""
    times, errors, failures = [], [], []
    for op, (cfg, out) in zip(workload.ops, paths):
        shutil.rmtree(out, ignore_errors=True)
        argv = [op.mode, "--config", str(cfg), "--quiet"]
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = "exception"
        times.append(time.perf_counter() - t0)
        error, reason = check_op(op, code, out)
        errors.append(error)
        if reason is not None:
            failures.append(f"{op.mode}/{op.family}: {reason}")
    return times, errors, failures


def _result_values(args, kwargs, result):
    return {"values": result.values.size}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def trace_targets():
    """(module, function, span label, work counter) for every layer traced."""
    from synfocus import cli, core, focusing, forward_eit, io, wavegen

    def named(module, name):
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        return lambda args, kwargs: label

    def focus_label(args, kwargs):
        method = kwargs.get("method", args[1] if len(args) > 1 else None)
        return f"focusing.focus_kernel.{method}"

    targets = [
        (cli, "main", named(cli, "main"), None),
        (core, "build_phantom_disks", named(core, "build_phantom_disks"), None),
        (core, "make_transducer_array", named(core, "make_transducer_array"), None),
        (forward_eit, "solve_conduction", named(forward_eit, "solve_conduction"), None),
        (forward_eit, "kernel_bruteforce", named(forward_eit, "kernel_bruteforce"),
         lambda a, k, r: {"columns": r.values.shape[1]}),
        (forward_eit, "kernel_adjoint", named(forward_eit, "kernel_adjoint"),
         lambda a, k, r: {"electrodes": r.values.shape[0]}),
        (wavegen, "add_noise", named(wavegen, "add_noise"), None),
        (focusing, "focus_kernel", focus_label, None),
    ]
    for name in ("measure_spherical_pulse", "measure_monochromatic",
                 "measure_line_integrals", "measure_plane_waves"):
        targets.append((wavegen, name, named(wavegen, name), _result_values))
    for name in ("save_table_csv", "save_kernel_csv", "save_pgm",
                 "save_field_csv", "save_metrics"):
        targets.append((io, name, named(io, name), _written_bytes))
    return targets


def layer_metrics(tracer, n_passes, op_errors, workload):
    """Per-layer metrics per traced pass (0 where a layer is not run)."""
    summary = tracer.summary()

    def total(label):
        return summary.get(label, (0, 0.0, 0.0))[1] / n_passes

    def count(label, quantity):
        return tracer.counts.get((label, quantity), 0) / n_passes

    def rate(label, quantity, scale=1.0):
        s = total(label)
        return count(label, quantity) * scale / s if s > 0 else 0.0

    def ms_per(label, quantity):
        n = count(label, quantity)
        return total(label) * 1e3 / n if n else 0.0

    m = {"cli.main.self_s": summary.get("cli.main", (0, 0.0, 0.0))[2] / n_passes}
    for label in ("core.build_phantom_disks", "core.make_transducer_array",
                  "forward_eit.solve_conduction", "forward_eit.kernel_bruteforce",
                  "forward_eit.kernel_adjoint", "wavegen.measure_spherical_pulse",
                  "wavegen.measure_monochromatic", "wavegen.measure_line_integrals",
                  "wavegen.measure_plane_waves", "wavegen.add_noise",
                  "io.save_table_csv", "io.save_kernel_csv", "io.save_pgm",
                  "io.save_field_csv"):
        m[f"{label}.s"] = total(label)
    m["forward_eit.solve_conduction.calls"] = summary.get(
        "forward_eit.solve_conduction", (0,))[0] / n_passes
    m["forward_eit.kernel_bruteforce.ms_per_column"] = ms_per(
        "forward_eit.kernel_bruteforce", "columns")
    m["forward_eit.kernel_adjoint.ms_per_electrode"] = ms_per(
        "forward_eit.kernel_adjoint", "electrodes")
    for name in ("measure_spherical_pulse", "measure_monochromatic",
                 "measure_line_integrals"):
        m[f"wavegen.{name}.values_per_s"] = rate(f"wavegen.{name}", "values")
    for name in ("save_table_csv", "save_kernel_csv"):
        m[f"io.{name}.mb_per_s"] = rate(f"io.{name}", "bytes", 1e-6)
    m["io.bytes_written"] = sum(v for (label, q), v in tracer.counts.items()
                                if q == "bytes") / n_passes
    gaps = [e for op, e in zip(workload.ops, op_errors)
            if op.family == "kernel" and e is not None]
    m["forward_eit.kernel_gap"] = statistics.fmean(gaps) if gaps else 0.0
    for family in FAMILIES:
        m[f"focusing.focus_kernel.{family}.s"] = total(f"focusing.focus_kernel.{family}")
        errs = [e for op, e in zip(workload.ops, op_errors)
                if op.family == family and e is not None]
        m[f"focusing.{family}.kernel_error"] = statistics.fmean(errs) if errs else 0.0
    return m


def environment(args, passes):
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    sources = sorted((SRC / "synfocus").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "commit": commit, "src_sha256": digest[:16],
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "synfocus" / "cli.py").is_file() or not SPEC.is_file():
        print(f"bench: run from the repository root; {SRC / 'synfocus'} "
              f"or {SPEC.name} not found", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    os.environ.update(THREAD_CAPS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    workload = WORKLOADS[args.workload]
    shutil.rmtree(RUN_DIR / args.workload, ignore_errors=True)
    t0 = time.perf_counter()
    paths = write_configs(workload, args.workload, args.seed)
    setup_s = (time.perf_counter() - t0) + measure_setup(env)

    sys.path.insert(0, str(SRC))
    from synfocus import cli
    from tracing import Tracer

    # `synfocus forward` exits 2 at this commit (ROADMAP item 5), so it is
    # run once as a probe and reported here, outside the measured passes.
    if args.workload == "eit_kernel":
        probe_out = RUN_DIR / args.workload / "probe_forward"
        code = cli.main(["forward", "--out", str(probe_out), "--quiet",
                         "--seed", str(args.seed)])
        print(f"probe forward (default config): exit code {code}")

    tracer = Tracer() if args.trace else None
    targets = trace_targets() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    untraced, traced = [], []     # pass wall times
    failures, attempted = [], 0
    errors = []
    while True:
        trace_this = args.trace and len(untraced) > len(traced)
        if trace_this:
            tracer.install(targets)
        try:
            times, op_errors, failed = run_pass(cli, workload, paths)
        finally:
            if trace_this:
                tracer.remove()
        (traced if trace_this else untraced).append(sum(times))
        attempted += len(times)
        failures += failed
        # an operation that reports no error counts as the error of an empty
        # reconstruction, 1.0
        errors += [1.0 if e is None else e for e in op_errors]
        done = untraced + traced
        if time.perf_counter() + statistics.median(done) > deadline and (
                not args.trace or traced):
            break

    for reason in failures:
        print(f"bench: failed operation {reason}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(tracer, len(traced), op_errors, workload)
        metrics["trace.run_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        summary = tracer.summary()
        silent = [label for label in workload.layers if label not in summary]
        if silent:
            print(f"bench: traced run recorded no calls of {silent}", file=sys.stderr)
            return 1
    else:
        metrics = {
            "run_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "kernel_error": statistics.fmean(errors),
        }
    if sorted(metrics) != sorted(expected):
        print(f"bench: metrics {sorted(metrics)} do not match {SPEC.name} "
              f"{sorted(expected)}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"env": environment(args, len(untraced) + len(traced)),
                      "pass_s": {"untraced": untraced, "traced": traced}}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
