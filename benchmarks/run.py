"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload train-sz28 --seed 1 --seconds 30 --trace 0

Run from the repository root (or a checkout of it): the program is
imported from ``src/`` next to this directory, never from an installed
copy.  One process, one caller: each unit starts when the previous one
has ended, and BLAS runs on one thread, pinned before numpy loads.

glibc's malloc thresholds are pinned too (``MALLOC_ENV``; the process
re-executes itself once to set them), so the allocator does not adapt at
run time.  With adaptive thresholds the page-fault count of one
multitask unit ranged from 500 to 800 000 between units of one process,
and its wall time by 15%.

``--trace 0`` times ``SETUP_REPEATS`` set-ups, then ``--seconds // unit_s``
whole units (at least one), and prints the end-to-end metrics.
``--trace 1`` runs one unit untraced, then one set-up and one unit with
spans recorded around every call into urbanet's modules, then one more
unit untraced, and prints the per-layer metrics plus the tracing overhead
against that last unit.
Outputs are checked after every unit, outside the timed region.  The last
stdout line is the result; the environment and details go to the lines
before it and to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
# glibc reads these at start-up only: mmap above 32 MiB, never trim the heap
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
SETUP_REPEATS = 11


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_program():
    """Pin BLAS threads, then import the sources beside this directory."""
    src = ROOT / "src"
    if not (src / "urbanet" / "__init__.py").is_file():
        raise SystemExit(f"error: no urbanet sources at {src}")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import urbanet

    if Path(urbanet.__file__).resolve().parent != src / "urbanet":
        raise SystemExit(f"error: urbanet imported from {urbanet.__file__}, not {src}")


def environment(seed: int, import_s: float) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "malloc_env": {k: os.environ.get(k) for k in MALLOC_ENV},
        "blas": blas_name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "import_s": import_s,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_checked(workload, state, checks: dict, losses: list):
    """One unit, then its output checks (outside the unit's timing)."""
    unit = workload.run(state)
    loss, named = workload.check(state, unit)
    losses.append(loss)
    for name, ok in named.items():
        checks[f"unit{len(losses)}.{name}"] = bool(ok)
    return unit


def end_to_end(workload, seed: int, seconds: float, scratch: str):
    import numpy as np

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed, scratch)
        setup_s.append(time.perf_counter() - t0)

    checks: dict[str, bool] = {}
    losses: list[float] = []
    n_units = max(1, int(seconds // workload.unit_s))
    units = [run_checked(workload, state, checks, losses) for _ in range(n_units)]
    if n_units > 1:
        checks["repeat_units_identical_loss"] = len(set(losses)) == 1

    wall = sum(u.wall_s for u in units)
    op_ms = [ms for u in units for ms in u.op_ms]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "tiles_per_s": (sum(u.tiles for u in units) / wall, "tiles/s"),
        "op_ms_p50": (float(np.percentile(op_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(op_ms, 90)), "ms"),
        "pred_mse": (losses[0], "mse"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "units": len(units),
        "unit_wall_s": [u.wall_s for u in units],
        "ops": sum(u.ops for u in units),
        "op_samples": len(op_ms),
        "setup_samples_s": setup_s,
        "losses": losses,
    }
    return metrics, checks, sum(u.ops for u in units), details


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span wrapper around a no-op call."""
    import types

    from spans import Tracer

    owner = types.SimpleNamespace(f=lambda: None)
    t0 = time.perf_counter()
    for _ in range(calls):
        owner.f()
    bare = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(owner, "f", "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        owner.f()
    wrapped = time.perf_counter() - t0
    return max(wrapped - bare, 0.0) / calls


def per_layer(workload, seed: int, scratch: str, spans_path: Path):
    import layers
    from spans import Tracer, self_times, totals_by_name

    checks: dict[str, bool] = {}
    losses: list[float] = []
    untraced_state = workload.setup(seed, scratch)
    # the first unit of a process is cold (heap growth, first touches), so
    # the overhead is taken against a second untraced unit run after it
    cold = run_checked(workload, untraced_state, checks, losses)

    tracer = Tracer()
    with tracer.installed(layers.BINDINGS):
        with tracer.span("bench.setup"):
            state = workload.setup(seed, scratch)
        with tracer.span("bench.unit"):
            traced = workload.run(state)
    loss, named = workload.check(state, traced)
    losses.append(loss)
    checks.update({f"traced.{k}": bool(v) for k, v in named.items()})
    tracer.write(spans_path)
    base = run_checked(workload, untraced_state, checks, losses)
    checks["traced_loss_equals_untraced"] = len(set(losses)) == 1

    totals = totals_by_name(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    traced_wall = sum(s.duration for s in roots)
    metrics = layers.layer_metrics(totals)
    own = self_times(tracer.spans)
    metrics["bench.self_ms"] = (sum(own[s.id] for s in roots) * 1e3, "ms")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_pct"] = ((traced.wall_s / base.wall_s - 1.0) * 100, "%")
    metrics["trace.overhead_est_pct"] = (
        len(tracer.spans) * wrapper_cost_s() / traced_wall * 100, "%")

    print("# self time by span (traced set-up + unit):", file=sys.stderr)
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1].self):
        print(f"#   {name:28s} {t.calls:7d} calls {t.self * 1e3:11.2f} ms self "
              f"{100 * t.self / traced_wall:6.2f} %", file=sys.stderr)
    print(f"#   {'sum of self times':28s} {'':13s} "
          f"{sum(t.self for t in totals.values()) * 1e3:11.2f} ms = traced wall "
          f"{traced_wall * 1e3:.2f} ms", file=sys.stderr)
    details = {"computed_metrics": layers.COMPUTED,
               "cold_unit_s": cold.wall_s, "traced_unit_s": traced.wall_s,
               "untraced_unit_s": base.wall_s,
               "spans_file": str(spans_path), "losses": losses}
    return metrics, checks, cold.ops + traced.ops + base.ops, details


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    load_program()
    import workloads

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    env = environment(args.seed, import_s)
    print("# env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR)
    try:
        if args.trace:
            metrics, checks, ops, details = per_layer(
                workload, args.seed, scratch, OUT_DIR / f"spans-{tag}.json")
        else:
            metrics, checks, ops, details = end_to_end(
                workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sorted(name for name, ok in checks.items() if not ok)
    for name in failed:
        print(f"error: output check failed: {name}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": ops + len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    usage = resource.getrusage(resource.RUSAGE_SELF)
    details.update(cpu_user_s=usage.ru_utime, cpu_sys_s=usage.ru_stime,
                   minor_faults=usage.ru_minflt)
    record = {"workload": args.workload, "env": env, "checks": checks,
              "details": details, **result}
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("# " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.exit(main())
