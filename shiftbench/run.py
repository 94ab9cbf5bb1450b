"""The shiftseg benchmark: one command for every workload.

    python3 shiftbench/run.py --workload train_full --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports `shiftseg` from `src/` next to
this directory and nowhere else. Workloads and metrics are described in
`shiftbench/README.md`.

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
runs the workload's check window twice, untraced and then with every layer
wrapped, and reports the per-layer metrics and the tracing overhead (traced
minus untraced wall time of the window's units).

Standard output ends with two JSON lines: a detail record (environment,
sample counts, digests, checks), then the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The result also goes to shiftbench/out/<workload>-seed<seed>-trace<t>/.
Exit code 0: every output check passed. 1: a check failed or the run
crashed. 2: the program could not be imported.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ProgramMissing(ImportError):
    pass


def load_program():
    """Import `shiftseg` from this checkout's src/ (never an installed copy)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import shiftseg
    except ImportError as exc:
        raise ProgramMissing(f"cannot import shiftseg from {SRC}: {exc}") from exc
    where = os.path.dirname(os.path.abspath(shiftseg.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ProgramMissing(f"shiftseg was imported from {where}, not from {SRC}")
    return shiftseg


def environment() -> dict:
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        from shiftseg import _kernels
        numba_enabled = getattr(_kernels, "NUMBA_ENABLED", None)
    except ImportError:
        numba_enabled = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": numba_enabled,
        # numbers measured on different kernel paths must never be compared
        "kernel_path": "numba" if numba_enabled else "numpy",
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least 10 samples
    beyond it; the median when fewer than 21 samples leave no such point
    above it."""
    xs = sorted(values)
    n = len(xs)
    k = n - 11
    if n > 1 and k > (n - 1) / 2:
        return xs[k], 100.0 * k / (n - 1)
    return statistics.median(xs), 50.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def stage(tracer, phase: str, name: str):
    if tracer is None:
        yield
        return
    tracer.phase = phase
    with tracer.span(name):
        yield


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result: tuple[int, int]) -> None:
        self.attempted += result[0]
        self.failed += result[1]


def run_untraced(wl, seconds: float, import_s: float, tally: Tally) -> tuple[dict, dict]:
    """Set up `setup_reps` times, then run units until `seconds` of unit time
    have passed and the check window is complete."""
    t = time.perf_counter()
    wl.fixture()
    fixture_s = time.perf_counter() - t
    setups = []
    for _ in range(wl.setup_reps):
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)
    unit_s: list[float] = []
    while sum(unit_s) < seconds or len(unit_s) < wl.check_units:
        t = time.perf_counter()
        result = wl.unit()
        dt = time.perf_counter() - t
        if result is None:
            break
        unit_s.append(dt)
        tally.add(result)
        if len(unit_s) == wl.check_units:
            tally.add(wl.close_check_window())
    tail_s, tail_pct = tail(unit_s)
    n = len(unit_s)
    return {
        "setup_s": (import_s + fixture_s + statistics.median(setups), "s", len(setups)),
        "clouds_per_s": (wl.clouds / wl.clouds_s, "1/s", n),
        "step_s_p50": (statistics.median(unit_s), "s", n),
        "step_s_tail": (tail_s, "s", n),
        "val_report_s": (statistics.median(wl.val_report_s), "s", len(wl.val_report_s)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }, {"import_s": import_s, "fixture_s": fixture_s, "setup_reps_s": setups,
        "step_s_tail_percentile": tail_pct, "units": n}


def check_pass(wl, tracer, tally: Tally) -> float:
    """The set-ups, the check window's units, and its close; returns the
    units' wall time. Set-up is left out: the first pass in a process also
    pays its first-touch costs there."""
    with stage(tracer, "setup", "bench.fixture"):
        wl.fixture()
    with stage(tracer, "setup", "bench.setup"):
        for _ in range(wl.setup_reps):
            wl.setup()
    units_s = 0.0
    for _ in range(wl.check_units):
        t = time.perf_counter()
        with stage(tracer, "timed", "bench.unit"):
            result = wl.unit(tracer)
        units_s += time.perf_counter() - t
        if result is None:
            break
        tally.add(result)
    with stage(tracer, "report", "bench.check"):
        tally.add(wl.close_check_window())
    return units_s


def run_traced(make, out_dir: str, tally: Tally) -> tuple[dict, dict, object]:
    import bench_trace

    plain = make(os.path.join(out_dir, "work-untraced"))
    try:
        untraced_s = check_pass(plain, None, tally)
    finally:
        plain.finish()
    tracer = bench_trace.Tracer()
    inst = bench_trace.install(tracer)
    traced = make(os.path.join(out_dir, "work-traced"))
    try:
        traced_s = check_pass(traced, tracer, tally)
    finally:
        inst.restore()
        traced.finish()
    with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as f:
        json.dump(tracer.to_json(), f)
    traced.failures += plain.failures
    if traced.digests != plain.digests:
        traced.failures.append(f"traced digests {traced.digests} != untraced {plain.digests}")
    layers = bench_trace.layer_metrics(tracer)
    metrics = {k: (v, unit, 1) for k, (v, unit) in layers.items()}
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s", 1)
    if tracer.counter("timed", "evalsuite.point_predictions.uncovered"):
        traced.failures.append("point_predictions left points without a prediction")
    shares = bench_trace.layer_shares(tracer)
    if traced.name == "train_clean" and layers["pointcloud.knn.calls"][0] != 0:
        traced.failures.append("train_clean ran kNN inside a timed step")
    if traced.name == "eval_sweep" and layers["tensor.backward.calls"][0] != 0:
        traced.failures.append("eval_sweep ran a backward pass")
    extra = {"untraced_units_s": untraced_s, "traced_units_s": traced_s,
             "missing_targets": inst.missing, "spans": len(tracer.spans),
             "largest_layer": next(iter(shares), None),
             "layer_shares": {k: round(v, 4) for k, v in list(shares.items())[:12]}}
    return metrics, extra, traced


def main(argv=None, out_root: str | None = None) -> int:
    parser = argparse.ArgumentParser(description="shiftseg benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("train_full", "train_clean", "eval_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench_workloads

    import_s = time.perf_counter() - _T0
    out_root = out_root or os.path.join(HERE, "out")
    out_dir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    W = bench_workloads.WORKLOADS[args.workload]

    def make(work_dir):
        return W(args.seed, work_dir)

    tally = Tally()
    metrics: dict = {}
    extra: dict = {}
    wl = None
    crashed = None
    try:
        if args.trace:
            metrics, extra, wl = run_traced(make, out_dir, tally)
        else:
            wl = make(os.path.join(out_dir, "work"))
            try:
                metrics, extra = run_untraced(wl, args.seconds, import_s, tally)
            finally:
                wl.finish()
    except Exception:  # the run's boundary: report the crash as a failed operation
        crashed = traceback.format_exc()
        print(crashed, file=sys.stderr)
        tally.attempted += 1
        tally.failed += 1
    failures = (wl.failures if wl is not None else []) + ([crashed] if crashed else [])
    if failures and not tally.failed:
        tally.failed = 1  # a check outside any counted operation still fails the run
    attempted = max(1, tally.attempted)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "error_rate": tally.failed / attempted,
        "quality": wl.quality if wl is not None else {},
        "digests": wl.digests if wl is not None else {},
        "failures": failures,
        **extra,
    }
    result = {"correct": not failures and tally.failed == 0,
              "attempted": attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
