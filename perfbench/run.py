"""rowgate benchmark: one command, three workloads, one JSON result line.

    python3 perfbench/run.py --workload train_gated --seed 0 --seconds 30 --trace 0

Run it from the root of a rowgate checkout; it imports the package from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` it prints
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  The last line of standard output is the result object; the
line before it carries provenance, digests and exact counts.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is imported anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Child processes that each time one set-up; setup_s is their median.
SETUP_PROBES = 7
# Each probe is a fresh interpreter; this caps one that hangs.
PROBE_TIMEOUT_S = 60


def _import_rowgate():
    """Import rowgate from this checkout's src/, refusing any other copy."""
    if not (SRC / "rowgate" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no rowgate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import rowgate

    if Path(rowgate.__file__).resolve().parent != SRC / "rowgate":
        raise SystemExit(f"benchmark: imported rowgate from {rowgate.__file__}, not {SRC}")
    return rowgate


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, so the value is one that was measured."""
    ranked = sorted(values)
    k = max(0, min(len(ranked) - 1, int(-(-q * len(ranked) // 100)) - 1))
    return ranked[k]


def _measure_setup(args) -> list[float]:
    """Time process start to end of set-up in fresh interpreters."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def _provenance(args, rowgate) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    commit = "unknown"  # a checkout without git history has no commit to name
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "commit": commit,
        "rowgate": rowgate.__file__,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(run, setup_times: list[float]) -> dict:
    per_op = [ms for ms, _ in run.samples]
    ops = sum(n for _, n in run.samples)
    busy_s = sum(ms * n for ms, n in run.samples) / 1000.0
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": _metric((run.attempted - run.failed) / run.attempted, "ratio"),
        "ops_per_s": _metric(ops / busy_s, "1/s"),
        "op_ms_p50": _metric(statistics.median(per_op), "ms"),
        "op_ms_p90": _metric(_percentile(per_op, 90), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    rowgate = _import_rowgate()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return 0
    import tracer as tracing

    workload = workloads.WORKLOADS[args.workload]

    setup_times: list[float] = []
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        tr.on = True  # set-up is traced too, for data.synth_ms
    else:
        setup_times = _measure_setup(args)
    state = workload.setup(args.seed)
    if tr is not None:
        tr.on = False
    run = workload.run(state, args.seconds, tr)

    info = {"provenance": _provenance(args, rowgate), **run.info}
    if tr is None:
        info["setup_samples_s"] = setup_times
        metrics = _end_to_end(run, setup_times)
    else:
        tr.uninstall()
        metrics = tr.per_layer(args.workload, run)
        info["counts"] = {k: metrics[k]["value"] for k in tracing.EXACT_COUNTS}
    info["samples"] = len(run.samples)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
