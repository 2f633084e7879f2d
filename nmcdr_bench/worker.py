"""Run one workload in this (fresh) process and print its result line.

Started by ``run.py`` with the BLAS/OpenMP thread counts already pinned in
the environment, so they hold before numpy loads.  The last line printed is
the result object; the full run record (machine, versions, calibration,
every measurement and check) is written under ``.bench_out/records``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_metrics(trace: bool) -> dict:
    """The metrics ``BENCHMARK.json`` declares for a run: name -> unit.

    End-to-end metrics when ``trace`` is off, per-layer metrics when on.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    from .calibration import calibrate
    from .workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    out = ROOT / ".bench_out"
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = out / "work" / stamp
    work_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "calibration": calibrate(),
    }
    started = time.perf_counter()
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.e2e["peak_rss_mb"] = peak_rss_mb

    names = declared_metrics(bool(args.trace))
    values = run.layers if args.trace else run.e2e
    missing = [name for name in names if name not in values]
    run.check("all_metrics_measured", not missing, missing or None)
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    correct = all(run.checks.values())
    record.update(
        wall_s=time.perf_counter() - started,
        checks=run.checks,
        notes=run.notes,
        end_to_end=run.e2e,
        per_layer=run.layers,
        attempted=run.attempted,
        failed=run.failed,
    )
    records = out / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{stamp}.json").write_text(json.dumps(record, indent=2, default=str))
    if args.trace:
        run.tracer.dump(records / f"{stamp}-spans.jsonl")
    print(json.dumps({"record": str(records / f"{stamp}.json"), "checks": run.checks}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(run.attempted),
                "failed": int(run.failed),
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
