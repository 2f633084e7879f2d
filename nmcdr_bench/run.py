"""NMCDR benchmark entry point.

    python3 nmcdr_bench/run.py --workload serve_open --seed 0 --trace 0

Pins the BLAS/OpenMP thread counts, then runs the workload in a fresh
Python process (in-process allocator history moves step times by tens of
percent) and relays its output; the last line is the result object.  Exits
non-zero when a correctness check fails, when the workload process fails or
overruns, or when the checkout holds no program to measure.

``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``) bounds the
training loop only; the serving phase that follows has a fixed length.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Thread count for BLAS and OpenMP pools: one, so the two cores of a small
#: box are not oversubscribed and runs do not depend on the pool's schedule.
THREADS = "1"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="train_sampled or serve_open")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = dict(os.environ)
    env.update({name: THREADS for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    # numpy asks for transparent huge pages on large arrays by default; a
    # huge-page fault zeroes 2 MB and may compact memory first, at a cost
    # set by the machine's memory fragmentation.  Those stalls landed in
    # the latency tail: on a two-core VM, the p99 of eight 1000-request
    # blocks spread 0.24 (quartile distance over median) with huge pages
    # and 0.10 without.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    command = [
        sys.executable, "-m", "nmcdr_bench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    child = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload overran {TIMEOUT_S} s; stopped", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    raise SystemExit(main())
