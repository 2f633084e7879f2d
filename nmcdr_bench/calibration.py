"""Fixed kernels timed in the benchmark's own process, stored with each run.

They do not depend on the program, so the same numbers from two machines
say how much faster one machine is at the workloads' basic operations:

* a dense matmul at the prediction head's serving shape (4535 item pairs x
  64 input features, times a 64 x 32 weight);
* a row gather of 4535 rows from a 4535 x 32 item table;
* a CSR sparse-times-dense product at the scale-18 domain-b graph shape
  (9720 users x 4535 items, 62k edges, 32 features).

Inputs come from a fixed seed, not the workload seed.  Not gated.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

REPEATS = 41


def _median_time(call) -> float:
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def calibrate() -> dict:
    rng = np.random.default_rng(0)
    pairs = rng.standard_normal((4535, 64))
    weight = rng.standard_normal((64, 32))
    table = rng.standard_normal((4535, 32))
    rows = rng.integers(0, 4535, size=4535)
    users, items, edges = 9720, 4535, 62000
    matrix = sp.csr_matrix(
        (
            np.ones(edges),
            (rng.integers(0, users, size=edges), rng.integers(0, items, size=edges)),
        ),
        shape=(users, items),
    )
    features = rng.standard_normal((items, 32))
    return {
        "matmul_s": _median_time(lambda: pairs @ weight),
        "gather_s": _median_time(lambda: table[rows]),
        "csr_matvec_s": _median_time(lambda: matrix @ features),
        "repeats": REPEATS,
    }
