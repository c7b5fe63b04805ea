"""Environment fingerprint and host-noise probe recorded with every
result, so that results from different machines are never compared."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _blas_vendor() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # numpy without a config dict
        return f"unknown ({type(exc).__name__})"


def fingerprint(seed: int) -> dict:
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "cpus": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "blas_threads": {v: os.environ.get(v, "unset")
                         for v in BLAS_THREAD_VARS},
        "seed": seed,
        "executable": os.path.basename(sys.executable),
    }


def host_noise(reps: int = 7, loops: int = 200_000) -> dict:
    """Time a pure-Python spin loop ``reps`` times: the spread is the
    host's own run-to-run noise, a floor for any benchmark bound."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0
        for i in range(loops):
            x += i
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"spin_median_s": med, "spin_iqr_share": (q3 - q1) / med,
            "spin_range_share": (max(times) - min(times)) / med,
            "reps": reps}
