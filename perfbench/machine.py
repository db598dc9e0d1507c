"""Machine reference rates measured in the same process as the workload."""

from __future__ import annotations

import statistics
import time

import numpy as np

MIN_STREAM_BYTES = 256 << 20


def _median_time(fn, min_reps=5, min_seconds=0.3):
    times = []
    t_end = time.perf_counter() + min_seconds
    while len(times) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def gemm_gflops(rows: int, inner: int, rank: int) -> float:
    """Plain C-order (rows x inner) @ (inner x rank) GEMM, the shape of the
    left partial MTTKRP."""
    a = np.full((rows, inner), 0.5)
    b = np.full((inner, rank), 0.25)
    out = np.empty((rows, rank))
    seconds = _median_time(lambda: np.matmul(a, b, out=out))
    return 2.0 * rows * inner * rank / seconds / 1e9


def stream_bytes(llc):
    """Array size of the bandwidth probe: four times the LLC, at least 256 MiB."""
    return max(4 * (llc or 0), MIN_STREAM_BYTES)


def stream_gbps(nbytes: int) -> float:
    """Dot product of an array with itself: one streaming read."""
    a = np.full(nbytes // 8, 1.0)
    seconds = _median_time(lambda: np.dot(a, a))
    return a.nbytes / seconds / 1e9


# Work of one speed probe, and the seconds it took on the reference machine
# (2 vCPUs, scipy-openblas 0.3.31, 1 BLAS thread, quiet host).
PROBE_BYTES = 8 << 20
PROBE_REF_S = 0.010


class SpeedProbe:
    """A fixed piece of work that calls no nncp code: small GEMMs, an
    interpreter loop and a dot over PROBE_BYTES.  Timed between solves, it
    tracks how fast the shared host lets this process run at that moment."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((192, 192))
        self.b = rng.random((192, 48))
        self.s = rng.random(PROBE_BYTES // 8)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        # about a third of the time each on the reference machine
        for _ in range(28):
            self.a @ self.b
        acc = 0
        for i in range(40000):
            acc += i * i
        for _ in range(6):
            float(self.s @ self.s)
        return time.perf_counter() - t0
