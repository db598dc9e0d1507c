"""Workloads and metric definitions of the nncp benchmark.

``BENCHMARK.json`` at the repository root is rendered from this module
(``render_benchmark_json``); the self-test fails when the two disagree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

RULES = ("ucp", "mu", "hals", "bpp", "admm", "nes")

# relative Frobenius norm of the uniform noise added to the rank-R model
NOISE_LEVEL = 0.01

# set-up is repeated at least SETUP_REPS times and for at least SETUP_SECONDS
SETUP_REPS = 3
SETUP_SECONDS = 2.0
RUN_SECONDS = 40
# Every process runs BLAS on one thread: see "Every timed call runs on one
# core" in README.md.
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple
    rank: int
    iters: int
    # grid of the extra grid solves in the traced run; None: none
    trace_grid: tuple
    why: str

    @property
    def workers(self) -> int:
        return math.prod(self.trace_grid) if self.trace_grid else 1

    def blas_threads(self, nproc: int) -> int:
        if self.workers * BLAS_THREADS > nproc:
            raise ValueError(
                f"{self.name}: {self.workers} workers x {BLAS_THREADS} BLAS threads "
                f"exceed the machine's {nproc} cores"
            )
        return BLAS_THREADS


WORKLOADS = (
    Workload(
        "cube384_r16", (384, 384, 384), 16, 2, None,
        "453 MB, 4x the LLC: the partial-MTTKRP GEMMs stream from memory and "
        "the initial-error MTTKRP and tensor read dominate set-up",
    ),
    Workload(
        "order5_r48", (16, 16, 16, 16, 16), 48, 3, (2, 1, 1, 1, 1),
        "8 MB in cache: multi-TTV and KRP weigh like the GEMMs, R=48 makes NNLS "
        "the largest layer; the traced run adds 2-worker grid solves for collectives",
    ),
)

# Toy workloads of the self-test; never listed in BENCHMARK.json.
TOY_WORKLOADS = (
    Workload("toy", (8, 8, 8), 2, 2, None, "self-test, sequential"),
    Workload("toy_grid", (8, 8, 8), 2, 2, (2, 1, 1), "self-test, traced grid"),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS + TOY_WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}")


def _rules(prefix, unit, bound=None):
    return [(f"{prefix}.{r}", unit, bound) for r in RULES]


# (name, unit, bound); every metric is "lower is better" unless listed in HIGHER
END_TO_END = (
    [("setup_s", "s", 0.25)]
    + _rules("solve_s", "s", 0.25)
    + _rules("relerr", "ratio", 0.25)
    + [("peak_rss_mb", "MB", 0.15)]
)

PER_LAYER = (
    [
        ("dimtree.partial_calls_per_sweep", "count"),
        ("dimtree.left_gemm_s", "s"),
        ("dimtree.right_gemm_s", "s"),
        ("dimtree.left_gflops", "GFLOP/s"),
        ("dimtree.right_gflops", "GFLOP/s"),
        ("dimtree.left_gemm_ratio", "ratio"),
        ("dimtree.right_gemm_ratio", "ratio"),
        ("dimtree.multi_ttv_s_per_sweep", "s"),
        ("dimtree.multi_ttv_calls_per_sweep", "count"),
        ("dimtree.multi_ttv_gbps", "GB/s"),
        ("tensor_ops.khatri_rao_s_per_sweep", "s"),
        ("tensor_ops.naive_mttkrp_s", "s"),
        ("driver.init_s", "s"),
        ("tensor_io.read_s", "s"),
        ("tensor_io.read_gbps", "GB/s"),
        ("tensor_io.read_peak_copies", "ratio"),
    ]
    + [(m, u) for m, u, _ in _rules("updaters.nnls_s_per_sweep", "s")]
    + [(m, u) for m, u, _ in _rules("updaters.nnls_share", "ratio")]
    + [
        ("updaters.bpp_rows_per_s", "1/s"),
        ("updaters.inner_steps.admm", "count"),
        ("updaters.inner_steps.nes", "count"),
    ]
    + [(m, u) for m, u, _ in _rules("grid.words_per_sweep", "count")]
    + [(m, u) for m, u, _ in _rules("grid.calls_per_sweep", "count")]
    + [
        ("grid.all_reduce_us", "us"),
        ("grid.all_gather_us", "us"),
        ("grid.reduce_scatter_us", "us"),
    ]
    + [(m, u) for m, u, _ in _rules("grid.collective_share", "ratio")]
    + [("grid.worker_skew", "ratio")]
    + [(m, u) for m, u, _ in _rules("grid.efficiency", "ratio")]
    + [
        ("driver.self_s_per_sweep", "s"),
        ("trace.overhead_pct", "%"),
        ("machine.gemm_gflops", "GFLOP/s"),
        ("machine.stream_gbps", "GB/s"),
    ]
)

HIGHER = {
    "dimtree.left_gflops", "dimtree.right_gflops",
    "dimtree.left_gemm_ratio", "dimtree.right_gemm_ratio",
    "dimtree.multi_ttv_gbps", "tensor_io.read_gbps", "updaters.bpp_rows_per_s",
    "machine.gemm_gflops", "machine.stream_gbps",
} | {f"grid.efficiency.{r}" for r in RULES}


def units(trace: bool) -> dict:
    metrics = PER_LAYER if trace else [(m, u) for m, u, _ in END_TO_END]
    return dict(metrics)


def render_benchmark_json() -> str:
    def better(name):
        return "higher" if name in HIGHER else "lower"

    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m, "unit": u, "better": better(m), "bound": b}
            for m, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": m, "unit": u, "better": better(m)} for m, u in PER_LAYER
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
