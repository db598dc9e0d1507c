"""One workload run in its own process: set-up, timed solves, checks.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --input FILE --out RESULT.json [--spans SPANS.json]

``--trace 0`` measures the end-to-end metrics with nothing wrapped; every
timed call is sequential.  ``--trace 1`` measures the per-layer metrics:
it alternates untraced and traced solves of every rule, so the same
process also yields the tracing overhead and the check that tracing
changes no arithmetic, and adds the same pair on the workload's trace
grid, if it has one.  The BLAS thread count is fixed by the parent
through the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import time
import tracemalloc

import machine
import spec
from env import environment, import_nncp
from spans import Tracer

GRID_TOL = 1e-10
# collective span name -> RunReport category column
COLUMN_OF = {
    "grid.all_reduce": "AllReduce",
    "grid.all_gather": "AllGather",
    "grid.reduce_scatter": "ReduceScatter",
}
ROOTS = ("driver.nncp_sequential", "driver.nncp_parallel")


def median(xs):
    return statistics.median(xs) if xs else None


class Gate:
    """Operations attempted and failed.  An operation fails when it raises
    or when any of its checks does; the reasons are kept."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, label, problems):
        self.failures.append(f"{label}: " + "; ".join(problems))

    def op(self, label, fn, check):
        self.attempted += 1
        try:
            result = fn()
            problems = check(result)
        except Exception as exc:  # every failure is counted, never raised
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if problems:
            self.fail(label, problems)
            return None
        return result


def ttv_elems_per_sweep(dims, split: int, nes: bool) -> int:
    """Temporary elements one sweep's multi-TTVs read, per rank column.

    Each side's root temporary keeps its modes; the first mode comes from a
    trailing contraction of the root, every later mode from a leading
    contraction that drops the previous mode, followed (except for the last
    mode) by a trailing contraction.  NES adds one leading chain for the
    acceptance test of the last mode.
    """
    def side(ds):
        total = math.prod(ds) if len(ds) > 1 else 0
        for m in range(1, len(ds)):
            total += math.prod(ds[m - 1 :])
            if m < len(ds) - 1:
                total += math.prod(ds[m:])
        return total

    total = side(dims[:split]) + side(dims[split:])
    if nes:
        total += sum(math.prod(dims[m:]) for m in range(split, len(dims) - 1))
    return total


class Bench:
    """Program calls and their checks.  Every timed call starts from a
    collected heap: the grid runtime leaves reference cycles, and without
    a collection their memory piles up with the number of solves, so peak
    RSS and collection pauses would depend on how fast the machine ran."""

    def __init__(self, w, seed, path):
        self.nncp = import_nncp()
        from nncp import driver, tensor_io

        self.driver = driver
        self.tensor_io = tensor_io
        self.w = w
        self.seed = seed
        self.path = path
        self.gate = Gate()
        self.reference = {}
        self.seq_reference = {}
        self.x = None

    # -- program calls ------------------------------------------------------

    def decompose(self, x, rule, iters, grid):
        cfg = self.nncp.RunConfig(
            rank=self.w.rank, algorithm=rule, max_iters=iters, tol=0.0,
            seed=self.seed, grid=grid,
        )
        if grid is None:
            return self.driver.nncp_sequential(x, cfg)
        return self.driver.nncp_parallel(x, cfg)

    def problems(self, rep, rule, iters, tag, grid):
        """Checks every decomposition report must pass."""
        out = []
        errs = [float(e) for e in rep.errors]
        if len(errs) != iters + 1:
            out.append(f"{len(errs)} errors after {iters} iterations")
        if not all(math.isfinite(e) for e in errs):
            out.append(f"non-finite error in {errs}")
        want = 2 * iters + (iters if rule == "nes" else 0)
        if rep.tree_partial_calls != want:
            out.append(f"{rep.tree_partial_calls} partial MTTKRPs, expected {want}")
        ref = self.reference.setdefault((rule, iters, grid), (tag, errs))
        if errs != ref[1]:
            out.append(f"{tag} errors differ bitwise from the first {ref[0]} solve")
        seq = self.seq_reference.get((rule, iters))
        if seq is not None and grid is not None:
            dev = max(abs(a - b) for a, b in zip(errs, seq))
            if not dev <= GRID_TOL:
                out.append(f"grid errors deviate from sequential by {dev:.3g}")
        return out

    def solve(self, x, rule, iters, tag, grid):
        """One timed decomposition call; (report, wall seconds) or None."""
        def call():
            gc.collect()
            t0 = time.perf_counter()
            rep = self.decompose(x, rule, iters, grid)
            return rep, time.perf_counter() - t0

        def check(result):
            return self.problems(result[0], rule, iters, tag, grid)

        return self.gate.op(f"{tag} {rule} K={iters}", call, check)

    def setup(self, on_read=None):
        """read_tensor plus a zero-iteration decomposition call, timed; the
        tensor read last is kept in ``self.x``."""
        self.x = None  # drop the previous copy before reading again

        def call():
            gc.collect()
            t0 = time.perf_counter()
            x = self.tensor_io.read_tensor(self.path)
            if on_read is not None:
                on_read()
            rep = self.decompose(x, "bpp", 0, None)
            self.x = x
            return rep, time.perf_counter() - t0

        return self.gate.op(
            "setup", call, lambda r: self.problems(r[0], "bpp", 0, "sequential", None)
        )

    def setups(self, wrap=contextlib.nullcontext, on_read=None, before=None):
        """Set up at least SETUP_REPS times and for at least SETUP_SECONDS,
        calling ``before`` ahead of each; the successful (report, seconds)
        pairs."""
        done = []
        reps = 0
        t_end = time.perf_counter() + spec.SETUP_SECONDS
        while reps < spec.SETUP_REPS or time.perf_counter() < t_end:
            if before is not None:
                before()
            with wrap():
                result = self.setup(on_read)
            reps += 1
            if result is not None:
                done.append(result)
        return done

    def sequential_references(self, x):
        """Sequential error curves the grid solves must reproduce."""
        for rule in spec.RULES:
            result = self.solve(x, rule, self.w.iters, "sequential", None)
            if result is not None:
                self.seq_reference[(rule, self.w.iters)] = [
                    float(e) for e in result[0].errors
                ]


def rounds(seconds, body):
    """Run body(round) until the next round would end past the budget by
    more than half a round; at least one round.  The round count."""
    t_start = time.perf_counter()
    n = 0
    while True:
        body(n)
        n += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / n >= seconds:
            return n


def rotate(rules, k):
    k %= len(rules)
    return rules[k:] + rules[:k]


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": round(100.0 * k / n, 1), "value": sorted(samples)[k - 1]}


# -- untraced run: end-to-end metrics ---------------------------------------


def timed_run(bench, seconds):
    """End-to-end metrics.  A speed probe runs before every set-up and
    every solve.  The host flips between fast and slow moments within a
    seconds-long solve, so a time is a mean over the run, scaled by
    PROBE_REF_S over the mean probe time of the same phase (set-up or
    solves); a run in a slow phase then reads like one in a quiet phase.
    The probe calls no nncp code, so a change to the program moves the
    scaled times exactly as it moves the wall times."""
    w = bench.w
    probe = machine.SpeedProbe()
    setup_probe_s = []
    setup_s = [seconds for _, seconds in
               bench.setups(before=lambda: setup_probe_s.append(probe()))]
    x = bench.x
    if x is None:
        return {}, {"wall_setup_s": setup_s}

    probe_s = []
    solve_s = {r: [] for r in spec.RULES}
    relerr = {}

    def one_round(k):
        for rule in rotate(spec.RULES, k):
            probe_s.append(probe())
            result = bench.solve(x, rule, w.iters, "sequential", None)
            if result is not None:
                solve_s[rule].append(result[1])
                relerr[rule] = float(result[0].errors[-1])

    n_rounds = rounds(seconds, one_round)
    setup_scale = machine.PROBE_REF_S / statistics.mean(setup_probe_s)
    scale = machine.PROBE_REF_S / statistics.mean(probe_s)
    metrics = {}
    samples = {"rounds": n_rounds, "setup_probe_s": setup_probe_s, "probe_s": probe_s,
               "setup_scale": setup_scale, "scale": scale,
               "wall_setup_s": setup_s, "setup_s": [t * setup_scale for t in setup_s]}
    if setup_s:
        metrics["setup_s"] = statistics.mean(samples["setup_s"])
    for rule in spec.RULES:
        samples[f"wall_solve_s.{rule}"] = solve_s[rule]
        samples[f"solve_s.{rule}"] = [t * scale for t in solve_s[rule]]
        if solve_s[rule]:
            metrics[f"solve_s.{rule}"] = statistics.mean(samples[f"solve_s.{rule}"])
            metrics[f"relerr.{rule}"] = relerr[rule]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, samples


# -- traced run: per-layer metrics -------------------------------------------


def machine_reference(bench, env):
    w = bench.w
    dims = w.dims
    split = bench.nncp.choose_split_mode(dims)
    nbytes = machine.stream_bytes(env["llc_bytes"])
    ref = {
        "gemm_shape": [math.prod(dims[:split]), math.prod(dims[split:]), w.rank],
        "stream_bytes": nbytes,
        "llc_bytes": env["llc_bytes"],
    }
    ref["gemm_gflops"] = machine.gemm_gflops(*ref["gemm_shape"])
    ref["stream_gbps"] = machine.stream_gbps(nbytes)
    return ref


def solve_layers(w, rule, spans, rep, init_counts, workers):
    """Per-layer figures of one traced K-iteration solve on ``workers``
    workers (1: sequential)."""
    k = w.iters
    root = next(s for s in reversed(spans) if s.name in ROOTS and s.parent is None)
    main = root.thread
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, attr="duration"):
        return sum(getattr(s, attr) for s in by_name.get(name, []))

    partial = by_name.get("dimtree.partial_mttkrp", [])
    nes_tests = k if rule == "nes" else 0
    dims = partial[0].info["dims"] if partial else w.dims
    ttv_s = total("dimtree.multi_ttv")
    ttv_bytes = 8 * w.rank * ttv_elems_per_sweep(dims, rep.split_mode, rule == "nes") * k
    update = by_name.get(f"updaters.{'nesterov' if rule == 'nes' else rule}_update", [])
    nnls_self = sum(s.self_s for s in update)
    out = {
        "partial_calls_per_sweep": (len(partial) / workers - nes_tests) / k,
        "left_gemm_s": [s.duration for s in partial if s.info["side"] == "left"],
        "right_gemm_s": [s.duration for s in partial if s.info["side"] == "right"],
        "gemm_flops": 2 * math.prod(dims) * w.rank,
        "multi_ttv_s_per_sweep": ttv_s / workers / k,
        "multi_ttv_calls_per_sweep": len(by_name.get("dimtree.multi_ttv", [])) / workers / k,
        "multi_ttv_gbps": ttv_bytes * workers / ttv_s / 1e9 if ttv_s > 0 else 0.0,
        "khatri_rao_s_per_sweep": total("tensor_ops.khatri_rao") / workers / k,
        "naive_mttkrp_s": [s.duration for s in by_name.get("tensor_ops.naive_mttkrp", [])],
        "nnls_s_per_sweep": nnls_self / workers / k,
        "nnls_share": nnls_self / workers / root.duration,
        "rows": sum(s.info["rows"] for s in update),
        "nnls_self_s": nnls_self,
        "inner_steps": [s.info["inner_steps"] for s in update if "inner_steps" in s.info],
    }
    coll_by_thread = {}
    for name in COLUMN_OF:
        for s in by_name.get(name, []):
            coll_by_thread[s.thread] = coll_by_thread.get(s.thread, 0.0) + s.duration
        out[name] = [s.duration for s in by_name.get(name, [])]
    threads = {s.thread for s in spans} - {main}
    if threads:
        busy = [root.duration - coll_by_thread.get(t, 0.0) for t in threads]
        out["worker_skew"] = max(busy) / (sum(busy) / len(busy))
        out["collective_share"] = sum(coll_by_thread.values()) / workers / root.duration
        top = {t: 0.0 for t in threads}
        for s in spans:
            if s.parent is None and s.thread in top:
                top[s.thread] += s.duration
        out["driver_self"] = sum(root.duration - v for v in top.values()) / len(top) / k
        calls = sum(rep.counters.calls.values())
        out["words_per_sweep"] = (rep.counters.total_words() - init_counts[0]) / k
        out["calls_per_sweep"] = (calls - init_counts[1]) / k
    else:
        out["driver_self"] = root.self_s / k
    out["problems"] = cross_check(spans, rep, workers, main, root)
    if out["partial_calls_per_sweep"] != 2:
        out["problems"].append(
            f"{out['partial_calls_per_sweep']} partial MTTKRP spans per sweep, expected 2"
        )
    return out


def cross_check(spans, rep, workers, main, root):
    """Span totals against the RunReport's columns and counters.

    Compute layers are timed by the driver around the wrapped call, so the
    column covers the span; collectives time themselves inside the wrapped
    method, so the span covers the column.  Call counts must match exactly.
    Only these containments are checked: how much the outer interval
    exceeds the inner one depends on scheduling.
    """
    col = {c: sum(row[c] for row in rep.rows) for c in rep.rows[0]}
    span_total = {}
    span_calls = {}
    for s in spans:
        span_total[s.name] = span_total.get(s.name, 0.0) + s.duration / workers
        span_calls[s.name] = span_calls.get(s.name, 0) + 1
    out = []

    def within(inner, outer, label):
        if inner > outer * (1 + 1e-9) + 1e-9:
            out.append(f"{label}: {inner:.6f}s inside {outer:.6f}s")

    within(span_total.get("dimtree.partial_mttkrp", 0.0)
           + span_total.get("tensor_ops.naive_mttkrp", 0.0), col["MTTKRP"], "MTTKRP spans")
    within(span_total.get("tensor_ops.khatri_rao", 0.0), col["KRP"], "KRP spans")
    within(span_total.get("dimtree.multi_ttv", 0.0), col["MultiTTV"], "MultiTTV spans")
    for name, column in COLUMN_OF.items():
        within(col[column], span_total.get(name, 0.0), f"{column} column")
        if span_calls.get(name, 0) != rep.counters.calls.get(column, 0):
            out.append(f"{span_calls.get(name, 0)} {name} spans, "
                       f"{rep.counters.calls.get(column, 0)} counted calls")
    partial = span_calls.get("dimtree.partial_mttkrp", 0)
    if partial != workers * rep.tree_partial_calls:
        out.append(f"{partial} partial MTTKRP spans, report counts "
                   f"{rep.tree_partial_calls} per worker")
    main_self = sum(s.self_s for s in spans if s.thread == main)
    if abs(main_self - root.duration) > 1e-6 * max(root.duration, 1.0):
        out.append(f"main-thread self times {main_self:.6f}s != solve {root.duration:.6f}s")
    return out


def traced_run(bench, seconds, spans_path):
    """Per-layer metrics.  Each round solves every rule sequentially once
    untraced and once traced; with a trace grid, also once of each on the
    grid, whose collectives give the ``grid.*`` metrics."""
    w = bench.w
    env = environment()
    ref = machine_reference(bench, env)
    tracer = Tracer()

    read_copies = []

    def on_read():
        if tracemalloc.is_tracing():
            read_copies.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    mark = tracer.mark()
    tracemalloc.start()  # the first read only: on_read stops it
    try:
        bench.setups(tracer.installed, on_read)
    finally:
        tracemalloc.stop()
    setup_spans = tracer.spans[mark:]
    x = bench.x
    if x is None:
        return {}, {}
    grid = w.trace_grid
    kinds = ("sequential", "grid") if grid else ("sequential",)
    # words and calls of a grid solve's set-up, subtracted from its sweeps
    init_counts = (0, 0)
    if grid:
        bench.sequential_references(x)
        zero = bench.solve(x, "bpp", 0, "grid", grid)
        if zero is not None:
            c = zero[0].counters
            init_counts = (c.total_words(), sum(c.calls.values()))

    walls = {f"{mode} {kind}": {r: [] for r in spec.RULES}
             for mode in ("plain", "traced") for kind in kinds}
    layers = {kind: {r: [] for r in spec.RULES} for kind in kinds}

    def traced_solve(rule, kind):
        on = grid if kind == "grid" else None
        mark = tracer.mark()
        with tracer.installed():
            result = bench.solve(x, rule, w.iters, f"traced {kind}", on)
        if result is None:
            return
        walls[f"traced {kind}"][rule].append(result[1])
        fig = solve_layers(w, rule, tracer.spans[mark:], result[0],
                           init_counts if on else (0, 0), w.workers if on else 1)
        if fig["problems"]:
            bench.gate.fail(f"traced {kind} {rule} K={w.iters}", fig["problems"])
        layers[kind][rule].append(fig)

    def plain_solve(rule, kind):
        on = grid if kind == "grid" else None
        result = bench.solve(x, rule, w.iters, kind, on)
        if result is not None:
            walls[f"plain {kind}"][rule].append(result[1])

    def one_round(k):
        first, second = (plain_solve, traced_solve) if k % 2 == 0 else (
            traced_solve, plain_solve)
        for rule in rotate(spec.RULES, k):
            for kind in kinds:
                first(rule, kind)
                second(rule, kind)

    n_rounds = rounds(seconds, one_round)
    if spans_path:
        tracer.dump(spans_path)
    metrics = layer_metrics(w, ref, setup_spans, layers, walls, bench.path)
    details = {"environment": env, "machine": ref, "rounds": n_rounds,
               "read_peak_bytes": read_copies,
               "walls": walls}
    if read_copies:
        metrics["tensor_io.read_peak_copies"] = read_copies[0] / (8 * math.prod(w.dims))
    return metrics, details


def layer_metrics(w, ref, init_spans, layers, walls, path):
    def med(rule_values):
        vals = [v for v in rule_values if v is not None]
        return median(vals) if vals else 0.0

    seq = layers["sequential"]
    grid = layers.get("grid")

    def per_rule(figs, rule, key):
        return med([f[key] for f in figs[rule]])

    every = [f for r in spec.RULES for f in seq[r]]
    m = {}
    m["machine.gemm_gflops"] = ref["gemm_gflops"]
    m["machine.stream_gbps"] = ref["stream_gbps"]
    non_nes = [f for r in spec.RULES if r != "nes" for f in seq[r]]
    m["dimtree.partial_calls_per_sweep"] = med([f["partial_calls_per_sweep"] for f in every])
    for side in ("left", "right"):
        secs = [t for f in non_nes for t in f[f"{side}_gemm_s"]]
        s = med(secs)
        flops = every[0]["gemm_flops"] if every else 0
        m[f"dimtree.{side}_gemm_s"] = s
        m[f"dimtree.{side}_gflops"] = flops / s / 1e9 if s else 0.0
        m[f"dimtree.{side}_gemm_ratio"] = m[f"dimtree.{side}_gflops"] / ref["gemm_gflops"]
    for key in ("multi_ttv_s_per_sweep", "multi_ttv_calls_per_sweep", "multi_ttv_gbps"):
        m[f"dimtree.{key}"] = med([f[key] for f in every])
    m["tensor_ops.khatri_rao_s_per_sweep"] = med([f["khatri_rao_s_per_sweep"] for f in every])

    naive = [sp.duration for sp in init_spans if sp.name == "tensor_ops.naive_mttkrp"]
    naive += [t for f in every for t in f["naive_mttkrp_s"]]
    m["tensor_ops.naive_mttkrp_s"] = med(naive)
    m["driver.init_s"] = med(
        [sp.duration for sp in init_spans if sp.name in ROOTS and sp.parent is None]
    )
    reads = [sp.duration for sp in init_spans if sp.name == "tensor_io.read_tensor"]
    m["tensor_io.read_s"] = med(reads)
    m["tensor_io.read_gbps"] = os.path.getsize(path) / m["tensor_io.read_s"] / 1e9

    for rule in spec.RULES:
        m[f"updaters.nnls_s_per_sweep.{rule}"] = per_rule(seq, rule, "nnls_s_per_sweep")
        m[f"updaters.nnls_share.{rule}"] = per_rule(seq, rule, "nnls_share")
    bpp_s = sum(f["nnls_self_s"] for f in seq["bpp"])
    m["updaters.bpp_rows_per_s"] = (
        sum(f["rows"] for f in seq["bpp"]) / bpp_s if bpp_s > 0 else 0.0
    )
    for rule in ("admm", "nes"):
        steps = [n for f in seq[rule] for n in f["inner_steps"]]
        m[f"updaters.inner_steps.{rule}"] = sum(steps) / len(steps) if steps else 0.0

    for rule in spec.RULES:
        for key in ("words_per_sweep", "calls_per_sweep", "collective_share"):
            m[f"grid.{key}.{rule}"] = per_rule(grid, rule, key) if grid else 0
        one = median(walls["plain sequential"][rule])
        par = median(walls["plain grid"][rule]) if grid else None
        m[f"grid.efficiency.{rule}"] = one / (w.workers * par) if one and par else 1.0
    grid_figs = [f for r in spec.RULES for f in grid[r]] if grid else []
    for name in COLUMN_OF:
        times = [t for f in grid_figs for t in f[name]]
        m[f"{name}_us"] = 1e6 * sum(times) / len(times) if times else 0.0
    m["grid.worker_skew"] = med([f["worker_skew"] for f in grid_figs]) if grid else 1.0
    m["driver.self_s_per_sweep"] = med([f["driver_self"] for f in every])

    traced = sum(median(walls["traced sequential"][r]) or 0.0 for r in spec.RULES)
    plain = sum(median(walls["plain sequential"][r]) or 0.0 for r in spec.RULES)
    m["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0) if plain else 0.0
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    w = spec.workload(args.workload)
    bench = Bench(w, args.seed, args.input)
    if args.trace:
        metrics, details = traced_run(bench, args.seconds, args.spans)
    else:
        metrics, details = timed_run(bench, args.seconds)
    tails = {
        name: tail_percentile(v)
        for name, v in details.items()
        if name in metrics and isinstance(v, list)
    }
    result = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": bench.gate.attempted,
        "failed": bench.gate.failed,
        "failures": bench.gate.failures,
        "metrics": metrics,
        "tails": tails,
        "details": details,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, default=str)


if __name__ == "__main__":
    main()
