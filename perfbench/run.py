#!/usr/bin/env python3
"""nncp benchmark: per-rule solve time and error, set-up time and memory.

One workload run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's input from the seed in a separate process, then
measures it in a fresh process whose BLAS thread count is fixed for that
workload, prints every metric with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced, prints all metrics and writes
BENCHMARK.json.  ``--self-test`` runs the harness at toy size.
Detailed results and spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import spec
from env import OUT, ROOT, MissingProgram, child_env, check_program, nproc

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT = 170.0


def _child(script, args, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, script)] + [str(a) for a in args]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))


def run_workload(name, seed, seconds, trace, deadline):
    """Generate, measure and check one workload; the parsed child result."""
    w = spec.workload(name)
    threads = w.blas_threads(nproc())
    env = child_env(threads)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-s{seed}-t{trace}-p{os.getpid()}"
    tensor = stem.with_suffix(".nncp")
    result_path = stem.with_suffix(".json")
    try:
        _child("gen.py", ["--workload", name, "--seed", seed, "--out", tensor], env, deadline)
        args = ["--workload", name, "--seed", seed, "--seconds", seconds,
                "--trace", trace, "--input", tensor, "--out", result_path]
        if trace:
            args += ["--spans", OUT / f"spans-{name}-s{seed}.json"]
        _child("workload.py", args, env, deadline)
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        tensor.unlink(missing_ok=True)
    result["blas_threads"] = threads
    keep = OUT / f"result-{name}-s{seed}-t{trace}.json"
    os.replace(result_path, keep)
    return result


def summarize(result, trace):
    """Final contract line; a missing or non-finite metric fails the run."""
    units = spec.units(bool(trace))
    metrics = {}
    missing = []
    for name, unit in units.items():
        value = result["metrics"].get(name)
        if value is None or not math.isfinite(value):
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    failed = result["failed"] + (1 if missing else 0)
    return {
        "correct": failed == 0,
        "attempted": max(result["attempted"], 1),
        "failed": failed,
        "metrics": metrics,
    }, missing


def print_table(result, summary, missing):
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"blas_threads {result['blas_threads']}")
    tails = result.get("tails", {})
    for name, m in summary["metrics"].items():
        extra = ""
        tail = tails.get(name)
        samples = result["details"].get(name)
        if isinstance(samples, list):
            extra = f"  n={len(samples)} median={statistics.median(samples):.6g}"
            extra += (f" p{tail['percentile']:g}={tail['value']:.6g}" if tail
                      else " (fewer than 11 samples: no tail percentile)")
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{extra}")
    for name in missing:
        print(f"  {name:40s} MISSING")
    details = result["details"]
    for phase, key in (("set-up", "setup_"), ("solve", "")):
        if f"{key}scale" in details:
            probes = details[f"{key}probe_s"]
            print(f"  {phase} times scaled by {details[f'{key}scale']:.4f}: mean speed "
                  f"probe {1e3 * statistics.mean(probes):.2f} ms over {len(probes)} probes")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    env = result["details"].get("environment")
    if env:
        print("  environment " + json.dumps(env, sort_keys=True))


def one(args):
    deadline = time.monotonic() + TIME_LIMIT
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
    summary, missing = summarize(result, args.trace)
    print_table(result, summary, missing)
    print(json.dumps(summary))


def run_all(args):
    for w in spec.WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + TIME_LIMIT
            result = run_workload(w.name, args.seed, args.seconds, trace, deadline)
            summary, missing = summarize(result, trace)
            print_table(result, summary, missing)
    (ROOT / "BENCHMARK.json").write_text(spec.render_benchmark_json())
    print(f"wrote {ROOT / 'BENCHMARK.json'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    # seeds 1-10 tuned the benchmark; 1001-1010 are held out for claims
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        check_program()
        if args.self_test:
            import selftest

            selftest.main()
        elif args.all:
            run_all(args)
        elif args.workload:
            one(args)
        else:
            ap.error("give --workload NAME, --all or --self-test")
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
