"""Harness self-test at toy size (8^3 R2, 2 iterations).

    python3 perfbench/run.py --self-test

Exercises input generation, the correctness gate, tracing, the contract
JSON line and BENCHMARK.json, and checks that the benchmark refuses to run
without the program.  Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import spec
from env import OUT, ROOT, import_nncp
from gen import model_tensor
from run import run_workload, summarize
from spans import Tracer
from workload import Bench, Gate, ttv_elems_per_sweep

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json():
    text = spec.render_benchmark_json()
    doc = json.loads(text)
    assert (ROOT / "BENCHMARK.json").read_text() == text, "BENCHMARK.json is stale"
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)), "duplicate names"
    assert all(NAME.match(n) for n in names), names
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w
    for m in doc["end_to_end"]:
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25, m
    assert all(UNIT.match(m["unit"]) for m in doc["per_layer"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(text.encode()) <= 64 << 10


def check_generator():
    a = model_tensor((8, 8, 8), 2, 5)
    assert np.array_equal(a, model_tensor((8, 8, 8), 2, 5)), "same seed, other data"
    assert not np.array_equal(a, model_tensor((8, 8, 8), 2, 6)), "seed ignored"
    assert a.min() >= 0.0 and a.size == 512


def check_gate():
    gate = Gate()
    assert gate.op("ok", lambda: 1, lambda r: []) == 1
    assert gate.op("bad check", lambda: 1, lambda r: ["wrong"]) is None
    assert gate.op("raises", lambda: 1 / 0, lambda r: []) is None
    assert (gate.attempted, gate.failed) == (3, 2), gate.failures

    w = spec.workload("toy")
    bench = Bench(w, 1, None)
    good = SimpleNamespace(errors=[0.5, 0.4, 0.3], tree_partial_calls=4)
    assert bench.problems(good, "bpp", 2, "sequential", None) == []
    nan = SimpleNamespace(errors=[0.5, math.nan, 0.3], tree_partial_calls=4)
    assert any("non-finite" in p for p in bench.problems(nan, "mu", 2, "sequential", None))
    assert bench.problems(good, "nes", 2, "sequential", None), "NES needs 6 partials"
    other = SimpleNamespace(errors=[0.5, 0.4, 0.30000001], tree_partial_calls=4)
    assert bench.problems(other, "bpp", 2, "traced", None), "bitwise check missed"
    bench.seq_reference[("hals", 2)] = [0.5, 0.4, 0.3]
    far = SimpleNamespace(errors=[0.5, 0.4, 0.3 + 1e-9], tree_partial_calls=4)
    assert bench.problems(far, "hals", 2, "grid", (2, 1, 1)), "grid tolerance missed"


def check_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    def outer(f):
        f()
        time.sleep(0.01)

    inner_t = tracer.wrap("inner", inner)
    outer_t = tracer.wrap("outer", outer)
    outer_t(inner_t)
    child, parent = tracer.spans
    assert child.parent is parent and parent.parent is None
    assert abs(parent.self_s - (parent.duration - child.duration)) < 1e-12
    assert child.self_s == child.duration


def check_ttv_model():
    # (2,3,4) splits after mode 2: the left root (2,3) is read twice
    assert ttv_elems_per_sweep((2, 3, 4), 2, False) == 2 * 3 + 2 * 3
    assert ttv_elems_per_sweep((2, 3, 4, 5), 2, True) == 6 + 6 + 20 + 20 + 20


def check_runs():
    # timed solves are sequential on every workload; only traced runs differ
    for name, trace in (("toy", 0), ("toy", 1), ("toy_grid", 1)):
        result = run_workload(name, 3, 0.5, trace, time.monotonic() + 120)
        summary, missing = summarize(result, trace)
        assert not missing, missing
        assert summary["correct"], result["failures"]
        assert set(summary["metrics"]) == set(spec.units(bool(trace)))
        json.loads(json.dumps(summary))
        if trace:
            m = summary["metrics"]
            assert m["dimtree.partial_calls_per_sweep"]["value"] == 2
            assert (OUT / f"spans-{name}-s3.json").is_file()
            calls = m["grid.calls_per_sweep.hals"]["value"]
            assert (calls > 0) == (name == "toy_grid"), (name, calls)


def check_refuses_without_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "toy", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main():
    import_nncp()
    OUT.mkdir(exist_ok=True)
    for check in (check_benchmark_json, check_generator, check_gate, check_spans,
                  check_ttv_model, check_runs, check_refuses_without_program):
        check()
        print(f"ok {check.__name__}")
    print("self-test passed")
