"""Smoke tests: the example scripts run end to end and print their tables,
and the benchmark harness passes its self-test against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_convergence_comparison():
    lines = run_script("convergence_comparison.py", "--dims", "8,8,8", "--rank", "2", "--iters", "3")
    header = next(i for i, line in enumerate(lines) if line.startswith("iteration"))
    # one summary line per rule: final relerr next to wall seconds, then
    # the inner step count of each of the three modes
    summary = [line.split() for line in lines[:header] if line.strip()]
    assert [row[0] for row in summary] == ["ucp", "mu", "hals", "bpp", "admm", "nes"]
    inner = {}
    for row in summary:
        assert row[1:3] == ["final", "relerr"] and float(row[3]) >= 0.0
        assert row[4] == "wall" and row[5].endswith("s") and float(row[5][:-1]) >= 0.0
        assert row[-2] == "inner"
        inner[row[0]] = [] if row[-1] == "-" else [int(n) for n in row[-1].split(",")]
    assert inner == {
        "ucp": [], "mu": [10] * 3, "hals": [2] * 3, "bpp": [], "admm": [5] * 3, "nes": [20] * 3,
    }
    assert lines[header].split()[1:] == ["ucp", "mu", "hals", "bpp", "admm", "nes"]
    table = lines[header + 1:]
    # marks 0, 1 and 3 of the six error curves
    assert [row.split()[0] for row in table] == ["0", "1", "3"]
    assert all(len(row.split()) == 7 for row in table)


def test_grid_sweep():
    lines = run_script(
        "grid_sweep.py", "--dims", "8,8,8", "--rank", "2", "--iters", "2",
        "--grids", "1,1,1", "2,1,1",
    )
    header = lines[0].split()
    assert header[:5] == ["grid", "relerr", "eps_dev", "words", "calls"]
    assert header[-2:] == ["maxNNLS", "maxMTTKRP"]
    assert [row.split()[0] for row in lines[1:]] == ["1,1,1", "2,1,1"]
    for row in lines[1:]:
        cells = dict(zip(header, row.split()))
        assert len(cells) == len(header)
        assert float(cells["eps_dev"]) <= 1e-10
        assert int(cells["calls"]) > 0
        # the slowest worker's seconds are at least the mean's
        assert float(cells["maxNNLS"]) >= float(cells["NNLS"])
        assert float(cells["maxMTTKRP"]) >= float(cells["MTTKRP"])


def test_perfbench_self_test():
    # the harness wraps driver, dimtree, grid and tensor_io names by module
    # attribute; its self-test fails when a refactor moves one of them
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
