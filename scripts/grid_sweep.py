#!/usr/bin/env python3
"""Processor-grid sweep over the simulated worker runtime.

Decomposes one synthetic tensor on several grid shapes and reports the
per-category time breakdown (the mean over workers), the communication
volume and the number of collective calls (both summed over workers), plus
the maximum deviation of each run's error curve from the sequential
reference.  The last two columns are the slowest worker's NNLS and MTTKRP
seconds: each iteration's maximum over workers, summed over iterations.

Example:
    python scripts/grid_sweep.py --dims 24,24,24 --rank 8 --grids 1,1,1 2,2,2 4,2,1 8,1,1
"""

import argparse
import sys

import numpy as np

from nncp import RunConfig, SyntheticSpec, generate_synthetic, nncp_parallel, nncp_sequential
from nncp.driver import CATEGORIES


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default="24,24,24")
    ap.add_argument("--rank", type=int, default=8)
    ap.add_argument("--iters", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--algo", default="bpp")
    ap.add_argument("--grids", nargs="+", default=["1,1,1", "2,2,2", "4,2,1", "8,1,1"])
    args = ap.parse_args()

    dims = tuple(int(d) for d in args.dims.split(","))
    x, _ = generate_synthetic(SyntheticSpec(dims, args.rank, seed=args.seed))
    base = dict(rank=args.rank, algorithm=args.algo, max_iters=args.iters,
                tol=0.0, seed=args.seed)
    ref = nncp_sequential(x, RunConfig(**base))

    labels = {"ReduceScatter": "RedScat", "AllGather": "AllGath", "AllReduce": "AllRed",
              "MultiTTV": "MulTTV"}
    slowest = ("NNLS", "MTTKRP")
    header = f"{'grid':>10s} {'relerr':>10s} {'eps_dev':>9s} {'words':>10s} {'calls':>7s} " + "".join(
        f"{labels.get(c, c):>9s}" for c in CATEGORIES
    ) + "".join(f"{'max' + c:>10s}" for c in slowest)
    print(header)
    for text in args.grids:
        grid = tuple(int(p) for p in text.split(","))
        rep = nncp_parallel(x, RunConfig(grid=grid, **base))
        dev = float(np.abs(np.array(rep.errors) - np.array(ref.errors)).max())
        totals = {c: sum(r[c] for r in rep.rows) for c in CATEGORIES}
        peaks = {c: sum(r[c] for r in rep.rows_max) for c in slowest}
        words = sum(rep.row_words)
        calls = sum(rep.counters.calls.values())
        print(f"{text:>10s} {rep.errors[-1]:10.3e} {dev:9.1e} {words:10d} {calls:7d} "
              + "".join(f"{totals[c]:9.4f}" for c in CATEGORIES)
              + "".join(f"{peaks[c]:10.4f}" for c in slowest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
