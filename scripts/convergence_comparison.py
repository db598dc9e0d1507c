#!/usr/bin/env python3
"""Convergence comparison of the update algorithms on exact low-rank data.

Runs every algorithm from the same random initialization on the same
synthetic tensor and prints the relative-error trajectory, mirroring the
algorithm-comparison experiments at desk scale.  Each algorithm's final
error is printed next to its wall seconds (set-up and every iteration), so
error per second reads off one run.  The line ends with the rule's inner
step count per mode ("-" for ucp and bpp, which run none), so a run on a
large tensor shows the MU steps and HALS sweeps it was given.

Examples:
    python scripts/convergence_comparison.py --dims 30,30,30 --rank 5 --iters 100
    python scripts/convergence_comparison.py --dims 384,384,384 --rank 16 --iters 20 --algos mu,hals
"""

import argparse
import csv
import sys

from nncp import ALGORITHMS, RunConfig, SyntheticSpec, generate_synthetic, nncp_sequential


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default="30,30,30")
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--iters", type=int, default=100)
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--algos", default=",".join(ALGORITHMS))
    ap.add_argument("--csv", help="optional output path for the error curves")
    args = ap.parse_args()

    dims = tuple(int(d) for d in args.dims.split(","))
    x, _ = generate_synthetic(SyntheticSpec(dims, args.rank, seed=args.seed))
    algos = args.algos.split(",")

    curves = {}
    for algo in algos:
        cfg = RunConfig(rank=args.rank, algorithm=algo, max_iters=args.iters,
                        tol=0.0, seed=0)
        rep = nncp_sequential(x, cfg)
        curves[algo] = rep.errors
        nnls = sum(r["NNLS"] for r in rep.rows)
        mttkrp = sum(r["MTTKRP"] for r in rep.rows)
        wall = sum(rep.row_wall)
        inner = ",".join(map(str, rep.inner_steps)) or "-"
        print(f"{algo:5s} final relerr {rep.errors[-1]:.3e}   wall {wall:.4f}s   "
              f"nnls {nnls:.2f}s   mttkrp {mttkrp:.2f}s   inner {inner}")

    marks = [0, 1, 5, 10, 25, 50, args.iters]
    marks = sorted({m for m in marks if m < len(next(iter(curves.values())))})
    print("\niteration " + "".join(f"{a:>12s}" for a in algos))
    for m in marks:
        print(f"{m:9d} " + "".join(f"{curves[a][m]:12.3e}" for a in algos))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter"] + algos)
            for m in range(len(next(iter(curves.values())))):
                w.writerow([m] + [curves[a][m] for a in algos])
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
