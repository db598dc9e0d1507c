"""Command-line front end: decompose a tensor file or a synthetic instance,
write factor matrices, weights, and a per-iteration convergence/timing CSV.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .driver import ALGORITHMS, CATEGORIES, RunConfig, nncp_parallel
from .tensor_io import (
    SyntheticSpec,
    generate_synthetic,
    read_tensor,
    write_matrix,
)

CSV_FIELDS = ("iter", "relerr") + CATEGORIES + ("other", "words_communicated")


def _int_list(text: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nncp",
        description="Nonnegative CP decomposition of dense tensors "
        "(alternating updates, dimension-tree MTTKRP, optional simulated grid).",
    )
    p.add_argument("--input", help="tensor file to decompose")
    p.add_argument("--dims", type=_int_list, help="synthetic tensor dims, e.g. 30,30,30")
    p.add_argument("--synthetic-rank", type=int, help="exact rank of the synthetic tensor")
    p.add_argument("--rank", type=int, required=True, help="target decomposition rank")
    p.add_argument("--algo", choices=ALGORITHMS, default="bpp", help="factor update rule")
    p.add_argument("--iters", type=int, default=100, help="max outer iterations")
    p.add_argument("--tol", type=float, default=1e-6, help="relative-error stopping tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for factor initialization")
    p.add_argument("--grid", type=_int_list, help="simulated worker grid, e.g. 2,2,1")
    p.add_argument("--output-prefix", default="nncp_run", help="prefix for output files")
    return p


def _load_tensor(args, parser):
    if (args.input is None) == (args.dims is None):
        parser.error("give exactly one of --input or --dims")
    if args.input is not None:
        if args.synthetic_rank is not None:
            parser.error("--synthetic-rank only applies to --dims")
        return read_tensor(args.input)
    if args.synthetic_rank is None:
        parser.error("--dims needs --synthetic-rank")
    x, _ = generate_synthetic(SyntheticSpec(args.dims, args.synthetic_rank, args.seed))
    return x


def write_outputs(prefix: str, report):
    model = report.model
    for n, h in enumerate(model.factors, start=1):
        write_matrix(f"{prefix}_factors_{n}.bin", h)
    with open(f"{prefix}_lambda.txt", "w") as fh:
        for v in model.lam:
            fh.write(f"{v:.17g}\n")
    with open(f"{prefix}_convergence.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for k, err in enumerate(report.errors):
            cats = report.rows[k]
            other = max(0.0, report.row_wall[k] - sum(cats.values()))
            writer.writerow(
                [k, f"{err:.17g}"]
                + [f"{cats[c]:.9f}" for c in CATEGORIES]
                + [f"{other:.9f}", report.row_words[k]]
            )


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        x = _load_tensor(args, parser)
    except (OSError, ValueError) as exc:
        # a malformed file (TensorFileError) or an impossible synthetic spec
        print(f"nncp: {exc}", file=sys.stderr)
        return 1
    if args.grid is not None and len(args.grid) != x.order:
        parser.error(
            f"grid order {len(args.grid)} does not match tensor order {x.order}"
        )
    cfg = RunConfig(
        rank=args.rank,
        algorithm=args.algo,
        max_iters=args.iters,
        tol=args.tol,
        seed=args.seed,
        grid=args.grid,
    )
    try:
        report = nncp_parallel(x, cfg)
    except Exception as exc:
        print(f"nncp: {exc}", file=sys.stderr)
        return 1
    try:
        write_outputs(args.output_prefix, report)
    except OSError as exc:
        print(f"nncp: {exc}", file=sys.stderr)
        return 1
    final = report.errors[-1]
    status = "converged" if report.converged else "iteration cap reached"
    print(
        f"nncp: {status} after {len(report.errors) - 1} iterations, "
        f"relative error {final:.6e}"
    )
    return 0


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
