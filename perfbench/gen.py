"""Seeded input generator: a rank-R nonnegative model plus uniform noise.

The factors are uniform on [0, 1); the noise is uniform and nonnegative,
scaled so that its expected Frobenius norm is NOISE_LEVEL times the model's,
which keeps every rule's error above zero.  The tensor is built one
last-mode slab at a time, so peak memory is the tensor plus one copy made
by ``write_tensor``; ``generate_synthetic`` would materialise the full
Khatri-Rao product (about 7 GB at 384^3 R16).

    python3 perfbench/gen.py --workload NAME --seed N --out FILE
"""

from __future__ import annotations

import argparse

import numpy as np

import spec
from env import import_nncp


def model_tensor(dims, rank, seed):
    """Flat mode-1-fastest data of the noisy model, deterministic in seed."""
    rng = np.random.default_rng(seed)
    factors = [rng.random((d, rank)) for d in dims]
    lead = factors[0]
    for h in factors[1:-1]:
        # first factor's index fastest, as in the tensor layout
        lead = (h[:, None, :] * lead[None, :, :]).reshape(-1, rank)
    # ||model||^2 = sum of the Hadamard product of the Gram matrices
    model_sq = float(np.prod([h.T @ h for h in factors], axis=0).sum())
    size = lead.shape[0] * dims[-1]
    # a uniform [0,1) entry has mean square 1/3
    noise = spec.NOISE_LEVEL * np.sqrt(model_sq / (size / 3.0))
    data = np.empty(size)
    block = lead.shape[0]
    for k, row in enumerate(factors[-1]):
        slab = data[k * block : (k + 1) * block]
        np.matmul(lead, row, out=slab)
        slab += noise * rng.random(block)
    return data


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    nncp = import_nncp()
    w = spec.workload(args.workload)
    data = model_tensor(w.dims, w.rank, args.seed)
    nncp.write_tensor(args.out, nncp.DenseTensor(w.dims, data))


if __name__ == "__main__":
    main()
