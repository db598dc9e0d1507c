"""Binary tensor files and synthetic exact-low-rank tensor generation.

File format (little-endian throughout): magic "NNCP", u16 format version,
u16 order N, N u64 dims, then prod(dims) float64 payload values in the
flat mode-1-fastest layout.  Factor matrices are written as order-2 files.
"""

from __future__ import annotations

import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .tensor_ops import DenseTensor, FactorSet, reconstruct

MAGIC = b"NNCP"
VERSION = 1
_HEAD = struct.Struct("<4sHH")

# refuse synthetic tensors beyond ~1 GiB of float64 by default
DEFAULT_ELEM_BUDGET = 1 << 27


class TensorFileError(ValueError):
    """Malformed tensor file."""


class BadMagicError(TensorFileError):
    pass


class TruncatedFileError(TensorFileError):
    """File ends inside the header or mid-value."""


class PayloadMismatchError(TensorFileError):
    """Whole values present, but the count disagrees with the header dims."""


def write_tensor(path, x: DenseTensor):
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION, x.order))
        fh.write(struct.pack(f"<{x.order}Q", *x.dims))
        fh.write(x.data.astype("<f8", copy=False).tobytes())


def write_matrix(path, h: np.ndarray):
    write_tensor(path, DenseTensor.from_array(np.asarray(h, dtype=np.float64)))


def read_tensor(path) -> DenseTensor:
    """Read a tensor file; the payload is read straight into the one
    float64 array the returned tensor holds."""
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise TruncatedFileError(f"{path}: file ends inside the header")
        magic, version, order = _HEAD.unpack(head)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise TensorFileError(f"{path}: unsupported format version {version}")
        dims_raw = fh.read(8 * order)
        if len(dims_raw) < 8 * order:
            raise TruncatedFileError(f"{path}: file ends inside the dims block")
        dims = struct.unpack(f"<{order}Q", dims_raw)
        payload_bytes = os.fstat(fh.fileno()).st_size - (_HEAD.size + 8 * order)
        if payload_bytes % 8 != 0:
            raise TruncatedFileError(f"{path}: payload ends mid-value")
        expect = int(np.prod(dims))
        if payload_bytes // 8 != expect:
            raise PayloadMismatchError(
                f"{path}: header promises {expect} values, "
                f"payload holds {payload_bytes // 8}"
            )
        values = np.empty(expect)
        if fh.readinto(values) != values.nbytes:
            raise TruncatedFileError(f"{path}: file shrank while being read")
    if sys.byteorder != "little":
        values.byteswap(inplace=True)  # the file holds little-endian <f8
    return DenseTensor(dims, values)


def read_matrix(path) -> np.ndarray:
    x = read_tensor(path)
    if x.order != 2:
        raise TensorFileError(f"{path}: expected an order-2 file, got order {x.order}")
    return x.as_array().copy()


@dataclass
class SyntheticSpec:
    """Exact low-rank construction: X = sum of rank-one factors, no noise."""

    dims: tuple
    rank: int
    seed: int = 0

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in self.dims) or self.rank < 1:
            raise ValueError("dims and rank must be positive")


# salts the generator key away from the driver's factor initialization
_SYNTHETIC_SALT = np.uint64(1) << np.uint64(32)


def generate_synthetic(
    spec: SyntheticSpec, truth: FactorSet = None, elem_budget: int = DEFAULT_ELEM_BUDGET
):
    """Tensor with an exact rank-``spec.rank`` nonnegative model, and that
    ground-truth model.  Deterministic in the seed; ``truth`` can be forced
    for tests."""
    size = int(np.prod(spec.dims))
    if size > elem_budget:
        raise ValueError(f"synthetic tensor of {size} elements exceeds the budget")
    if truth is None:
        factors = []
        for mode, rows in enumerate(spec.dims):
            key = np.array(
                [np.uint64(spec.seed), _SYNTHETIC_SALT | np.uint64(mode)],
                dtype=np.uint64,
            )
            gen = np.random.Generator(np.random.Philox(key=key))
            factors.append(gen.random((rows, spec.rank)))
        truth = FactorSet(factors)
    else:
        if truth.dims != spec.dims or truth.rank != spec.rank:
            raise ValueError("forced ground truth does not match the spec")
    return reconstruct(truth), truth
