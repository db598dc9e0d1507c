"""Binary tensor files and synthetic exact-low-rank tensor generation.

File format (little-endian throughout): magic "NNCP", u16 format version,
u16 order N, N u64 dims, then prod(dims) float64 payload values in the
flat mode-1-fastest layout.  Factor matrices are written as order-2 files.
Files are read by mapping the payload copy-on-write and written by
replacing the whole file; see ``read_tensor`` and ``write_tensor``.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .tensor_ops import DenseTensor, FactorSet, as_int, init_factor, reconstruct

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
    """Write ``x`` to a sibling temporary file, then rename it over ``path``.

    The rename leaves the old file's inode to any tensor still mapping it
    (see ``read_tensor``), where an in-place rewrite would truncate the
    mapped pages under it.  The payload goes out straight from the
    tensor's buffer, with no intermediate copy on little-endian hosts.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(_HEAD.pack(MAGIC, VERSION, x.order))
            fh.write(struct.pack(f"<{x.order}Q", *x.dims))
            fh.write(x.data.astype("<f8", copy=False))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_matrix(path, h: np.ndarray):
    write_tensor(path, DenseTensor.from_array(np.asarray(h, dtype=np.float64)))


def read_tensor(path) -> DenseTensor:
    """Read a tensor file without copying its payload.

    After the header and size checks, the payload is mapped copy-on-write:
    the returned tensor holds a writable float64 array whose pages come
    from the file, and writes to it stay private to this process.
    ``write_tensor`` replaces a file rather than rewriting it, so tensors
    read earlier keep their values.  The file must not be truncated in
    place while a tensor read from it is alive: touching a page past the
    new end of file raises SIGBUS and kills the process.
    """
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
        if order < 2 or 0 in dims:
            raise TensorFileError(f"{path}: need order >= 2 and positive dims, got {dims}")
        offset = _HEAD.size + 8 * order
        payload_bytes = os.fstat(fh.fileno()).st_size - offset
        if payload_bytes % 8 != 0:
            raise TruncatedFileError(f"{path}: payload ends mid-value")
        expect = math.prod(dims)
        if payload_bytes // 8 != expect:
            raise PayloadMismatchError(
                f"{path}: header promises {expect} values, "
                f"payload holds {payload_bytes // 8}"
            )
        # the file holds little-endian <f8; on a big-endian host DenseTensor
        # converts it to a native copy
        values = np.memmap(fh, dtype="<f8", mode="c", offset=offset, shape=(expect,))
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
        self.dims = tuple(as_int(f"dim {n + 1}", d) for n, d in enumerate(self.dims))
        self.rank = as_int("rank", self.rank)
        self.seed = as_int("seed", self.seed)
        if any(d < 1 for d in self.dims) or self.rank < 1:
            raise ValueError("dims and rank must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be nonnegative and below 2**64, got {self.seed}")


# salts the mode key away from the driver's factor initialization
_SYNTHETIC_SALT = np.uint64(1) << np.uint64(32)


def generate_synthetic(spec: SyntheticSpec):
    """Tensor with an exact rank-``spec.rank`` nonnegative model, and that
    ground-truth model; deterministic in the seed.  A tensor of more than
    ``DEFAULT_ELEM_BUDGET`` elements (read at call time) is refused;
    ``reconstruct`` builds it with one GEMM of two Khatri-Rao products."""
    size = math.prod(spec.dims)
    if size > DEFAULT_ELEM_BUDGET:
        raise ValueError(f"synthetic tensor of {size} elements exceeds the budget")
    truth = FactorSet([
        init_factor(spec.seed, _SYNTHETIC_SALT | np.uint64(mode), rows, spec.rank)
        for mode, rows in enumerate(spec.dims)
    ])
    return reconstruct(truth), truth
