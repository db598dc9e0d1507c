"""MTTKRP for all modes of one sweep via a dimension tree.

The root of the tree splits the modes into a leading block {1..S} and a
trailing block {S+1..N}.  Each block is produced by a single partial MTTKRP
(one GEMM against the zero-copy matricization), and the per-mode MTTKRP
results are then peeled off the block temporaries by multi-TTV steps, each
one batched matmul over the R rank blocks.  Only two partial MTTKRPs run per
sweep, no matter how many modes the tensor has.  The NES acceptance test
runs a sweep cut short after mode 1: one more left partial MTTKRP.

Temporaries are plain ``(retained..., R)`` arrays in F order: the retained
indices vary fastest and the rank index slowest, so the r-th rank block is
a contiguous slice and the ``(R, rest, lead)`` C-order view that a multi-TTV
works on needs no copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .tensor_ops import DenseTensor, choose_split_mode, khatri_rao


@dataclass(frozen=True)
class DimTreePlan:
    """Immutable split choice for one tensor/rank pair."""

    dims: tuple
    rank: int
    split: int

    @classmethod
    def create(cls, dims, rank: int) -> "DimTreePlan":
        dims = tuple(int(d) for d in dims)
        return cls(dims=dims, rank=int(rank), split=choose_split_mode(dims))

    @property
    def order(self) -> int:
        return len(self.dims)


def partial_mttkrp(x: DenseTensor, krp: np.ndarray, side: str, plan: DimTreePlan) -> np.ndarray:
    """Contract one side of the root split against a Khatri-Rao product.

    ``side='left'`` retains modes 1..S and contracts the trailing modes
    (T = X_(1:S) @ krp); ``side='right'`` retains modes S+1..N and contracts
    the leading ones (T = X_(1:S)^T @ krp).  One GEMM either way; the result
    is a ``(retained..., R)`` F-order array.  The left GEMM computes T^T,
    whose C-order buffer already has the rank index slowest, so the large
    left result needs no re-layout copy.
    """
    s = plan.split
    mat = x.unfold_leading(s)
    if side == "left":
        if krp.shape[0] != mat.shape[1]:
            raise ValueError(
                f"krp has {krp.shape[0]} rows, contracted side has {mat.shape[1]}"
            )
        out_t = krp.T @ mat.T
        retained = x.dims[:s]
    elif side == "right":
        if krp.shape[0] != mat.shape[0]:
            raise ValueError(
                f"krp has {krp.shape[0]} rows, contracted side has {mat.shape[0]}"
            )
        # krp.T @ mat is the same product, but OpenBLAS (1 thread) ran it
        # 20 % slower than this orientation at 384^3 R16.  The right side
        # retains the smaller block unless the split is capped, so the
        # ravel copy of the transposed view is small.
        out_t = (mat.T @ krp).T
        retained = x.dims[s:]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return out_t.ravel().reshape(retained + (krp.shape[1],), order="F")


def multi_ttv(temp: np.ndarray, coeff: np.ndarray, side: str) -> np.ndarray:
    """Contract one retained mode of ``temp``, all rank blocks in one matmul.

    ``temp`` is a ``(retained..., R)`` F-order temporary.  ``side='leading'``
    contracts the leading retained mode with coeff column r per rank block;
    ``side='trailing'`` contracts all the other retained modes with a KRP
    column per rank block.  The result is again ``(retained..., R)`` F-order.
    """
    retained, rank = temp.shape[:-1], temp.shape[-1]
    if len(retained) < 2:
        raise ValueError("multi_ttv needs at least two retained modes")
    if coeff.shape[1] != rank:
        raise ValueError(f"coeff has {coeff.shape[1]} columns, rank is {rank}")
    lead = retained[0]
    rest = int(np.prod(retained[1:]))
    # rank block r is blocks[r].T, the (lead, rest) leading-mode unfolding
    blocks = temp.T.reshape(rank, rest, lead)
    if side == "trailing":
        if coeff.shape[0] != rest:
            raise ValueError(f"coeff rows {coeff.shape[0]}, trailing dim is {rest}")
        return (coeff.T[:, None, :] @ blocks)[:, 0, :].T
    if side == "leading":
        if coeff.shape[0] != lead:
            raise ValueError(f"coeff rows {coeff.shape[0]}, leading dim is {lead}")
        out = (blocks @ coeff.T[:, :, None])[:, :, 0]
        return out.T.reshape(retained[1:] + (rank,), order="F")
    raise ValueError(f"side must be 'leading' or 'trailing', got {side!r}")


class DimTreeContext:
    """Mutable per-sweep state: live temporary, counters, mode ordering.

    One context per execution context (the plan itself is shareable).  Modes
    must be requested in ascending order within a sweep started by
    ``begin_iteration``; the stored temporary embeds factor snapshots taken
    when it was formed, which is exactly what alternating updates need.
    """

    def __init__(self, plan: DimTreePlan, recorder=None):
        self.plan = plan
        self.recorder = recorder
        self.partial_calls = 0
        self.ttv_calls = 0
        self._temp = None
        self._expected = None

    def begin_iteration(self):
        """Invalidate the temporary and restart the mode sequence."""
        self._temp = None
        self._expected = 0

    def _record(self, category: str, elapsed: float):
        if self.recorder is not None:
            self.recorder(category, elapsed)

    def _krp(self, factors):
        t0 = time.perf_counter()
        k = khatri_rao(factors)
        self._record("KRP", time.perf_counter() - t0)
        return k

    def _partial(self, x, krp, side):
        t0 = time.perf_counter()
        out = partial_mttkrp(x, krp, side, self.plan)
        self._record("MTTKRP", time.perf_counter() - t0)
        self.partial_calls += 1
        return out

    def _ttv(self, temp, coeff, side):
        t0 = time.perf_counter()
        out = multi_ttv(temp, coeff, side)
        self._record("MultiTTV", time.perf_counter() - t0)
        self.ttv_calls += 1
        return out

    def mttkrp(self, x: DenseTensor, factors, mode: int) -> np.ndarray:
        """MTTKRP result for ``mode`` from the list of N factor matrices
        ``factors``, reusing this sweep's temporary."""
        n = self.plan.order
        s = self.plan.split
        if x.dims != self.plan.dims:
            raise ValueError(f"tensor dims {x.dims} do not match plan {self.plan.dims}")
        if self._expected is None:
            raise RuntimeError("call begin_iteration before requesting modes")
        if mode != self._expected:
            raise RuntimeError(
                f"modes must be requested in ascending order: expected {self._expected}, got {mode}"
            )

        # peel the side holding ``mode``: modes lo..hi-1 share one temporary
        lo, hi, side = (0, s, "left") if mode < s else (s, n, "right")
        if mode == lo:
            other = factors[s:] if side == "left" else factors[:s]
            temp = self._partial(x, self._krp(other), side)
        else:
            if self._temp is None:
                raise RuntimeError(f"stale cache: no {side} temporary for mode {mode}")
            temp = self._ttv(self._temp, factors[mode - 1], "leading")
        if mode == hi - 1:
            result = temp
            self._temp = None
        else:
            self._temp = temp
            result = self._ttv(temp, self._krp(factors[mode + 1 : hi]), "trailing")

        self._expected = mode + 1 if mode + 1 < n else None
        return np.ascontiguousarray(result)
