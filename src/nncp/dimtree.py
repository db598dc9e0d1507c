"""MTTKRP for all modes of one sweep via a dimension tree.

The root of the tree splits the modes into a leading block {1..S} and a
trailing block {S+1..N}.  Each block is produced by a single partial MTTKRP
(one GEMM against the zero-copy matricization), and the per-mode MTTKRP
results are then peeled off the block temporaries by multi-TTV steps (R
independent matvecs).  Only two partial MTTKRPs run per sweep, no matter how
many modes the tensor has.

Temporaries store the retained-mode indices fastest and the rank index
slowest, so the r-th rank block is a contiguous slice and its leading-mode
unfolding is again a zero-copy column-major view.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .tensor_ops import DenseTensor, khatri_rao


def choose_split_mode(dims, strict: bool = False) -> int:
    """Number of leading modes kept on the left side of the root split.

    Returns the smallest S with prod(dims[:S]) >= prod(dims[S:]) (strictly
    greater when ``strict``), capped to N-1 so both sides are nonempty.
    """
    n = len(dims)
    if n < 2:
        raise ValueError("need at least 2 modes")
    for s in range(1, n):
        left = int(np.prod(dims[:s]))
        right = int(np.prod(dims[s:]))
        if left > right or (not strict and left == right):
            return s
    return n - 1


@dataclass(frozen=True)
class DimTreePlan:
    """Immutable split choice and buffer sizing for one tensor/rank pair."""

    dims: tuple
    rank: int
    split: int

    @classmethod
    def create(cls, dims, rank: int, strict_split: bool = False) -> "DimTreePlan":
        dims = tuple(int(d) for d in dims)
        return cls(dims=dims, rank=int(rank), split=choose_split_mode(dims, strict_split))

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def left_buffer_elems(self) -> int:
        return int(np.prod(self.dims[: self.split])) * self.rank

    @property
    def right_buffer_elems(self) -> int:
        return int(np.prod(self.dims[self.split :])) * self.rank


class TempTensor:
    """Partial-MTTKRP temporary: retained modes fastest, rank slowest."""

    __slots__ = ("retained_dims", "rank", "data")

    def __init__(self, retained_dims, rank, data):
        self.retained_dims = tuple(int(d) for d in retained_dims)
        self.rank = int(rank)
        self.data = data
        expect = int(np.prod(self.retained_dims)) * self.rank
        if data.size != expect:
            raise ValueError(f"temp data length {data.size}, expected {expect}")

    @property
    def block_size(self) -> int:
        return int(np.prod(self.retained_dims))

    def block(self, r: int) -> np.ndarray:
        """Contiguous slice holding rank block r."""
        b = self.block_size
        return self.data[r * b : (r + 1) * b]

    def block_unfold1(self, r: int) -> np.ndarray:
        """Zero-copy leading-mode unfolding of block r."""
        lead = self.retained_dims[0]
        return self.block(r).reshape((lead, -1), order="F")

    def as_matrix(self) -> np.ndarray:
        """(I, R) view when a single mode is retained."""
        if len(self.retained_dims) != 1:
            raise ValueError("as_matrix needs a single retained mode")
        return self.data.reshape((self.retained_dims[0], self.rank), order="F")


def partial_mttkrp(x: DenseTensor, krp: np.ndarray, side: str, plan: DimTreePlan) -> TempTensor:
    """Contract one side of the root split against a Khatri-Rao product.

    ``side='left'`` retains modes 1..S and contracts the trailing modes
    (T = X_(1:S) @ krp); ``side='right'`` retains modes S+1..N and contracts
    the leading ones (T = X_(1:S)^T @ krp).  One GEMM either way.  The left
    GEMM computes T^T, whose C-order buffer already has the rank index
    slowest, so the large left result needs no re-layout copy.
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
    return TempTensor(retained, krp.shape[1], out_t.ravel())


def partial_mttkrp_flops(x: DenseTensor, rank: int) -> int:
    """Each partial MTTKRP costs 2*I*R flops regardless of the split."""
    return 2 * x.size * rank


def multi_ttv(temp: TempTensor, coeff: np.ndarray, side: str = None) -> TempTensor:
    """Contract one retained mode of ``temp``, rank block by rank block.

    ``side='leading'`` contracts the leading retained mode with coeff column
    r per block (transposed matvec); ``side='trailing'`` contracts all the
    other retained modes with a KRP column per block (plain matvec).  With
    ``side=None`` the side is inferred from coeff's row count, preferring
    'trailing' when both interpretations fit.
    """
    if len(temp.retained_dims) < 2:
        raise ValueError("multi_ttv needs at least two retained modes")
    if coeff.shape[1] != temp.rank:
        raise ValueError(f"coeff has {coeff.shape[1]} columns, rank is {temp.rank}")
    lead = temp.retained_dims[0]
    rest = int(np.prod(temp.retained_dims[1:]))
    if side is None:
        if coeff.shape[0] == rest:
            side = "trailing"
        elif coeff.shape[0] == lead:
            side = "leading"
        else:
            raise ValueError(
                f"coeff rows {coeff.shape[0]} match neither leading {lead} nor trailing {rest}"
            )
    if side == "trailing":
        if coeff.shape[0] != rest:
            raise ValueError(f"coeff rows {coeff.shape[0]}, trailing dim is {rest}")
        out = np.empty(lead * temp.rank)
        result = TempTensor(temp.retained_dims[:1], temp.rank, out)
        for r in range(temp.rank):
            result.block(r)[:] = temp.block_unfold1(r) @ coeff[:, r]
    elif side == "leading":
        if coeff.shape[0] != lead:
            raise ValueError(f"coeff rows {coeff.shape[0]}, leading dim is {lead}")
        out = np.empty(rest * temp.rank)
        result = TempTensor(temp.retained_dims[1:], temp.rank, out)
        for r in range(temp.rank):
            result.block(r)[:] = temp.block_unfold1(r).T @ coeff[:, r]
    else:
        raise ValueError(f"side must be 'leading', 'trailing' or None, got {side!r}")
    return result


def multi_ttv_flops(temp: TempTensor) -> int:
    """A multi-TTV touches each element of the input temporary once."""
    return temp.block_size * temp.rank


class DimTreeContext:
    """Mutable per-sweep state: live temporaries, counters, mode ordering.

    One context per execution context (the plan itself is shareable).  Modes
    must be requested in ascending order within a sweep started by
    ``begin_iteration``; the stored temporaries embed factor snapshots taken
    when they were formed, which is exactly what alternating updates need.
    """

    def __init__(self, plan: DimTreePlan, recorder=None):
        self.plan = plan
        self.recorder = recorder
        self.partial_calls = 0
        self.ttv_calls = 0
        self.flops_partial = 0
        self.flops_ttv = 0
        self._left = None
        self._right = None
        self._expected = None

    def begin_iteration(self):
        """Invalidate temporaries and restart the mode sequence."""
        self._left = None
        self._right = None
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
        self.flops_partial += partial_mttkrp_flops(x, self.plan.rank)
        return out

    def _ttv(self, temp, coeff, side):
        t0 = time.perf_counter()
        out = multi_ttv(temp, coeff, side)
        self._record("MultiTTV", time.perf_counter() - t0)
        self.ttv_calls += 1
        self.flops_ttv += multi_ttv_flops(temp)
        return out

    def mttkrp(self, x: DenseTensor, factors, mode: int) -> np.ndarray:
        """MTTKRP result for ``mode``, reusing this sweep's temporaries."""
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
        hs = list(factors.factors) if hasattr(factors, "factors") else list(factors)

        if mode == 0:
            root = self._partial(x, self._krp(hs[s:]), "left")
            if s == 1:
                result = root.as_matrix()
            else:
                self._left = root
                result = self._ttv(root, self._krp(hs[1:s]), "trailing").as_matrix()
        elif mode < s:
            if self._left is None:
                raise RuntimeError(f"stale cache: no left temporary for mode {mode}")
            if mode < s - 1:
                self._left = self._ttv(self._left, hs[mode - 1], "leading")
                result = self._ttv(
                    self._left, self._krp(hs[mode + 1 : s]), "trailing"
                ).as_matrix()
            else:
                result = self._ttv(self._left, hs[mode - 1], "leading").as_matrix()
                self._left = None
        elif mode == s:
            root = self._partial(x, self._krp(hs[:s]), "right")
            if s == n - 1:
                result = root.as_matrix()
            else:
                self._right = root
                result = self._ttv(root, self._krp(hs[s + 1 :]), "trailing").as_matrix()
        else:
            if self._right is None:
                raise RuntimeError(f"stale cache: no right temporary for mode {mode}")
            if mode < n - 1:
                self._right = self._ttv(self._right, hs[mode - 1], "leading")
                result = self._ttv(
                    self._right, self._krp(hs[mode + 1 :]), "trailing"
                ).as_matrix()
            else:
                result = self._ttv(self._right, hs[mode - 1], "leading").as_matrix()
                self._right = None

        self._expected = mode + 1 if mode + 1 < n else None
        return np.ascontiguousarray(result)

    def mttkrp_last_mode(self, x: DenseTensor, factors) -> np.ndarray:
        """Standalone MTTKRP for the last mode, leaving sweep state alone.

        One extra partial MTTKRP (right side) plus a chain of leading
        contractions; used for out-of-band error evaluations such as the
        extrapolation acceptance test.
        """
        n = self.plan.order
        s = self.plan.split
        hs = list(factors.factors) if hasattr(factors, "factors") else list(factors)
        temp = self._partial(x, self._krp(hs[:s]), "right")
        for m in range(s, n - 1):
            temp = self._ttv(temp, hs[m], "leading")
        return np.ascontiguousarray(temp.as_matrix())
