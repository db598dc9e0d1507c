"""MTTKRP for all modes of one sweep via a dimension tree.

The root of the tree splits the modes into a leading block {1..S} and a
trailing block {S+1..N}, with S from ``choose_split_mode``.  Each block is
produced by a single partial MTTKRP (a GEMM against the zero-copy
matricization), and the per-mode MTTKRP results are then peeled off the
block temporaries by multi-TTV steps, each one batched matmul over the R
rank blocks.  Only two partial MTTKRPs run per sweep, no matter how many
modes the tensor has.  The right one runs its GEMM as a stack of column
blocks small enough that OpenBLAS multiplies them without packing the
tensor first (see ``partial_mttkrp``).

Both GEMMs retain the larger block and contract the smaller one, so the
Khatri-Rao product each one builds is the small one.  The left GEMM cuts at
S and retains modes 1..S.  The right GEMM cuts at c, the largest cut whose
leading block is no larger than the rest: c = S-1 when S > 1 and the
leading block {1..S} is strictly the larger, else c = S (a balanced, S = 1
or capped split).  It retains modes c+1..N, and a leading multi-TTV drops
modes c+1..S with the factors already updated this sweep.

``DimTree.sweep`` is a generator that yields the mode-1..N MTTKRPs in
order; the live temporary is one of its local variables, and each
Khatri-Rao product is released once its GEMM or multi-TTV is done.  Both
partial MTTKRPs of every sweep write their GEMM into one flat workspace the
tree owns, so the largest temporary is allocated once per run rather than
once per side, and every yielded MTTKRP is a fresh array, never a view of
the workspace.  The NES acceptance test runs a sweep cut short after mode
1: one more left partial MTTKRP, into the same workspace.  Each step is
timed through the ``clock`` the tree is given, the driver's self-time clock
in a run.  ``naive_mttkrp`` is one mode's MTTKRP from a sweep of a fresh tree.

Temporaries are plain ``(retained..., R)`` arrays in F order: the retained
indices vary fastest and the rank index slowest, so the r-th rank block is
a contiguous slice and the ``(R, rest, lead)`` C-order view that a multi-TTV
works on needs no copy.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from itertools import islice

import numpy as np

from .tensor_ops import DenseTensor, FactorSet, as_int, choose_split_mode, khatri_rao

# M * N * K up to which OpenBLAS's small-matrix kernel takes a GEMM
_SMALL_GEMM = 100**3


def partial_mttkrp(
    x: DenseTensor, krp: np.ndarray, side: str, split: int, out: np.ndarray = None
) -> np.ndarray:
    """Contract one side of the root split against a Khatri-Rao product.

    ``side='left'`` retains modes 1..split and contracts the trailing modes;
    ``side='right'`` retains modes split+1..N and contracts the leading ones.
    Both sides compute ``krp.T @ matricization`` into a C-order
    ``(R, retained)`` buffer, which already is the ``(retained..., R)``
    F-order result, so neither side copies it.

    The left side is one GEMM.  The right side's contracted modes are
    contiguous in memory, so it runs as one stacked matmul over column
    blocks of width nb, each written into its own column block of the
    buffer, plus one plain GEMM for the tail; every operand is a view.  nb
    is the largest power of two with nb * R * K <= 100^3, K the contracted
    length: OpenBLAS 0.3.31 (SkylakeX) hands GEMMs that small to its
    small-matrix kernel, which does not pack its operands.  With nb < 16 or
    fewer than 2 blocks the tail is the whole matricization.  On 1 thread at
    384^3, R = 16 (K = 384, nb = 128), the right side took 69-73 ms (min of
    7, two runs) this way against 91-97 ms as one GEMM, which packs all of X
    first.  nb = 192, past the bound, took 138-141 ms against 114 ms, so the
    gain is the kernel, not the blocking.  As blocks of 128 the left side,
    whose contracted index is strided, took 272-317 against 78-80 ms.
    Another BLAS runs each block as an ordinary GEMM.

    ``out``, a flat float64 buffer of at least R * prod(retained) entries,
    receives the result, and the result is a view of its head; without it
    the buffer is allocated.  It is the same arithmetic either way.
    """
    mat = x.unfold_leading(split)
    if side == "left":
        mat, retained = mat.T, x.dims[:split]
    elif side == "right":
        retained = x.dims[split:]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if krp.shape[0] != mat.shape[0]:
        raise ValueError(f"krp has {krp.shape[0]} rows, contracted side has {mat.shape[0]}")
    rank = krp.shape[1]
    k, cols = mat.shape
    if out is None:
        out = np.empty((rank, cols))
    else:
        out = out[: rank * cols].reshape(rank, cols)
    done = 0
    if side == "right":
        fit = _SMALL_GEMM // max(rank * k, 1)
        width = 1 << (fit.bit_length() - 1) if fit else 0
        blocks = cols // width if width >= 16 else 0
        if blocks >= 2:
            done = blocks * width
            np.matmul(
                krp.T,
                mat.T[:done].reshape(blocks, width, k).transpose(0, 2, 1),
                out=out[:, :done].reshape(rank, blocks, width).transpose(1, 0, 2),
            )
    np.matmul(krp.T, mat[:, done:], out=out[:, done:])
    return out.ravel().reshape(retained + (rank,), order="F")


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
    rest = math.prod(retained[1:])
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


class DimTree:
    """Dimension tree over a fixed root split, with a partial-MTTKRP counter.

    ``clock(category)`` returns a context manager that times one step; the
    default times nothing.  ``partial_calls`` counts the partial MTTKRPs
    of every sweep so far.  ``workspace`` is the flat buffer both partial
    MTTKRPs write into, sized on the first sweep for the larger of the two
    results (and grown if a later sweep needs more); None before.
    """

    def __init__(self, split: int, clock=nullcontext):
        self.split = split
        self.clock = clock
        self.partial_calls = 0
        self.workspace = None

    def sweep(self, x: DenseTensor, factors):
        """Yield the MTTKRP of modes 1..N in order.

        Mode n's Khatri-Rao products and leading multi-TTVs read ``factors``
        when mode n is requested, so a caller that replaces ``factors[n]``
        before asking for mode n+1 gets exactly the alternating-update
        MTTKRPs.  The right partial MTTKRP, run when mode S+1 is requested,
        contracts modes 1..c and its leading multi-TTVs drop modes c+1..S,
        all with their factors as updated this sweep.  A sweep cut short
        after mode 1 runs one partial MTTKRP.  Both partial MTTKRPs write
        into ``workspace``, so a sweep must finish or be dropped before the
        next one starts; every yielded array is fresh, so the caller may
        keep it across sweeps.
        """
        n, s, clock = x.order, self.split, self.clock
        c = s - 1 if s > 1 and math.prod(x.dims[:s]) > math.prod(x.dims[s:]) else s
        rank = factors[0].shape[1]
        need = rank * max(math.prod(x.dims[:s]), math.prod(x.dims[c:]))
        if self.workspace is None or self.workspace.size < need:
            self.workspace = np.empty(need)
        work = self.workspace
        for lo, hi, cut, side in ((0, s, s, "left"), (s, n, c, "right")):
            with clock("KRP"):
                krp = khatri_rao(factors[s:] if side == "left" else factors[:cut])
            with clock("MTTKRP"):
                temp = partial_mttkrp(x, krp, side, cut, work)
            del krp
            self.partial_calls += 1
            for mode in range(cut, lo):
                with clock("MultiTTV"):
                    temp = multi_ttv(temp, factors[mode], "leading")
            for mode in range(lo, hi):
                if mode > lo:
                    with clock("MultiTTV"):
                        temp = multi_ttv(temp, factors[mode - 1], "leading")
                if mode == hi - 1:
                    # a fresh C-ordered array, also where no multi-TTV ran on
                    # this side and temp is the workspace's root block
                    yield temp.copy(order="C")
                    continue
                with clock("KRP"):
                    krp = khatri_rao(factors[mode + 1 : hi])
                with clock("MultiTTV"):
                    out = multi_ttv(temp, krp, "trailing")
                del krp
                yield np.ascontiguousarray(out)


def naive_mttkrp(x: DenseTensor, factors, mode: int) -> np.ndarray:
    """MTTKRP in ``mode``: M(i, r) = sum over i_1..i_N (i_mode = i) of
    X(i_1..i_N) * prod of the other factors' (i_m, r) entries.

    The ``mode``-th result of a sweep of a fresh ``DimTree``, which no run
    counts.  The factor of ``mode`` is never read: the sweep's dropped
    earlier results see zeros in its place.  The driver calls it only for
    the mode-1 initial error of a zero-iteration run.
    """
    mode = as_int(f"mode in [0, {x.order})", mode)
    if not 0 <= mode < x.order:
        raise ValueError(f"mode must be in [0, {x.order}), got {mode}")
    hs = list(factors.factors) if isinstance(factors, FactorSet) else list(factors)
    if len(hs) != x.order:
        raise ValueError("factor count does not match tensor order")
    for m, h in enumerate(hs):
        if m != mode and h.shape[0] != x.dims[m]:
            raise ValueError(f"factor {m} has {h.shape[0]} rows, tensor dim is {x.dims[m]}")
    # hs[mode - 1] is another mode's factor, the last one for mode 0
    hs[mode] = np.zeros((x.dims[mode], hs[mode - 1].shape[1]))
    sweep = DimTree(choose_split_mode(x.dims)).sweep(x, hs)
    return next(islice(sweep, mode, None))
