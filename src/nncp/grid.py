"""Simulated distributed runtime over an N-dimensional worker grid.

Workers are threads running the same program (SPMD) and interacting only
through blocking collectives -- All-Reduce, All-Gather, Reduce-Scatter.
A 1-worker grid runs its program inline in the caller's thread.  Every
collective takes one path, ``Worker._exchange``: a one-member group
returns its input and counts the call with 0 words, as the collective
cost model charges it; a larger group runs its ``Group``'s slot exchange
(every member posts its array, then reads all of them), combines the
posts in ascending rank order, so results are bitwise deterministic, and
counts the words posted and returned.  No latency model is simulated.

Rank linearization follows the tensor layout: rank = p_1 + P_1 p_2 + ...
with the mode-1 coordinate varying fastest.  The mode-n slice of a worker
is the set of workers sharing its n-th coordinate (P/P_n of them).
``Worker.blocks`` alone decides which tensor block and factor rows each
worker holds.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .tensor_ops import as_int

_REDUCTIONS = {"sum": np.add, "max": np.maximum}


def block_partition(length: int, parts: int):
    """Balanced contiguous blocks of [0, length) as a tuple of ``parts``
    slices: the first (length % parts) blocks get the extra element."""
    if length < 0 or parts < 1:
        raise ValueError(f"bad partition request: length={length}, parts={parts}")
    base, extra = divmod(length, parts)
    bounds = [k * base + min(k, extra) for k in range(parts + 1)]
    return tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))


@dataclass
class CommCounters:
    """Per-worker tallies of collective calls and words moved."""

    calls: dict = field(default_factory=dict)
    words_in: dict = field(default_factory=dict)
    words_out: dict = field(default_factory=dict)

    def record(self, name: str, words_in: int, words_out: int):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.words_in[name] = self.words_in.get(name, 0) + words_in
        self.words_out[name] = self.words_out.get(name, 0) + words_out

    def total_words(self) -> int:
        return sum(self.words_in.values()) + sum(self.words_out.values())

    def merged_with(self, other: "CommCounters") -> "CommCounters":
        out = CommCounters()
        for src in (self, other):
            for name, c in src.calls.items():
                out.calls[name] = out.calls.get(name, 0) + c
                out.words_in[name] = out.words_in.get(name, 0) + src.words_in.get(name, 0)
                out.words_out[name] = out.words_out.get(name, 0) + src.words_out.get(name, 0)
        return out


class Group:
    """Ordered set of global ranks and their slot exchange: post, wait,
    read, wait, go.  Both waits are on one cyclic barrier."""

    def __init__(self, ranks):
        self.ranks = tuple(sorted(ranks))
        self.index = {r: k for k, r in enumerate(self.ranks)}
        self.size = len(self.ranks)
        self.slots = [None] * self.size
        self._barrier = threading.Barrier(self.size)

    def exchange(self, index: int, value):
        """Post ``value`` in slot ``index``; once every member has posted,
        return all the posts in slot order.  The second wait keeps every
        post in place until all members have read it."""
        self.slots[index] = value
        self._barrier.wait()
        view = list(self.slots)
        self._barrier.wait()
        return view

    def abort(self):
        self._barrier.abort()


def grid_shape(shape) -> tuple:
    """``shape``, a sequence of ints, as a tuple, each at least 1; a
    non-integer dim is rejected, never truncated."""
    if isinstance(shape, (str, bytes)) or not isinstance(shape, (Sequence, np.ndarray)):
        raise ValueError(f"grid shape must be a sequence of ints, got {shape!r}")
    shape = tuple(as_int(f"grid dim {n + 1}", p) for n, p in enumerate(shape))
    if any(p < 1 for p in shape):
        raise ValueError(f"grid dims must be positive, got {shape}")
    return shape


class Grid:
    """P_1 x ... x P_N grid of simulated workers and their slice groups."""

    def __init__(self, shape):
        self.shape = grid_shape(shape)
        self.total = math.prod(self.shape)
        self.all_procs = Group(range(self.total))
        # slice_groups[n][c] = workers whose n-th coordinate equals c.  An
        # unsplit mode's one slice is every worker, and it shares all_procs'
        # exchange: every member calls the collectives in the same order
        self.slice_groups = []
        for n, pn in enumerate(self.shape):
            groups = [[] for _ in range(pn)]
            for rank in range(self.total):
                groups[self.coord_of(rank)[n]].append(rank)
            self.slice_groups.append([self.all_procs] if pn == 1 else [Group(g) for g in groups])

    def coord_of(self, rank: int):
        coord = []
        for p in self.shape:
            rank, c = divmod(rank, p)
            coord.append(c)
        return tuple(coord)

    def slice_group(self, mode: int, coord: int) -> Group:
        return self.slice_groups[mode][coord]

    def _abort_all(self):
        self.all_procs.abort()
        for groups in self.slice_groups:
            for g in groups:
                g.abort()

    def run(self, fn):
        """Execute ``fn(worker)`` on every rank; list of results.

        A 1-worker grid runs ``fn`` inline in the caller's thread.  Otherwise
        the first worker exception aborts all pending collectives and is
        re-raised in the caller.
        """
        workers = [Worker(rank, self) for rank in range(self.total)]
        if self.total == 1:
            return [fn(workers[0])]
        results = [None] * self.total
        failures = [None] * self.total

        def main(w):
            try:
                results[w.rank] = fn(w)
            except threading.BrokenBarrierError:
                pass
            except BaseException as exc:  # propagate to the caller
                failures[w.rank] = exc
                self._abort_all()

        threads = [
            threading.Thread(target=main, args=(w,), name=f"worker-{w.rank}")
            for w in workers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for exc in failures:
            if exc is not None:
                raise exc
        return results


class Worker:
    """Execution context of one rank: coordinates, slice groups, data
    distribution, counters, collectives.

    ``groups[n]`` is the worker's mode-n slice group.  ``clock(category)``
    returns a context manager that times each exchanging collective under
    its own name; the default times nothing, and the driver sets its
    self-time clock.  A collective over a one-member group checks only its
    ``op``, then returns its input untimed and counts the call with 0 words.
    """

    def __init__(self, rank: int, grid: Grid):
        self.rank = rank
        self.grid = grid
        self.coord = grid.coord_of(rank)
        self.groups = [grid.slice_group(n, c) for n, c in enumerate(self.coord)]
        self.counters = CommCounters()
        self.clock = nullcontext

    def blocks(self, dims):
        """The block distribution of a tensor of ``dims``: (rows, owned),
        one slice per mode in each.  ``rows[n]`` is the worker's mode-n
        tensor-block range, ``block_partition(I_n, P_n)`` at its n-th
        coordinate, and its mode-n factor slice block.  ``owned[n]``, a
        range within that block, holds the factor rows it updates: the
        block's split over the slice group, in ascending rank order."""
        rows = tuple(block_partition(i, p)[c] for i, p, c in zip(dims, self.grid.shape, self.coord))
        owned = tuple(
            block_partition(s.stop - s.start, g.size)[g.index[self.rank]]
            for s, g in zip(rows, self.groups)
        )
        return rows, owned

    def _exchange(self, name: str, group: Group, local, combine):
        """The path of every collective.  One member: return ``local`` and
        count 0 words.  Otherwise post ``local`` as float64 and return
        ``combine(posts, index)`` of all the posts in rank order and this
        member's index, timed, counting the words posted and returned."""
        if group.size == 1:
            self.counters.record(name, 0, 0)
            return local
        with self.clock(name):
            arr = np.asarray(local, dtype=np.float64)
            index = group.index[self.rank]
            out = combine(group.exchange(index, arr), index)
        self.counters.record(name, arr.size, np.size(out))
        return out

    def all_reduce(self, group: Group, local, op: str = "sum"):
        """Elementwise ``op`` ("sum" or "max") in ascending rank order, the
        same result for every member; a scalar comes back as a float."""
        fn = _REDUCTIONS.get(op)
        if fn is None:
            raise ValueError(f"unknown reduction {op!r}, not one of {tuple(_REDUCTIONS)}")
        return self._exchange("AllReduce", group, local, lambda posts, k: _fold(fn, posts))

    def all_gather(self, group: Group, local: np.ndarray) -> np.ndarray:
        """Concatenation of the members' arrays in ascending rank order."""
        return self._exchange("AllGather", group, local, lambda posts, k: np.concatenate(posts))

    def reduce_scatter(self, group: Group, local: np.ndarray) -> np.ndarray:
        """Rank-ordered elementwise sum of this member's row block, its
        part of ``block_partition(rows, group.size)``."""
        return self._exchange("ReduceScatter", group, local, partial(_fold, np.add))


def _fold(fn, posts, member=None):
    """``fn`` over the posts in ascending rank order: of all of each post,
    a 0-d result as a float, or of member ``member``'s part of
    ``block_partition(rows, len(posts))``.  The posts must share a shape."""
    if any(p.shape != posts[0].shape for p in posts):
        raise ValueError(f"group members posted shapes {[p.shape for p in posts]}")
    rows = ... if member is None else block_partition(len(posts[0]), len(posts))[member]
    out = posts[0][rows].copy()
    for p in posts[1:]:
        fn(out, p[rows], out=out)
    return float(out) if out.ndim == 0 else out
