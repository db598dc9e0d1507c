"""Simulated distributed runtime over an N-dimensional worker grid.

Workers are threads running the same program (SPMD) and interacting only
through blocking collectives -- All-Reduce, All-Gather, Reduce-Scatter.
A 1-worker grid runs its program inline in the caller's thread.  Each
collective goes through its ``Group``'s slot exchange: every member posts
its array, then reads all of them.  Reductions always combine
contributions in ascending rank order, so results are bitwise
deterministic regardless of scheduling.  Word counters track the
communication volume of every collective; no latency model is simulated.
A collective over a one-member group returns its input and counts the
call with 0 words, as the collective cost model charges it.  A worker
times each exchanging collective through its ``clock``, which the driver
sets to its own self-time clock.

Rank linearization follows the tensor layout: rank = p_1 + P_1 p_2 + ...
with the mode-1 coordinate varying fastest.  The mode-n slice of a worker
is the set of workers sharing its n-th coordinate (P/P_n of them).
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .tensor_ops import as_int

_REDUCTIONS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


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
    """``shape`` as a tuple of ints, each at least 1; a non-integer dim is
    rejected, never truncated."""
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
    """Execution context of one rank: coordinates, counters, collectives.

    ``clock(category)`` returns a context manager that times each
    collective under its own name; the default times nothing.  A
    collective over a one-member group checks its arguments, then returns
    its input untimed and counts the call with 0 words.
    """

    def __init__(self, rank: int, grid: Grid):
        self.rank = rank
        self.grid = grid
        self.coord = grid.coord_of(rank)
        self.counters = CommCounters()
        self.clock = nullcontext

    def _alone(self, name: str, local):
        """A one-member collective moves no words: count it, return ``local``."""
        self.counters.record(name, 0, 0)
        return local

    def all_reduce(self, group: Group, local, op: str = "sum"):
        """Elementwise reduction in ascending rank order, same result for
        every member."""
        fn = _REDUCTIONS.get(op)
        if fn is None:
            raise ValueError(f"unknown reduction {op!r}")
        if group.size == 1:
            return self._alone("AllReduce", local)
        with self.clock("AllReduce"):
            scalar = np.ndim(local) == 0
            arr = np.atleast_1d(np.asarray(local, dtype=np.float64))
            slots = group.exchange(group.index[self.rank], arr)
            if any(s.shape != slots[0].shape for s in slots):
                raise ValueError("all_reduce length mismatch across group")
            out = slots[0].copy()
            for s in slots[1:]:
                fn(out, s, out=out)
        self.counters.record("AllReduce", arr.size, arr.size)
        return float(out[0]) if scalar else out

    def all_gather(self, group: Group, local: np.ndarray) -> np.ndarray:
        """Concatenation of the members' arrays in ascending rank order."""
        if group.size == 1:
            return self._alone("AllGather", local)
        with self.clock("AllGather"):
            arr = np.asarray(local, dtype=np.float64)
            slots = group.exchange(group.index[self.rank], arr)
            out = np.concatenate(slots, axis=0)
        self.counters.record("AllGather", arr.size, out.size)
        return out

    def reduce_scatter(self, group: Group, local: np.ndarray, parts: tuple) -> np.ndarray:
        """Rank-ordered elementwise sum of this member's row block.

        ``parts`` holds one contiguous row slice per member, in rank order,
        as ``block_partition`` returns them.
        """
        arr = np.asarray(local, dtype=np.float64)
        if len(parts) != group.size:
            raise ValueError(f"partition has {len(parts)} blocks for a group of {group.size}")
        if parts[-1].stop != arr.shape[0]:
            raise ValueError(
                f"partition covers {parts[-1].stop} rows, local array has {arr.shape[0]}"
            )
        if group.size == 1:
            return self._alone("ReduceScatter", local)
        with self.clock("ReduceScatter"):
            index = group.index[self.rank]
            slots = group.exchange(index, arr)
            if any(s.shape != slots[0].shape for s in slots):
                raise ValueError("reduce_scatter length mismatch across group")
            own = parts[index]
            out = slots[0][own].copy()
            for s in slots[1:]:
                out += s[own]
        self.counters.record("ReduceScatter", arr.size, out.size)
        return out
