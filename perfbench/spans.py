"""In-memory spans around calls into nncp's public functions.

Each wrapper replaces a name where its caller looks it up (a module global
or a class attribute), so the program itself is unchanged.  A span keeps
its name, start, end, parent span and thread; ``info`` carries what the
metrics need from the call's arguments (dims, rank, side, rows, inner
steps).  Nothing is derived from the program's internal types.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "info", "child_s")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.info = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.duration - self.child_s


def _partial_info(args, kwargs):
    side = args[2] if len(args) > 2 else kwargs["side"]
    return {"side": side, "dims": tuple(args[0].dims)}


def _update_info(args, kwargs):
    return {"rows": int(args[0].mttkrp_rows.shape[0])}


def _state_steps(args, kwargs, info):
    state = args[1] if len(args) > 1 else kwargs["state"]
    info["inner_steps"] = int(state.last_inner_iters)


class Tracer:
    """Collects spans from every thread into one list."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._targets = self._target_list()

    @staticmethod
    def _target_list():
        from nncp import dimtree, driver, grid, tensor_io

        rules = [f"{r}_update" for r in ("ucp", "mu", "hals", "bpp")]
        stateful = ["admm_update", "nesterov_update"]
        targets = [
            (tensor_io, "read_tensor", "tensor_io.read_tensor", None, None),
            (dimtree, "partial_mttkrp", "dimtree.partial_mttkrp", _partial_info, None),
            (dimtree, "multi_ttv", "dimtree.multi_ttv", None, None),
            (dimtree, "khatri_rao", "tensor_ops.khatri_rao", None, None),
            (driver, "naive_mttkrp", "tensor_ops.naive_mttkrp", None, None),
            (driver, "nncp_sequential", "driver.nncp_sequential", None, None),
            (driver, "nncp_parallel", "driver.nncp_parallel", None, None),
        ]
        targets += [(driver, n, f"updaters.{n}", _update_info, None) for n in rules]
        targets += [
            (driver, n, f"updaters.{n}", _update_info, _state_steps) for n in stateful
        ]
        targets += [
            (grid.Worker, n, f"grid.{n}", None, None)
            for n in ("all_reduce", "all_gather", "reduce_scatter")
        ]
        return targets

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before=None, after=None):
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            if before is not None:
                span.info = before(args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                if after is not None:
                    after(args, kwargs, span.info)
                spans.append(span)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, before, after in self._targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path):
        """Write every span as [name, start, end, parent index, thread, info]."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        rows = [
            [s.name, s.start, s.end,
             index.get(id(s.parent)) if s.parent is not None else None,
             s.thread, s.info]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
