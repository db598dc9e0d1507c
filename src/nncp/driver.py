"""Alternating-update NNCP driver: one entry point for every grid.

``nncp_parallel``, also bound as ``nncp_sequential``, runs ``_run_spmd`` on
the workers of the N-dimensional grid ``RunConfig.grid`` (block Cartesian
tensor and block row factor partitions from ``Worker.blocks``, Reduce-Scatter
/ All-Gather on mode slices, All-Reduce for Gram matrices).  Without a grid
the run is the 1-worker grid, run in the caller's thread, whose
one-member collectives return their inputs and move no words.
Factors stay column-normalized with the scale in the weight vector; an
update's column norms come from the diagonal of its summed Gram, a mode's
only All-Reduce.  Every reported error comes from ``_error``, which pairs
a mode's MTTKRP, taken before the Reduce-Scatter, with that mode's slice
rows and the All-Reduced Grams instead of forming the reconstruction,
except near an exact fit, where each worker reconstructs its own tensor
block.

One clock, ``_clock``, times every region and books its self time: its
wall time less what nested regions booked meanwhile, so the per-category
columns never overlap.  The dimension tree and each grid worker take it as
their ``clock``, so every KRP, partial MTTKRP, multi-TTV and exchanging
collective is booked through it.  Each sweep is one ``DimTree.sweep`` generator; the
driver asks it for mode n+1 only after replacing factor n.

Each update rule is one row of the table ``_RULES``: the driver reads what
a rule does from the row's fields and never compares rule names.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain
from typing import Callable

import numpy as np

from .dimtree import DimTree, naive_mttkrp
from .grid import CommCounters, Grid, Worker, grid_shape
from .tensor_ops import (
    DenseTensor,
    FactorSet,
    as_int,
    choose_split_mode,
    gram,
    hadamard_grams_excluding,
    init_factor,
    normalize_columns,
    relative_error,
    residual_norm_squared,
)
from .updaters import (
    ADMM_INNER_CAP,
    HALS_INNER_STEPS,
    MU_INNER_STEPS,
    NESTEROV_INNER_CAP,
    UpdateInputs,
    UpdaterState,
    admm_update,
    bpp_update,
    budgeted_steps,
    hals_sweep_flops,
    hals_update,
    mu_step_flops,
    mu_update,
    nesterov_update,
    ucp_update,
)

__all__ = [
    "ALGORITHMS",
    "CATEGORIES",
    "RunConfig",
    "RunReport",
    "init_factor",
    "nncp_parallel",
    "nncp_sequential",
]

CATEGORIES = (
    "MTTKRP",
    "KRP",
    "MultiTTV",
    "Gram",
    "NNLS",
    "ReduceScatter",
    "AllGather",
    "AllReduce",
    "Error",
)


@dataclass(frozen=True)
class _Rule:
    """One row of the rule table.  ``update(inputs, steps, state)`` returns
    a mode's new rows from its inner step count and ``UpdaterState``; it
    calls the update function through this module's name, so a wrapper
    installed on that name sees every call.  ``steps(dims, rank)`` gives
    the per-mode counts from the global dims.  A ``nonnegative`` rule needs
    a nonnegative start, and the scan of X finds min(X) for it; one that
    ``extrapolates`` runs ``_nes_accelerate`` after each sweep."""

    update: Callable
    steps: Callable = lambda dims, rank: []
    nonnegative: bool = True
    extrapolates: bool = False


_RULES = {
    "ucp": _Rule(lambda inp, k, st: ucp_update(inp), nonnegative=False),
    "mu": _Rule(lambda inp, k, st: mu_update(inp, k),
                partial(budgeted_steps, mu_step_flops, MU_INNER_STEPS)),
    "hals": _Rule(lambda inp, k, st: hals_update(inp, k),
                  partial(budgeted_steps, hals_sweep_flops, HALS_INNER_STEPS)),
    "bpp": _Rule(lambda inp, k, st: bpp_update(inp)),
    "admm": _Rule(lambda inp, k, st: admm_update(inp, st), lambda d, r: [ADMM_INNER_CAP] * len(d)),
    "nes": _Rule(lambda inp, k, st: nesterov_update(inp, st),
                 lambda d, r: [NESTEROV_INNER_CAP] * len(d), extrapolates=True),
}
ALGORITHMS = tuple(_RULES)


@dataclass
class RunConfig:
    """Knobs of one decomposition run.  ``grid`` is the worker grid shape
    P_1 x ... x P_N; None runs the 1-worker grid."""

    rank: int
    algorithm: str = "bpp"
    max_iters: int = 100
    tol: float = 1e-6
    seed: int = 0
    grid: tuple = None
    initial_factors: FactorSet = None

    def validate(self, dims):
        """Reject a configuration that cannot run on a tensor of ``dims``."""
        order = len(dims)
        for name in ("rank", "max_iters", "seed"):
            as_int(name, getattr(self, name))
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if not self.tol >= 0:
            raise ValueError(f"tol must be a nonnegative number, got {self.tol}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be nonnegative and below 2**64, got {self.seed}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        # a tuple test compares, so None or a list gets this error, not a TypeError
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, not one of {ALGORITHMS}")
        if self.grid is not None:
            shape = grid_shape(self.grid)
            if len(shape) != order:
                raise ValueError(f"grid order {len(shape)} does not match tensor order {order}")
            for n, (i, p) in enumerate(zip(dims, shape)):
                if p > i:
                    raise ValueError(
                        f"grid dim {p} exceeds tensor dim {i} in mode {n + 1}; "
                        "every worker must hold a nonempty tensor block"
                    )
        init = self.initial_factors
        if init is not None:
            if init.rank != self.rank:
                raise ValueError("initial factors disagree with configured rank")
            if init.order != order:
                raise ValueError(f"{init.order} initial factors for a tensor of order {order}")
            named = [(f"initial factor of mode {n + 1}", h) for n, h in enumerate(init.factors)]
            for (name, h), i in zip(named, dims):
                if h.shape[0] != i:
                    raise ValueError(f"{name} has {h.shape[0]} rows, tensor dim is {i}")
            # MU keeps the sign it starts from, and a NaN surfaces only in
            # the first error, so a bad start is rejected here
            for name, a in named + [("initial weight vector", init.lam)]:
                if not np.isfinite(a).all():
                    raise ValueError(f"{name} has a non-finite entry")
                if _RULES[self.algorithm].nonnegative and (a < 0).any():
                    raise ValueError(
                        f"{name} has a negative entry; {self.algorithm} needs a nonnegative start"
                    )


@dataclass
class RunReport:
    """Per-iteration error curve plus timing and communication breakdown.

    Row 0 describes the initial model; row i the state after outer
    iteration i.  ``rows[i]`` maps each category to seconds, ``row_words``
    counts words moved by collectives, ``row_wall`` is the row's wall time.
    ``rows_max[i]`` holds each category's maximum over workers, the slowest
    worker beside ``rows``' mean; with one worker it equals ``rows``.
    Row 0's error reuses iteration 1's mode-1 MTTKRP, and the scan of X
    for ||X||^2 runs behind that MTTKRP, so row 1 books the scan's join,
    the All-Reduce of ||X||^2, and row 0's ``_error`` call with its scalar
    All-Reduce; a 0-iteration run books them in row 0, with the mode-1
    MTTKRP from ``naive_mttkrp``'s throwaway tree, not in ``tree_partial_calls``.
    With a rule that extrapolates (nes), row i's error is that of the
    model iteration i returns, and ``nes_accepted[i-1]`` tells whether its
    extrapolation was accepted; the list is empty for the other rules.
    ``inner_steps[n]`` is the inner step count of every mode-n update, the
    rule row's ``steps`` of the global dims; empty for ucp and bpp.
    ``booked`` is the running sum of the current row's categories, kept by
    ``begin_row`` and ``record`` so that a clock reads it without summing
    the row.
    """

    errors: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    rows_max: list = field(default_factory=list)
    row_words: list = field(default_factory=list)
    row_wall: list = field(default_factory=list)
    counters: CommCounters = field(default_factory=CommCounters)
    model: FactorSet = None
    converged: bool = False
    split_mode: int = None
    tree_partial_calls: int = 0
    nes_accepted: list = field(default_factory=list)
    inner_steps: list = field(default_factory=list)
    booked: float = 0.0

    def begin_row(self):
        self.rows.append({c: 0.0 for c in CATEGORIES})
        self.row_words.append(0)
        self.row_wall.append(0.0)
        self.booked = 0.0

    def record(self, category: str, elapsed: float):
        """Accumulate one timed event into the current row."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        self.rows[-1][category] += elapsed
        self.booked += elapsed


class _WorkerRuntime:
    """One worker's run: its report, its tensor block ``x_local``, the
    distribution ``Worker.blocks`` gives (``slice_rows``, ``owned``) and
    the program's three collectives on the worker's groups."""

    def __init__(self, worker: Worker, x: DenseTensor):
        self.worker = worker
        self.report = RunReport(counters=worker.counters)
        # the clock holds the report, not this runtime: no reference cycle
        worker.clock = partial(_clock, self.report)
        self.slice_rows, self.owned = worker.blocks(x.dims)
        self.x_local = DenseTensor.from_array(x.as_array()[self.slice_rows])
        self.dims = self.x_local.dims

    def all_reduce(self, value, op="sum"):
        return self.worker.all_reduce(self.worker.grid.all_procs, value, op)

    def scatter_to_owned(self, mode, marr):
        return self.worker.reduce_scatter(self.worker.groups[mode], marr)

    def gather_to_slice(self, mode, h_owned):
        return self.worker.all_gather(self.worker.groups[mode], h_owned)


class _clock:
    """Charge a region's self time to one category of the current row.

    The region's wall time, less what nested clocks added to the row
    meanwhile, so nested regions are never counted twice.  The row's
    running total, ``RunReport.booked``, is read inside the timed window,
    so its own cost is charged too and the categories cover the row's wall
    time.
    """

    __slots__ = ("report", "category", "t0", "base")

    def __init__(self, report, category):
        self.report = report
        self.category = category

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.base = self.report.booked

    def __exit__(self, *exc):
        nested = self.report.booked - self.base
        self.report.record(self.category, time.perf_counter() - self.t0 - nested)


def _initial_factors(rt, cfg: RunConfig, global_dims):
    """Slice-replicated factor blocks and weights, (shared, lam); identical
    global values for every distribution.  A worker's owned rows are the
    view ``shared[n][rt.owned[n]]``."""
    init = cfg.initial_factors
    shared = []
    for n, size in enumerate(global_dims):
        full = init_factor(cfg.seed, n, size, cfg.rank) if init is None else init.factors[n]
        shared.append(full[rt.slice_rows[n]].copy())
    lam = np.ones(cfg.rank) if init is None else init.lam.copy()
    return shared, lam


def _grams(rt, shared):
    """Gram matrices of the rows this worker owns, stacked into one
    All-Reduce; the sums stay elementwise, so each equals its own call."""
    local = [gram(h[rt.owned[n]]) for n, h in enumerate(shared)]
    return list(rt.all_reduce(np.stack(local)))


def _error(rt, alpha, n, mbar, shared, lam, grams):
    """Relative error from ``mbar``, this worker's mode-n MTTKRP before the
    Reduce-Scatter, and its slice rows ``shared[n]``; one scalar All-Reduce
    completes beta.  Near an exact fit the slice blocks span this worker's
    tensor block, which it then reconstructs."""
    with _clock(rt.report, "Error"):
        s_n, hhat = hadamard_grams_excluding(grams, n), shared[n] * lam
        residual = lambda: residual_norm_squared(rt.x_local, FactorSet(shared, lam))
        return relative_error(alpha, mbar, hhat, s_n, grams[n], lam, rt.all_reduce, residual)


def _model_error(rt, tree, shared, lam, alpha):
    """Relative error of an arbitrary (possibly unnormalized) model given
    by its slice-replicated blocks ``shared`` and weights ``lam``, and the
    model's All-Reduced Gram matrices.

    Costs one extra partial MTTKRP: a sweep of ``tree`` cut short after
    mode 1.
    """
    with _clock(rt.report, "Gram"):
        grams = _grams(rt, shared)
    with _clock(rt.report, "MTTKRP"):
        mbar = next(tree.sweep(rt.x_local, shared))
    return _error(rt, alpha, 0, mbar, shared, lam, grams), grams


def _scan_behind(rt, rule: _Rule, first_mttkrp):
    """Run ``first_mttkrp()``, the run's first mode-1 MTTKRP, while one
    helper thread makes the one pass over this worker's tensor block that
    gives ||X||^2 and, for a ``nonnegative`` rule, min(X); another rule
    needs no minimum and keeps one dot.  The GEMM, ``np.dot`` and
    ``ndarray.min`` release the GIL, so the two passes overlap.  The helper
    is joined on every path and its exception re-raised in the caller; the
    join wait is booked to Error.  Then ``alpha`` = ||X||^2 is All-Reduced
    and X checked.  Returns (mbar, alpha)."""
    x, found = rt.x_local, []

    def scan():
        try:
            found.append(
                x.norm_squared_and_min() if rule.nonnegative else (x.norm_squared(), 0.0)
            )
        except BaseException as exc:  # re-raised in the caller after the join
            found.append(exc)

    with _clock(rt.report, "Error"):
        # a plain thread that exits on its own: an executor's idle worker
        # must be woken to shut down, a cross-CPU wake-up on the critical
        # path that cost ucp 2-3 % of a 16^5 R48 solve on a 2-vCPU VM
        helper = threading.Thread(target=scan, name="scan")
        helper.start()
        try:
            with _clock(rt.report, "MTTKRP"):
                mbar = first_mttkrp()
        finally:
            helper.join()
        if isinstance(found[0], BaseException):
            raise found[0]
        local_sq, low = found[0]
        alpha = rt.all_reduce(local_sq)
    if low < 0.0:
        # each worker checks its own block, so this needs no collective
        warnings.warn("tensor has negative entries; nonnegative model will not fit")
    if not np.isfinite(alpha):
        raise ValueError(
            "tensor has non-finite entries, or its squared norm overflows float64"
        )
    if alpha == 0.0:
        # every worker sees alpha == 0 together, so the reduce is collective-safe
        d = x.data
        if rt.all_reduce(max(float(d.max()), -float(d.min())), "max") > 0.0:
            raise ValueError("tensor is nonzero but its squared norm underflows float64")
        raise ValueError("zero tensor has no relative error")
    return mbar, alpha


def _run_spmd(rt, cfg: RunConfig, global_dims):
    """One worker's program, on every grid shape; a sequential run is the
    1-worker grid.
    Each error pairs a mode's MTTKRP, taken before the Reduce-Scatter, with
    that mode's slice rows: iteration 1's mode 1, taken before its mode
    loop, for the initial model (``naive_mttkrp``'s without iterations), and
    the last mode's, after its update, for a sweep.
    The scan of X for ||X||^2 runs behind that first MTTKRP
    (``_scan_behind``), so X is checked before any update rule runs."""
    order = len(global_dims)
    report = rt.report
    rule = _RULES[cfg.algorithm]
    # global dims give every worker the same counts; ucp and bpp run none
    report.inner_steps = rule.steps(global_dims, cfg.rank)
    steps, states = report.inner_steps or [0] * order, [UpdaterState() for _ in global_dims]

    # -- initialization ----------------------------------------------------
    report.begin_row()
    wall0 = time.perf_counter()
    shared, lam = _initial_factors(rt, cfg, global_dims)
    with _clock(rt.report, "Gram"):
        grams = _grams(rt, shared)

    tree = DimTree(choose_split_mode(rt.dims), partial(_clock, rt.report))
    report.split_mode = tree.split

    # initial model error from iteration 1's mode-1 MTTKRP, or from the
    # same MTTKRP of a throwaway tree when there is no iteration; alpha
    # comes from the scan that runs behind whichever of the two is taken
    errors = report.errors
    if cfg.max_iters == 0:
        mbar0, alpha = _scan_behind(rt, rule, lambda: naive_mttkrp(rt.x_local, shared, 0))
        errors.append(_error(rt, alpha, 0, mbar0, shared, lam, grams))
    report.row_wall[-1] = time.perf_counter() - wall0
    words_done = report.row_words[-1] = report.counters.total_words()

    prev_shared = prev_lam = None

    # -- outer iterations ----------------------------------------------------
    for it in range(1, cfg.max_iters + 1):
        report.begin_row()
        wall0 = time.perf_counter()
        if rule.extrapolates:
            # the sweep replaces factor arrays and never writes into them
            prev_shared, prev_lam = list(shared), lam
        modes = tree.sweep(rt.x_local, shared)
        if it == 1:
            # the initial model's error, from the mode-1 MTTKRP the loop reuses
            mbar, alpha = _scan_behind(rt, rule, partial(next, modes))
            errors.append(_error(rt, alpha, 0, mbar, shared, lam, grams))
            modes = chain([mbar], modes)
        for n in range(order):
            with _clock(rt.report, "MTTKRP"):
                mbar = next(modes)
                m_owned = rt.scatter_to_owned(n, mbar)
            with _clock(rt.report, "Gram"):
                s_n = hadamard_grams_excluding(grams, n)
            with _clock(rt.report, "NNLS"):
                try:
                    own = shared[n][rt.owned[n]]
                    hhat = rule.update(UpdateInputs(s_n, m_owned, own * lam), steps[n], states[n])
                except Exception as exc:
                    raise RuntimeError(
                        f"NNLS update failed at iteration {it}, mode {n + 1}"
                    ) from exc
            with _clock(rt.report, "Gram"):
                h, lam, grams[n] = normalize_columns(hhat, rt.all_reduce(gram(hhat)))
                shared[n] = rt.gather_to_slice(n, h)
        # release the sweep's last temporary before the error and NES steps;
        # mbar, the last mode's MTTKRP, gives the sweep's error
        del modes
        eps = _error(rt, alpha, order - 1, mbar, shared, lam, grams)

        if rule.extrapolates:
            step = _nes_accelerate(
                rt, tree, it, eps, alpha, grams, shared, lam, prev_shared, prev_lam
            )
            report.nes_accepted.append(step is not None)
            if step is not None:
                shared, lam, eps = step
        errors.append(eps)

        report.row_wall[-1] = time.perf_counter() - wall0
        words_total = report.counters.total_words()
        report.row_words[-1] = words_total - words_done
        words_done = words_total
        if eps <= cfg.tol:
            report.converged = True
            break

    report.tree_partial_calls = tree.partial_calls
    return shared, lam


def _nes_accelerate(rt, tree, it, eps, alpha, grams, shared, lam, prev_shared, prev_lam):
    """Outer extrapolation step; refreshes grams in place when accepted.

    The candidate H_i + s_i (H_i - H_{i-1}) with s_i = i^(1/N), formed on
    the slice-replicated blocks, is clamped at zero to stay feasible and
    replaces the current iterate only when its relative error is strictly
    lower (one extra partial MTTKRP to find out).  An accepted step runs
    no collective: ``normalize_columns``, as in the sweep, renormalizes
    each candidate factor from its Gram summed for that test.  Returns None
    when rejected, else the renormalized candidate (shared, lam) and its
    relative error.
    """
    with _clock(rt.report, "Error"):
        step = float(it) ** (1.0 / len(shared))
        cand = [
            np.maximum(h + step * (h - hp), 0.0) for h, hp in zip(shared, prev_shared)
        ]
        cand_lam = np.maximum(lam + step * (lam - prev_lam), 0.0)
    cand_eps, cand_grams = _model_error(rt, tree, cand, cand_lam, alpha)
    if not cand_eps < eps:
        return None
    # accepted: the candidate's summed Grams hold its squared column norms
    with _clock(rt.report, "Gram"):
        shared, norms, grams[:] = zip(*map(normalize_columns, cand, cand_grams))
        lam = cand_lam * np.prod(norms, axis=0)
    return list(shared), lam, cand_eps


def nncp_parallel(x: DenseTensor, cfg: RunConfig) -> RunReport:
    """Alternating-update NNCP: ``_run_spmd`` on every worker of the
    ``cfg.grid`` grid, reports merged.  Without a grid the run is the
    1-worker grid, in the caller's thread."""
    cfg.validate(x.dims)

    def program(worker):
        rt = _WorkerRuntime(worker, x)
        shared, lam = _run_spmd(rt, cfg, x.dims)
        return rt.report, shared, lam, rt.slice_rows

    shape = (1,) * x.order if cfg.grid is None else cfg.grid
    return _merge_reports(Grid(shape).run(program), x.dims, cfg.rank)


# one program for every grid: the sequential name is the same function
nncp_sequential = nncp_parallel


def _merge_reports(results, dims, rank) -> RunReport:
    """Assemble the global model and fold per-worker breakdowns together.

    Category seconds and wall time become per-worker averages, which keeps
    the rows internally additive (a max over workers would mix different
    critical paths and could exceed any single worker's wall time), and
    ``rows_max`` keeps each category's slowest worker; words and counters
    sum across workers.  Worker 0's report, whose run-wide fields every
    worker shares, becomes the merged one.
    """
    reports = [r for r, *_ in results]
    merged, nworkers = reports[0], len(reports)
    for report in reports[1:]:
        # every worker holds the same All-Reduced terms, so the errors agree bitwise
        if report.errors != merged.errors:
            raise AssertionError("workers disagree on the error sequence")
        if report.nes_accepted != merged.nes_accepted:
            raise AssertionError("workers disagree on the NES acceptances")
        if report.inner_steps != merged.inner_steps:
            raise AssertionError("workers disagree on the inner step counts")
    by_row = list(zip(*(r.rows for r in reports)))
    merged.rows = [{c: sum(r[c] for r in k) / nworkers for c in CATEGORIES} for k in by_row]
    merged.rows_max = [{c: max(r[c] for r in k) for c in CATEGORIES} for k in by_row]
    merged.row_words = [sum(w) for w in zip(*(r.row_words for r in reports))]
    merged.row_wall = [sum(w) / nworkers for w in zip(*(r.row_wall for r in reports))]
    merged.counters = reduce(CommCounters.merged_with, (r.counters for r in reports))

    # slice members hold equal copies of their slice rows
    factors = [np.zeros((i, rank)) for i in dims]
    for _, shared, _, rows in results:
        for n, (h, s) in enumerate(zip(shared, rows)):
            factors[n][s] = h
    merged.model = FactorSet(factors, results[0][2])
    return merged
