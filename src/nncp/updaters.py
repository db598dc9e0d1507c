"""Factor-update rules for the per-mode nonnegative least squares step.

Every rule consumes the same two precomputed matrices: the Hadamard product
of the other factors' Gram matrices S = A^T A (R x R) and the local rows of
the MTTKRP result M (rows of A^T B transposed, I x R), plus the current
local factor rows.  All rules operate on the factor-row layout (I x R), so
the textbook column problem min_{x>=0} ||A x - b|| appears here once per
row of H, and every rule solves all rows of one update together.  BPP
factors the live block of S (the columns with a positive diagonal) once per
call and, when it is well conditioned, pivots on the live columns and
solves each round from S^{-1} on the rows' zero sets only; otherwise it
pivots on every column and each round takes one stacked LU.  Every round,
the first from empty passive sets included, runs the same code on the
unfinished rows only, and no round gathers what it does not solve.  UCP
multiplies M by S^{-1} and falls back to least squares only when S is not
positive definite.  ADMM inverts S + rho I once per call, so each of its
steps is one GEMM.  All three form their inverse the same way, from numpy's
Cholesky factor, so the package runs on numpy alone.  MU and HALS repeat
their step on the same M and S, which cost far more than one step, and
``budgeted_steps`` sizes their counts to that cost: more steps where the
MTTKRP dwarfs one step.

Every rule is row-local: MU, HALS, ADMM and Nesterov run a step count fixed
before the run starts, so no update communicates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError


ADMM_INNER_CAP = 5
NESTEROV_INNER_CAP = 20
# fewest MU steps and HALS sweeps per update; ``budgeted_steps`` adds more
MU_INNER_STEPS = 10
HALS_INNER_STEPS = 2
# flops of MU or HALS steps an update may spend per flop of its mode's
# share of the MTTKRP GEMMs; it gives 384^3 R16 ten HALS sweeps, under 1 %
# of its solve time, and every smaller test shape the floors
INNER_STEP_BUDGET = 1 / 180
# fixed cost of one numpy call, in flops: steps on a few hundred rows run at
# about 13 GFLOP/s on one core, and each call adds about 0.6 us
CALL_FLOPS = 8000
MU_EPSILON = 1e-16
HALS_FLOOR = 1e-16
NESTEROV_PROX_FLOOR = 1e-6
BPP_BACKUP_TRIES = 3
# smallest reciprocal 1-norm condition number of S's live block that BPP
# solves through its inverse: any solve is off by about u * cond, so above
# cond 1e4 the inverse and a row's own LU solve can differ by more than 1e-12
BPP_RCOND_FLOOR = 1e-4


@dataclass
class UpdateInputs:
    """Shared inputs of one factor update: S = A^T A, M rows, current rows."""

    gram: np.ndarray
    mttkrp_rows: np.ndarray
    current: np.ndarray

    def __post_init__(self):
        r = self.gram.shape[0]
        if self.gram.shape != (r, r):
            raise ValueError("gram must be square")
        if self.mttkrp_rows.shape[1] != r or self.current.shape[1] != r:
            raise ValueError("rank mismatch between gram and factor rows")
        if self.mttkrp_rows.shape[0] != self.current.shape[0]:
            raise ValueError("mttkrp_rows and current must have equal row counts")


@dataclass
class UpdaterState:
    """Per-mode persistent state for the stateful updaters.

    ``admm_dual`` is the scaled dual matrix U (zero at the first call);
    ``nesterov_prev`` is this factor's iterate from the previous outer
    iteration, used as the proximal center.  ``last_inner_iters``, the
    inner steps of the latest call (its rule's cap), stays only because
    the benchmark's tracer reads it; ``RunReport.inner_steps`` has them.
    """

    admm_dual: np.ndarray = None
    nesterov_prev: np.ndarray = None
    last_inner_iters: int = 0


def budgeted_steps(step_flops, floor: int, dims, rank: int) -> list:
    """Per-mode counts of a step that reuses its mode's MTTKRP, on a tensor
    of global ``dims``: INNER_STEP_BUDGET times mode n's share of a sweep's
    two partial-MTTKRP GEMMs, 4 |X| R / N flops, over one step's cost on
    I_n x R rows, ``step_flops(I_n, R)``, and never below ``floor``.  Only
    global dims enter, so every worker of every grid runs the same steps.
    """
    share = 4.0 * math.prod(dims) * rank / len(dims)
    return [max(floor, int(INNER_STEP_BUDGET * share / step_flops(i, rank))) for i in dims]


def mu_step_flops(rows: int, r: int) -> int:
    """One MU step: 2 I R^2 + 3 I R flops in 4 numpy calls."""
    return 2 * rows * r * r + 3 * rows * r + 4 * CALL_FLOPS


def hals_sweep_flops(rows: int, r: int) -> int:
    """One HALS sweep: R column steps of 4 I R + I flops in 2 calls each."""
    return r * (4 * rows * r + rows + 2 * CALL_FLOPS)


class BppCyclingError(RuntimeError):
    def __init__(self, row: int):
        super().__init__(f"block principal pivoting cycled on row {row}")
        self.row = row


def _cho_inverse(s: np.ndarray) -> np.ndarray:
    """S^{-1} = L^{-T} L^{-1} from numpy's lower Cholesky factor L of S:
    ValueError when S is not finite, LinAlgError when it is not positive
    definite.

    numpy's matmul runs ``a.T @ a`` as one SYRK and mirrors its triangle,
    so the result is exactly symmetric.
    """
    li = np.linalg.inv(np.linalg.cholesky(np.asarray_chkfinite(s)))
    return li.T @ li


def ucp_update(inp: UpdateInputs) -> np.ndarray:
    """Unconstrained solve H = M S^{-1}, with S^{-1} from one Cholesky of S
    (``_cho_inverse``); when S is not positive definite, a warning and least
    squares' minimum-norm rows.

    Least squares runs on the live columns (positive diagonal) only, so a
    dead column stays exactly 0, not rounding noise for normalization to
    blow up into a unit column.
    """
    s, m = inp.gram, inp.mttkrp_rows
    try:
        return m @ _cho_inverse(s)
    except LinAlgError:
        warnings.warn("singular gram in unconstrained update, solving least squares")
        live = np.diag(s) > 0.0
        h = np.zeros_like(m)
        h[:, live] = np.linalg.lstsq(s[np.ix_(live, live)], m[:, live].T, rcond=None)[0].T
        return h


def mu_update(inp: UpdateInputs, steps: int = MU_INNER_STEPS) -> np.ndarray:
    """``steps`` multiplicative updates H <- H * M / (H S + MU_EPSILON),
    elementwise.

    M and S cost far more than one step, so every step reuses them (the
    accelerated MU of Gillis & Glineur 2012), and the driver's rule row
    takes ``steps`` from ``budgeted_steps``.  Each step writes into two
    buffers allocated once per call, rounding as the expression above does.
    Each step is row-local and never increases the objective; a fixed count
    needs no global reduction, so grid runs add no collective.
    """
    s, m = inp.gram, inp.mttkrp_rows
    h = inp.current
    hs, out = np.empty(m.shape), np.empty(m.shape)
    for _ in range(steps):
        np.matmul(h, s, out=hs)
        hs += MU_EPSILON
        np.multiply(h, m, out=out)
        out /= hs
        h = out
    return h


def hals_update(inp: UpdateInputs, steps: int = HALS_INNER_STEPS) -> np.ndarray:
    """``steps`` Gauss-Seidel sweeps over columns, latest values in every
    step.

    Column r gets the closed-form update max(m_r/S_rr - sum_{j!=r}
    (S_rj/S_rr) h_j, HALS_FLOOR); the positive floor keeps each Gram
    diagonal nonzero, so a collapsed column can come back (Gillis & Glineur
    2012).  M and S cost far more than a sweep, so every sweep reuses them,
    as MU's steps do, and the driver's rule row takes ``steps`` from
    ``budgeted_steps``.  Once per call, the factor is stacked transposed on
    top of (M/diag(S))^T, and each column gets one weight row (-S_rj/S_rr
    on the factor, 1 on its own M row), so a column step is one dot product
    and one floor written straight into the factor's contiguous row.  A
    column with S_rr = 0 warns once and comes back exactly as passed in.
    Every step is row-local, so grid runs add no collective.  The returned
    matrix is the raw sweep result; rescaling into unit columns happens in
    the driver's normalization step.
    """
    s, m = inp.gram, inp.mttkrp_rows
    r = s.shape[0]
    d = np.diag(s)
    dead = d <= 0.0
    for c in np.flatnonzero(dead):
        warnings.warn(f"zero gram diagonal in column {c}, skipping")
    live = np.flatnonzero(~dead)
    k = np.arange(live.size)
    z = np.concatenate([inp.current.T, (m[:, live] / d[live]).T])
    w = np.zeros((live.size, z.shape[0]))
    w[:, :r] = s[live] / -d[live, None]
    w[k, live] = 0.0
    w[k, r + k] = 1.0
    cols = list(zip(w, [z[c] for c in live]))
    buf = np.empty(z.shape[1])
    for _ in range(steps):
        for w_c, h_c in cols:
            np.dot(w_c, z, out=buf)
            np.maximum(buf, HALS_FLOOR, out=h_c)
    return z[:r].T.copy()


def _solve_passive(s: np.ndarray, m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rows x with x_P = S_PP^{-1} m_P and 0 off P, for each row's passive set P.

    One stacked LU of S with each row's non-passive rows and columns
    replaced by the identity, so an empty P solves to 0.
    """
    a = np.where(p[:, :, None] & p[:, None, :], s, np.eye(s.shape[0]))
    x = np.linalg.solve(a, np.where(p, m, 0.0)[..., None])[..., 0]
    x[~p] = 0.0
    return x


def _live_inverse(s: np.ndarray, m: np.ndarray):
    """(live, S_LL^{-1}) for the live columns L (positive diagonal), or None
    when a zero-set solve on them would not be exact.

    Some column must be live.  A dead column must have an all-zero row of S
    and no positive entry of M, so that its optimum is exactly 0.  S_LL must
    be positive definite, and its reciprocal 1-norm condition number
    1 / (||S_LL||_1 ||S_LL^{-1}||_1), read exactly off the inverse formed
    here, at least BPP_RCOND_FLOOR.  LAPACK's ``dpocon`` estimate can only
    under-estimate ||S_LL^{-1}||_1, so this test is never less strict.
    """
    live = s.diagonal() > 0.0
    if not live.any() or s[~live].any() or (m[:, ~live] > 0.0).any():
        return None
    # column-major: the layout fixes the order in which its 1-norm sums
    # each column
    sl = s[live][:, live]
    try:
        z = _cho_inverse(sl)
    except LinAlgError:
        return None
    rcond = 1.0 / (np.abs(sl).sum(axis=0).max() * np.abs(z).sum(axis=0).max())
    if not rcond >= BPP_RCOND_FLOOR:
        return None
    return live, z


def _solve_zero_sets(z: np.ndarray, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rows x with x_P = S_PP^{-1} m_P and 0 off P, from Z = S^{-1} and W = M Z.

    For a row's zero set C = ~P, Z_CC lam = w_C gives x = w - Z[:, C] lam.
    All rows share one (n, k, k) solve, k the largest |C|: row i's zero-set
    columns come first, in order, and its first k - |C_i| passive columns
    pad it, with the identity in Z_CC and 0 in w_C.  No solve when every C
    is empty.
    """
    if p.all():
        return w.copy()
    c = ~p
    size = c.sum(axis=1)
    k = size.max()
    n, r = p.shape
    # each row's zero-set columns, then its passive ones: exactly r per row
    idx = np.concatenate((c, p), axis=1).ravel().nonzero()[0].reshape(n, r)[:, :k] % r
    ar = np.arange(k)
    valid = ar < size[:, None]
    pair = valid[:, :, None] & valid[:, None, :]
    zcc = np.where(pair, z[idx[:, :, None], idx[:, None, :]], ar[:, None] == ar)
    wc = np.where(valid, w[np.arange(n)[:, None], idx], 0.0)
    lam = np.linalg.solve(zcc, wc[..., None])
    x = w - (lam.transpose(0, 2, 1) @ z.take(idx, axis=0))[:, 0]
    x[c] = 0.0
    return x


def bpp_update(inp: UpdateInputs) -> np.ndarray:
    """Exact NNLS of every factor row by block principal pivoting.

    Row i solves min_{x>=0} 0.5 x^T S x - m_i^T x (Kim & Park 2011); all
    rows pivot together.  Each round checks KKT on every unfinished row and
    exchanges its violating variables: all of them while the violation
    count improves and for BPP_BACKUP_TRIES non-improving rounds after that.
    A row that runs out of those tries exchanges only its largest violating
    index for the rest of the call (Murty's rule, which terminates on a
    positive definite S).  The unfinished rows are then re-solved together.

    Once per call ``_live_inverse`` factors the live block of S.  When that
    succeeds, rows pivot on the live columns alone (a dead column's
    y = -m >= 0 never violates, and dead columns stay exactly 0), and each
    round is ``_solve_zero_sets`` on Z = S^{-1} and W = M Z.  Otherwise
    rows pivot on every column, and each round is ``_solve_passive``, one
    stacked LU.

    Round one is an ordinary round from empty passive sets: x = 0, y = -m,
    so its check is m > 0, every row improves on R + 1 violations, and its
    passive sets become the entries where m > 0.  A round in which every
    row holds every column passive has y = 0 and takes no product x S (on
    the inverse path it needs no solve either: its rows are W's).  The
    working arrays hold the unfinished rows only, updated in place, and
    shrink when rows finish; a row still violating at its 5R+1st check
    raises BppCyclingError with the lowest such row.
    """
    s, m = inp.gram, inp.mttkrp_rows
    n, r = m.shape
    inverse = _live_inverse(s, m)
    if inverse is None:
        live, solve, a, b = np.ones(r, bool), _solve_passive, s, m
    else:
        live, z = inverse
        # M_L column-major and S_LL row-major, whatever the inputs' layouts:
        # OpenBLAS picks its GEMM kernel by layout, and the kernels round
        # differently
        s, m = s.compress(live, axis=0).compress(live, axis=1), m[:, live]
        solve, a, b = _solve_zero_sets, z, m @ z
    if not n:
        return np.zeros((n, r))
    out = np.zeros(m.shape)
    # the unfinished rows and their state; round one checks x = 0, y = -m
    # from empty passive sets, and every row improves on r + 1 violations
    rows, p = np.arange(n), np.zeros(m.shape, bool)
    lowest, backup = np.full(n, r + 1), np.full(n, BPP_BACKUP_TRIES)
    viol = m > 0.0
    for _ in range(5 * r + 1):
        count = viol.sum(axis=1)
        if not count.all():
            keep = np.flatnonzero(count)
            if not keep.size:
                break
            rows, viol, count, m, b = rows[keep], viol[keep], count[keep], m[keep], b[keep]
            p, lowest, backup = p[keep], lowest[keep], backup[keep]
        improved = count < lowest
        if improved.all():
            lowest = count
            backup[:] = BPP_BACKUP_TRIES
        else:
            retry = ~improved & (backup > 0)
            single = np.flatnonzero(~improved & ~retry)
            lowest[improved] = count[improved]
            backup[improved] = BPP_BACKUP_TRIES
            backup[retry] -= 1
            # no count improves on 0, so these rows keep the single exchange
            lowest[single] = 0
            last = viol.shape[1] - 1 - np.argmax(viol[single, ::-1], axis=1)
            viol[single] = False
            viol[single, last] = True
        p ^= viol
        x = solve(a, b, p)
        out[rows] = x
        viol = (x if p.all() else np.where(p, x, x @ s - m)) < 0.0
    else:
        raise BppCyclingError(int(rows[0]))
    full = np.zeros((n, r))
    full[:, live] = out
    return full


def default_admm_rho(gram: np.ndarray) -> float:
    """rho = ||A||_F^2 / R, read off the Gram trace."""
    rho = float(np.trace(gram)) / gram.shape[0]
    return rho if rho > 0.0 else 1.0


def admm_update(inp: UpdateInputs, state: UpdaterState) -> np.ndarray:
    """ADMM_INNER_CAP rounds of the three-step ADMM splitting.

    Xhat = (M + rho (X + U)) A solves the least squares regularized by
    rho = default_admm_rho(S), with A = (S + rho I)^{-1} formed once per
    call from one Cholesky factor, so a step is one GEMM (X + U) @ rho A.
    The eigenvalues of S lie in [0, trace(S)], so cond(S + rho I) <= R + 1
    and A is as accurate as triangular solves.  X is the nonnegative
    projection of Xhat - U; U accumulates the residual and persists in
    ``state`` across calls.  A fixed step count needs no global norm, so
    every step is row-local and grid runs add no collective.
    """
    s, m = inp.gram, inp.mttkrp_rows
    rho = default_admm_rho(s)
    a = _cho_inverse(s + rho * np.eye(s.shape[0]))
    ma, rho_a = m @ a, rho * a
    x = inp.current
    u = state.admm_dual if state.admm_dual is not None else np.zeros_like(x)
    for _ in range(ADMM_INNER_CAP):
        xhat = ma + (x + u) @ rho_a
        x = np.maximum(xhat - u, 0.0)
        u = u + x - xhat
    state.admm_dual = u
    state.last_inner_iters = ADMM_INNER_CAP
    return x


def nesterov_hyperparams(gram: np.ndarray):
    """(lam, alpha, beta) from the Gram spectrum.

    lam is the smallest proximal weight making the condition ratio
    q = (mu + lam)/(L + lam) at least NESTEROV_PROX_FLOOR; alpha = 1/(L + lam);
    beta = (1 - sqrt(q))/(1 + sqrt(q)).
    """
    evals = np.linalg.eigvalsh(gram)
    big = float(evals[-1])
    small = max(float(evals[0]), 0.0)
    if big <= 0.0:
        # zero gram: any positive proximal weight conditions the problem
        lam = 1.0
    elif small / big >= NESTEROV_PROX_FLOOR:
        lam = 0.0
    else:
        lam = (NESTEROV_PROX_FLOOR * big - small) / (1.0 - NESTEROV_PROX_FLOOR)
    q = (small + lam) / (big + lam)
    alpha = 1.0 / (big + lam)
    beta = (1.0 - np.sqrt(q)) / (1.0 + np.sqrt(q))
    return lam, alpha, beta


def nesterov_update(inp: UpdateInputs, state: UpdaterState) -> np.ndarray:
    """NESTEROV_INNER_CAP steps of accelerated projected gradient on the
    proximally regularized problem.

    Gradient at Y is Y S - M + lam (Y - X_*), with X_* the previous outer
    iterate of this factor held in ``state``.  A fixed step count needs no
    global stopping test, so every step is row-local and grid runs add no
    collective.
    """
    s, m = inp.gram, inp.mttkrp_rows
    lam, alpha, beta = nesterov_hyperparams(s)
    xstar = state.nesterov_prev if state.nesterov_prev is not None else inp.current
    x = inp.current
    y = x
    for _ in range(NESTEROV_INNER_CAP):
        grad = y @ s - m + lam * (y - xstar)
        xn = np.maximum(y - alpha * grad, 0.0)
        y = xn + beta * (xn - x)
        x = xn
    state.nesterov_prev = x.copy()
    state.last_inner_iters = NESTEROV_INNER_CAP
    return x
