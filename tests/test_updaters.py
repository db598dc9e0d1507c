import collections
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import nncp.driver as driver_mod
import nncp.updaters as updaters_mod
from nncp import (
    BppCyclingError,
    DenseTensor,
    Grid,
    RunConfig,
    SyntheticSpec,
    UpdateInputs,
    UpdaterState,
    admm_update,
    bpp_update,
    generate_synthetic,
    hals_update,
    mu_update,
    nesterov_update,
    nncp_parallel,
    nncp_sequential,
    ucp_update,
)
from nncp.updaters import (
    ADMM_INNER_CAP,
    BPP_BACKUP_TRIES,
    HALS_FLOOR,
    HALS_INNER_STEPS,
    MU_EPSILON,
    MU_INNER_STEPS,
    NESTEROV_INNER_CAP,
    default_admm_rho,
    nesterov_hyperparams,
)


def row_steps(rule, dims, rank):
    """Per-mode inner step counts of ``rule``: its row of the driver's rule
    table, on global ``dims``."""
    return driver_mod._RULES[rule].steps(dims, rank)


def inputs(s, m, x0=None):
    s = np.atleast_2d(np.asarray(s, dtype=float))
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if x0 is None:
        x0 = np.zeros_like(m)
    else:
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    return UpdateInputs(s, m, x0)


def spd_instance(rng, r, rows=None, nonneg=False):
    rows = rows or r + 4
    a = rng.random((rows, r)) if nonneg else rng.standard_normal((rows, r))
    b = rng.random((rows, 3)) if nonneg else rng.standard_normal((rows, 3))
    return a.T @ a, (b.T @ a), a, b  # gram, mttkrp rows (3 x r), raw A, raw B


def nnls_objective(a, b, h):
    return float(np.linalg.norm(a @ h.T - b) ** 2)


class TestUcp:
    def test_identity_gram(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(ucp_update(inputs(np.eye(2), m)), m)

    def test_diagonal_solve(self):
        out = ucp_update(inputs([[2.0, 0.0], [0.0, 2.0]], [[2.0, 4.0]]))
        assert np.allclose(out, [[1.0, 2.0]])

    def test_zero_rhs(self):
        out = ucp_update(inputs(np.eye(3), np.zeros((4, 3))))
        assert np.array_equal(out, np.zeros((4, 3)))

    def test_singular_gram_warns_and_solves(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        m = np.array([[2.0, 2.0]])
        with pytest.warns(UserWarning, match="least squares"):
            out = ucp_update(inputs(s, m))
        assert np.allclose(out @ s, m, atol=1e-6)
        # the minimum-norm solution
        assert np.allclose(out, [[1.0, 1.0]], rtol=0, atol=1e-14)

    def test_dead_column_comes_back_exactly_zero(self):
        rng = np.random.default_rng(9)
        s = spd_spectrum(rng, 5, 1e-2)
        s[2, :] = s[:, 2] = 0.0
        m = rng.standard_normal((4, 5))
        m[:, 2] = 0.0
        with pytest.warns(UserWarning):
            out = ucp_update(inputs(s, m))
        assert (out[:, 2] == 0.0).all()
        live = [0, 1, 3, 4]
        want = np.linalg.solve(s[np.ix_(live, live)], m[:, live].T).T
        assert np.allclose(out[:, live], want, rtol=0, atol=1e-12)

    def test_matches_numpy_cholesky_inverse_bitwise(self):
        rng = np.random.default_rng(10)
        for r in (1, 5, 16, 48):
            s = spd_spectrum(rng, r, 1e-6)
            m = rng.standard_normal((20, r))
            got = ucp_update(inputs(s, m))
            # M S^{-1}, S^{-1} = L^{-T} L^{-1} from numpy's lower Cholesky factor
            li = np.linalg.inv(np.linalg.cholesky(s))
            assert np.array_equal(got, m @ (li.T @ li))
            # scipy's triangular solves, a test-only reference
            want = cho_solve(cho_factor(s), m.T).T
            tol = 1e-12 * np.linalg.cond(s) * np.abs(want).max()
            assert np.abs(got - want).max() <= tol


def test_cho_inverse_is_exactly_symmetric():
    # BPP's zero-set solves and ADMM's steps read S^{-1} as symmetric
    rng = np.random.default_rng(11)
    for r in (1, 5, 16, 48):
        s = spd_spectrum(rng, r, 1e-4)
        z = updaters_mod._cho_inverse(s)
        assert np.array_equal(z, z.T)
        assert np.abs(z @ s - np.eye(r)).max() <= 1e-9


class TestMu:
    def test_default_repeats_step_on_same_inputs(self):
        rng = np.random.default_rng(4)
        s, m, _, _ = spd_instance(rng, 4, nonneg=True)
        h = rng.random((3, 4))
        want = h
        for _ in range(MU_INNER_STEPS):
            want = want * m / (want @ s + MU_EPSILON)
        assert np.array_equal(mu_update(UpdateInputs(s, m, h)), want)

    def test_scalar_example(self):
        out = mu_update(inputs([[2.0]], [[4.0]], [[1.0]]))
        assert np.allclose(out, [[2.0]], atol=1e-12)

    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        s, _, a, _ = spd_instance(rng, 3, nonneg=True)
        h = rng.random((4, 3))
        m = h @ s  # makes A^T A X == A^T B exactly
        out = mu_update(UpdateInputs(s, m, h))
        assert np.allclose(out, h, rtol=1e-12)

    def test_zero_numerator(self):
        out = mu_update(inputs([[2.0]], [[0.0]], [[1.0]]))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_nonnegative_output(self):
        rng = np.random.default_rng(1)
        s, m, _, _ = spd_instance(rng, 4, nonneg=True)
        out = mu_update(UpdateInputs(s, m, rng.random((3, 4))))
        assert (out >= 0).all()

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_objective_nonincreasing(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 5))
        s, m, a, b = spd_instance(rng, r, nonneg=True)
        h0 = rng.random((3, r)) + 1e-3
        h1 = mu_update(UpdateInputs(s, m, h0))
        assert nnls_objective(a, b, h1) <= nnls_objective(a, b, h0) * (1 + 1e-12) + 1e-12

    def test_steps_argument_sets_the_count(self):
        rng = np.random.default_rng(5)
        s, m, _, _ = spd_instance(rng, 5, nonneg=True)
        h = rng.random((3, 5))
        kept = h.copy()
        for steps in (1, 3, 27):
            want = h
            for _ in range(steps):
                want = want * m / (want @ s + MU_EPSILON)
            assert np.array_equal(mu_update(UpdateInputs(s, m, h), steps), want)
        # the step buffers never alias the caller's factor
        assert np.array_equal(h, kept)


def hals_sweep(s, m, h):
    """One Gauss-Seidel sweep of HALS: the reference for hals_update.

    Column r gets max(h_r + (m_r - H s_r)/S_rr, HALS_FLOOR) from the latest
    values of the other columns; a column with S_rr = 0 is skipped.
    """
    h = h.copy()
    for r in range(s.shape[0]):
        d = s[r, r]
        if d <= 0.0:
            continue
        h[:, r] = np.maximum(h[:, r] + (m[:, r] - h @ s[:, r]) / d, HALS_FLOOR)
    return h


def hals_sweeps(s, m, h, sweeps=HALS_INNER_STEPS):
    for _ in range(sweeps):
        h = hals_sweep(s, m, h)
    return h


class TestHals:
    def test_rank_one_closed_form(self):
        out = hals_update(inputs([[2.0]], [[4.0], [-2.0]], [[0.0], [0.0]]))
        assert np.allclose(out, [[2.0], [0.0]])

    def test_gauss_seidel_ordering(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        m, h = np.array([[1.0, 1.0]]), np.zeros((1, 2))
        # each column step reads the latest value of the other column
        assert np.allclose(hals_sweeps(s, m, h, 1), [[1.0, 0.5]])
        assert np.allclose(hals_sweeps(s, m, h, 2), [[0.75, 0.625]])
        assert np.allclose(hals_update(UpdateInputs(s, m, h)), hals_sweeps(s, m, h))

    def test_default_repeats_sweep_on_same_inputs(self):
        rng = np.random.default_rng(4)
        for r in (1, 3, 8):
            s, m, _, _ = spd_instance(rng, r)
            h = rng.random((3, r))
            got = hals_update(UpdateInputs(s, m, h))
            assert np.allclose(got, hals_sweeps(s, m, h), rtol=0, atol=1e-14)

    def test_fixed_point_at_optimum(self):
        # interior optimum: S x = m with positive solution stays put
        rng = np.random.default_rng(2)
        s, _, a, _ = spd_instance(rng, 3, nonneg=True)
        h = rng.random((4, 3)) + 0.5
        m = h @ s
        out = hals_update(UpdateInputs(s, m, h))
        assert np.allclose(out, h, rtol=1e-10)

    def test_steps_argument_sets_the_count(self):
        rng = np.random.default_rng(6)
        s, m, _, _ = spd_instance(rng, 4)
        h = rng.random((3, 4))
        for steps in (1, 5, 10):
            got = hals_update(UpdateInputs(s, m, h), steps)
            assert np.allclose(got, hals_sweeps(s, m, h, steps), rtol=0, atol=1e-14)

    def test_zero_diagonal_skips_with_warning(self):
        s = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(UserWarning) as record:
            out = hals_update(inputs(s, [[1.0, 5.0]], [[0.0, 0.25]]))
        # one warning for the one dead column, however many sweeps run
        assert len(record) == 1
        assert np.allclose(out, [[1.0, 0.25]])
        assert out[0, 1] == 0.25  # column 2 untouched

    @pytest.mark.parametrize("dims, rank, cut", [((3, 4, 5), 10, 0.0), ((6, 6, 6), 6, 0.9)])
    def test_collapsed_columns_come_back(self, dims, rank, cut):
        # with a clamp at 0, columns of these instances collapsed for good:
        # 5 of 10 (error 0.243, BPP 0.068) and 3 of 6 (0.703, BPP 0.596)
        data = np.random.default_rng(0).random(int(np.prod(dims)))
        x = DenseTensor(dims, np.where(data < cut, 0.0, data))

        def run(algo):
            cfg = RunConfig(rank=rank, algorithm=algo, max_iters=30, tol=0.0, seed=2)
            return nncp_sequential(x, cfg)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hals = run("hals")
        assert (hals.model.lam > 0).all()
        assert hals.errors[-1] <= run("bpp").errors[-1]

    def test_repeated_sweeps_lower_the_driver_error(self, monkeypatch):
        # order 5 with R above every dim, as in perfbench's order5_r48
        x, _ = generate_synthetic(SyntheticSpec((6, 6, 6, 6, 6), 8, seed=3))
        cfg = dict(rank=8, algorithm="hals", max_iters=3, tol=0.0, seed=3)
        seq = nncp_sequential(x, RunConfig(**cfg))
        par = nncp_parallel(x, RunConfig(grid=(2, 1, 1, 1, 1), **cfg))
        again = nncp_parallel(x, RunConfig(grid=(2, 1, 1, 1, 1), **cfg))
        assert all(b <= a for a, b in zip(seq.errors, seq.errors[1:]))
        assert np.allclose(seq.errors, par.errors, rtol=0, atol=1e-10)
        assert par.errors == again.errors
        for a, b in zip(par.model.factors, again.model.factors):
            assert np.array_equal(a, b)
        monkeypatch.setattr(
            driver_mod, "hals_update",
            lambda inp, steps: hals_sweep(inp.gram, inp.mttkrp_rows, inp.current),
        )
        one = nncp_sequential(x, RunConfig(**cfg))
        assert seq.errors[-1] < one.errors[-1]

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_row_optimality_with_slack(self, seed):
        # right after its update, each column satisfies the scalar KKT
        # conditions with all other columns fixed at sweep values
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 5))
        s, m, _, _ = spd_instance(rng, r)
        x0 = rng.random((3, r))
        out = hals_update(UpdateInputs(s, m, x0))
        # replay the last sweep to check each column at its update moment
        h = hals_sweeps(s, m, x0, HALS_INNER_STEPS - 1)
        for c in range(r):
            h[:, c] = out[:, c]
            grad = h @ s[:, c] - m[:, c]
            assert (out[:, c] >= 0).all()
            assert (grad >= -1e-10 * max(1.0, np.abs(m).max())).all()
            assert (np.abs(grad * out[:, c]) <= 1e-10 * max(1.0, np.abs(m).max() ** 2)).all()


# (dims, rank) of the decompositions the driver and acceptance tests run,
# the largest first, and of perfbench's order5_r48 and toy workloads
FLOOR_SHAPES = [
    ((96, 96, 96), 16),
    ((64, 64, 64), 16),
    ((48, 48, 48), 8),
    ((48, 48, 48), 4),
    ((30, 30, 30), 5),
    ((20, 20, 20), 4),
    ((12, 10, 8), 3),
    ((16,) * 5, 48),
    ((6,) * 5, 8),
    ((4,) * 5, 6),
    ((2,) * 14, 2),
    ((6, 5, 4, 3), 2),
    ((8, 8, 8), 2),
    ((6, 6, 6), 6),
    ((3, 4, 5), 10),
    ((6, 5, 4), 2),
    ((5, 40), 4),
    ((4, 4, 4), 2),
]


class TestInnerSteps:
    """MU steps and HALS sweeps per update, sized to the MTTKRP they reuse."""

    @pytest.mark.parametrize("dims, rank", FLOOR_SHAPES)
    def test_floors_on_test_shapes(self, dims, rank):
        assert row_steps("mu", dims, rank) == [MU_INNER_STEPS] * len(dims)
        assert row_steps("hals", dims, rank) == [HALS_INNER_STEPS] * len(dims)

    def test_cube384_r16(self):
        # the MTTKRP streams 453 MB per mode; one step reads a few dozen KB
        assert row_steps("mu", (384,) * 3, 16) == [27] * 3
        assert row_steps("hals", (384,) * 3, 16) == [10] * 3

    def test_call_cost_keeps_short_rows_below_the_cube(self, monkeypatch):
        # 64^4 R8 has fewer flops per HALS sweep than the cube, but a sweep
        # of 64 x 8 rows costs mostly its 16 numpy calls
        cube, short = ((384,) * 3, 16), ((64,) * 4, 8)
        assert row_steps("hals", *short)[0] < row_steps("hals", *cube)[0]
        assert row_steps("mu", *short)[0] < row_steps("mu", *cube)[0]
        monkeypatch.setattr(updaters_mod, "CALL_FLOPS", 0)
        assert row_steps("hals", *short)[0] > row_steps("hals", *cube)[0]

    def test_each_mode_sized_by_its_own_rows(self):
        # equal MTTKRP shares, so the mode with the fewest rows steps most
        for rule in ("mu", "hals"):
            steps = row_steps(rule, (1536, 384, 96), 16)
            assert steps[0] < steps[1] < steps[2]

    def test_other_rules(self):
        for dims in ((384,) * 3, (6, 5, 4, 3)):
            n = len(dims)
            assert row_steps("admm", dims, 16) == [ADMM_INNER_CAP] * n
            assert row_steps("nes", dims, 16) == [NESTEROV_INNER_CAP] * n
            assert row_steps("ucp", dims, 16) == [] == row_steps("bpp", dims, 16)


def enumerate_nnls(s, m):
    """2^R active-set enumeration oracle for min_{x>=0} .5 x'Sx - f'x, per row f of m.

    Every passive set is solved at once, with S's non-passive rows and
    columns replaced by the identity; S must be positive definite.
    """
    r = s.shape[0]
    passive = (np.arange(1 << r)[:, None] >> np.arange(r)) & 1 == 1
    a = np.where(passive[:, :, None] & passive[:, None, :], s, np.eye(r))
    x = np.linalg.solve(a, np.where(passive[:, :, None], m.T, 0.0))  # (2^R, R, rows)
    y = np.einsum("ij,kjn->kin", s, x) - m.T
    feasible = ~(x < -1e-12).any(axis=1) & ~(y < -1e-10).any(axis=1)
    obj = np.einsum("kin,kin->kn", x, 0.5 * (y - m.T))
    obj[~feasible] = np.inf
    best = np.argmin(obj, axis=0)
    rows = np.arange(m.shape[0])
    out = np.maximum(x[best, :, rows], 0.0)
    out[~np.isfinite(obj[best, rows])] = 0.0
    return out


def bpp_rowwise(s, f, row, rules):
    """Block principal pivoting of one row: the reference for bpp_update.

    Counts the exchange rule of every pivot in ``rules``.
    """
    r = s.shape[0]
    passive = np.zeros(r, dtype=bool)
    x = np.zeros(r)
    y = -f.copy()
    lowest = r + 1
    backup = BPP_BACKUP_TRIES
    murty = False
    for _ in range(5 * r + 1):
        viol = (passive & (x < 0)) | (~passive & (y < 0))
        nviol = int(np.count_nonzero(viol))
        if nviol == 0:
            return x
        if nviol < lowest and not murty:
            rules["full"] += 1
            lowest = nviol
            backup = BPP_BACKUP_TRIES
            passive ^= viol
        elif backup > 0:
            rules["backup"] += 1
            backup -= 1
            passive ^= viol
        else:
            rules["single"] += 1
            murty = True
            last = np.max(np.nonzero(viol)[0])
            passive[last] = not passive[last]
        x = np.zeros(r)
        y = np.zeros(r)
        if passive.any():
            x[passive] = np.linalg.solve(s[np.ix_(passive, passive)], f[passive])
        if not passive.all():
            y[~passive] = s[~passive][:, passive] @ x[passive] - f[~passive]
    raise BppCyclingError(row)


def count_row_solves(monkeypatch):
    """Record (rows, path) for every round of bpp_update from now on.

    A round solved from S^{-1} has ``path`` "inverse" when it needs no
    solve (every row's zero set is empty) and "zero_sets" when it takes one
    padded solve on the rows' zero sets.  On the fallback ``path`` is "lu",
    the stacked solve.
    """
    rounds = []
    paths = []
    solve_passive = updaters_mod._solve_passive
    solve_zero_sets = updaters_mod._solve_zero_sets
    solve = np.linalg.solve

    def lu(a, b):
        paths.append("lu")
        return solve(a, b)

    def counted(s, m, p):
        paths.clear()
        x = solve_passive(s, m, p)
        assert paths == ["lu"]
        rounds.append((m.shape[0], "lu"))
        return x

    def counted_zero_sets(z, w, p):
        paths.clear()
        x = solve_zero_sets(z, w, p)
        assert len(paths) <= 1
        rounds.append((w.shape[0], "zero_sets" if paths else "inverse"))
        return x

    monkeypatch.setattr(np.linalg, "solve", lu)
    monkeypatch.setattr(updaters_mod, "_solve_passive", counted)
    monkeypatch.setattr(updaters_mod, "_solve_zero_sets", counted_zero_sets)
    return rounds


def assert_matches_rowwise(s, m):
    """bpp_update's result, checked against bpp_rowwise to 1e-12 of max(1, |x|)."""
    got = bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
    rules = collections.Counter()
    want = np.array([bpp_rowwise(s, f, i, rules) for i, f in enumerate(m)])
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    return got


def spd_spectrum(rng, r, low):
    """Q diag(logspace(0, log10(low))) Q^T for a random orthogonal Q."""
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    s = (q * np.logspace(0, np.log10(low), r)) @ q.T
    return 0.5 * (s + s.T)


class TestBpp:
    def test_interior_optimum(self):
        out = bpp_update(inputs(np.eye(2), [[1.0, 2.0]]))
        assert np.allclose(out, [[1.0, 2.0]])

    def test_sign_forced_zero(self):
        out = bpp_update(inputs([[1.0]], [[-3.0]]))
        assert np.allclose(out, [[0.0]])

    def test_mixed_active_set(self):
        out = bpp_update(inputs([[2.0, 1.0], [1.0, 2.0]], [[1.0, -1.0]]))
        assert np.allclose(out, [[0.5, 0.0]], atol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            r = int(rng.integers(1, 5))
            s, m, _, _ = spd_instance(rng, r)
            out = bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
            assert np.allclose(out, enumerate_nnls(s, m), atol=1e-8)
            for i in range(m.shape[0]):
                y = s @ out[i] - m[i]
                assert (out[i] >= 0).all()
                assert (y >= -1e-10 * max(1.0, np.abs(m).max())).all()
                assert (np.abs(out[i] * y) <= 1e-10 * max(1.0, np.abs(m).max() ** 2)).all()

    def test_cycling_raises_with_column(self, monkeypatch):
        # only row 1 is unfinished, so every round is shared; S is indefinite
        s = np.array([[1.0, -3.0], [-3.0, 1.0]])
        m = np.array([[0.0, 0.0], [1.0, 1.0]])
        rules = collections.Counter()
        with pytest.raises(BppCyclingError):
            bpp_rowwise(s, m[1], 1, rules)
        rounds = count_row_solves(monkeypatch)
        with pytest.raises(BppCyclingError) as info:
            bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
        assert info.value.row == 1
        assert len(rounds) == sum(rules.values()) == 5 * 2 + 1
        # S is indefinite, so every round falls back to the stacked LU
        assert {path for _, path in rounds} == {"lu"}

    def test_cycling_reports_first_cycling_row(self, monkeypatch):
        # row 0 converges after one exchange, row 2 at once; rows 1 and 3 cycle
        s = np.array([[1.0, -3.0], [-3.0, 1.0]])
        m = np.array([[1.0, -5.0], [1.0, 1.0], [-1.0, -1.0], [2.0, 2.0]])
        rules = collections.Counter()
        bpp_rowwise(s, m[0], 0, rules)
        bpp_rowwise(s, m[2], 2, rules)
        for i in (1, 3):
            with pytest.raises(BppCyclingError):
                bpp_rowwise(s, m[i], i, rules)
        rounds = count_row_solves(monkeypatch)
        with pytest.raises(BppCyclingError) as info:
            bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
        assert info.value.row == 1
        # 5R+1 checks per cycling row, each followed by a solve
        assert sum(n for n, _ in rounds) == sum(rules.values()) == 1 + 2 * (5 * 2 + 1)

    def test_matches_rowwise_reference(self, monkeypatch):
        # eigenvalues 1 .. 10^-decay; m is scaled so that solutions stay O(1)
        rng = np.random.default_rng(21)
        rules = collections.Counter()
        rounds = count_row_solves(monkeypatch)
        for r in (1, 2, 3, 5, 8, 13, 16, 24, 32, 48):
            for decay in (1, 3, 5):
                q, _ = np.linalg.qr(rng.standard_normal((r, r)))
                s = (q * np.logspace(0, -decay, r)) @ q.T
                s = 0.5 * (s + s.T)
                m = rng.standard_normal((int(rng.integers(1, 40)), r)) * 10.0**-decay
                got = bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
                want = np.array([bpp_rowwise(s, f, i, rules) for i, f in enumerate(m)])
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert rules["backup"] > 0
        assert rules["single"] > 0
        # every row took the reference's pivots: one row solve per pivot
        assert sum(n for n, _ in rounds) == sum(rules.values())

    def test_kkt_at_rank_48(self):
        rng = np.random.default_rng(48)
        a = rng.standard_normal((52, 48))
        m = rng.standard_normal((30, 52)) @ a
        s = a.T @ a
        out = bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
        assert 0 < np.count_nonzero(out) < out.size
        # the tolerances of the acceptance check against the oracle
        for f, x in zip(m, out):
            y = s @ x - f
            scale = max(1.0, np.abs(f).max())
            assert (x >= 0).all()
            assert (y >= -1e-10 * scale).all()
            assert (np.abs(x * y) <= 1e-10 * scale * scale).all()

    def test_shared_first_round_takes_one_cholesky(self, monkeypatch):
        # every row of M is positive, so round one's passive sets are all
        # {1..R}, and its rows are rows of M S^{-1} with no solve
        rng = np.random.default_rng(5)
        a = rng.random((60, 24))
        s = a.T @ a
        m = rng.random((40, 60)) @ a
        rounds = count_row_solves(monkeypatch)
        assert_matches_rowwise(s, m)
        assert rounds[0] == (40, "inverse")

    def test_collapsed_column_stays_exactly_zero(self, monkeypatch):
        rng = np.random.default_rng(6)
        s = spd_spectrum(rng, 8, 1e-3)
        s[3, :] = s[:, 3] = 0.0
        m = np.abs(rng.standard_normal((12, 8)))
        m[:, 3] = 0.0
        rounds = count_row_solves(monkeypatch)
        got = assert_matches_rowwise(s, m)
        assert (got[:, 3] == 0.0).all()
        assert rounds[0] == (12, "inverse")

    def test_nonpositive_rows_take_no_solve(self, monkeypatch):
        rng = np.random.default_rng(7)
        s = spd_spectrum(rng, 6, 1e-2)
        m = -np.abs(rng.standard_normal((9, 6)))
        m[4, 2] = 0.0
        rounds = count_row_solves(monkeypatch)
        assert (assert_matches_rowwise(s, m) == 0.0).all()
        assert rounds == []
        m[[2, 5]] = np.abs(m[[2, 5]])
        got = assert_matches_rowwise(s, m)
        assert (np.delete(got, [2, 5], axis=0) == 0.0).all()
        assert rounds[0] == (2, "inverse")

    def test_fallback_rounds_take_one_stacked_lu(self, monkeypatch):
        # S_LL is positive definite but below BPP_RCOND_FLOOR, so every
        # round, one whose rows share a passive set included, is one LU
        rng = np.random.default_rng(8)
        rounds = count_row_solves(monkeypatch)
        for r in (2, 5, 16, 48):
            s = spd_spectrum(rng, r, 1e-6)
            assert updaters_mod._live_inverse(s, np.ones((1, r))) is None
            for rows in (1, 7):
                m = rng.standard_normal((rows, r)) * 1e-6
                # a positive row starts with every column passive
                m[rows // 2] = np.abs(m[rows // 2])
                before = len(rounds)
                assert_matches_rowwise(s, m)
                assert len(rounds) > before
        assert {path for _, path in rounds} == {"lu"}

    def test_ill_conditioned_rows_converge_by_single_exchange(self):
        # returning to full exchange after each improvement, row 10 needs
        # 185 checks, past the 5R+1 = 161 cap; keeping the single exchange,
        # no row needs more than 107
        rng = np.random.default_rng(0)
        r = 32
        q, _ = np.linalg.qr(rng.standard_normal((r, r)))
        s = (q * np.logspace(0, -8, r)) @ q.T
        m = rng.standard_normal((20, r))
        got = assert_matches_rowwise(s, m)
        y = got @ s - m
        assert (got >= 0.0).all()
        assert y[got == 0.0].min() > 0.0
        assert np.abs(y[got > 0.0]).max() <= 1e-10 * np.abs(m).max()

    @given(
        st.integers(1, 48),
        st.floats(0.0, 3.0),
        st.integers(1, 30),
        st.floats(0.0, 0.5),
        st.floats(0.0, 1.0),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_set_solve_matches_direct_solve(self, r, decay, rows, dead, share, seed):
        # cond(S_LL) = 10^decay, whose 1-norm estimate stays within
        # BPP_RCOND_FLOOR; m is scaled so that solutions stay O(1)
        rng = np.random.default_rng(seed)
        live = rng.random(r) >= dead
        live[rng.integers(r)] = True
        s = np.zeros((r, r))
        s[np.ix_(live, live)] = spd_spectrum(rng, int(live.sum()), 10.0**-decay)
        m = rng.standard_normal((rows, r)) * 10.0**-decay
        m[:, ~live] = -np.abs(m[:, ~live])
        p = (rng.random((rows, r)) < share) & live
        found, z = updaters_mod._live_inverse(s, m)
        assert (found == live).all()
        x = updaters_mod._solve_zero_sets(z, m[:, live] @ z, p[:, live])
        for f, q, got in zip(m, p[:, live], x):
            want = np.zeros(len(got))
            if q.any():
                want[q] = np.linalg.solve(s[live][:, live][np.ix_(q, q)], f[live][q])
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        got = assert_matches_rowwise(s, m)
        assert (got[:, ~live] == 0.0).all()

    def test_unbounded_dead_column_raises(self):
        # S's zero row leaves x_2 unbounded below the objective
        with pytest.raises(np.linalg.LinAlgError):
            bpp_update(inputs(np.diag([1.0, 0.0]), [[1.0, 1.0]]))

    @pytest.mark.parametrize("rows", [0, 3])
    def test_rank_zero_returns_empty_rows(self, rows):
        got = bpp_update(UpdateInputs(np.zeros((0, 0)), np.zeros((rows, 0)), np.zeros((rows, 0))))
        assert got.shape == (rows, 0)

    @pytest.mark.parametrize("case", ["indefinite", "negative_diagonal", "rcond_1e-8"])
    def test_fallback_matches_passive_solves_bitwise(self, monkeypatch, case):
        rng = np.random.default_rng(0)
        if case == "rcond_1e-8":
            # the instance of test_ill_conditioned_rows_converge_by_single_exchange
            q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
            s = (q * np.logspace(0, -8, 32)) @ q.T
            m = rng.standard_normal((20, 32))
        else:
            # S is not positive semidefinite in its last two columns, which
            # never turn passive: their m is negative and S couples them to
            # no other column
            s = np.zeros((12, 12))
            s[:10, :10] = spd_spectrum(rng, 10, 1e-2)
            s[10:, 10:] = [[1.0, 2.0], [2.0, 1.0]] if case == "indefinite" else np.diag([-1.0, 1.0])
            m = rng.standard_normal((20, 12))
            m[:, 10:] = -1.0 - np.abs(m[:, 10:])
        rounds = count_row_solves(monkeypatch)
        got = bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
        assert rounds and {path for _, path in rounds} <= {"cholesky", "lu", "zero"}
        monkeypatch.setattr(updaters_mod, "_live_inverse", lambda s, m: None)
        assert np.array_equal(got, bpp_update(UpdateInputs(s, m, np.zeros_like(m))))

    @given(
        st.integers(1, 48),
        st.floats(0.0, 5.0),
        st.integers(1, 30),
        st.sampled_from(["shared", "distinct", "mixed"]),
        st.integers(0, 10**6),
    )
    # off by 1.33e-12 when a round whose rows shared a passive set took
    # one Cholesky of S_PP in place of the reference's LU
    @example(r=2, decay=4.75, rows=1, support="shared", seed=2)
    @settings(max_examples=40, deadline=None)
    def test_matches_rowwise_on_shared_and_distinct_supports(self, r, decay, rows, support, seed):
        rng = np.random.default_rng(seed)
        s = spd_spectrum(rng, r, 10.0**-decay)
        m = rng.standard_normal((rows, r)) * 10.0**-decay
        if support != "distinct":
            shared = np.abs(m) * (rng.random(r) < 0.7)
            keep = rng.random(rows) < 0.5 if support == "mixed" else np.ones(rows, dtype=bool)
            m[keep] = shared[keep]
        assert_matches_rowwise(s, m)

    @given(st.integers(4, 9), st.integers(2, 6), st.floats(0.0, 0.6), st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_grid_batches_match_sequential(self, lead, rank, cut, seed):
        # each worker solves its own rows, so a round's rows may share a
        # passive set on one side and not on the other
        rng = np.random.default_rng(seed)
        dims = (lead, 3, 2, 2, 2)
        data = rng.random(int(np.prod(dims)))
        x = DenseTensor(dims, np.where(data < cut, 0.0, data))
        cfg = dict(rank=rank, algorithm="bpp", max_iters=5, tol=0.0, seed=seed)
        seq = nncp_sequential(x, RunConfig(**cfg))
        par = nncp_parallel(x, RunConfig(grid=(2, 1, 1, 1, 1), **cfg))
        assert np.abs(np.array(par.errors) - np.array(seq.errors)).max() <= 1e-10

    @given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_rows_match_oracle_and_solve_independently(self, r, rows, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((r + 4, r))
        s = a.T @ a
        m = rng.standard_normal((rows, r + 4)) @ a
        out = bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
        assert np.allclose(out, enumerate_nnls(s, m), atol=1e-8)
        for i in range(rows):
            alone = bpp_update(UpdateInputs(s, m[i : i + 1], np.zeros((1, r))))[0]
            assert np.abs(alone - out[i]).max() <= 1e-12 * max(1.0, np.abs(out[i]).max())


def bpp_regime_instance(case, seed):
    """(S, M) of 16 rows at R = 48 in ``order5_r48``'s regime: columns 5, 17
    and 40 dead, as after a first update there.

    "positive": M > 0 on every live column, so round one passes every live
    column and the zero-set rounds reach k of about 10 to 14; "mixed": one
    entry in 20 of M negated, so round one already has zero sets; "ill": a
    live block of condition number 1e7, below BPP_RCOND_FLOOR, so every
    round is a stacked LU.
    """
    rng = np.random.default_rng(seed)
    r, dead = 48, [5, 17, 40]
    if case == "ill":
        s = spd_spectrum(rng, r, 1e-7)
        m = rng.standard_normal((16, r)) * 1e-4
    else:
        a = rng.random((96, r))
        s = a.T @ a
        h = rng.random((16, r)) * (rng.random((16, r)) > 0.2)
        m = (h @ a.T + 0.2 * rng.random((16, 96))) @ a
        if case == "mixed":
            m[rng.random(m.shape) < 0.05] *= -0.5
    s[dead, :] = 0.0
    s[:, dead] = 0.0
    m[:, dead] = -np.abs(m[:, dead])
    return s, m


def _reference_zero_sets(z, w, p):
    """_solve_zero_sets through argsort and take_along_axis."""
    c = ~p
    k = int(c.sum(axis=1).max())
    x = w.copy()
    if k:
        idx = np.argsort(p, axis=1, kind="stable")[:, :k]
        valid = np.take_along_axis(c, idx, axis=1)
        zcc = z[idx[:, :, None], idx[:, None, :]]
        zcc = np.where(valid[:, :, None] & valid[:, None, :], zcc, np.eye(k))
        wc = np.where(valid, np.take_along_axis(w, idx, axis=1), 0.0)
        lam = np.linalg.solve(zcc, wc[..., None])
        x -= (lam.transpose(0, 2, 1) @ z[idx])[:, 0]
    x[c] = 0.0
    return x


def bpp_reference(s, m, rounds=None):
    """bpp_update with full-size x, y and passive arrays, each updated
    through fancy-indexed copies of its unfinished rows every round: the
    bitwise reference for bpp_update, whose rounds must make the same
    LAPACK and BLAS calls on the same operands, layouts included.

    Appends (rows, path) for each round to ``rounds``, as count_row_solves
    records bpp_update's.
    """
    n, r = m.shape
    live = np.diag(s) > 0.0
    z = None
    if live.any() and not s[~live].any() and not (m[:, ~live] > 0.0).any():
        sl = s[live][:, live]
        try:
            zl = updaters_mod._cho_inverse(sl)
        except np.linalg.LinAlgError:
            zl = None
        if zl is not None:
            rcond = 1.0 / (np.abs(sl).sum(axis=0).max() * np.abs(zl).sum(axis=0).max())
            z = zl if rcond >= updaters_mod.BPP_RCOND_FLOOR else None
    if z is None:
        live = slice(None)
    else:
        s, m = s[np.ix_(live, live)], m[:, live]
        w = m @ z
    passive = np.zeros(m.shape, dtype=bool)
    x = np.zeros(m.shape)
    y = -m
    lowest = np.full(n, r + 1)
    backup = np.full(n, BPP_BACKUP_TRIES)
    for _ in range(5 * r + 1):
        viol = np.where(passive, x, y) < 0
        nviol = np.count_nonzero(viol, axis=1)
        todo = np.flatnonzero(nviol)
        if todo.size == 0:
            out = np.zeros((n, r))
            out[:, live] = x
            return out
        rows = todo if todo.size < n else slice(None)
        flip, count = viol[rows], nviol[rows]
        improved = count < lowest[rows]
        if improved.all():
            lowest[rows], backup[rows] = count, BPP_BACKUP_TRIES
        else:
            retry = ~improved & (backup[todo] > 0)
            single = np.flatnonzero(~improved & ~retry)
            lowest[todo[improved]] = count[improved]
            backup[todo[improved]] = BPP_BACKUP_TRIES
            backup[todo[retry]] -= 1
            lowest[todo[single]] = 0
            last = flip.shape[1] - 1 - np.argmax(flip[single, ::-1], axis=1)
            flip[single] = False
            flip[single, last] = True
        passive[rows] = p = passive[rows] ^ flip
        mt = m[rows]
        if rounds is not None:
            path = "lu" if z is None else "inverse" if p.all() else "zero_sets"
            rounds.append((len(p), path))
        if z is None:
            xt = updaters_mod._solve_passive(s, mt, p)
        else:
            xt = _reference_zero_sets(z, w[rows], p)
        yt = xt @ s - mt
        yt[p] = 0.0
        x[rows] = xt
        y[rows] = yt
    raise BppCyclingError(int(todo[0]))


def assert_bitwise_reference(s, m):
    """bpp_update equals bpp_reference bit for bit, or both raise
    BppCyclingError on the same row."""
    try:
        want = bpp_reference(s, m)
    except BppCyclingError as exc:
        with pytest.raises(BppCyclingError) as info:
            bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
        assert info.value.row == exc.row
        return
    got = bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBppBitwise:
    """bpp_update's results and rounds equal bpp_reference's bit for bit:
    its rounds may change the numpy calls around their LAPACK and BLAS
    work, never a bit of what they return.  Both run on the same BLAS, so
    this holds whatever kernel that BLAS picks.
    """

    # round one passes every live column of "positive" and leaves zero sets
    # in "mixed"; "ill" is below BPP_RCOND_FLOOR, so every round is an LU
    FIRST_ROUND = {"positive": "inverse", "mixed": "zero_sets", "ill": "lu"}

    @pytest.mark.parametrize("case", ["positive", "mixed", "ill"])
    def test_rounds_and_layouts_match_reference(self, monkeypatch, case):
        s, m = bpp_regime_instance(case, 0)
        want_rounds = []
        want = bpp_reference(s, m, want_rounds)
        rounds = count_row_solves(monkeypatch)
        got = bpp_update(UpdateInputs(s, m, np.zeros_like(m)))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rounds == want_rounds
        assert rounds[0] == (len(m), self.FIRST_ROUND[case])
        assert (case == "ill") == all(path == "lu" for _, path in rounds)
        # the same operands whatever M's memory layout
        for m2 in (np.asfortranarray(m), np.repeat(m, 2, axis=1)[:, ::2]):
            assert np.array_equal(got, bpp_update(UpdateInputs(s, m2, np.zeros_like(m))))

    @given(
        st.integers(1, 48),
        st.integers(0, 20),
        st.floats(0.0, 0.3),
        st.sampled_from(["positive", "mixed", "signed"]),
        st.floats(0.0, 8.0),
        st.integers(0, 10**6),
    )
    @example(r=35, rows=13, dead=0.0, sign="positive", decay=1.0, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_bitwise(self, r, rows, dead, sign, decay, seed):
        # a Gram of nonnegative factors with dead columns, or a spectrum
        # falling to 10^-decay, which past 1e4 takes the stacked LU
        rng = np.random.default_rng(seed)
        if sign == "signed":
            s = spd_spectrum(rng, r, 10.0**-decay)
            m = rng.standard_normal((rows, r)) * 10.0**-decay
        else:
            a = rng.random((2 * r + 8, r))
            s = a.T @ a
            h = rng.random((rows, r)) * (rng.random((rows, r)) > 0.2)
            m = (h @ a.T + 0.2 * rng.random((rows, a.shape[0]))) @ a
            if sign == "mixed":
                m[rng.random(m.shape) < 0.05] *= -0.5
        out = rng.random(r) < dead
        s[out, :] = s[:, out] = 0.0
        m[:, out] = -np.abs(m[:, out])
        assert_bitwise_reference(s, m)
        # a column-major and a strided M
        assert_bitwise_reference(s, np.asfortranarray(m))
        assert_bitwise_reference(s, np.repeat(m, 2, axis=1)[:, ::2])


def admm_steps(s, m, x, u, steps=ADMM_INNER_CAP):
    """``steps`` ADMM steps, each a pair of triangular solves with the
    Cholesky factor of S + rho I: the reference for admm_update.

    Returns the factor and the dual after the last step.
    """
    rho = default_admm_rho(s)
    chol = cho_factor(s + rho * np.eye(s.shape[0]))
    for _ in range(steps):
        xhat = cho_solve(chol, (m + rho * (x + u)).T).T
        x = np.maximum(xhat - u, 0.0)
        u = u + x - xhat
    return x, u


def nesterov_steps(s, m, x, xstar, steps=NESTEROV_INNER_CAP):
    """``steps`` steps of the plain accelerated projected gradient loop."""
    lam, alpha, beta = nesterov_hyperparams(s)
    y = x
    for _ in range(steps):
        grad = y @ s - m + lam * (y - xstar)
        xn = np.maximum(y - alpha * grad, 0.0)
        y = xn + beta * (xn - x)
        x = xn
    return x


def relative_gap(got, want):
    """Largest entry of |got - want| over the largest of |want| (0 when both are 0)."""
    return np.abs(got - want).max() / max(np.abs(want).max(), np.finfo(float).tiny)


class TestAdmm:
    def test_scalar_one_step(self, monkeypatch):
        # S = [[1]] gives rho = 1
        monkeypatch.setattr(updaters_mod, "ADMM_INNER_CAP", 1)
        state = UpdaterState()
        out = admm_update(inputs([[1.0]], [[-1.0]]), state)
        assert np.allclose(out, [[0.0]])
        assert np.allclose(state.admm_dual, [[0.5]])

    def test_default_rho(self):
        assert default_admm_rho(np.diag([5.0, 3.0])) == 4.0  # ||A||_F^2=8, R=2

    def test_fixed_point(self):
        # at the constrained optimum with U=0 the iterates do not move
        rng = np.random.default_rng(4)
        s, _, a, _ = spd_instance(rng, 3, nonneg=True)
        h = rng.random((4, 3)) + 0.5
        m = h @ s
        state = UpdaterState()
        out = admm_update(UpdateInputs(s, m, h), state)
        assert np.allclose(out, h, rtol=1e-6, atol=1e-9)

    def test_inner_cap_honored(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = q @ np.diag(np.logspace(0, 8, 6)) @ q.T
        s = 0.5 * (s + s.T)
        m = rng.standard_normal((5, 6)) * 100
        state = UpdaterState()
        admm_update(UpdateInputs(s, m, np.abs(m)), state)
        assert state.last_inner_iters == 5

    def test_dual_persists_across_calls(self):
        rng = np.random.default_rng(6)
        s, m, _, _ = spd_instance(rng, 2)
        state = UpdaterState()
        admm_update(UpdateInputs(s, m, np.zeros_like(m)), state)
        u1 = state.admm_dual.copy()
        admm_update(UpdateInputs(s, m, np.zeros_like(m)), state)
        assert state.admm_dual.shape == u1.shape
        assert not np.array_equal(state.admm_dual, np.zeros_like(u1))

    @pytest.mark.parametrize("case", ["zero_gram", "zero_column", "cond_1e10"])
    def test_two_calls_match_reference_steps(self, case):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((6, 8))
        x0 = rng.random((6, 8))
        if case == "zero_gram":
            s = np.zeros((8, 8))
        elif case == "zero_column":
            s = spd_spectrum(rng, 8, 1e-2)
            s[3, :] = s[:, 3] = m[:, 3] = x0[:, 3] = 0.0
        else:
            s = spd_spectrum(rng, 8, 1e-10)
        state = UpdaterState()
        x, u = x0, np.zeros_like(x0)
        for _call in range(2):
            got = admm_update(UpdateInputs(s, m, x), state)
            x, u = admm_steps(s, m, x, u)
            assert relative_gap(got, x) <= 1e-12
            assert relative_gap(state.admm_dual, u) <= 1e-12
            if case == "zero_column":
                assert (got[:, 3] == 0.0).all() and (state.admm_dual[:, 3] == 0.0).all()
            x = got

    @given(st.integers(1, 48), st.integers(1, 60), st.floats(0.0, 12.0), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_regularized_gram_is_well_conditioned(self, r, rows, decay, seed):
        # S's eigenvalues lie in [0, trace(S)], so rho = trace(S)/R puts
        # those of S + rho I in [rho, (R + 1) rho]; rank one reaches the bound
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, r)) * np.logspace(0, -decay, r)
        s = a.T @ a
        rho = default_admm_rho(s)
        assert np.linalg.cond(s + rho * np.eye(r)) <= (r + 1) * (1.0 + 1e-12)

    def test_gap_trend_statistical(self):
        # per-step monotonicity of ||X - Xhat|| does not hold on every seed;
        # it is logged, and only the aggregate downward trend is asserted
        rng = np.random.default_rng(7)
        nonmono = 0
        ratios = []
        for _ in range(100):
            s, m, _, _ = spd_instance(rng, 3, nonneg=True)
            x = rng.random(m.shape)
            u = np.zeros_like(x)
            rho = default_admm_rho(s)
            chol = cho_factor(s + rho * np.eye(3))
            gaps = []
            for _step in range(5):
                xhat = cho_solve(chol, (m + rho * (x + u)).T).T
                x = np.maximum(xhat - u, 0.0)
                u = u + x - xhat
                gaps.append(np.linalg.norm(x - xhat))
            if any(b > a * (1 + 1e-9) for a, b in zip(gaps, gaps[1:])):
                nonmono += 1
            ratios.append(gaps[-1] / max(gaps[0], 1e-30))
        print(f"admm gap trend: {nonmono}/100 runs non-monotone, "
              f"median final/first ratio {np.median(ratios):.3f}")
        assert np.median(ratios) < 1.0


class TestNesterov:
    def test_scalar_reaches_optimum_in_one_step(self):
        state = UpdaterState()
        out = nesterov_update(inputs([[1.0]], [[2.0]]), state)
        assert np.allclose(out, [[2.0]])
        assert state.last_inner_iters == NESTEROV_INNER_CAP

    def test_fixed_point(self):
        rng = np.random.default_rng(8)
        s, _, a, _ = spd_instance(rng, 3, nonneg=True)
        h = rng.random((4, 3)) + 0.5
        m = h @ s
        state = UpdaterState()
        state.nesterov_prev = h.copy()
        out = nesterov_update(UpdateInputs(s, m, h), state)
        assert np.allclose(out, h, rtol=1e-8)
        assert state.last_inner_iters == NESTEROV_INNER_CAP

    def test_nonpositive_rhs_stays_zero(self):
        state = UpdaterState()
        out = nesterov_update(inputs(np.eye(2), [[-1.0, -2.0]]), state)
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_inner_cap_honored(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = q @ np.diag(np.logspace(0, 8, 6)) @ q.T
        s = 0.5 * (s + s.T)
        m = rng.standard_normal((5, 6)) * 100
        state = UpdaterState()
        nesterov_update(UpdateInputs(s, m, np.abs(m)), state)
        assert state.last_inner_iters == 20

    def test_hyperparameters(self):
        lam, alpha, beta = nesterov_hyperparams(np.eye(3))
        assert lam == 0.0 and alpha == 1.0 and beta == 0.0
        lam, alpha, beta = nesterov_hyperparams(np.diag([1.0, 1e-12]))
        q = (1e-12 + lam) / (1.0 + lam)
        assert q >= 1e-6 - 1e-12
        assert alpha == pytest.approx(1.0 / (1.0 + lam))

    def test_hyperparameters_of_a_zero_gram(self):
        # every eigenvalue is 0, so the proximal weight alone conditions it
        assert nesterov_hyperparams(np.zeros((3, 3))) == (1.0, 1.0, 0.0)

    def test_reduces_to_projected_gradient_on_scalars(self, monkeypatch):
        # with mu == L the schedule gives lam=0, beta=0, alpha=1/L: plain PGD
        monkeypatch.setattr(updaters_mod, "NESTEROV_INNER_CAP", 7)
        rng = np.random.default_rng(10)
        for _ in range(20):
            l_val = float(rng.random() + 0.5)
            s = np.array([[l_val]])
            m = rng.standard_normal((4, 1))
            x0 = rng.random((4, 1))
            state = UpdaterState()
            state.nesterov_prev = x0.copy()
            out = nesterov_update(UpdateInputs(s, m, x0), state)
            x = x0.copy()
            for _k in range(7):
                xn = np.maximum(x - (x * l_val - m) / l_val, 0.0)
                x = xn
            assert np.array_equal(out, x)

    def test_matches_reference_loop(self):
        # the plain loop; the update must stay bit for bit equal to it,
        # momentum included, with 1e9 adding a proximal term
        rng = np.random.default_rng(15)
        for cond in (1.5, 1e2, 1e9):
            q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            s = q @ np.diag(np.logspace(0, np.log10(cond), 5)) @ q.T
            s = 0.5 * (s + s.T)
            m = rng.standard_normal((7, 5))
            x0, xstar = rng.random((7, 5)), rng.random((7, 5))
            state = UpdaterState()
            state.nesterov_prev = xstar.copy()
            out = nesterov_update(UpdateInputs(s, m, x0), state)
            lam, alpha, beta = nesterov_hyperparams(s)
            assert beta > 0.0
            x = y = x0
            for steps in range(1, 21):
                grad = y @ s - m + lam * (y - xstar)
                xn = np.maximum(y - alpha * grad, 0.0)
                y = xn + beta * (xn - x)
                x = xn
            assert np.array_equal(out, x)
            assert state.last_inner_iters == steps

    def test_determinism(self):
        rng = np.random.default_rng(11)
        s, m, _, _ = spd_instance(rng, 3)
        x0 = np.abs(m)
        outs = []
        for _ in range(2):
            state = UpdaterState()
            outs.append(nesterov_update(UpdateInputs(s, m, x0.copy()), state))
        assert np.array_equal(outs[0], outs[1])


class TestOuterAcceleration:
    """The NES outer extrapolation step, ``driver._nes_accelerate``."""

    @staticmethod
    def accelerate(monkeypatch, it, eps, cand_eps, shared, prev_shared, lam, prev_lam):
        """Run one step on the 1-worker runtime of a sequential run, whose
        model error is ``cand_eps``; returns the step's result (None when
        rejected), the grams and the candidate."""
        seen = {}

        def model_error(rt, ctx, shared, lam, alpha):
            seen.update(shared=shared, lam=lam)
            return cand_eps, [h.T @ h for h in shared]

        monkeypatch.setattr(driver_mod, "_model_error", model_error)
        x = DenseTensor(tuple(len(h) for h in shared))
        grams = [h.T @ h for h in shared]

        def step(worker):
            rt = driver_mod._WorkerRuntime(worker, x)
            rt.report.begin_row()
            return driver_mod._nes_accelerate(
                rt, None, it, eps, 1.0, grams, shared, lam, prev_shared, prev_lam
            )

        (out,) = Grid((1,) * x.order).run(step)
        return out, grams, seen

    def test_stationary_candidate_rejected(self, monkeypatch):
        # no change since the last iterate: the candidate is the current
        # model, whose error is not strictly lower
        owned = [np.ones((2, 1)), np.ones((3, 1))]
        lam = np.ones(1)
        out, grams, _ = self.accelerate(
            monkeypatch, 1, 0.5, 0.5, owned, [h.copy() for h in owned], lam, lam.copy()
        )
        assert out is None
        assert all(np.array_equal(g, h.T @ h) for g, h in zip(grams, owned))

    def test_overshoot_rejected(self, monkeypatch):
        owned = [np.array([[2.0]]), np.array([[1.0]])]
        prev = [np.array([[1.0]]), np.array([[1.0]])]
        lam = np.ones(1)
        out, _, _ = self.accelerate(
            monkeypatch, 1, 0.5, 0.7, owned, prev, lam, lam.copy()
        )
        assert out is None

    def test_step_formula(self, monkeypatch):
        # s_i = i^(1/N): 2.0 at N=3, i=8, so the candidate is 3*cur - 2*prev
        owned = [np.full((2, 1), 2.0), np.full((3, 1), 3.0), np.full((2, 1), 1.0)]
        prev = [np.full((2, 1), 1.0), np.full((3, 1), 1.0), np.full((2, 1), 1.0)]
        _, _, seen = self.accelerate(
            monkeypatch, 8, 0.5, 0.7, owned, prev, np.full(1, 2.0), np.full(1, 1.0)
        )
        for cand, want in zip(seen["shared"], (4.0, 7.0, 1.0)):
            assert np.array_equal(cand, np.full(cand.shape, want))
        assert np.array_equal(seen["lam"], np.full(1, 4.0))

    def test_candidate_clamped_nonnegative(self, monkeypatch):
        owned = [np.full((1, 1), 1.0), np.full((1, 1), 1.0)]
        prev = [np.full((1, 1), 5.0), np.full((1, 1), 1.0)]
        _, _, seen = self.accelerate(
            monkeypatch, 1, 0.5, 0.7, owned, prev, np.ones(1), np.full(1, 3.0)
        )
        assert np.array_equal(seen["shared"][0], np.zeros((1, 1)))
        assert np.array_equal(seen["lam"], np.zeros(1))

    def test_accepted_candidate_renormalized(self, monkeypatch):
        rng = np.random.default_rng(14)
        owned = [rng.random((d, 3)) + 0.5 for d in (4, 3, 5)]
        prev = [rng.random((d, 3)) for d in (4, 3, 5)]
        (s, l, e), grams, seen = self.accelerate(
            monkeypatch, 2, 0.5, 0.1, owned, prev, np.ones(3), np.full(3, 0.5)
        )
        assert e == 0.1  # the accepted candidate's error
        norms = [np.linalg.norm(c, axis=0) for c in seen["shared"]]
        for n in range(3):
            assert np.allclose(np.linalg.norm(s[n], axis=0), 1.0, rtol=0, atol=1e-14)
            assert np.allclose(s[n] * norms[n], seen["shared"][n], rtol=1e-14, atol=0)
            # rescaled from the candidate's Grams, not recomputed
            assert np.allclose(grams[n], s[n].T @ s[n], rtol=0, atol=1e-14)
            assert np.allclose(np.diag(grams[n]), 1.0, rtol=0, atol=1e-14)
        assert np.allclose(l, seen["lam"] * np.prod(norms, axis=0), rtol=1e-14, atol=0)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["ucp", "mu", "hals", "bpp"])
    def test_stateless_updaters_bitwise(self, name):
        fn = {"ucp": ucp_update, "mu": mu_update, "hals": hals_update, "bpp": bpp_update}[name]
        rng = np.random.default_rng(12)
        s, m, _, _ = spd_instance(rng, 3, nonneg=True)
        x0 = rng.random(m.shape)
        a = fn(UpdateInputs(s.copy(), m.copy(), x0.copy()))
        b = fn(UpdateInputs(s.copy(), m.copy(), x0.copy()))
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["ucp", "admm"])
@pytest.mark.parametrize("entry", [(1, 1), (1, 2)])
def test_non_finite_gram_raises(name, entry):
    s = np.eye(3)
    s[entry] = s[entry[::-1]] = np.nan
    inp = inputs(s, np.ones((2, 3)))
    with pytest.raises(ValueError, match="infs or NaNs"):
        ucp_update(inp) if name == "ucp" else admm_update(inp, UpdaterState())


@pytest.mark.parametrize(
    "gram, rows, current, message",
    [
        ((2, 3), (4, 3), (4, 3), "gram must be square"),
        ((3, 3), (4, 2), (4, 3), "rank mismatch between gram and factor rows"),
        ((3, 3), (4, 3), (4, 2), "rank mismatch between gram and factor rows"),
        ((3, 3), (4, 3), (5, 3), "mttkrp_rows and current must have equal row counts"),
    ],
)
def test_update_inputs_reject_mismatched_shapes(gram, rows, current, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        UpdateInputs(np.zeros(gram), np.zeros(rows), np.zeros(current))


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="rank 12 on a 6x6x6 rank-2 tensor leaves 10 of 12 columns live with "
    "a singular live block of S (smallest eigenvalue -2.1e-16), so _live_inverse "
    "returns None and the stacked LU pivots on singular systems whose outcome "
    "depends on rounding: the sequential run cycles on row 0 at iteration 5, "
    "mode 2, while the (2,1,1) grid completes",
)
def test_bpp_with_rank_above_the_data_completes_like_the_grid():
    x, _ = generate_synthetic(SyntheticSpec((6, 6, 6), 2, seed=1))
    cfg = dict(rank=12, algorithm="bpp", max_iters=8, tol=0.0, seed=1)
    par = nncp_parallel(x, RunConfig(grid=(2, 1, 1), **cfg))
    assert len(par.errors) == 9
    seq = nncp_sequential(x, RunConfig(**cfg))
    assert np.abs(np.array(seq.errors) - np.array(par.errors)).max() <= 1e-10


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="rank 4 above the order-2 tensor's dim 3 makes mode 1's S, the Gram of "
    "the 3x4 mode-2 factor, singular, so _live_inverse returns None and the stacked "
    "LU pivots on singular systems whose outcome depends on rounding: the sequential "
    "run raises LinAlgError('Singular matrix') at iteration 1, mode 1, while the "
    "(3,1) grid completes at error 1.16e-3",
)
@pytest.mark.filterwarnings("ignore:tensor has negative entries")
def test_order_two_bpp_with_rank_above_a_dim_completes_like_the_grid():
    x, _ = generate_synthetic(SyntheticSpec((8, 3), 4, seed=540))
    # Gaussian noise of norm 7.4e-6 ||X||, as the near-fit tests add it
    noise = np.random.default_rng(69).standard_normal(x.size)
    noise *= 7.4e-6 * np.linalg.norm(x.data) / np.linalg.norm(noise)
    x = DenseTensor(x.dims, x.data + noise)
    cfg = dict(rank=4, algorithm="bpp", max_iters=6, tol=0.0, seed=529)
    par = nncp_parallel(x, RunConfig(grid=(3, 1), **cfg))
    assert len(par.errors) == 7
    seq = nncp_sequential(x, RunConfig(**cfg))
    assert np.abs(np.array(seq.errors) - np.array(par.errors)).max() <= 1e-10


@pytest.mark.parametrize("name", ["mu", "hals", "bpp", "admm", "nes"])
def test_constrained_updaters_stay_nonnegative(name):
    rng = np.random.default_rng(13)
    for _ in range(20):
        r = int(rng.integers(1, 5))
        s, m, _, _ = spd_instance(rng, r)  # mixed-sign rhs
        x0 = rng.random((3, r))
        if name == "mu":
            # multiplicative updates live on the nonnegative problem only:
            # the gram of nonnegative factors is elementwise nonnegative
            s_pos, m_pos, _, _ = spd_instance(rng, r, nonneg=True)
            out = mu_update(UpdateInputs(s_pos, m_pos, x0))
        elif name == "hals":
            out = hals_update(UpdateInputs(s, m, x0))
        elif name == "bpp":
            out = bpp_update(UpdateInputs(s, m, x0))
        elif name == "admm":
            out = admm_update(UpdateInputs(s, m, x0), UpdaterState())
        else:
            out = nesterov_update(UpdateInputs(s, m, x0), UpdaterState())
        assert (out >= 0).all()


def test_runs_without_scipy_and_imports_without_openssl():
    # a fresh interpreter, since this one has scipy loaded as a reference:
    # importing nncp loads neither, and no rule or fallback loads scipy
    script = """
import sys
import warnings
import numpy as np
import nncp
from nncp import updaters

loaded = lambda names: sorted(k for k in sys.modules if k.split(".")[0] in names)
print(loaded(("scipy", "_hashlib")))
x, _ = nncp.generate_synthetic(nncp.SyntheticSpec((6, 5, 4), 2, seed=1))
for algo in nncp.ALGORITHMS:
    nncp.nncp_sequential(x, nncp.RunConfig(rank=2, algorithm=algo, max_iters=1))
# a singular S sends UCP to least squares
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    nncp.ucp_update(nncp.UpdateInputs(np.ones((2, 2)), np.ones((1, 2)), np.zeros((1, 2))))
assert any("least squares" in str(w.message) for w in caught)
# cond(S) = 1e6 is above 1 / BPP_RCOND_FLOOR, so BPP takes the stacked LU
s, m = np.diag([1.0, 1e-6]), np.array([[1.0, 1e-6]])
assert updaters._live_inverse(s, m) is None
assert np.allclose(nncp.bpp_update(nncp.UpdateInputs(s, m, np.zeros((1, 2)))), 1.0)
# numpy.random imports secrets, and so hashlib, on first use
print(loaded(("scipy",)))
"""
    env = dict(os.environ)
    src = str(Path(driver_mod.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
