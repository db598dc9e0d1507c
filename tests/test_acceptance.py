"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints an ``ACCEPTANCE <id> PASS`` line when its criterion holds
(run with ``pytest -s`` to see them).  Criterion 4 is split per algorithm,
each with its own threshold; the multiplicative-update test states the
measured error it reaches.
"""

import time

import numpy as np
import pytest

from nncp import (
    DenseTensor,
    DimTree,
    FactorSet,
    RunConfig,
    SyntheticSpec,
    UpdateInputs,
    UpdaterState,
    admm_update,
    bpp_update,
    choose_split_mode,
    generate_synthetic,
    gram,
    hadamard_grams_excluding,
    mu_update,
    naive_mttkrp,
    nesterov_update,
    nncp_parallel,
    nncp_sequential,
    normalize_columns,
    read_tensor,
    reconstruct,
    relative_error,
    write_tensor,
)
from nncp.cli import run_cli
from nncp.tensor_io import BadMagicError, PayloadMismatchError, TruncatedFileError
from test_tensor_ops import einsum_mttkrp
from test_updaters import admm_steps, nesterov_steps, relative_gap


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_c01_dimension_tree_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        order = int(rng.integers(3, 6))
        dims = tuple(int(d) for d in rng.integers(2, 7, size=order))
        rank = int(rng.integers(1, 5))
        x = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
        hs = [rng.standard_normal((d, rank)) for d in dims]
        modes = DimTree(choose_split_mode(dims)).sweep(x, hs)
        for mode in range(order):
            got = next(modes)
            want = einsum_mttkrp(x, hs, mode)
            scale = max(np.abs(want).max(), 1e-30)
            assert np.abs(got - want).max() <= 1e-12 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(f"1 PASS: dimension tree == einsum MTTKRP on 200 instances ({elapsed:.2f}s)")


def test_c02_two_partial_mttkrps_per_outer_iteration():
    rng = np.random.default_rng(102)
    for order in (2, 3, 4, 5, 6):
        dims = (3,) * order
        x = DenseTensor(dims, rng.random(3**order))
        hs = [rng.random((3, 2)) for _ in range(order)]
        tree = DimTree(choose_split_mode(dims))
        for sweep in range(1, 4):
            for _ in tree.sweep(x, hs):
                pass
            assert tree.partial_calls == 2 * sweep
    # and through the driver, at any iteration count
    x, _ = generate_synthetic(SyntheticSpec((6, 5, 4, 3), 2, seed=102))
    rep = nncp_sequential(x, RunConfig(rank=2, algorithm="bpp", max_iters=5, tol=0.0, seed=0))
    assert rep.tree_partial_calls == 2 * (len(rep.errors) - 1)
    report("2 PASS: exactly 2 partial MTTKRPs per outer iteration for N=2..6")


def test_c03_sequential_parallel_equivalence():
    t0 = time.perf_counter()
    x, _ = generate_synthetic(SyntheticSpec((8, 8, 8), 2, seed=7))
    grids = [(1, 1, 1), (2, 1, 1), (2, 2, 2), (1, 4, 2)]
    algos = ("ucp", "mu", "hals", "bpp", "admm", "nes")
    for algo in algos:
        seq = nncp_sequential(
            x, RunConfig(rank=2, algorithm=algo, max_iters=8, tol=0.0, seed=5)
        )
        for grid in grids:
            par = nncp_parallel(
                x, RunConfig(rank=2, algorithm=algo, max_iters=8, tol=0.0, seed=5, grid=grid)
            )
            assert len(par.errors) == len(seq.errors)
            diff = np.abs(np.array(par.errors) - np.array(seq.errors)).max()
            assert diff <= 1e-10, f"{algo} on {grid}: eps diff {diff:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"3 PASS: per-iteration errors match sequential within 1e-10 "
           f"for 6 algorithms x 4 grids ({elapsed:.2f}s)")


# Convergence on exact low-rank data.  _C4_DATA_SEED is the seed of the
# synthetic exact rank-5 30x30x30 tensor (uniform factors) and _C4_INIT_SEED
# the seed of the initial factors; all three algorithms share the instance.
_C4_DATA_SEED = 13
_C4_INIT_SEED = 0


def _c4_run(algo):
    x, _ = generate_synthetic(SyntheticSpec((30, 30, 30), 5, seed=_C4_DATA_SEED))
    t0 = time.perf_counter()
    rep = nncp_sequential(
        x, RunConfig(rank=5, algorithm=algo, max_iters=100, tol=0.0, seed=_C4_INIT_SEED)
    )
    return rep.errors[-1], time.perf_counter() - t0


def test_c04a_bpp_converges_on_exact_data():
    err, elapsed = _c4_run("bpp")
    assert elapsed < 120.0
    assert err <= 1e-4
    report(f"4a PASS: BPP reached {err:.2e} <= 1e-4 in 100 iterations ({elapsed:.1f}s)")


def test_c04b_admm_converges_on_exact_data():
    err, elapsed = _c4_run("admm")
    assert elapsed < 120.0
    assert err <= 1e-4
    report(f"4b PASS: ADMM reached {err:.2e} <= 1e-4 in 100 iterations ({elapsed:.1f}s)")


def test_c04c_mu_converges_on_exact_data():
    # MU repeats its multiplicative step on each MTTKRP and Gram; a 30^3
    # rank-5 tensor gets the floor, MU_INNER_STEPS steps, from
    # updaters.inner_steps.  This instance reaches 1.3e-3.  Over data seeds 10-19 x init
    # seeds 0-2 the worst of the 30 runs reaches 6.6e-3, while a single step
    # per update reaches 1e-2 on none of them (5.5e-2 median, 9.4e-2 worst).
    err, elapsed = _c4_run("mu")
    assert elapsed < 120.0
    report(f"4c {'PASS' if err <= 1e-2 else 'FAIL'}: MU reached {err:.2e} vs 1e-2 "
           f"in 100 iterations ({elapsed:.1f}s)")
    assert err <= 1e-2


def enumerate_nnls(s, f):
    r = s.shape[0]
    best, best_obj = np.zeros(r), np.inf
    for mask in range(1 << r):
        passive = np.array([(mask >> i) & 1 == 1 for i in range(r)])
        x = np.zeros(r)
        if passive.any():
            try:
                x[passive] = np.linalg.solve(s[np.ix_(passive, passive)], f[passive])
            except np.linalg.LinAlgError:
                continue
        if (x < -1e-12).any():
            continue
        y = s @ x - f
        if (y < -1e-10).any():
            continue
        obj = 0.5 * x @ s @ x - f @ x
        if obj < best_obj:
            best, best_obj = np.maximum(x, 0.0), obj
    return best


def test_c05_bpp_matches_active_set_enumeration():
    rng = np.random.default_rng(105)
    for _ in range(100):
        r = int(rng.integers(1, 9))
        a = rng.standard_normal((r + 4, r))
        s = a.T @ a
        f = rng.standard_normal(r) * 2.0
        got = bpp_update(UpdateInputs(s, f[None, :], np.zeros((1, r))))[0]
        want = enumerate_nnls(s, f)
        assert np.allclose(got, want, atol=1e-8)
        y = s @ got - f
        scale = max(1.0, np.abs(f).max())
        assert (got >= 0).all()
        assert (y >= -1e-10 * scale).all()
        assert (np.abs(got * y) <= 1e-10 * scale * scale).all()
    report("5 PASS: BPP equals the 2^R enumeration oracle on 100 instances (R<=8)")


def test_c06_mu_objective_monotone():
    rng = np.random.default_rng(106)
    for _ in range(100):
        r = int(rng.integers(1, 6))
        a = rng.random((r + 4, r))
        b = rng.random((r + 4, 4))
        s, m = a.T @ a, b.T @ a
        h0 = rng.random((4, r)) + 1e-3
        h1 = mu_update(UpdateInputs(s, m, h0))
        f0 = np.linalg.norm(a @ h0.T - b) ** 2
        f1 = np.linalg.norm(a @ h1.T - b) ** 2
        assert f1 <= f0 * (1 + 1e-12) + 1e-12
    report("6 PASS: multiplicative update never increased the objective (100 instances)")


def test_c07_error_identity_matches_reconstruction():
    rng = np.random.default_rng(107)
    for _ in range(100):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 9, size=order))
        while int(np.prod(dims)) > 4096:
            dims = dims[:-1] if len(dims) > 2 else (4, 4)
        rank = int(rng.integers(1, 4))
        x = DenseTensor(dims, rng.random(int(np.prod(dims))) + 0.01)
        hs = []
        lam = rng.random(rank) + 0.1
        for d in dims:
            h, w, _ = normalize_columns(rng.random((d, rank)) + 0.05)
            lam = lam * w
            hs.append(h)
        model = FactorSet(hs, lam)
        last = order - 1
        m_n = naive_mttkrp(x, model, last)
        hhat = model.factors[last] * lam
        grams = [gram(h) for h in model.factors]
        s_n = hadamard_grams_excluding(grams, last)
        eps = relative_error(x.norm_squared(), m_n, hhat, s_n, grams[last], lam)
        direct = np.linalg.norm(x.data - reconstruct(model).data) / np.linalg.norm(x.data)
        assert abs(eps - direct) <= 1e-8
    report("7 PASS: error identity matches the reconstruction oracle on 100 models")


def test_c08_communication_accounting():
    dims, rank, p = (8, 8, 8), 2, 8
    x, _ = generate_synthetic(SyntheticSpec(dims, rank, seed=108))

    def counters_for(iters, grid):
        cfg = RunConfig(rank=rank, algorithm="bpp", max_iters=iters, tol=0.0, seed=1, grid=grid)
        return nncp_parallel(x, cfg).counters

    for grid in [(2, 2, 2), (2, 4, 1)]:
        one, two = counters_for(1, grid), counters_for(2, grid)
        delta = lambda c, field, name: getattr(two, field).get(name, 0) - getattr(
            one, field
        ).get(name, 0)
        rs_in = delta(None, "words_in", "ReduceScatter")
        ag_out = delta(None, "words_out", "AllGather")
        ar_in = delta(None, "words_in", "AllReduce")
        # per-member, per-mode volumes: Reduce-Scatter input and All-Gather
        # output are R*I_n/P_n words; All-Reduce carries the R^2 Gram, whose
        # diagonal gives the column norms, per inner iteration plus one
        # scalar per outer iteration for the error term
        per_mode = sum(rank * dims[n] // grid[n] for n in range(3))
        assert rs_in % p == 0 and ag_out % p == 0 and ar_in % p == 0
        assert rs_in // p == per_mode
        assert ag_out // p == per_mode
        assert ar_in // p == 3 * rank**2 + 1
        assert delta(None, "calls", "ReduceScatter") == 3 * p
        assert delta(None, "calls", "AllGather") == 3 * p
        assert delta(None, "calls", "AllReduce") == (3 + 1) * p
        # envelope: moved factor words stay within 4 R sum_n I_n/P_n per member
        moved = (
            delta(None, "words_in", "ReduceScatter")
            + delta(None, "words_out", "ReduceScatter")
            + delta(None, "words_in", "AllGather")
            + delta(None, "words_out", "AllGather")
        ) / p
        assert moved <= 4 * per_mode
    report("8 PASS: collective word counts match the per-iteration cost model exactly")


def test_c09_collective_determinism(tmp_path):
    args = [
        "--dims", "8,8,8", "--synthetic-rank", "2", "--rank", "2",
        "--algo", "hals", "--iters", "10", "--seed", "3", "--tol", "0",
        "--grid", "2,2,1",
    ]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run_cli(args + ["--output-prefix", str(tmp_path / "a" / "run")]) == 0
    assert run_cli(args + ["--output-prefix", str(tmp_path / "b" / "run")]) == 0
    for n in (1, 2, 3):
        fa = (tmp_path / "a" / f"run_factors_{n}.bin").read_bytes()
        fb = (tmp_path / "b" / f"run_factors_{n}.bin").read_bytes()
        assert fa == fb
    la = (tmp_path / "a" / "run_lambda.txt").read_bytes()
    lb = (tmp_path / "b" / "run_lambda.txt").read_bytes()
    assert la == lb
    report("9 PASS: repeated parallel runs write bitwise-identical factor files")


def test_c10_tensor_file_round_trip(tmp_path):
    rng = np.random.default_rng(110)
    for k in range(50):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(1, 6, size=order))
        x = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
        path = tmp_path / f"t{k}.bin"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.dims == x.dims
        assert back.data.tobytes() == x.data.tobytes()
    # the three malformed-file classes
    good = tmp_path / "good.bin"
    write_tensor(good, DenseTensor((2, 2), np.arange(4.0)))
    raw = good.read_bytes()
    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"YYYY" + raw[4:])
    with pytest.raises(BadMagicError):
        read_tensor(bad_magic)
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(TruncatedFileError):
        read_tensor(truncated)
    mismatch = tmp_path / "mismatch.bin"
    mismatch.write_bytes(raw[:-8])  # drops exactly one float
    with pytest.raises(PayloadMismatchError):
        read_tensor(mismatch)
    report("10 PASS: 50 bit-exact round trips and 3 distinct malformed-file errors")


def test_c11_inner_iteration_caps():
    # a call runs exactly its cap of steps: 5 reference ADMM steps and 20
    # plain Nesterov steps reproduce it, 4 and 19 do not
    rng = np.random.default_rng(111)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    s = q @ np.diag(np.logspace(0, 10, 8)) @ q.T
    s = 0.5 * (s + s.T)
    m = rng.standard_normal((6, 8)) * 1e3
    x0 = np.abs(m)
    zero = np.zeros_like(x0)
    admm_state = UpdaterState()
    got = admm_update(UpdateInputs(s, m, x0), admm_state)
    assert admm_state.last_inner_iters == 5
    assert relative_gap(got, admm_steps(s, m, x0, zero, 5)[0]) <= 1e-12
    assert relative_gap(got, admm_steps(s, m, x0, zero, 4)[0]) > 1e-12
    nes_state = UpdaterState()
    got = nesterov_update(UpdateInputs(s, m, x0), nes_state)
    assert nes_state.last_inner_iters == 20
    assert np.array_equal(got, nesterov_steps(s, m, x0, x0, 20))
    assert not np.array_equal(got, nesterov_steps(s, m, x0, x0, 19))
    # and so on a spread of random instances, the dual included
    for _ in range(25):
        r = int(rng.integers(1, 7))
        a = rng.standard_normal((r + 2, r))
        s2, m2 = a.T @ a, rng.standard_normal((3, r))
        x2 = np.abs(m2)
        st1, st2 = UpdaterState(), UpdaterState()
        got = admm_update(UpdateInputs(s2, m2, x2), st1)
        want, dual = admm_steps(s2, m2, x2, np.zeros_like(x2), 5)
        assert relative_gap(got, want) <= 1e-12 and relative_gap(st1.admm_dual, dual) <= 1e-12
        got = nesterov_update(UpdateInputs(s2, m2, x2), st2)
        assert np.array_equal(got, nesterov_steps(s2, m2, x2, x2, 20))
        assert st1.last_inner_iters == 5
        assert st2.last_inner_iters == 20
    report("11 PASS: ADMM stops within 5 inner steps, Nesterov within 20")
