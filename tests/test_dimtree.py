import math
import tracemalloc

import numpy as np
import pytest

import nncp.dimtree as dimtree_mod
from nncp import (
    DenseTensor,
    DimTree,
    RunConfig,
    choose_split_mode,
    khatri_rao,
    multi_ttv,
    nncp_parallel,
    partial_mttkrp,
)
from test_tensor_ops import einsum_mttkrp


class TestChooseSplitMode:
    def test_cube(self):
        assert choose_split_mode([128, 128, 128]) == 2

    def test_tall_first_mode(self):
        assert choose_split_mode([1446680, 69, 25]) == 1

    def test_even_order_cube(self):
        assert choose_split_mode([384, 384, 384, 384]) == 2

    def test_two_modes(self):
        assert choose_split_mode([5, 3]) == 1
        assert choose_split_mode([3, 5]) == 1  # capped at N-1

    def test_cap_when_never_dominant(self):
        assert choose_split_mode([2, 2, 100]) == 2

    def test_one_mode_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 modes$"):
            choose_split_mode([5])


class TestPlan:
    def test_buffer_sizes(self):
        dims = (4, 5, 3, 2)
        split = choose_split_mode(dims)
        assert split == 2
        x = DenseTensor(dims)
        assert partial_mttkrp(x, np.ones((6, 3)), "left", split).shape == (4, 5, 3)
        assert partial_mttkrp(x, np.ones((20, 3)), "right", split).shape == (3, 2, 3)


class TestPartialMttkrp:
    def test_zero_tensor(self):
        x = DenseTensor((2, 2, 2))
        t = partial_mttkrp(x, np.ones((2, 1)), "left", choose_split_mode(x.dims))
        assert np.array_equal(t, np.zeros((2, 2, 1)))

    def test_left_row_sums(self):
        # the split of these dims lands at S=1
        x = DenseTensor((8, 2, 2), np.arange(1.0, 33.0))
        t = partial_mttkrp(x, np.ones((4, 1)), "left", choose_split_mode(x.dims))
        assert np.array_equal(t[:, 0], x.unfold_leading(1).sum(axis=1))

    def test_hand_example_2x2x2(self):
        # split=1 view of the 2x2x2 tensor: left result = row sums
        x = DenseTensor((2, 2, 2), np.arange(1.0, 9.0))
        t = partial_mttkrp(x, np.ones((4, 1)), "left", 1)
        assert np.array_equal(t, np.array([[16.0], [20.0]]))

    def test_rank_one_ones_contraction(self):
        dims = (3, 2, 2, 2)
        x = DenseTensor(dims, np.ones(24))
        split = choose_split_mode(dims)
        left = partial_mttkrp(x, np.ones((4, 2)), "left", split)
        assert left.shape == (3, 2, 2)
        assert np.allclose(left, 4.0)
        right = partial_mttkrp(x, np.ones((6, 2)), "right", split)
        assert right.shape == (2, 2, 2)
        assert np.allclose(right, 6.0)

    def test_shape_mismatch(self):
        x = DenseTensor((2, 2, 2))
        split = choose_split_mode(x.dims)
        with pytest.raises(ValueError):
            partial_mttkrp(x, np.ones((3, 1)), "left", split)
        with pytest.raises(ValueError):
            partial_mttkrp(x, np.ones((3, 1)), "right", split)

    def test_unknown_side_rejected(self):
        x = DenseTensor((2, 2, 2))
        with pytest.raises(ValueError, match="^side must be 'left' or 'right', got 'middle'$"):
            partial_mttkrp(x, np.ones((4, 1)), "middle", 1)

    def test_both_sides_match_einsum_mttkrp(self):
        # with one retained mode, the temporary is that mode's MTTKRP
        rng = np.random.default_rng(11)
        dims, r = (5, 3, 4, 6), 3
        x = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
        hs = [rng.standard_normal((d, r)) for d in dims]
        left = partial_mttkrp(x, khatri_rao(hs[1:]), "left", 1)
        right = partial_mttkrp(x, khatri_rao(hs[:3]), "right", 3)
        for temp, mode in ((left, 0), (right, 3)):
            want = einsum_mttkrp(x, hs, mode)
            assert np.allclose(temp, want, rtol=0, atol=1e-12)


def unfold1(temp, r):
    """Leading-mode unfolding of rank block r of a (retained..., R) array."""
    return temp[..., r].reshape(temp.shape[0], -1, order="F")


class TestMultiTtv:
    def test_zeros(self):
        t = np.zeros((2, 3, 2))
        out = multi_ttv(t, np.ones((3, 2)), "trailing")
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_hand_matvec(self):
        # single rank block [[1,2],[3,4]] against column [1,1]
        t = np.array([1.0, 3.0, 2.0, 4.0]).reshape((2, 2, 1), order="F")
        out = multi_ttv(t, np.ones((2, 1)), "trailing")
        assert np.array_equal(out, np.array([[3.0], [7.0]]))

    def test_ones_give_row_sums(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(2 * 3 * 2)
        t = data.reshape((2, 3, 2), order="F")
        out = multi_ttv(t, np.ones((3, 2)), "trailing")
        for r in range(2):
            assert np.allclose(out[:, r], unfold1(t, r).sum(axis=1))

    def test_leading_contraction(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal(24).reshape((3, 2, 2, 2), order="F")
        coeff = rng.standard_normal((3, 2))
        out = multi_ttv(t, coeff, "leading")
        assert out.shape == (2, 2, 2)
        assert out.flags.f_contiguous
        for r in range(2):
            expect = unfold1(t, r).T @ coeff[:, r]
            assert np.allclose(out[..., r].ravel(order="F"), expect)

    def test_shape_errors(self):
        t = np.zeros((2, 3, 1))
        with pytest.raises(ValueError):
            multi_ttv(t, np.ones((4, 1)), "trailing")
        with pytest.raises(ValueError):
            multi_ttv(t, np.ones((4, 1)), "leading")
        with pytest.raises(ValueError):
            multi_ttv(t, np.ones((3, 2)), "trailing")  # rank mismatch
        with pytest.raises(ValueError):
            multi_ttv(t, np.ones((3, 1)), "middle")
        single = np.zeros((4, 1))
        with pytest.raises(ValueError):
            multi_ttv(single, np.ones((4, 1)), "trailing")


class TestTemporaryLayout:
    def test_left_result_layout(self):
        rng = np.random.default_rng(2)
        dims, r = (3, 2, 4, 5), 3
        x = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
        krp = rng.standard_normal((5, r))
        t = partial_mttkrp(x, krp, "left", 3)
        assert t.shape == dims[:3] + (r,)
        assert t.flags.f_contiguous
        direct = x.unfold_leading(3) @ krp
        for k in range(r):
            assert np.allclose(t[..., k].ravel(order="F"), direct[:, k], rtol=0, atol=1e-12)
            assert t[..., k].flags.f_contiguous

    def test_right_result_layout(self):
        rng = np.random.default_rng(8)
        dims, r = (3, 2, 4, 5), 3
        x = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
        krp = rng.standard_normal((3, r))
        t = partial_mttkrp(x, krp, "right", 1)
        assert t.shape == dims[1:] + (r,)
        assert t.flags.f_contiguous
        direct = x.unfold_leading(1).T @ krp
        for k in range(r):
            assert np.allclose(t[..., k].ravel(order="F"), direct[:, k], rtol=0, atol=1e-12)
            assert t[..., k].flags.f_contiguous


class TestWorkspace:
    """Both partial MTTKRPs write into one workspace the tree owns; nothing
    the tree yields is a view of it."""

    @pytest.mark.parametrize("side, split", [("left", 2), ("right", 1), ("right", 2)])
    def test_out_is_the_same_gemm(self, side, split):
        rng = np.random.default_rng(30 + split)
        dims, r = (3, 4, 5), 2
        x = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
        contracted = math.prod(dims[split:] if side == "left" else dims[:split])
        krp = rng.standard_normal((contracted, r))
        work = np.full(2 * math.prod(dims) * r, np.nan)
        got = partial_mttkrp(x, krp, side, split, out=work)
        want = partial_mttkrp(x, krp, side, split)
        assert got.shape == want.shape and got.flags.f_contiguous
        assert np.array_equal(got, want)
        # the result is the head of the workspace
        assert np.shares_memory(got, work[: got.size])
        assert np.isnan(work[got.size :]).all()

    def test_out_too_small_rejected(self):
        x = DenseTensor((3, 4, 5), np.ones(60))
        with pytest.raises(ValueError):
            partial_mttkrp(x, np.ones((5, 2)), "left", 2, out=np.empty(23))

    @pytest.mark.parametrize(
        "dims, r, split",
        [
            ((5, 3), 3, 1),  # order 2: each side's root block is a mode's result
            ((5, 3), 1, 1),  # R = 1: an F-ordered block is C-ordered too
            ((9, 2, 2), 2, None),  # S = 1: the left root block is mode 1's result
            ((9, 2, 2), 1, None),
            ((2, 2, 20), 1, None),  # the right root block is mode 3's result
        ],
    )
    def test_yields_are_fresh(self, dims, r, split):
        rng = np.random.default_rng(len(dims) + r)
        x = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
        hs = [rng.standard_normal((d, r)) for d in dims]
        tree = DimTree(choose_split_mode(dims) if split is None else split)
        first = list(tree.sweep(x, hs))
        work = tree.workspace
        second = list(tree.sweep(x, hs))
        # one workspace for every sweep, sized for the larger partial result
        assert tree.workspace is work
        s = tree.split
        c = s - 1 if s > 1 and math.prod(dims[:s]) > math.prod(dims[s:]) else s
        assert work.size == r * max(math.prod(dims[:s]), math.prod(dims[c:]))
        for mode, (a, b) in enumerate(zip(first, second)):
            assert not np.shares_memory(a, work)
            assert not np.shares_memory(b, work)
            assert a.flags.c_contiguous
            # a later sweep leaves earlier results alone
            assert np.array_equal(a, b)
            assert np.allclose(a, einsum_mttkrp(x, hs, mode), rtol=0, atol=1e-12)

    def test_cut_short_sweep_reuses_the_workspace(self):
        rng = np.random.default_rng(31)
        dims, r = (4, 3, 5, 2), 2
        x = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
        hs = [rng.standard_normal((d, r)) for d in dims]
        tree = DimTree(choose_split_mode(dims))
        full = list(tree.sweep(x, hs))
        work = tree.workspace
        got = next(tree.sweep(x, hs))
        assert tree.workspace is work and not np.shares_memory(got, work)
        assert np.array_equal(got, full[0])


def spy_matmul(monkeypatch):
    """Record the operand shapes of every ``np.matmul`` call."""
    shapes = []
    real = np.matmul

    def spied(a, b, **kwargs):
        shapes.append((a.shape, b.shape))
        return real(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spied)
    return shapes


class TestRightBlockStack:
    """The right partial MTTKRP runs column blocks of width nb, the largest
    power of two with nb * R * K <= 100^3, as one stacked matmul, and the
    rest as one plain GEMM; fewer than 2 blocks or nb < 16 leave it all to
    the plain GEMM.  Each case retains the last mode only, so the result is
    that mode's MTTKRP."""

    # dims, R, (blocks, width, tail); K = prod(dims[:-1])
    CASES = [
        ((100, 10, 130), 20, (4, 32, 2)),  # blocks plus a tail
        ((10, 10, 2048), 10, (4, 512, 0)),  # blocks divide the columns
        ((25, 25, 40), 100, (2, 16, 8)),  # the narrowest block
        ((100, 10, 50), 20, (0, 32, 50)),  # a single block: all tail
        ((40, 100, 40), 20, (0, 8, 40)),  # K * R over the bound: all tail
    ]

    @pytest.mark.parametrize("dims, r, plan", CASES)
    @pytest.mark.parametrize("with_out", [False, True])
    def test_matches_einsum_mttkrp(self, monkeypatch, dims, r, plan, with_out):
        # nonnegative, as nncp's inputs are: no entry cancels to near zero
        rng = np.random.default_rng(sum(dims) + r)
        x = DenseTensor(dims, rng.random(math.prod(dims)))
        hs = [rng.random((d, r)) for d in dims]
        krp = khatri_rao(hs[:-1])
        split, cols = len(dims) - 1, dims[-1]
        work = np.full(r * cols + 7, np.nan) if with_out else None
        shapes = spy_matmul(monkeypatch)
        got = partial_mttkrp(x, krp, "right", split, out=work)
        monkeypatch.undo()
        blocks, width, tail = plan
        k = krp.shape[0]
        stack = [((r, k), (blocks, k, width))] if blocks else []
        assert shapes == stack + [((r, k), (k, tail))]
        want = einsum_mttkrp(x, hs, split)
        assert got.shape == (cols, r) and got.flags.f_contiguous
        assert np.allclose(got, want, rtol=1e-13, atol=0)
        if with_out:
            assert np.shares_memory(got, work[: r * cols])
            assert np.isnan(work[r * cols :]).all()

    def test_stack_copies_nothing(self):
        # a reshape that cannot be a view copies silently; here it would
        # copy the whole matricization
        rng = np.random.default_rng(40)
        dims, r = (100, 10, 1300), 20  # K = 1000: 40 blocks of 32, tail 20
        x = DenseTensor(dims, rng.random(math.prod(dims)))
        krp = khatri_rao([rng.random((d, r)) for d in dims[:-1]])
        work = np.empty(r * dims[-1])
        tracemalloc.start()
        try:
            partial_mttkrp(x, krp, "right", 2, out=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * x.data.nbytes

    def test_grid_run_with_a_tail_on_every_worker(self, monkeypatch):
        # sequential (200, 10, 130) and each (100, 10, 130) block of the
        # (2,1,1) grid cut the right side at c = 1: K = 200 gives 10 blocks
        # of 128 and K = 100 gives 5 blocks of 256, each with a tail of 20
        rng = np.random.default_rng(41)
        dims, r = (200, 10, 130), 20
        x = DenseTensor(dims, rng.random(math.prod(dims)))
        cfg = dict(rank=r, algorithm="hals", max_iters=3, tol=0.0, seed=2)
        shapes = spy_matmul(monkeypatch)
        seq = nncp_parallel(x, RunConfig(**cfg))
        seq_stacks = {b for _, b in shapes if len(b) == 3}
        shapes.clear()
        par = nncp_parallel(x, RunConfig(grid=(2, 1, 1), **cfg))
        par_stacks = {b for _, b in shapes if len(b) == 3}
        monkeypatch.undo()
        assert seq_stacks == {(10, 200, 128)} and par_stacks == {(5, 100, 256)}
        again = nncp_parallel(x, RunConfig(grid=(2, 1, 1), **cfg))
        assert np.abs(np.array(seq.errors) - np.array(par.errors)).max() <= 1e-10
        assert par.errors == again.errors
        for a, b in zip(par.model.factors, again.model.factors):
            assert np.array_equal(a, b)


def tree_all_modes(x, hs):
    tree = DimTree(choose_split_mode(x.dims))
    return tree, list(tree.sweep(x, hs))


class TestDimTreeMttkrp:
    def test_three_way_matches_hand_example(self):
        x = DenseTensor((2, 2, 2), np.arange(1.0, 9.0))
        hs = [np.zeros((2, 2)), np.eye(2), np.ones((2, 2))]
        _, results = tree_all_modes(x, hs)
        assert np.allclose(results[0], np.array([[6.0, 10.0], [8.0, 12.0]]))

    def test_rank_one_identity(self):
        rng = np.random.default_rng(3)
        hs = [rng.random((d, 1)) + 0.1 for d in (3, 4, 2)]
        from nncp import FactorSet, reconstruct

        x = reconstruct(FactorSet(hs))
        _, results = tree_all_modes(x, hs)
        for mode in range(3):
            scale = np.prod(
                [float(hs[m][:, 0] @ hs[m][:, 0]) for m in range(3) if m != mode]
            )
            assert np.allclose(results[mode], hs[mode] * scale, rtol=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_oracle_equivalence_all_modes(self, order):
        rng = np.random.default_rng(order)
        for _ in range(8):
            dims = tuple(int(d) for d in rng.integers(2, 7, size=order))
            r = int(rng.integers(1, 5))
            x = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
            hs = [rng.standard_normal((d, r)) for d in dims]
            _, results = tree_all_modes(x, hs)
            for mode in range(order):
                oracle = einsum_mttkrp(x, hs, mode)
                scale = max(np.abs(oracle).max(), 1e-30)
                assert np.abs(results[mode] - oracle).max() <= 1e-12 * scale

    @pytest.mark.parametrize("split", [1, 2, 3, 4])
    def test_every_split_of_order_five(self, split):
        # split 1 and 4 make the root itself a mode's result on one side
        rng = np.random.default_rng(20 + split)
        dims, r = (3, 4, 2, 5, 3), 3
        x = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
        hs = [rng.standard_normal((d, r)) for d in dims]
        tree = DimTree(split)
        for mode, got in enumerate(tree.sweep(x, hs)):
            assert np.allclose(got, einsum_mttkrp(x, hs, mode), rtol=0, atol=1e-12)
        assert mode == 4
        assert tree.partial_calls == 2

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_two_partials_per_iteration(self, order):
        rng = np.random.default_rng(10 + order)
        dims = (3,) * order
        x = DenseTensor(dims, rng.standard_normal(3**order))
        hs = [rng.standard_normal((3, 2)) for _ in range(order)]
        tree = DimTree(choose_split_mode(dims))
        for sweep in range(1, 4):
            assert len(list(tree.sweep(x, hs))) == order
            assert tree.partial_calls == 2 * sweep

    def test_snapshot_semantics_with_mutating_factors(self):
        # alternating updates change factors between modes; the tree must
        # combine the snapshot in its temporaries with the latest factors
        rng = np.random.default_rng(4)
        dims = (4, 3, 3, 2)
        x = DenseTensor(dims, rng.standard_normal(72))
        hs = [rng.standard_normal((d, 2)) for d in dims]
        modes = DimTree(choose_split_mode(dims)).sweep(x, hs)
        for mode in range(4):
            got = next(modes)
            want = einsum_mttkrp(x, hs, mode)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            hs[mode] = rng.standard_normal(hs[mode].shape)  # the "update"

    @staticmethod
    def count_ttvs(monkeypatch):
        calls = []
        real = dimtree_mod.multi_ttv

        def counted(temp, coeff, side):
            calls.append(side)
            return real(temp, coeff, side)

        monkeypatch.setattr(dimtree_mod, "multi_ttv", counted)
        return calls

    def test_flop_accounting(self, monkeypatch):
        ttvs = self.count_ttvs(monkeypatch)
        rng = np.random.default_rng(5)
        dims = (3, 3, 3)
        x = DenseTensor(dims, rng.standard_normal(27))
        hs = [rng.standard_normal((3, 2)) for _ in range(3)]
        tree = DimTree(choose_split_mode(dims))
        assert len(list(tree.sweep(x, hs))) == 3
        # a sweep's work is counted in calls: two partial MTTKRPs, and with
        # split=2 two multi-TTVs on T{1:2}; the right partial cuts at 1, so
        # one leading multi-TTV drops mode 2 from T{2:3} and leaves mode 3
        assert tree.partial_calls == 2
        assert len(ttvs) == 3

    @pytest.mark.parametrize(
        "dims", [(3, 3, 3), (4, 4, 4, 4, 4), (5, 4, 3, 2), (6, 6, 6, 6), (9, 2, 2), (2, 2, 20)]
    )
    def test_right_partial_retains_the_larger_block(self, monkeypatch, dims):
        calls = []
        real = dimtree_mod.partial_mttkrp

        def spied(x, krp, side, split, out=None):
            calls.append((side, split))
            return real(x, krp, side, split, out=out)

        monkeypatch.setattr(dimtree_mod, "partial_mttkrp", spied)
        rng = np.random.default_rng(len(dims))
        x = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
        hs = [rng.standard_normal((d, 3)) for d in dims]
        s = choose_split_mode(dims)
        # the largest cut up to S whose leading block is no larger than the
        # rest; with S = 1 and a larger first mode there is none, so c = 1
        fits = [k for k in range(1, s + 1) if math.prod(dims[:k]) <= math.prod(dims[k:])]
        c = max(fits, default=1)
        modes = DimTree(s).sweep(x, hs)
        for mode in range(len(dims)):
            got = next(modes)
            want = einsum_mttkrp(x, hs, mode)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert calls == [("left", s), ("right", c)]
        if s > 1:
            assert math.prod(dims[c:]) >= math.prod(dims[:c])

    def test_first_mode_shortcut(self, monkeypatch):
        ttvs = self.count_ttvs(monkeypatch)
        rng = np.random.default_rng(6)
        # (2, 2, 2, 20) never dominates, so its split is capped at N-1 = 3
        for dims in [(3, 4), (4, 3, 2), (2, 3, 2, 3), (2, 2, 2, 20)]:
            x = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
            hs = [rng.standard_normal((d, 3)) for d in dims]
            tree = DimTree(choose_split_mode(dims))
            ttvs.clear()
            # a sweep cut short after mode 1, as the NES acceptance test runs
            got = next(tree.sweep(x, hs))
            want = einsum_mttkrp(x, hs, 0)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            assert tree.partial_calls == 1
            # one left partial, plus one trailing TTV when S > 1
            assert ttvs == ["trailing"] * (tree.split > 1)
        assert tree.split == len(dims) - 1

    def test_krp_argument_order_matches_matricization(self):
        # the kept contract: X_(1:S) columns pair with ascending-mode KRP rows
        rng = np.random.default_rng(7)
        dims = (3, 2, 4, 2)
        x = DenseTensor(dims, rng.standard_normal(48))
        hs = [rng.standard_normal((d, 2)) for d in dims]
        split = choose_split_mode(dims)
        k = khatri_rao(hs[split:])
        t = partial_mttkrp(x, k, "left", split)
        direct = x.unfold_leading(split) @ k
        assert np.allclose(t.reshape(-1, 2, order="F"), direct)
