import sys
import threading
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nncp.grid as grid_mod
from nncp import (
    ALGORITHMS,
    Grid,
    RunConfig,
    SyntheticSpec,
    block_partition,
    generate_synthetic,
    nncp_parallel,
    nncp_sequential,
)


class TestLinearization:
    def test_rank_five_in_cube(self):
        g = Grid((3, 3, 3))
        assert g.coord_of(5) == (2, 1, 0)

    def test_bijection(self):
        g = Grid((2, 3, 2))
        coords = {g.coord_of(r) for r in range(g.total)}
        assert coords == set(np.ndindex(*g.shape))

    def test_first_mode_fastest(self):
        g = Grid((4, 2))
        assert g.coord_of(1) == (1, 0)
        assert g.coord_of(4) == (0, 1)


class TestSliceGroups:
    def test_one_dimensional_grid(self):
        g = Grid((4, 1, 1))
        # mode-1 slices are singletons; other modes span all workers
        assert [grp.ranks for grp in g.slice_groups[0]] == [(0,), (1,), (2,), (3,)]
        assert g.slice_groups[1][0].ranks == (0, 1, 2, 3)
        assert g.slice_groups[2][0].ranks == (0, 1, 2, 3)

    def test_trivial_grid(self):
        g = Grid((1, 1, 1))
        for n in range(3):
            assert g.slice_groups[n][0].ranks == (0,)

    def test_unsplit_modes_share_all_procs(self):
        g = Grid((2, 1, 3))
        assert g.slice_groups[1] == [g.all_procs]
        assert all(grp is not g.all_procs for n in (0, 2) for grp in g.slice_groups[n])

    def test_shared_exchange_under_stress(self):
        # (4,1,1): the mode-2 and mode-3 slices are every worker, so their
        # collectives and the global All-Reduce take turns on one exchange;
        # four workers on fewer cores, switching threads as often as possible
        g = Grid((4, 1, 1))
        steps = 200

        def fn(w):
            out = []
            for k in range(steps):
                local = np.full(4, float(w.rank + k))
                s = w.reduce_scatter(w.grid.slice_group(1, 0), local)
                t = w.all_reduce(w.grid.all_procs, float(w.rank * k))
                u = w.all_gather(w.grid.slice_group(2, 0), s)
                out.append((float(s[0]), t, u.tolist()))
            return out

        results = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.extend(g.run(fn)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not runner.is_alive()
        want = [(6.0 + 4 * k, 6.0 * k, [6.0 + 4 * k] * 4) for k in range(steps)]
        assert results == [want] * 4

    def test_groups_partition_ranks(self):
        g = Grid((2, 3, 2))
        for n, pn in enumerate(g.shape):
            seen = []
            for grp in g.slice_groups[n]:
                assert grp.size == g.total // pn
                seen.extend(grp.ranks)
            assert sorted(seen) == list(range(g.total))

    def test_same_nth_coordinate(self):
        g = Grid((2, 2, 2))
        for n in range(3):
            for c, grp in enumerate(g.slice_groups[n]):
                for r in grp.ranks:
                    assert g.coord_of(r)[n] == c


def lengths(parts):
    return tuple(b.stop - b.start for b in parts)


class TestBlockPartition:
    def test_uneven(self):
        assert lengths(block_partition(10, 4)) == (3, 3, 2, 2)

    def test_exact(self):
        assert lengths(block_partition(8, 4)) == (2, 2, 2, 2)

    def test_empty_tails(self):
        assert lengths(block_partition(3, 5)) == (1, 1, 1, 0, 0)

    def test_offsets_monotone_and_complete(self):
        parts = block_partition(17, 5)
        offsets = [b.start for b in parts] + [parts[-1].stop]
        assert offsets[0] == 0 and offsets[-1] == 17
        assert offsets == sorted(offsets)
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))

    @given(st.integers(0, 300), st.integers(1, 17))
    @settings(max_examples=60, deadline=None)
    def test_balanced_invariants(self, length, parts):
        blocks = lengths(block_partition(length, parts))
        assert len(blocks) == parts
        assert sum(blocks) == length
        assert max(blocks) - min(blocks) <= 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            block_partition(-1, 2)
        with pytest.raises(ValueError):
            block_partition(4, 0)


@st.composite
def dims_and_grid(draw):
    order = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 9), min_size=order, max_size=order))
    return tuple(dims), tuple(draw(st.integers(1, min(i, 3))) for i in dims)


class TestBlocks:
    """``Worker.blocks``: the one owner of the data distribution."""

    @given(dims_and_grid())
    @settings(max_examples=80, deadline=None)
    def test_slice_blocks_and_owned_rows_tile(self, case):
        dims, shape = case
        g = Grid(shape)
        workers = [grid_mod.Worker(r, g) for r in range(g.total)]
        blocks = [w.blocks(dims) for w in workers]
        for n, (i, pn) in enumerate(zip(dims, shape)):
            # the mode-n slice blocks, one per coordinate, tile [0, I_n)
            by_coord = {w.coord[n]: rows[n] for w, (rows, _) in zip(workers, blocks)}
            slices = [by_coord[c] for c in range(pn)]
            assert slices[0].start == 0 and slices[-1].stop == i
            assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
            for c, grp in enumerate(g.slice_groups[n]):
                # every member holds the same slice block, and the owned
                # blocks tile it in ascending rank order
                assert all(blocks[r][0][n] == slices[c] for r in grp.ranks)
                owned = [blocks[r][1][n] for r in grp.ranks]
                assert owned[0].start == 0
                assert owned[-1].stop == slices[c].stop - slices[c].start
                assert all(a.stop == b.start for a, b in zip(owned, owned[1:]))
                assert all(w.groups[n] is grp for w in workers if w.rank in grp.ranks)


class TestOneExchangePath:
    """Every collective on a group of 2 or more runs ``Group.exchange``
    exactly once, and no other call does."""

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2, 1, 1), None])
    @pytest.mark.parametrize("rule", ALGORITHMS)
    def test_exchange_counts_multi_member_collectives(self, monkeypatch, rule, shape):
        lock = threading.Lock()
        exchanged, collectives = Counter(), Counter()
        real_exchange = grid_mod.Group.exchange

        def exchange(group, index, value):
            with lock:
                exchanged[group.ranks] += 1
            return real_exchange(group, index, value)

        def counting(real):
            def collective(w, group, *args, **kwargs):
                assert group is w.grid.all_procs or group in w.groups
                if group.size >= 2:
                    with lock:
                        collectives[group.ranks] += 1
                return real(w, group, *args, **kwargs)

            return collective

        monkeypatch.setattr(grid_mod.Group, "exchange", exchange)
        for name in ("all_reduce", "all_gather", "reduce_scatter"):
            monkeypatch.setattr(grid_mod.Worker, name, counting(getattr(grid_mod.Worker, name)))
        x, _ = generate_synthetic(SyntheticSpec((6, 5, 4), 2, seed=3))
        rep = nncp_parallel(x, RunConfig(rank=2, algorithm=rule, max_iters=2, grid=shape))
        assert exchanged == collectives
        if shape is None:
            assert not exchanged
        elif shape == (2, 2, 1):
            # every slice group has 2 or more members: each call exchanges
            assert sum(exchanged.values()) == sum(rep.counters.calls.values()) > 0
        else:
            # mode 1's slices are one worker each: its two collectives per
            # update exchange nothing
            assert 0 < sum(exchanged.values()) < sum(rep.counters.calls.values())


class TestCollectives:
    def run_on(self, shape, fn):
        return Grid(shape).run(fn)

    def test_all_reduce_sum_of_ones(self):
        out = self.run_on((3, 2), lambda w: w.all_reduce(w.grid.all_procs, 1.0))
        assert out == [6.0] * 6

    def test_all_reduce_singleton(self):
        out = self.run_on((1,) * 3, lambda w: w.all_reduce(w.grid.all_procs, np.array([3.0, 4.0])))
        assert np.array_equal(out[0], [3.0, 4.0])

    def test_all_reduce_two_members(self):
        def fn(w):
            local = np.array([1.0, 2.0]) if w.rank == 0 else np.array([3.0, 4.0])
            return w.all_reduce(w.grid.all_procs, local)

        out = self.run_on((2,) * 1, fn)
        assert np.array_equal(out[0], [4.0, 6.0])
        assert np.array_equal(out[1], [4.0, 6.0])

    def test_all_reduce_max(self):
        def fn(w):
            local = np.array([float(w.rank), -float(w.rank)])
            return w.all_reduce(w.grid.all_procs, local, "max")

        out = self.run_on((4,), fn)
        assert np.array_equal(out[0], [3.0, 0.0])

    @pytest.mark.parametrize("op", ["prod", "min"])
    def test_all_reduce_unknown_op(self, op):
        def fn(w):
            return w.all_reduce(w.grid.all_procs, np.ones(2), op)

        with pytest.raises(ValueError, match=f"unknown reduction '{op}'"):
            self.run_on((2,), fn)

    def test_all_reduce_length_mismatch(self):
        def fn(w):
            return w.all_reduce(w.grid.all_procs, np.ones(w.rank + 1))

        with pytest.raises(ValueError):
            self.run_on((2,), fn)

    def test_all_gather_rank_order(self):
        def fn(w):
            return w.all_gather(w.grid.all_procs, np.array([float(w.rank)]))

        out = self.run_on((3,), fn)
        for arr in out:
            assert np.array_equal(arr, [0.0, 1.0, 2.0])

    def test_all_gather_singleton(self):
        out = self.run_on((1,), lambda w: w.all_gather(w.grid.all_procs, np.array([7.0])))
        assert np.array_equal(out[0], [7.0])

    def test_all_gather_ragged_lengths(self):
        def fn(w):
            lengths = [2, 1, 0]
            local = np.full(lengths[w.rank], float(w.rank))
            return w.all_gather(w.grid.all_procs, local)

        out = self.run_on((3,), fn)
        assert np.array_equal(out[0], [0.0, 0.0, 1.0])

    def test_all_gather_matrix_rows(self):
        def fn(w):
            return w.all_gather(w.grid.all_procs, np.full((1, 2), float(w.rank)))

        out = self.run_on((2,), fn)
        assert np.array_equal(out[0], [[0.0, 0.0], [1.0, 1.0]])

    def test_reduce_scatter_two_members(self):
        def fn(w):
            return w.reduce_scatter(w.grid.all_procs, np.array([1.0, 2.0]))

        out = self.run_on((2,), fn)
        assert np.array_equal(out[0], [2.0])
        assert np.array_equal(out[1], [4.0])

    def test_reduce_scatter_singleton(self):
        def fn(w):
            return w.reduce_scatter(w.grid.all_procs, np.array([5.0, 6.0]))

        out = self.run_on((1,), fn)
        assert np.array_equal(out[0], [5.0, 6.0])

    def test_reduce_scatter_uneven_parts(self):
        # 5 rows over 3 members: blocks of block_partition(5, 3), (2, 2, 1)
        def fn(w):
            return w.reduce_scatter(w.grid.all_procs, np.arange(5.0) + w.rank)

        out = self.run_on((3,), fn)
        assert tuple(len(o) for o in out) == lengths(block_partition(5, 3)) == (2, 2, 1)
        assert np.array_equal(np.concatenate(out), 3 * np.arange(5.0) + 3)

    def test_reduce_scatter_matrix_rows(self):
        def fn(w):
            local = np.arange(6.0).reshape(3, 2) + w.rank
            return w.reduce_scatter(w.grid.all_procs, local)

        out = self.run_on((2,), fn)
        assert out[0].shape == (2, 2) and out[1].shape == (1, 2)
        assert np.array_equal(out[0], np.array([[1.0, 3.0], [5.0, 7.0]]))

    @pytest.mark.parametrize("grid", [(2,), (3,)])
    def test_reduce_scatter_row_count_mismatch(self, grid):
        # one member posts one row more than the others
        def fn(w):
            return w.reduce_scatter(w.grid.all_procs, np.ones((3 + (w.rank == 1), 2)))

        with pytest.raises(ValueError, match="group members posted shapes"):
            self.run_on(grid, fn)

    def test_slice_group_collective(self):
        def fn(w):
            grp = w.grid.slice_group(1, w.coord[1])
            return w.all_reduce(grp, float(w.rank))

        out = self.run_on((2, 2), fn)
        # mode-2 slices: {0,1} and {2,3}
        assert out == [1.0, 1.0, 5.0, 5.0]

    def test_reduction_determinism(self):
        # adversarial float mix: identical results across repeated runs
        def fn(w):
            rng = np.random.default_rng(w.rank)
            local = rng.standard_normal(64) * 10.0 ** rng.integers(-8, 8, size=64)
            return w.all_reduce(w.grid.all_procs, local)

        a = self.run_on((4,), fn)
        b = self.run_on((4,), fn)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_counters(self):
        def fn(w):
            w.all_reduce(w.grid.all_procs, np.ones(5))
            w.all_gather(w.grid.all_procs, np.ones(2))
            w.reduce_scatter(w.grid.all_procs, np.ones(4))
            return w.counters

        out = self.run_on((2,), fn)
        counters = out[0]
        assert counters.calls == {"AllReduce": 1, "AllGather": 1, "ReduceScatter": 1}
        assert counters.words_in == {"AllReduce": 5, "AllGather": 2, "ReduceScatter": 4}
        assert counters.words_out == {"AllReduce": 5, "AllGather": 4, "ReduceScatter": 2}


class TestFailurePropagation:
    def test_worker_exception_reraised(self):
        def fn(w):
            if w.rank == 1:
                raise RuntimeError("boom on worker 1")
            return w.all_reduce(w.grid.all_procs, 1.0)

        with pytest.raises(RuntimeError, match="boom on worker 1"):
            Grid((3,)).run(fn)

    def test_zero_grid_dim_rejected(self):
        with pytest.raises(ValueError):
            Grid((2, 0))


class TestOneMemberGroup:
    """A collective over one member returns its input, untimed, and counts
    the call with 0 words; All-Reduce's ``op`` check still runs."""

    @pytest.mark.parametrize(
        "name, call",
        [
            ("AllReduce", lambda w, a: w.all_reduce(w.grid.all_procs, a)),
            ("AllGather", lambda w, a: w.all_gather(w.grid.all_procs, a)),
            ("ReduceScatter", lambda w, a: w.reduce_scatter(w.grid.all_procs, a)),
        ],
    )
    def test_returns_input_and_moves_no_words(self, name, call):
        local = np.arange(6.0).reshape(3, 2)
        timed = []

        def fn(w):
            w.clock = lambda category: timed.append(category) or nullcontext()
            return call(w, local), w.counters

        ((out, counters),) = Grid((1,)).run(fn)
        assert out is local
        assert counters.calls == {name: 1}
        assert counters.words_in == counters.words_out == {name: 0}
        assert timed == []

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown reduction 'prod'"):
            Grid((1,)).run(lambda w: w.all_reduce(w.grid.all_procs, np.ones(2), "prod"))


class TestRunThreads:
    def test_one_worker_runs_in_callers_thread(self):
        assert Grid((1, 1)).run(lambda w: threading.get_ident()) == [threading.get_ident()]

    def test_one_worker_exception_reraised(self):
        def fn(w):
            raise RuntimeError("boom on worker 0")

        with pytest.raises(RuntimeError, match="boom on worker 0"):
            Grid((1,)).run(fn)

    def test_sequential_run_starts_only_the_scan(self, monkeypatch):
        x, _ = generate_synthetic(SyntheticSpec((4, 4, 4), 2, seed=1))
        started = []
        real = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        nncp_sequential(x, RunConfig(rank=2, max_iters=2))
        assert started == ["scan"]
        started.clear()
        nncp_parallel(x, RunConfig(rank=2, max_iters=2, grid=(2, 1, 1)))
        assert sorted(started) == ["scan", "scan", "worker-0", "worker-1"]
