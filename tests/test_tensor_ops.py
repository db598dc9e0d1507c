import string
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nncp import (
    DenseTensor,
    FactorSet,
    gram,
    hadamard_grams_excluding,
    khatri_rao,
    matrix_inner_product,
    naive_mttkrp,
    normalize_columns,
    reconstruct,
    relative_error,
)
from nncp.tensor_ops import SCAN_BLOCK


def loop_mttkrp(x: DenseTensor, hs, mode):
    """Brute-force per-entry summation, independent of any library path."""
    dims = x.dims
    r = hs[0].shape[1]
    out = np.zeros((dims[mode], r))
    arr = x.as_array()
    for idx in np.ndindex(*dims):
        for c in range(r):
            prod = arr[idx]
            for m, i in enumerate(idx):
                if m != mode:
                    prod *= hs[m][i, c]
            out[idx[mode], c] += prod
    return out


# einsum index letters for the tensor modes; "r" is reserved for the rank
_MODE_LETTERS = "".join(c for c in string.ascii_letters if c != "r")


def einsum_mttkrp(x: DenseTensor, hs, mode):
    """Reference MTTKRP as one einsum over the C-order view of the flat
    buffer, indexed a[i_N, ..., i_1]; orders up to 51."""
    n = x.order
    letters = _MODE_LETTERS[:n]
    terms = [letters[::-1]]
    operands = [x.data.reshape(x.dims[::-1])]
    for m in range(n):
        if m != mode:
            terms.append(letters[m] + "r")
            operands.append(hs[m])
    expr = ",".join(terms) + "->" + letters[mode] + "r"
    return np.einsum(expr, *operands, optimize=True)


class TestDenseTensor:
    def test_layout_mode1_fastest(self):
        x = DenseTensor((2, 2, 2), np.arange(1.0, 9.0))
        a = x.as_array()
        assert a[0, 0, 0] == 1 and a[1, 0, 0] == 2
        assert a[0, 1, 0] == 3 and a[0, 0, 1] == 5

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DenseTensor((4,), np.zeros(4))
        with pytest.raises(ValueError):
            DenseTensor((2, 0), np.zeros(0))
        with pytest.raises(ValueError):
            DenseTensor((2, 3), np.zeros(5))

    @pytest.mark.parametrize("dims, field", [((4.5, 4), "tensor dim 1"), ((4, 4.0), "tensor dim 2")])
    def test_rejects_non_integer_dims(self, dims, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            DenseTensor(dims, np.zeros(16))

    def test_accepts_numpy_integer_dims(self):
        x = DenseTensor((np.int64(4), np.uint8(3)), np.arange(12.0))
        assert x.dims == (4, 3) and all(type(d) is int for d in x.dims)

    def test_element_count_beyond_int64(self):
        # 2^32 * 2^32 elements wrap to 0 in int64
        with pytest.raises(ValueError, match="does not match"):
            DenseTensor((2**32, 2**32), np.zeros(0))

    def test_big_endian_data_becomes_native_float64(self):
        values = np.arange(1.0, 25.0)
        x = DenseTensor((2, 3, 4), values.astype(">f8"))
        assert x.data.dtype == np.float64 and x.data.dtype.isnative
        assert np.array_equal(x.data, values)

    def test_unfold_is_zero_copy(self):
        rng = np.random.default_rng(0)
        x = DenseTensor((3, 4, 2, 5), rng.standard_normal(120))
        for split in (1, 2, 3):
            m = x.unfold_leading(split)
            assert np.shares_memory(m, x.data)
            assert m.shape == (np.prod(x.dims[:split]), np.prod(x.dims[split:]))

    def test_unfold_refold_roundtrip(self):
        rng = np.random.default_rng(1)
        for dims in [(2, 3), (4, 2, 3), (6, 6, 6, 6), (2, 3, 2, 3, 2)]:
            x = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
            for split in range(1, len(dims)):
                m = x.unfold_leading(split)
                assert np.array_equal(m.ravel(order="F"), x.data)

    def test_unfold_entries_match_index_formula(self):
        x = DenseTensor((2, 2, 2), np.arange(1.0, 9.0))
        m = x.unfold_leading(1)
        # column index = j + 2k for entry (i, j, k)
        assert m[1, 0 + 2 * 1] == x.as_array()[1, 0, 1]
        m2 = x.unfold_leading(2)
        assert m2[1 + 2 * 1, 1] == x.as_array()[1, 1, 1]

    @pytest.mark.parametrize("split", [0, 3])
    def test_unfold_split_out_of_range(self, split):
        x = DenseTensor((2, 2, 2), np.arange(1.0, 9.0))
        with pytest.raises(ValueError, match=f"^split must be in \\[1, 2\\], got {split}$"):
            x.unfold_leading(split)


class TestKhatriRao:
    def test_single_factor_identity(self):
        a = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(khatri_rao([a]), a)

    def test_ones_absorb(self):
        a = np.ones((1, 2))
        assert np.array_equal(khatri_rao([a, a]), np.ones((1, 2)))

    def test_two_factor_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expect = np.array([[5.0, 12.0], [15.0, 24.0], [7.0, 16.0], [21.0, 32.0]])
        assert np.array_equal(khatri_rao([a, b]), expect)

    def test_row_ordering_first_factor_fastest(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
        k = khatri_rao([a, b])
        for i in range(3):
            for j in range(4):
                assert np.allclose(k[i + 3 * j], a[i] * b[j])

    def test_errors(self):
        with pytest.raises(ValueError):
            khatri_rao([])
        with pytest.raises(ValueError):
            khatri_rao([np.ones((2, 2)), np.ones((2, 3))])

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, r, i, j, k, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal((d, r)) for d in (i, j, k))
        left = khatri_rao([khatri_rao([a, b]), c])
        assert np.allclose(khatri_rao([a, b, c]), left, rtol=0, atol=1e-14)


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(2)), np.eye(2))

    def test_zero(self):
        assert np.array_equal(gram(np.zeros((3, 2))), np.zeros((2, 2)))

    def test_hand_example(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(gram(h), np.array([[10.0, 14.0], [14.0, 20.0]]))

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_psd(self, rows, r, seed):
        rng = np.random.default_rng(seed)
        g = gram(rng.standard_normal((rows, r)))
        assert np.array_equal(g, g.T)
        evals = np.linalg.eigvalsh(g)
        assert evals.min() >= -1e-10 * max(np.trace(g), 1.0)


class TestHadamardGrams:
    def test_all_identity(self):
        gs = [np.eye(2)] * 3
        assert np.array_equal(hadamard_grams_excluding(gs, 1), np.eye(2))

    def test_two_mode_returns_other(self):
        g2 = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(hadamard_grams_excluding([np.eye(2), g2], 0), g2)

    def test_three_mode_example(self):
        g1 = np.array([[2.0, 1.0], [1.0, 2.0]])
        g2 = np.array([[3.0, 0.0], [0.0, 3.0]])
        g3 = np.array([[9.0, 9.0], [9.0, 9.0]])
        out = hadamard_grams_excluding([g1, g2, g3], 2)
        assert np.array_equal(out, np.array([[6.0, 0.0], [0.0, 6.0]]))

    def test_exclude_out_of_range(self):
        with pytest.raises(ValueError):
            hadamard_grams_excluding([np.eye(2)] * 2, 2)


class TestNaiveMttkrp:
    def test_zero_tensor(self):
        x = DenseTensor((2, 3, 2))
        hs = [np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 2))]
        assert np.array_equal(naive_mttkrp(x, hs, 0), np.zeros((2, 2)))

    def test_factor_count_must_match_order(self):
        x = DenseTensor((2, 3, 2))
        with pytest.raises(ValueError, match="^factor count does not match tensor order$"):
            naive_mttkrp(x, [np.ones((2, 2)), np.ones((3, 2))], 0)

    def test_rank_one_identity(self):
        h1 = np.array([[1.0], [2.0]])
        h2 = np.ones((2, 1))
        h3 = np.ones((2, 1))
        x = reconstruct(FactorSet([h1, h2, h3]))
        m = naive_mttkrp(x, [h1, h2, h3], 0)
        assert np.allclose(m, np.array([[4.0], [8.0]]))

    def test_hand_example(self):
        x = DenseTensor((2, 2, 2), np.arange(1.0, 9.0))
        hs = [np.zeros((2, 2)), np.eye(2), np.ones((2, 2))]
        m = naive_mttkrp(x, hs, 0)
        assert np.array_equal(m, np.array([[6.0, 10.0], [8.0, 12.0]]))

    def test_dim_mismatch(self):
        x = DenseTensor((2, 2, 2))
        hs = [np.ones((2, 1)), np.ones((3, 1)), np.ones((2, 1))]
        with pytest.raises(ValueError):
            naive_mttkrp(x, hs, 0)

    @pytest.mark.parametrize("mode", [3, -1, 1.0, True])
    def test_mode_outside_the_tensor_rejected(self, mode):
        # an out-of-range or non-integer mode used to surface as IndexError,
        # an islice message or a TypeError
        x = DenseTensor((4, 5, 6))
        hs = [np.ones((d, 2)) for d in x.dims]
        with pytest.raises(ValueError, match=r"mode .*in \[0, 3\)"):
            naive_mttkrp(x, hs, mode)

    def test_factor_of_the_mode_is_never_read(self):
        rng = np.random.default_rng(8)
        dims, rank = (4, 3, 5, 2), 3
        x = DenseTensor(dims, rng.random(int(np.prod(dims))))
        hs = [rng.random((d, rank)) for d in dims]
        for mode in range(len(dims)):
            want = naive_mttkrp(x, hs, mode)
            blank = list(hs)
            blank[mode] = np.full((7, rank), np.nan)
            assert np.array_equal(naive_mttkrp(x, blank, mode), want)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        for dims in [(3, 2), (2, 3, 4), (2, 2, 3, 2)]:
            x = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
            hs = [rng.standard_normal((d, 2)) for d in dims]
            for mode in range(len(dims)):
                fast = naive_mttkrp(x, hs, mode)
                slow = loop_mttkrp(x, hs, mode)
                assert np.allclose(fast, slow, rtol=0, atol=1e-12)

    def test_order_fourteen_against_loop_oracle(self):
        rng = np.random.default_rng(4)
        dims = (2,) * 14
        x = DenseTensor(dims, rng.random(2**14))
        hs = [rng.random((2, 2)) for _ in dims]
        for mode in (0, 13):
            fast = naive_mttkrp(x, hs, mode)
            slow = loop_mttkrp(x, hs, mode)
            assert np.allclose(fast, slow, rtol=1e-12, atol=0)

    @given(
        st.lists(st.integers(1, 6), min_size=2, max_size=7),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_einsum_reference(self, dims, rank, seed):
        # uniform entries: no cancellation, so every entry meets the
        # relative tolerance; size-1 modes still scale by their factor row
        rng = np.random.default_rng(seed)
        x = DenseTensor(dims, rng.random(int(np.prod(dims))))
        hs = [rng.random((d, rank)) for d in dims]
        for mode in range(len(dims)):
            want = einsum_mttkrp(x, hs, mode)
            assert np.allclose(naive_mttkrp(x, hs, mode), want, rtol=1e-12, atol=0)

    def test_order_fifty_six_against_loop_oracle(self):
        rng = np.random.default_rng(6)
        dims = (2, 3) + (1,) * 50 + (2, 1, 2, 1)
        x = DenseTensor(dims, rng.random(int(np.prod(dims))))
        hs = [rng.random((d, 2)) + 0.5 for d in dims]
        for mode in (0, 1, 30, 52, 54, 55):
            fast = naive_mttkrp(x, hs, mode)
            slow = loop_mttkrp(x, hs, mode)
            assert np.allclose(fast, slow, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "dims, rank, mode", [((12,) * 5, 8, 0), ((12,) * 5, 8, 4), ((48,) * 3, 4, 0)]
    )
    def test_no_mode_copies_the_tensor(self, dims, rank, mode):
        rng = np.random.default_rng(5)
        x = DenseTensor(dims, rng.random(int(np.prod(dims))))
        hs = [rng.random((d, rank)) for d in dims]
        tracemalloc.start()
        try:
            naive_mttkrp(x, hs, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes / 2

    def test_last_mode_does_not_copy_the_tensor(self):
        rng = np.random.default_rng(5)
        x = DenseTensor((48, 48, 48), rng.random(48**3))
        hs = [rng.random((48, 4)) for _ in range(3)]
        tracemalloc.start()
        try:
            naive_mttkrp(x, hs, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes / 2


class TestNormsAndInnerProducts:
    def test_norm_squared(self):
        assert DenseTensor((2, 2, 2)).norm_squared() == 0.0
        assert DenseTensor((2, 2, 2), np.ones(8)).norm_squared() == 8.0
        assert DenseTensor((2, 2, 2), np.arange(1.0, 9.0)).norm_squared() == 204.0

    def test_norm_squared_and_min_in_one_pass(self):
        # several scan blocks plus a ragged tail; the smallest entry sits
        # in the tail block
        rng = np.random.default_rng(3)
        data = rng.random(3 * SCAN_BLOCK + 5)
        data[-2] = -0.5
        x = DenseTensor((data.size, 1), data)
        total, low = x.norm_squared_and_min()
        assert low == -0.5
        assert abs(total - x.norm_squared()) <= 1e-12 * x.norm_squared()
        assert DenseTensor((2, 2), np.arange(4.0)).norm_squared_and_min() == (14.0, 0.0)

    def test_norm_squared_and_min_overflow_is_silent_inf(self):
        x = DenseTensor((SCAN_BLOCK, 2), np.full(2 * SCAN_BLOCK, 2.0**600))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert x.norm_squared_and_min() == (np.inf, 2.0**600)

    def test_matrix_inner_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert matrix_inner_product(a, np.zeros((2, 2))) == 0.0
        assert matrix_inner_product(np.eye(2), np.eye(2)) == 2.0
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert matrix_inner_product(a, b) == 70.0
        with pytest.raises(ValueError):
            matrix_inner_product(a, np.zeros((3, 2)))


class TestFactorSet:
    def test_factors_of_different_ranks_rejected(self):
        with pytest.raises(ValueError, match="^factors disagree on rank: \\[2, 3\\]$"):
            FactorSet([np.ones((4, 2)), np.ones((5, 3))])

    def test_weights_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="^lambda length must equal the rank$"):
            FactorSet([np.ones((4, 2)), np.ones((5, 2))], np.ones(3))


class TestReconstruct:
    def test_rank_one_ones(self):
        hs = [np.ones((2, 1)), np.ones((3, 1)), np.ones((2, 1))]
        x = reconstruct(FactorSet(hs))
        assert np.array_equal(x.data, np.ones(12))

    def test_zero_weights(self):
        hs = [np.ones((2, 2)), np.ones((2, 2))]
        x = reconstruct(FactorSet(hs, np.zeros(2)))
        assert np.array_equal(x.data, np.zeros(4))

    def test_outer_product_layout(self):
        h1 = np.array([[1.0], [2.0]])
        h2 = np.array([[3.0], [4.0]])
        x = reconstruct(FactorSet([h1, h2]))
        assert np.array_equal(x.data, np.array([3.0, 6.0, 4.0, 8.0]))

    @pytest.mark.parametrize(
        "dims, rank", [((64, 64, 2), 16), ((5, 40), 4), ((3, 2, 7, 5), 6), ((2, 1, 9), 3)]
    )
    def test_matches_einsum(self, dims, rank):
        rng = np.random.default_rng(len(dims) * rank)
        hs = [rng.random((d, rank)) for d in dims]
        lam = rng.random(rank)
        idx = string.ascii_lowercase[: len(dims)]
        want = np.einsum(",".join(c + "z" for c in idx) + ",z->" + idx, *hs, lam)
        got = reconstruct(FactorSet(hs, lam)).as_array()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_peak_memory_when_last_mode_is_short(self):
        # the last mode is shorter than the rank, so the Khatri-Rao product
        # of all leading modes would be eight times the tensor
        rng = np.random.default_rng(2)
        model = FactorSet([rng.random((d, 16)) for d in (64, 64, 2)], rng.random(16))
        tracemalloc.start()
        try:
            x = reconstruct(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.data.nbytes


class TestNormalizeColumns:
    def test_three_four_five(self):
        h = np.array([[3.0], [4.0]])
        out, w, _ = normalize_columns(h)
        assert np.allclose(out, np.array([[0.6], [0.8]]))
        assert np.allclose(w, [5.0])

    def test_unit_column_unchanged(self):
        h = np.array([[1.0], [0.0]])
        out, w, g = normalize_columns(h)
        assert np.array_equal(out, h)
        assert np.array_equal(w, [1.0])
        assert np.array_equal(g, [[1.0]])

    def test_zero_column_weight_zero(self):
        # BPP's live block and UCP's live-column least squares rely on the
        # dead column's Gram row and column staying exactly zero
        h = np.zeros((3, 3))
        h[:, 0] = [1.0, 2.0, 2.0]
        h[:, 2] = [0.3, 0.1, 0.7]
        out, w, g = normalize_columns(h)
        assert np.array_equal(out[:, 1], np.zeros(3))
        assert w[1] == 0.0
        assert np.array_equal(g[1], np.zeros(3)) and np.array_equal(g[:, 1], np.zeros(3))

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_rescale_roundtrip(self, rows, r, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((rows, r))
        h[:, rng.integers(0, r)] *= rng.integers(0, 2)  # sometimes a zero column
        out, w, g = normalize_columns(h)
        assert np.allclose(out * w, h, rtol=0, atol=1e-13)
        assert np.allclose(g, gram(out), rtol=0, atol=1e-13)

    def test_norms_are_root_gram_diagonal(self):
        h = np.random.default_rng(4).standard_normal((37, 5))
        g = gram(h)
        for given_g in (None, g):
            assert np.array_equal(normalize_columns(h, given_g)[1], np.sqrt(np.diag(g)))

    def test_gram_exactly_symmetric(self):
        h = np.random.default_rng(5).random((41, 6))
        g = normalize_columns(h)[2]
        assert np.array_equal(g, g.T)


def row_blocks(a, b, local_term):
    """Row blocks of ``a`` and ``b`` (one block a single row), and per block
    a ``reduce`` that adds the other blocks' local terms, as an All-Reduce
    over the block owners would."""
    cuts = [2, 3]
    pairs = list(zip(np.split(a, cuts), np.split(b, cuts)))
    terms = [local_term(pa, pb) for pa, pb in pairs]

    def reducer(i):
        return lambda v: v + sum(t for j, t in enumerate(terms) if j != i)

    return pairs, [reducer(i) for i in range(len(pairs))]


class TestRowBlockReduce:
    """A summing ``reduce`` over row blocks gives the whole-matrix result."""

    def test_normalize_columns(self):
        # each block normalizes from the sum of the blocks' Grams
        rng = np.random.default_rng(8)
        h = rng.random((6, 3))
        h[:, 1] = 0.0
        want, want_w, want_g = normalize_columns(h)
        pairs, reducers = row_blocks(h, want, lambda b, _: gram(b))
        for (block, want_block), reduce in zip(pairs, reducers):
            out, w, g = normalize_columns(block, reduce(gram(block)))
            assert np.allclose(w, want_w, rtol=1e-12, atol=0)
            assert np.allclose(out, want_block, rtol=1e-12, atol=1e-12)
            assert np.allclose(g, want_g, rtol=1e-12, atol=1e-12)

    def test_relative_error(self):
        rng = np.random.default_rng(9)
        x = DenseTensor((6, 4, 3), rng.random(72))
        hs = [rng.random((d, 2)) for d in x.dims]
        lam = rng.random(2) + 0.5
        grams = [gram(h) for h in hs]
        s_0 = hadamard_grams_excluding(grams, 0)
        m_0 = naive_mttkrp(x, hs, 0)
        hhat = hs[0] * lam
        args = (s_0, grams[0], lam)
        want = relative_error(x.norm_squared(), m_0, hhat, *args)
        assert 0.0 < want < 1.0
        pairs, reducers = row_blocks(m_0, hhat, matrix_inner_product)
        for (m_block, h_block), reduce in zip(pairs, reducers):
            got = relative_error(x.norm_squared(), m_block, h_block, *args, reduce)
            assert abs(got - want) <= 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_rank_one_mttkrp_identity(seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(2, 5, size=3)]
    hs = [rng.random((d, 1)) + 0.1 for d in dims]
    x = reconstruct(FactorSet(hs))
    for mode in range(3):
        scale = 1.0
        for m in range(3):
            if m != mode:
                scale *= float(hs[m][:, 0] @ hs[m][:, 0])
        m_out = naive_mttkrp(x, hs, mode)
        assert np.allclose(m_out, hs[mode] * scale, rtol=1e-12, atol=1e-12)
