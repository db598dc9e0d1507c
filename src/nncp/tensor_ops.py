"""Dense tensor and factor-matrix primitives.

Layout convention used everywhere in this package: an N-way tensor is a
flat float64 array with the mode-1 index varying fastest, i.e. entry
(i_1, ..., i_N) lives at offset i_1 + I_1*i_2 + I_1*I_2*i_3 + ... (0-based).
This generalizes column-major matrix storage, so the matricization that maps
modes 1..S to rows and S+1..N to columns is a zero-copy reinterpretation of
the flat array as a column-major matrix.

Factor matrices are plain (I_n, R) float64 ndarrays.  Khatri-Rao products
take their argument list in ascending mode order and linearize output rows
with the *first* list element's index varying fastest, which makes KRP rows
line up with matricization columns without any permutation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


# doubles per block of a one-pass scan: 512 KiB, which stays in L2
SCAN_BLOCK = 1 << 16
# an error radicand below this many units of rounding u of alpha = ||X||^2
# is computed directly by relative_error.  For a nonnegative model the
# identity's radicand alpha - 2 beta + gamma is off by a few u alpha, so
# err = sqrt(radicand / alpha) is off by about u / err.  Below 2^19 u alpha,
# that is below err = 2^-16.5, about 1.1e-5, where u / err would pass 2e-11,
# the direct residual keeps sequential and grid errors well within 1e-10
EXACT_FIT_ULPS = 1 << 19


def as_int(name, value) -> int:
    """``value``, a Python or numpy integer, as an int; anything else,
    a float with an integral value or a bool included, is a ValueError
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class DenseTensor:
    """Dense N-way tensor over a flat mode-1-fastest float64 buffer."""

    __slots__ = ("dims", "data")

    def __init__(self, dims, data=None):
        dims = tuple(as_int(f"tensor dim {n + 1}", d) for n, d in enumerate(dims))
        if len(dims) < 2:
            raise ValueError("tensor order must be at least 2")
        if any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive, got {dims}")
        size = math.prod(dims)
        if data is None:
            data = np.zeros(size)
        else:
            data = np.ascontiguousarray(data, dtype=np.float64).ravel()
            if data.size != size:
                raise ValueError(
                    f"data length {data.size} does not match prod(dims) {size}"
                )
        self.dims = dims
        self.data = data

    @classmethod
    def from_array(cls, arr):
        """Build from an ndarray indexed as arr[i_1, ..., i_N]."""
        arr = np.asarray(arr, dtype=np.float64)
        return cls(arr.shape, arr.ravel(order="F"))

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.data.size

    def as_array(self) -> np.ndarray:
        """Zero-copy N-d view, indexed as a[i_1, ..., i_N]."""
        return self.data.reshape(self.dims, order="F")

    def unfold_leading(self, split: int) -> np.ndarray:
        """Zero-copy matricization with modes 1..split as rows.

        Returns a column-major view of shape
        (prod(dims[:split]), prod(dims[split:])).
        """
        if not 1 <= split < self.order:
            raise ValueError(f"split must be in [1, {self.order - 1}], got {split}")
        rows = math.prod(self.dims[:split])
        cols = math.prod(self.dims[split:])
        return self.data.reshape((rows, cols), order="F")

    def norm_squared(self) -> float:
        """Sum of squares of all entries (inf when it overflows float64)."""
        with np.errstate(over="ignore"):
            return float(np.dot(self.data, self.data))

    def norm_squared_and_min(self) -> tuple:
        """Sum of squares and smallest entry from one pass over the data.

        Works in blocks that stay in cache, so a tensor larger than the
        cache is streamed from memory once instead of twice.  The sum
        differs from ``norm_squared`` by rounding only.
        """
        total, low = 0.0, np.inf
        with np.errstate(over="ignore"):
            for start in range(0, self.data.size, SCAN_BLOCK):
                block = self.data[start : start + SCAN_BLOCK]
                total += float(np.dot(block, block))
                low = min(low, float(block.min()))
        return total, low


@dataclass
class FactorSet:
    """N factor matrices sharing rank R plus the column-weight vector lambda.

    ``factors[n]`` has shape (I_{n+1}, R).  ``lam`` defaults to all ones.
    When the set is normalized, every factor column has unit 2-norm (or is
    identically zero with a zero weight) and ``lam`` carries the scale.
    """

    factors: list
    lam: np.ndarray = None

    def __post_init__(self):
        self.factors = [np.asarray(h, dtype=np.float64) for h in self.factors]
        if not self.factors:
            raise ValueError("a factor set needs at least one factor")
        ranks = {h.shape[1] for h in self.factors}
        if len(ranks) != 1:
            raise ValueError(f"factors disagree on rank: {sorted(ranks)}")
        if self.lam is None:
            self.lam = np.ones(self.rank)
        else:
            self.lam = np.asarray(self.lam, dtype=np.float64)
            if self.lam.shape != (self.rank,):
                raise ValueError("lambda length must equal the rank")

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def dims(self):
        return tuple(h.shape[0] for h in self.factors)

    def copy(self) -> "FactorSet":
        return FactorSet([h.copy() for h in self.factors], self.lam.copy())


def init_factor(seed: int, mode: int, rows: int, rank: int) -> np.ndarray:
    """Uniform [0,1) factor from a counter-based generator keyed by
    (seed, mode); entry (i, r) is draw i*rank + r, so any row block of the
    same global matrix can be reproduced on any worker."""
    key = np.array([np.uint64(seed), np.uint64(mode)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random((rows, rank))


def khatri_rao(factors) -> np.ndarray:
    """Khatri-Rao product of a list of (I_j, R) matrices.

    Output row (i_1, ..., i_m) = elementwise product of the j-th factor's
    row i_j, with the FIRST list element's index varying fastest:
    row offset = i_1 + I_1*i_2 + I_1*I_2*i_3 + ...
    """
    if len(factors) == 0:
        raise ValueError("khatri_rao needs at least one factor")
    ranks = {h.shape[1] for h in factors}
    if len(ranks) != 1:
        raise ValueError(f"khatri_rao rank mismatch: {sorted(ranks)}")
    out = factors[0]
    for h in factors[1:]:
        # (J,R) joining (K,R) -> (J*K,R) with the existing K index fastest
        out = (h[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


def gram(h: np.ndarray) -> np.ndarray:
    """H^T H, forced exactly symmetric."""
    g = h.T @ h
    return 0.5 * (g + g.T)


def hadamard_grams_excluding(grams, exclude: int) -> np.ndarray:
    """Elementwise product of all Gram matrices except index ``exclude``."""
    if not 0 <= exclude < len(grams):
        raise ValueError(f"exclude index {exclude} out of range")
    rank = grams[0].shape[0]
    out = np.ones((rank, rank))
    for m, g in enumerate(grams):
        if m != exclude:
            out *= g
    return out


def choose_split_mode(dims) -> int:
    """Number of leading modes kept on the left side of the root split.

    Returns the smallest S with prod(dims[:S]) >= prod(dims[S:]), capped to
    N-1 so both sides are nonempty.
    """
    n = len(dims)
    if n < 2:
        raise ValueError("need at least 2 modes")
    for s in range(1, n):
        if math.prod(dims[:s]) >= math.prod(dims[s:]):
            return s
    return n - 1


def reconstruct(model: FactorSet) -> DenseTensor:
    """Dense tensor of the model: entry = sum_r lam_r * prod_n H_n(i_n, r).

    One GEMM of the leading modes' Khatri-Rao product with the trailing
    modes' (lam folded into the last factor), split after the mode k that
    makes (I_1...I_k + I_{k+1}...I_N) R, the memory besides the tensor,
    smallest."""
    out = DenseTensor(model.dims)
    dims, hs = model.dims, model.factors
    k = min(range(1, len(dims)), key=lambda j: math.prod(dims[:j]) + math.prod(dims[j:]))
    lead = khatri_rao(hs[:k])
    trail = khatri_rao(hs[k:-1] + [hs[-1] * model.lam])
    np.matmul(trail, lead.T, out=out.data.reshape(trail.shape[0], lead.shape[0]))
    return out


def normalize_columns(h: np.ndarray, g: np.ndarray = None):
    """Scale each column to unit 2-norm; return (matrix, norms, its Gram).

    ``g``, the Gram of ``h`` summed over its row blocks, defaults to
    ``gram(h)``; the norms are the roots of its diagonal.  Zero columns are
    left untouched and get weight 0.
    """
    g = gram(h) if g is None else g
    norms = np.sqrt(np.diag(g))
    scale = np.where(norms > 0.0, norms, 1.0)
    return h / scale, norms, g / np.outer(scale, scale)


def matrix_inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product sum_ij A(i,j) B(i,j)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


def residual_norm_squared(x: DenseTensor, model: FactorSet) -> float:
    """||X - model||^2 from the reconstructed model (one tensor-sized array)."""
    r = reconstruct(model).data
    np.subtract(x.data, r, out=r)
    return float(np.dot(r, r))


def relative_error(
    alpha, mttkrp_n, h_n_unnormalized, s_n, g_n, lam, reduce=lambda v: v, residual=None
) -> float:
    """Relative error ||X - model|| / ||X|| from mode-n quantities.

    err^2 = (alpha - 2 beta + gamma) / alpha with alpha = ||X||^2,
    beta = <M_n, Hhat_n> for the pre-normalization factor Hhat_n and
    gamma = lam' (S_n * G_n) lam.  ``reduce`` sums beta across the row
    blocks of a distributed M_n; the default, the identity, fits one
    block.  Near an exact fit the radicand cancels to rounding noise: below
    EXACT_FIT_ULPS units of rounding of alpha, ``residual`` (when given)
    returns this block's ||X - model||^2, and ``reduce`` sums those
    instead.
    """
    if alpha <= 0.0:
        raise ValueError("zero tensor has no relative error")
    beta = reduce(matrix_inner_product(mttkrp_n, h_n_unnormalized))
    gamma = float(lam @ ((s_n * g_n) @ lam))
    radicand = alpha - 2.0 * beta + gamma
    # max(0.0, nan) is 0.0, which would report a perfect fit
    if not np.isfinite(radicand):
        raise ValueError(
            f"error term is not finite: alpha={alpha}, beta={beta}, gamma={gamma}"
        )
    # every worker holds the same radicand, so all of them reduce or none
    if residual is not None and radicand < EXACT_FIT_ULPS * np.finfo(float).eps * alpha:
        radicand = reduce(residual())
    return float(np.sqrt(max(0.0, radicand) / alpha))
