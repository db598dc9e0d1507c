"""Nonnegative CP decomposition of dense tensors.

Alternating-updating solvers (unconstrained, multiplicative, HALS, block
principal pivoting, ADMM, Nesterov-type) over a dimension-tree MTTKRP, run
on a simulated distributed worker grid with communication accounting.  One
entry point, ``nncp_parallel`` (also named ``nncp_sequential``), runs
``RunConfig.grid``; without a grid it is the 1-worker grid, in-process.
"""

from .dimtree import DimTree, multi_ttv, naive_mttkrp, partial_mttkrp
from .driver import (
    ALGORITHMS,
    CATEGORIES,
    RunConfig,
    RunReport,
    init_factor,
    nncp_parallel,
    nncp_sequential,
)
from .grid import CommCounters, Grid, Worker, block_partition
from .tensor_io import (
    SyntheticSpec,
    TensorFileError,
    generate_synthetic,
    read_matrix,
    read_tensor,
    write_matrix,
    write_tensor,
)
from .tensor_ops import (
    DenseTensor,
    FactorSet,
    choose_split_mode,
    gram,
    hadamard_grams_excluding,
    khatri_rao,
    matrix_inner_product,
    normalize_columns,
    reconstruct,
    relative_error,
)
from .updaters import (
    BppCyclingError,
    UpdateInputs,
    UpdaterState,
    admm_update,
    bpp_update,
    hals_update,
    mu_update,
    nesterov_update,
    ucp_update,
)

__version__ = "0.1.0"
