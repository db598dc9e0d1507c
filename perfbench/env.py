"""Locating the program under test and describing the environment."""

from __future__ import annotations

import ctypes
import glob
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    pass


def check_program():
    if not (SRC / "nncp" / "__init__.py").is_file():
        raise MissingProgram(f"no nncp package under {SRC}; run from a full checkout")


def import_nncp():
    """Import the checkout's own nncp package, never an installed copy."""
    check_program()
    sys.path.insert(0, str(SRC))
    import nncp

    if Path(nncp.__file__).resolve().parent != (SRC / "nncp").resolve():
        raise MissingProgram(f"imported nncp from {nncp.__file__}, not from {SRC}")
    return nncp


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    """Environment of a workload process: its BLAS thread count, and one
    malloc arena, so that peak RSS does not depend on which arenas the
    short-lived grid worker threads happen to get."""
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(threads)
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def llc_bytes():
    """Size of the highest cache level of cpu0, or None when unknown."""
    best = (0, None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            size = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if level > best[0]:
            best = (level, value)
    return best[1]


def blas_threads_in_use():
    """Threads OpenBLAS reports, queried from numpy's bundled library."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": nproc(),
        "llc_bytes": llc_bytes(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads_in_use(),
    }
