"""Environment block for every benchmark result, and the calibration kernel.

The calibration kernel is fixed and independent of qsync: a chain of
64x64 complex matrix products plus a pure-Python integer loop.  It runs next
to each workload, so a result taken on a slow moment of a shared host shows
as a slow calibration time too.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

# numpy is imported inside the functions: run.py sets THREAD_VARS before numpy
# loads BLAS, and it reads them from this module.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def calibration_s() -> float:
    """Wall time of the fixed calibration kernel (about 0.2 s on a 2-core Xeon VM)."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    a /= np.linalg.norm(a, 2)
    t0 = time.perf_counter()
    x = np.eye(64, dtype=complex)
    for _ in range(2000):
        x = a @ x
        x /= np.abs(x).max()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t0


def _blas_runtime_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, found via /proc/self/maps."""
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    libs.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, src: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_sha256_16": _source_digest(src),
    }
