"""The environment stamp printed with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found: dict[str, int] = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_QUERIES:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def source_digest() -> str:
    """sha256 over the program's sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    from repro.perfmodel.machine import probed_machine

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    machine = probed_machine()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # the library's GSKS tiles and level batching are tuned from this
        # probe, so a probe taken under load can change the execution path
        "machine": {
            "gemm_gflops": machine.gemm_gflops,
            "peak_gflops": machine.peak_gflops,
            "stream_gbs": machine.stream_bw_gbs,
            "exp_gelems": machine.exp_gelems,
            "dispatch_us": machine.dispatch_us,
        },
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
