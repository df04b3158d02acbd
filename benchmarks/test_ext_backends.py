"""Extension bench: the vMPI backend axis, thread ranks vs socket ranks.

The paper runs DistFactorize/DistSolve (Algorithms II.4/II.5) on MPI
ranks that own their cores.  Here the same SPMD programs run on two
vMPI transports (docs/PARALLELISM.md): ``thread`` ranks share one
interpreter and its GIL; ``socket`` ranks are spawned processes behind
a TCP control plane with shared-memory envelopes.  The answers must be
bitwise identical.  From n = 2,048 on a host with at least two cores
the socket backend must also be faster; on one core it has nothing to
win back for its spawn and IPC cost, so the speed check is skipped.
"""

import os
import time

import numpy as np

from conftest import emit, fmt_row
from repro.config import SkeletonConfig, TreeConfig
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.parallel import distributed_factorize, distributed_solve
from repro.perf import configure_default_cache

SIZES = [2048, 8192]
RANKS = 4
BACKENDS = ("thread", "socket")


def _factorize_and_solve(h, u, backend):
    t0 = time.perf_counter()
    dist = distributed_factorize(h, 0.5, RANKS, backend=backend)
    t1 = time.perf_counter()
    w, _ = distributed_solve(dist, u)
    return w, t1 - t0, time.perf_counter() - t1


def _sweep():
    rows = []
    for n in SIZES:
        gen = np.random.default_rng(2017)
        X = gen.standard_normal((n, 3))
        u = gen.standard_normal(n)
        configure_default_cache()
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=1.0),
            tree_config=TreeConfig(leaf_size=64, seed=0),
            skeleton_config=SkeletonConfig(
                tau=1e-5, max_rank=64, num_samples=192, num_neighbors=8, seed=1
            ),
        )
        runs = {b: _factorize_and_solve(h, u, b) for b in BACKENDS}
        rows.append((n, runs))
    return rows


def test_ext_backends(benchmark):
    cpu_count = os.cpu_count() or 1
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    widths = [6, 16, 16, 8, 8]
    lines = [
        "EXTENSION -- vMPI backend axis: thread vs socket ranks "
        f"(p = {RANKS}, nlogn)",
        f"cpu_count = {cpu_count}; the socket > thread check applies "
        "from n = 2048 when cpu_count >= 2",
        "",
        fmt_row(["N", "thread Tf+Ts", "socket Tf+Ts", "speedup", "bitwise"],
                widths),
    ]
    checks = []
    for n, runs in rows:
        (w_t, tf_t, ts_t), (w_s, tf_s, ts_s) = runs["thread"], runs["socket"]
        speedup = (tf_t + ts_t) / (tf_s + ts_s)
        bitwise = bool(np.array_equal(w_t, w_s))
        checks.append((n, speedup, bitwise))
        lines.append(fmt_row(
            [n, f"{tf_t:.2f}+{ts_t:.2f}s", f"{tf_s:.2f}+{ts_s:.2f}s",
             f"{speedup:.2f}x", bitwise],
            widths,
        ))
    emit("ext_backends", lines)

    for n, speedup, bitwise in checks:
        assert bitwise, f"thread and socket solutions differ at n={n}"
        if cpu_count >= 2 and n >= 2048:
            assert speedup > 1.0, (
                f"socket failed to beat thread at n={n} on a "
                f"{cpu_count}-core host ({speedup:.2f}x)"
            )
