#!/usr/bin/env python
"""Perf-layer benchmark: batched BLAS-3 solves + block cache.

Measures factorize + multi-RHS solve (k right-hand sides) wall time for
the level-restricted hybrid solver in its ``optimized`` configuration:
process-wide :class:`BlockCache` (shared leaf/sibling/frontier/pair
blocks, perfmodel store policy), tree-wide squared-norm tables, and
lockstep block GMRES (one (N, k) panel matvec per iteration).

Emits ``BENCH_perf.json`` with wall times, the reduced GMRES iteration
count, block-cache hit rate, and peak persistent storage words per
problem size.

With ``--parallel`` the benchmark instead measures the vMPI *backend
axis* (docs/PARALLELISM.md): distributed factorize + solve on the
``thread`` backend (GIL-shared) vs the ``socket`` backend (spawned rank
processes: TCP control plane + shm envelopes, true multi-core),
asserting the solutions are bitwise identical, and writes
``BENCH_parallel.json``.  The speedup claim is hardware-honest:
``cpu_count`` is recorded, the ">1x" assertion only fires on hosts
with at least two cores, and on a single-core container the socket
backend is expected to *lose* (spawn + IPC overhead with no cores to
win back).

With ``--level-batch-compare`` it instead measures the *level-batching
axis* (docs/PERFORMANCE.md): factorization wall time of the nlogn direct
method with the batch policy's shape groups vs every node run as a group
of one (``BatchPolicy.worth`` patched to decline every group) over the
same skeletonized H-matrix, asserting the solutions and log-determinants
are bitwise identical, and writes ``BENCH_levelbatch.json``.

With ``--update-compare`` it instead measures the *incremental-update
axis* (docs/UPDATES.md): (a) inserting 1% clustered points via
``FastKernelSolver.update`` vs a from-scratch rebuild — asserting
1e-10 solution parity and that fewer than 25% of the nodes were
refactorized — and (b) a 5-value lambda sweep via ``update(lam=...)``
vs five full rebuilds, asserting the sweep is at least 3x faster.
Writes ``BENCH_update.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py                # full
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke        # CI
    PYTHONPATH=src python benchmarks/bench_perf.py --sizes 4096 --k 16
    PYTHONPATH=src python benchmarks/bench_perf.py --parallel     # backend axis
    PYTHONPATH=src python benchmarks/bench_perf.py --parallel --smoke
    PYTHONPATH=src python benchmarks/bench_perf.py --level-batch-compare
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.obs import reset_telemetry, telemetry_snapshot
from repro.perf import configure_default_cache
from repro.solvers import factorize

DEFAULT_SIZES = (1024, 4096, 16384)
DEFAULT_K = 16
DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_perf.json"

DEFAULT_PARALLEL_SIZES = (2048, 8192)
DEFAULT_RANKS = 4
PARALLEL_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_parallel.json"

DEFAULT_LEVELBATCH_SIZES = (4096,)
LEVELBATCH_OUT = (
    pathlib.Path(__file__).parent / "results" / "BENCH_levelbatch.json"
)

DEFAULT_UPDATE_SIZES = (4096,)
UPDATE_LAMBDAS = (0.1, 0.5, 1.0, 5.0, 25.0)
UPDATE_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_update.json"


def make_problem(n: int, seed: int = 2017):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, 3))
    kernel = GaussianKernel(bandwidth=1.0)
    return X, kernel, gen


def run_variant(X, kernel, B, *, level_restriction: int):
    """Fresh cache + fresh H-matrix; timed factorize + solve."""
    cache = configure_default_cache()  # unbounded, empty
    h = build_hmatrix(
        X,
        kernel,
        tree_config=TreeConfig(leaf_size=64, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-5,
            max_rank=64,
            num_samples=192,
            num_neighbors=8,
            level_restriction=level_restriction,
            seed=1,
        ),
    )
    cfg = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-10, max_iters=300))
    t0 = time.perf_counter()
    fact = factorize(h, 0.5, cfg)
    t_factorize = time.perf_counter() - t0

    t0 = time.perf_counter()
    W = fact.solve(B)
    t_solve = time.perf_counter() - t0

    stats = cache.stats()
    residual = float(fact.residual(B[:, 0], W[:, 0]))
    return {
        "factorize_s": t_factorize,
        "solve_s": t_solve,
        "total_s": t_factorize + t_solve,
        "residual_col0": residual,
        "reduced_gmres_iters": int(sum(fact.reduced_iterations)),
        "cache_hit_rate": stats.hit_rate,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_evictions": stats.evictions,
        "peak_storage_words": int(stats.peak_words),
        "hmatrix_storage_words": int(h.storage_words()),
    }


def bench_size(n: int, k: int, level_restriction: int) -> dict:
    X, kernel, gen = make_problem(n)
    B = gen.standard_normal((n, k))
    return {
        "n": n,
        "k": k,
        "level_restriction": level_restriction,
        "optimized": run_variant(X, kernel, B, level_restriction=level_restriction),
    }


PARALLEL_BACKENDS = ("thread", "socket")


def bench_parallel_size(n: int, n_ranks: int) -> dict:
    """Distributed factorize + solve on every vMPI backend."""
    from repro.parallel import distributed_factorize, distributed_solve

    X, kernel, gen = make_problem(n)
    u = gen.standard_normal(n)
    configure_default_cache()
    h = build_hmatrix(
        X,
        kernel,
        tree_config=TreeConfig(leaf_size=64, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-5, max_rank=64, num_samples=192, num_neighbors=8, seed=1
        ),
    )
    per_backend = {}
    solutions = {}
    for backend in PARALLEL_BACKENDS:
        t0 = time.perf_counter()
        dist = distributed_factorize(h, 0.5, n_ranks, backend=backend)
        t_factorize = time.perf_counter() - t0
        t0 = time.perf_counter()
        w, stats = distributed_solve(dist, u)
        t_solve = time.perf_counter() - t0
        solutions[backend] = w
        per_backend[backend] = {
            "factorize_s": t_factorize,
            "solve_s": t_solve,
            "total_s": t_factorize + t_solve,
            "comm_messages": stats.messages + dist.factor_stats.messages,
            "comm_bytes": stats.bytes + dist.factor_stats.bytes,
            "retries": stats.retries + dist.factor_stats.retries,
        }
    for backend in PARALLEL_BACKENDS[1:]:
        if not np.array_equal(solutions["thread"], solutions[backend]):
            raise AssertionError(
                f"backend parity violated at n={n}: thread and {backend} "
                "solutions differ bitwise"
            )
    result = {
        "n": n,
        "n_ranks": n_ranks,
        "bitwise_identical": True,
    }
    for backend in PARALLEL_BACKENDS:
        result[backend] = per_backend[backend]
    for backend in PARALLEL_BACKENDS[1:]:
        result[f"speedup_{backend}_vs_thread"] = (
            per_backend["thread"]["total_s"]
            / max(per_backend[backend]["total_s"], 1e-12)
        )
    return result


def bench_levelbatch_size(n: int, repeats: int = 7) -> dict:
    """Factorize wall time, policy groups vs groups of one, same H-matrix.

    Tree/skeleton construction is excluded from the timing (both runs
    share one skeletonized H-matrix and a warm block cache), so the
    ratio isolates what grouping a level buys: both runs execute the
    same stacked numerics, the second with every node as its own group.
    A fixed skeleton rank keeps the level shape groups uniform — the
    paper's regime, where every node of a level does the same-shaped
    work — and the small leaf size puts the tree in the many-small-nodes
    regime the batching targets: hundreds of sub-50 LU/GEMM calls per
    level, where per-node dispatch overhead rivals the arithmetic.
    Bitwise solution parity is asserted, not assumed; log-determinant
    parity is recorded (``slogdet_identical``, which CI asserts).
    """
    from repro.perf.levelbatch import BatchPolicy

    X, kernel, gen = make_problem(n)
    u = gen.standard_normal(n)
    configure_default_cache()
    h = build_hmatrix(
        X,
        kernel,
        tree_config=TreeConfig(leaf_size=16, seed=0),
        skeleton_config=SkeletonConfig(
            rank=12, num_samples=96, num_neighbors=8, seed=1
        ),
    )

    def run():
        cfg = SolverConfig(method="nlogn")
        best = float("inf")
        fact = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            fact = factorize(h, 0.5, cfg)
            best = min(best, time.perf_counter() - t0)
        return fact, best

    worth = BatchPolicy.worth
    BatchPolicy.worth = lambda self, *args, **kwargs: False
    try:
        fact_off, t_off = run()
    finally:
        BatchPolicy.worth = worth
    fact_on, t_on = run()
    w_off = fact_off.solve(u)
    w_on = fact_on.solve(u)
    bitwise = bool(np.array_equal(w_on, w_off))
    if not bitwise:
        raise AssertionError(
            f"level-batch parity violated at n={n}: grouped and "
            "groups-of-one solutions differ bitwise"
        )
    sd_on, sd_off = fact_on.slogdet(), fact_off.slogdet()
    return {
        "n": n,
        "repeats": repeats,
        "batched_factorize_s": t_on,
        "groups_of_one_factorize_s": t_off,
        "speedup_factorize": t_off / max(t_on, 1e-12),
        "bitwise_identical": bitwise,
        "slogdet_identical": bool(sd_on == sd_off),
        "residual_batched": float(fact_on.residual(u, w_on)),
    }


def bench_update_size(n: int, lam: float = 5.0) -> dict:
    """Incremental update vs from-scratch rebuild at matched accuracy.

    The wide-bandwidth / large-sample recipe keeps the ASKIT
    approximation error below the 1e-10 parity bar, so the comparison
    measures the update machinery, not the approximation floor.  The
    inserted points are clustered (a tight blob around one existing
    point) — the incremental path's target workload, where the dirty
    region is a few subtrees rather than the whole tree.
    """
    from repro.core.solver import FastKernelSolver

    def make_solver(X):
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=8.0),
            tree_config=TreeConfig(leaf_size=64, seed=0),
            skeleton_config=SkeletonConfig(
                tau=1e-12,
                num_samples=min(2048, n),
                num_neighbors=64,
                seed=1,
            ),
        )
        solver.fit(X)
        return solver

    gen = np.random.default_rng(2017)
    X = gen.standard_normal((n, 3))
    Xi = X[7] + 0.02 * gen.standard_normal((max(1, n // 100), 3))
    X_new = np.concatenate([X, Xi])
    u = gen.standard_normal(len(X_new))

    # (a) geometry: incremental insert vs full rebuild
    configure_default_cache()
    solver = make_solver(X)
    solver.factorize(lam)
    t0 = time.perf_counter()
    solver.update(X_insert=Xi)
    t_update = time.perf_counter() - t0
    report = solver.last_update

    configure_default_cache()
    t0 = time.perf_counter()
    fresh = make_solver(X_new)
    fresh.factorize(lam)
    t_rebuild = time.perf_counter() - t0

    w_upd, w_ref = solver.solve(u), fresh.solve(u)
    parity = float(
        np.abs(w_upd - w_ref).max() / max(1.0, np.abs(w_ref).max())
    )
    refactored_fraction = report.nodes_refactored / max(1, report.nodes_total)
    if report.mode != "incremental":
        raise AssertionError(
            f"expected the incremental path at n={n}, got {report.mode!r}"
        )
    if parity > 1e-10:
        raise AssertionError(
            f"update/rebuild parity violated at n={n}: {parity:.3e} > 1e-10"
        )
    if refactored_fraction >= 0.25:
        raise AssertionError(
            f"update refactorized {refactored_fraction:.1%} of the nodes "
            f"at n={n}; the incremental contract is < 25%"
        )

    # (b) lambda sweep: five update(lam=...) refits vs five rebuilds
    t0 = time.perf_counter()
    for lam_k in UPDATE_LAMBDAS:
        solver.update(lam=lam_k)
    t_sweep = time.perf_counter() - t0
    t_sweep_rebuild = 0.0
    for lam_k in UPDATE_LAMBDAS:
        configure_default_cache()
        t0 = time.perf_counter()
        s = make_solver(X_new)
        s.factorize(lam_k)
        t_sweep_rebuild += time.perf_counter() - t0
    sweep_speedup = t_sweep_rebuild / max(t_sweep, 1e-12)
    if sweep_speedup < 3.0:
        raise AssertionError(
            f"lambda sweep speedup {sweep_speedup:.2f}x at n={n}; the "
            "skeleton-reuse contract is >= 3x over full rebuilds"
        )

    return {
        "n": n,
        "n_inserted": len(Xi),
        "lam": lam,
        "update_s": t_update,
        "rebuild_s": t_rebuild,
        "speedup_update": t_rebuild / max(t_update, 1e-12),
        "parity_rel_err": parity,
        "dirty_leaves": report.dirty_leaves,
        "dirty_fraction": report.dirty_fraction,
        "nodes_total": report.nodes_total,
        "nodes_refactored": report.nodes_refactored,
        "nodes_reused": report.nodes_reused,
        "refactored_fraction": refactored_fraction,
        "sweep_lambdas": list(UPDATE_LAMBDAS),
        "sweep_update_s": t_sweep,
        "sweep_rebuild_s": t_sweep_rebuild,
        "speedup_sweep": sweep_speedup,
    }


def run_update_bench(args) -> int:
    sizes = args.sizes
    out = args.out
    if args.smoke:
        sizes = [1024]
        if out == UPDATE_OUT:
            out = UPDATE_OUT.with_suffix(".smoke.json")

    reset_telemetry()
    runs = []
    for n in sizes:
        print(f"[bench_update] n={n} ...", flush=True)
        run = bench_update_size(n)
        runs.append(run)
        print(
            f"  update {run['update_s']:.3f}s  rebuild {run['rebuild_s']:.3f}s  "
            f"speedup {run['speedup_update']:.2f}x  "
            f"refac {run['refactored_fraction']:.1%}  "
            f"parity {run['parity_rel_err']:.2e}  "
            f"sweep {run['speedup_sweep']:.2f}x",
            flush=True,
        )

    payload = {
        "benchmark": "incremental_update_vs_rebuild",
        "method": "nlogn direct, clustered 1% inserts + 5-value lambda sweep",
        "kernel": "gaussian(h=8.0), 3-D standard normal points",
        "runs": runs,
        "telemetry": telemetry_snapshot(),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_update] wrote {out}")
    return 0


def run_levelbatch_bench(args) -> int:
    sizes = args.sizes
    out = args.out
    if args.smoke:
        sizes = [1024]
        if out == LEVELBATCH_OUT:
            out = LEVELBATCH_OUT.with_suffix(".smoke.json")

    reset_telemetry()
    runs = []
    for n in sizes:
        print(f"[bench_levelbatch] n={n} ...", flush=True)
        run = bench_levelbatch_size(n)
        runs.append(run)
        print(
            f"  batched {run['batched_factorize_s']:.4f}s  "
            f"groups of one {run['groups_of_one_factorize_s']:.4f}s  "
            f"speedup {run['speedup_factorize']:.2f}x  "
            f"bitwise={run['bitwise_identical']}",
            flush=True,
        )

    from repro.perfmodel.machine import probed_machine

    spec = probed_machine()
    payload = {
        "benchmark": "level_batched_vs_groups_of_one_factorization",
        "method": "nlogn direct, fixed rank 12, leaf 16",
        "kernel": "gaussian(h=1.0), 3-D standard normal points",
        "machine": {
            "name": spec.name,
            "gemm_gflops": spec.gemm_gflops,
            "stream_bw_gbs": spec.stream_bw_gbs,
            "dispatch_us": spec.dispatch_us,
        },
        "runs": runs,
        "telemetry": telemetry_snapshot(),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_levelbatch] wrote {out}")
    return 0


def run_parallel_bench(args) -> int:
    import os

    sizes, n_ranks = args.sizes, args.ranks
    out = args.out
    if args.smoke:
        sizes, n_ranks = [512], 2
        if out == PARALLEL_OUT:
            out = PARALLEL_OUT.with_suffix(".smoke.json")

    reset_telemetry()
    cpu_count = os.cpu_count() or 1
    runs = []
    for n in sizes:
        print(f"[bench_parallel] n={n} p={n_ranks} ...", flush=True)
        run = bench_parallel_size(n, n_ranks)
        runs.append(run)
        print(
            f"  thread {run['thread']['total_s']:.3f}s  "
            f"socket {run['socket']['total_s']:.3f}s  "
            f"speedup(socket) {run['speedup_socket_vs_thread']:.2f}x  "
            f"bitwise={run['bitwise_identical']}",
            flush=True,
        )
        # the scaling claim is hardware-honest: only assert multi-core
        # backends win when the host actually has cores to win with.
        if cpu_count >= 2 and n >= 2048:
            for backend in PARALLEL_BACKENDS[1:]:
                speedup = run[f"speedup_{backend}_vs_thread"]
                if speedup <= 1.0:
                    raise AssertionError(
                        f"{backend} backend failed to beat the thread "
                        f"backend at n={n} on a {cpu_count}-core host "
                        f"(speedup {speedup:.2f}x)"
                    )

    payload = {
        "benchmark": "vmpi_backend_axis",
        "method": "nlogn distributed (Algorithms II.4/II.5)",
        "kernel": "gaussian(h=1.0), 3-D standard normal points",
        "cpu_count": cpu_count,
        "speedup_asserted": bool(cpu_count >= 2),
        "note": (
            "speedups over the thread backend require real cores; on a "
            "single-CPU host the socket backend pays spawn + IPC "
            "overhead with no parallelism to win back, so the "
            "speedup assertion is gated on cpu_count >= 2"
        ),
        "runs": runs,
        "telemetry": telemetry_snapshot(),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_parallel] wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument("--k", type=int, default=DEFAULT_K)
    parser.add_argument(
        "--level-restriction", type=int, default=3,
        help="frontier level L for the hybrid method",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--trace-out", type=pathlib.Path, default=None,
        help="also write the standalone telemetry blob "
             "(repro.telemetry/v1) to this path (CI uploads it)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny single-size run for CI (overrides --sizes/--k)",
    )
    parser.add_argument(
        "--parallel", action="store_true",
        help="benchmark the vMPI backend axis (thread vs socket) "
             "instead; writes BENCH_parallel.json",
    )
    parser.add_argument(
        "--ranks", type=int, default=DEFAULT_RANKS,
        help="virtual ranks for --parallel (power of two)",
    )
    parser.add_argument(
        "--level-batch-compare", action="store_true",
        help="benchmark the policy's level groups vs every node as a "
             "group of one instead; writes BENCH_levelbatch.json",
    )
    parser.add_argument(
        "--update-compare", action="store_true",
        help="benchmark incremental update() vs full rebuild instead "
             "(1% clustered inserts + 5-value lambda sweep); writes "
             "BENCH_update.json",
    )
    args = parser.parse_args(argv)

    if args.update_compare:
        if args.out == DEFAULT_OUT:
            args.out = UPDATE_OUT
        if args.sizes == list(DEFAULT_SIZES):
            args.sizes = list(DEFAULT_UPDATE_SIZES)
        return run_update_bench(args)

    if args.level_batch_compare:
        if args.out == DEFAULT_OUT:
            args.out = LEVELBATCH_OUT
        if args.sizes == list(DEFAULT_SIZES):
            args.sizes = list(DEFAULT_LEVELBATCH_SIZES)
        return run_levelbatch_bench(args)

    if args.parallel:
        if args.out == DEFAULT_OUT:
            args.out = PARALLEL_OUT
        if args.sizes == list(DEFAULT_SIZES):
            args.sizes = list(DEFAULT_PARALLEL_SIZES)
        return run_parallel_bench(args)

    sizes, k, level = args.sizes, args.k, args.level_restriction
    if args.smoke:
        sizes, k, level = [512], 4, 2
        if args.out == DEFAULT_OUT:
            # don't clobber the full-run artifact with smoke-sized numbers
            args.out = DEFAULT_OUT.with_suffix(".smoke.json")

    reset_telemetry()  # the blob should cover exactly this bench run
    runs = []
    for n in sizes:
        print(f"[bench_perf] n={n} k={k} ...", flush=True)
        run = bench_size(n, k, level)
        runs.append(run)
        print(
            f"  optimized {run['optimized']['total_s']:.3f}s  "
            f"gmres iters {run['optimized']['reduced_gmres_iters']}  "
            f"hit-rate {run['optimized']['cache_hit_rate']:.2f}  "
            f"peak words {run['optimized']['peak_storage_words']}",
            flush=True,
        )

    telemetry = telemetry_snapshot()
    payload = {
        "benchmark": "perf_layer",
        "method": "hybrid",
        "kernel": "gaussian(h=1.0), 3-D standard normal points",
        "runs": runs,
        "telemetry": telemetry,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_perf] wrote {args.out}")
    if args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps(telemetry, indent=2) + "\n")
        print(f"[bench_perf] wrote telemetry blob {args.trace_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
