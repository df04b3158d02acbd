#!/usr/bin/env python
"""Serving-layer benchmark: coalesced concurrent solves vs serialized.

The scenario the serving layer exists for: ``K`` concurrent clients
each ask the daemon for one single-RHS solve against the same resident
factorized model.  Two ways to serve them over the *same* factorization:

* ``coalesced`` — this PR's :class:`repro.serve.SolverService`: the
  requests land in one coalescing window, are stacked column-wise into
  a single ``(N, K)`` batched ``gmres_batched`` solve, and scattered
  back (BENCH_perf.json measured the raw batched-vs-column kernel gap
  at 3–5x; this benchmark measures it end-to-end through the service,
  threads, window latency and all);
* ``serialized`` — the baseline a daemon-less deployment gets: the
  same K right-hand sides solved back to back, one single-RHS solve
  per request.

Emits ``benchmarks/results/BENCH_serve.json`` with aggregate
throughput (requests/s) for both paths, the speedup ratio, the
coalescer's observed batch sizes, per-request parity against the
serial reference (must match to 1e-12), and a validity check of the
health endpoint's per-resident ``repro.telemetry/v1`` blob.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py           # full
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_serve.py --n 4096 --clients 16
"""

from __future__ import annotations

import argparse
import json
import pathlib
import threading
import time

import numpy as np

from repro import FastKernelSolver, GaussianKernel
from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.obs import reset_telemetry
from repro.serve import ServeConfig, SolverService

DEFAULT_N = 4096
DEFAULT_CLIENTS = 16
DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_serve.json"
PARITY_TOL = 1e-12


def build_solver(n: int, *, level_restriction: int = 3) -> FastKernelSolver:
    gen = np.random.default_rng(2017)
    X = gen.standard_normal((n, 3))
    solver = FastKernelSolver(
        GaussianKernel(bandwidth=1.0),
        tree_config=TreeConfig(leaf_size=64, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-5,
            max_rank=64,
            num_samples=192,
            num_neighbors=8,
            level_restriction=level_restriction,
            seed=1,
        ),
        # GMRES tolerance well below the 1e-12 parity requirement.  A
        # panel column now returns its own k = 1 solve (to roundoff at
        # any tol); the margin keeps the check independent of that.
        solver_config=SolverConfig(
            method="hybrid", gmres=GMRESConfig(tol=1e-14, max_iters=400)
        ),
    )
    solver.fit(X)
    solver.factorize(0.5)
    return solver


def run_serialized(solver: FastKernelSolver, rhs: list[np.ndarray]):
    """Baseline: one single-RHS solve per request, back to back."""
    t0 = time.perf_counter()
    results = [solver.solve(u) for u in rhs]
    wall = time.perf_counter() - t0
    return results, wall


def run_coalesced(solver: FastKernelSolver, rhs: list[np.ndarray]):
    """K concurrent clients against one SolverService."""
    k = len(rhs)
    service = SolverService(
        ServeConfig(window_seconds=0.05, max_batch=k)
    )
    service.registry.register(solver)
    results = [None] * k
    errors: list[Exception] = []
    barrier = threading.Barrier(k + 1)

    def client(i: int) -> None:
        try:
            barrier.wait()
            results[i] = service.solve(rhs[i])
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(k)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    health = service.health()
    service.close()
    return results, wall, health


def bench(n: int, clients: int) -> dict:
    reset_telemetry()
    solver = build_solver(n)
    gen = np.random.default_rng(7)
    rhs = [gen.standard_normal(n) for _ in range(clients)]

    serial_results, serial_wall = run_serialized(solver, rhs)
    served_results, served_wall, health = run_coalesced(solver, rhs)

    parity = 0.0
    for got, ref in zip(served_results, serial_results):
        scale = float(np.max(np.abs(ref)))
        parity = max(parity, float(np.max(np.abs(got.w - ref))) / scale)

    telemetry_ok = all(
        entry["telemetry"].get("schema") == "repro.telemetry/v1"
        for entry in health["models"].values()
    )
    ratio = serial_wall / served_wall if served_wall > 0 else float("inf")
    row = {
        "n": n,
        "clients": clients,
        "serialized_wall_s": serial_wall,
        "coalesced_wall_s": served_wall,
        "serialized_rps": clients / serial_wall,
        "coalesced_rps": clients / served_wall,
        "speedup": ratio,
        "parity_max_rel_err": parity,
        "parity_tol": PARITY_TOL,
        "batch_sizes_seen": sorted(
            {r.batch_size for r in served_results}
        ),
        "coalesced_batches": health["coalescer"]["coalesced_batches"],
        "health_schema": health["schema"],
        "per_model_telemetry_valid": telemetry_ok,
    }
    print(
        f"n={n:>6} clients={clients:>3}  serialized {serial_wall:.3f}s "
        f"({row['serialized_rps']:.1f} rps)  coalesced {served_wall:.3f}s "
        f"({row['coalesced_rps']:.1f} rps)  speedup {ratio:.2f}x  "
        f"parity {parity:.2e}"
    )
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--smoke", action="store_true",
                        help="small problem, no speedup assertion (CI)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()

    n = 1024 if args.smoke else args.n
    clients = 8 if args.smoke else args.clients
    row = bench(n, clients)

    blob = {
        "schema": "repro.bench/serve-v1",
        "smoke": args.smoke,
        "results": [row],
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(blob, f, indent=2)
    print(f"wrote {args.out}")

    if row["parity_max_rel_err"] > PARITY_TOL:
        print(f"FAIL: parity {row['parity_max_rel_err']:.2e} > {PARITY_TOL}")
        return 1
    if not row["per_model_telemetry_valid"]:
        print("FAIL: health endpoint telemetry blob invalid")
        return 1
    if not args.smoke and row["speedup"] < 2.0:
        print(f"FAIL: coalesced speedup {row['speedup']:.2f}x < 2.0x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
