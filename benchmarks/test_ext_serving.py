"""Extension bench: coalesced serving vs one solve per request.

The paper's solver takes one right-hand side at a time.  The serving
layer (docs/SERVING.md) stacks concurrent single-RHS requests against
one resident factorization into a single ``(N, k)`` panel solve.
Sixteen clients each send one request at the same moment: served
through one :class:`repro.serve.SolverService` they must all be
answered at least 2x sooner than the same sixteen solves run back to
back, each answer equal to its serial solve to 1e-12.
"""

import threading
import time

import numpy as np

from conftest import emit
from repro import FastKernelSolver, GaussianKernel
from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.serve import ServeConfig, SolverService

N = 4096
CLIENTS = 16
PARITY_TOL = 1e-12


def _solver():
    solver = FastKernelSolver(
        GaussianKernel(bandwidth=1.0),
        tree_config=TreeConfig(leaf_size=64, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-5, max_rank=64, num_samples=192, num_neighbors=8,
            level_restriction=3, seed=1,
        ),
        # GMRES tolerance well below the parity bar, so the check
        # compares batching, not two Krylov stopping points.
        solver_config=SolverConfig(
            method="hybrid", gmres=GMRESConfig(tol=1e-14, max_iters=400)
        ),
    )
    solver.fit(np.random.default_rng(2017).standard_normal((N, 3)))
    solver.factorize(0.5)
    return solver


def _serve(solver, rhs):
    """All clients release together; wall time until the last answer."""
    service = SolverService(ServeConfig(window_seconds=0.05, max_batch=len(rhs)))
    service.registry.register(solver)
    results, errors = [None] * len(rhs), []
    barrier = threading.Barrier(len(rhs) + 1)

    def client(i):
        barrier.wait()
        try:
            results[i] = service.solve(rhs[i])
        except Exception as exc:  # re-raised after the join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(rhs))]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    health = service.health()
    service.close()
    if errors:
        raise errors[0]
    return results, wall, health


def test_ext_serving(benchmark):
    solver = _solver()
    gen = np.random.default_rng(7)
    rhs = [gen.standard_normal(N) for _ in range(CLIENTS)]

    t0 = time.perf_counter()
    serial = [solver.solve(u) for u in rhs]
    t_serial = time.perf_counter() - t0
    served, t_served, health = benchmark.pedantic(
        _serve, args=(solver, rhs), rounds=1, iterations=1
    )

    parity = max(
        np.abs(got.w - ref).max() / np.abs(ref).max()
        for got, ref in zip(served, serial)
    )
    telemetry_ok = all(
        entry["telemetry"].get("schema") == "repro.telemetry/v1"
        for entry in health["models"].values()
    )
    speedup = t_serial / t_served
    emit("ext_serving", [
        f"EXTENSION -- coalesced serving: {CLIENTS} concurrent single-RHS "
        f"requests, N = {N}, hybrid L = 3",
        "",
        f"serialized  {t_serial:.3f}s  ({CLIENTS / t_serial:.1f} req/s)",
        f"coalesced   {t_served:.3f}s  ({CLIENTS / t_served:.1f} req/s)  "
        f"batch sizes {sorted({r.batch_size for r in served})}",
        f"speedup     {speedup:.2f}x  (contract >= 2x)",
        f"parity      {parity:.1e}  (contract <= {PARITY_TOL:.0e})",
    ])

    assert parity <= PARITY_TOL
    assert telemetry_ok, "health endpoint telemetry blob invalid"
    assert speedup >= 2.0, f"coalesced speedup {speedup:.2f}x < 2x"
