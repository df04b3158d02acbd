"""Shared fixtures: small point clouds and prebuilt hierarchical matrices.

Module-scoped where construction is expensive; all seeded for
reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SkeletonConfig, TreeConfig
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.tree import BallTree


@pytest.fixture(scope="session", autouse=True)
def no_stray_rank_processes():
    """Fail the session when a socket rank process outlives it.

    A world's ranks end with the world: on ``close()``, with the handle
    that owns it, or when a program fails.
    """
    yield
    import gc
    import multiprocessing

    gc.collect()
    stray = [
        p.name
        for p in multiprocessing.active_children()
        if p.name.startswith("vmpi-sock-rank")
    ]
    assert not stray, f"vmpi rank processes still alive at session end: {stray}"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def points_small():
    """400 points in 4-D with mild cluster structure."""
    gen = np.random.default_rng(7)
    centers = gen.standard_normal((4, 4)) * 2.0
    X = np.concatenate(
        [c + 0.5 * gen.standard_normal((100, 4)) for c in centers], axis=0
    )
    return X


@pytest.fixture(scope="session")
def gaussian_kernel():
    return GaussianKernel(bandwidth=2.0)


@pytest.fixture(scope="session")
def tree_small(points_small):
    return BallTree(points_small, TreeConfig(leaf_size=25, seed=3))


@pytest.fixture(scope="session")
def hmatrix_small(points_small, gaussian_kernel):
    """Accurate H-matrix over the small cloud (tau = 1e-9)."""
    return build_hmatrix(
        points_small,
        gaussian_kernel,
        tree_config=TreeConfig(leaf_size=25, seed=3),
        skeleton_config=SkeletonConfig(
            tau=1e-9, max_rank=64, num_samples=220, num_neighbors=8, seed=5
        ),
    )


@pytest.fixture(scope="session")
def hmatrix_restricted(points_small, gaussian_kernel):
    """Same cloud with level restriction L=2 (frontier below the top)."""
    return build_hmatrix(
        points_small,
        gaussian_kernel,
        tree_config=TreeConfig(leaf_size=25, seed=3),
        skeleton_config=SkeletonConfig(
            tau=1e-9,
            max_rank=64,
            num_samples=220,
            num_neighbors=8,
            seed=5,
            level_restriction=2,
        ),
    )


@pytest.fixture()
def resume_without_work():
    """:meth:`FastKernelSolver.resume`, held to "rebuild, never refactor".

    The returned ``resume(path)`` asserts that resuming spent no
    ``factor_*`` flops, recorded no ``recovery.events`` and emitted no
    warning, and that it transplanted every node of a factorization.
    """
    from repro.core import FastKernelSolver
    from repro.obs import registry
    from repro.solvers.factorization import HierarchicalFactorization
    from repro.util.flops import FlopCounter

    def resume(path):
        events = registry().total("recovery.events")
        warned = registry().total("warnings.emitted")
        with FlopCounter() as counter:
            resumed = FastKernelSolver.resume(path)
        assert registry().total("recovery.events") == events
        assert registry().total("warnings.emitted") == warned
        assert [k for k in counter.by_label if k.startswith("factor_")] == []
        fact = resumed.factorization
        if isinstance(fact, HierarchicalFactorization):
            assert fact.nodes_resumed == len(fact.leaf_factors) + len(fact.node_factors)
        return resumed

    return resume


@pytest.fixture()
def model_snapshot():
    """``snapshot(solver, u)``: what a resumed solver reproduces bitwise.

    The solve, slogdet (or its error's message), diagnostics less the
    process-wide block-cache counters, health and the factorization's
    lambda-bump events in order.
    """
    from repro.exceptions import NotFactorizedError

    def snapshot(solver, u):
        w = solver.solve(u)
        solver.residual(u, w)
        try:
            logdet = solver.slogdet()
        except NotFactorizedError as exc:
            logdet = str(exc)
        diagnostics = solver.diagnostics()
        return {
            "w": w.tobytes(),
            "slogdet": logdet,
            "diagnostics": {
                k: v for k, v in diagnostics.items() if not k.startswith("cache_")
            },
            "health": solver.health,
            "recovery_events": getattr(solver.factorization, "recovery_events", None),
        }

    return snapshot
