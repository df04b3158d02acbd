"""update() parity across execution backends and level groupings.

An incrementally updated model must be indistinguishable from a
from-scratch rebuild no matter how the downstream factorization runs:
serial with the policy's level groups or every node as a group of one
(``BatchPolicy.worth`` monkeypatched), and distributed over the thread /
socket vMPI backends — with and without seeded chaos on the wire.
"""

import numpy as np
import pytest

from repro.config import SkeletonConfig, TreeConfig
from repro.core.solver import FastKernelSolver
from repro.kernels import GaussianKernel
from repro.parallel.dist_solver import distributed_factorize, distributed_solve
from repro.parallel.vmpi import FaultPlan
from repro.perf.levelbatch import BatchPolicy

N, D, LAM = 1024, 4, 5.0


def groups_of_one(monkeypatch, switch):
    """``switch == "0"`` runs every node as a group of one."""
    if switch == "0":
        monkeypatch.setattr(BatchPolicy, "worth", lambda self, *a, **k: False)


def build_solver(X):
    solver = FastKernelSolver(
        GaussianKernel(bandwidth=8.0),
        tree_config=TreeConfig(leaf_size=64, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-12, num_samples=1024, num_neighbors=64, seed=2
        ),
    )
    solver.fit(X)
    return solver


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((N, D))
    Xi = X[7] + 0.02 * rng.standard_normal((N // 100, D))
    u = rng.standard_normal(N + len(Xi))
    return X, Xi, u


@pytest.fixture(scope="module")
def updated(data):
    """One solver updated in place, one rebuilt from scratch."""
    X, Xi, u = data
    solver = build_solver(X)
    solver.factorize(LAM)
    solver.update(X_insert=Xi)
    assert solver.last_update.mode == "incremental"
    fresh = build_solver(np.concatenate([X, Xi]))
    fresh.factorize(LAM)
    return solver, fresh


def rel_err(w, w_ref):
    return np.abs(w - w_ref).max() / max(1.0, np.abs(w_ref).max())


def dist_solve_user_order(dist, u, tree):
    """distributed_solve works in tree order; wrap it like the facade."""
    w_tree, _ = distributed_solve(dist, u[tree.perm])
    w = np.empty_like(w_tree)
    w[tree.perm] = w_tree
    return w


class TestDistributedBackends:
    @pytest.mark.parametrize("backend", ["thread", "socket"])
    def test_backend_parity_after_update(self, updated, data, backend):
        solver, fresh, = updated
        _, _, u = data
        dist = distributed_factorize(
            solver.hmatrix, LAM, n_ranks=2, backend=backend
        )
        w = dist_solve_user_order(dist, u, solver.hmatrix.tree)
        # distributed-on-updated vs serial-on-updated (transplanted
        # factors): bitwise contract
        assert np.array_equal(w, solver.solve(u))
        # and vs the from-scratch rebuild: the acceptance tolerance
        assert rel_err(w, fresh.solve(u)) < 1e-10

    def test_chaos_parity_after_update(self, updated, data):
        """Seeded wire faults on the updated model change nothing."""
        solver, fresh = updated
        _, _, u = data
        tree = solver.hmatrix.tree
        clean = distributed_factorize(solver.hmatrix, LAM, n_ranks=2)
        w_clean = dist_solve_user_order(clean, u, tree)
        chaos = distributed_factorize(
            solver.hmatrix,
            LAM,
            n_ranks=2,
            fault_plan=FaultPlan(seed=9, drop_rate=0.05, corrupt_rate=0.025),
        )
        w_chaos = dist_solve_user_order(chaos, u, tree)
        assert chaos.factor_stats.retries > 0 or chaos.factor_stats.drops > 0
        assert np.array_equal(w_chaos, w_clean)
        assert rel_err(w_chaos, fresh.solve(u)) < 1e-10


class TestLevelBatchSwitch:
    @pytest.mark.parametrize("switch", ["0", "1"])
    def test_update_parity_with_and_without_batching(
        self, data, monkeypatch, switch
    ):
        X, Xi, u = data
        groups_of_one(monkeypatch, switch)
        solver = build_solver(X)
        solver.factorize(LAM)
        solver.update(X_insert=Xi)
        assert solver.last_update.mode == "incremental"
        fresh = build_solver(np.concatenate([X, Xi]))
        fresh.factorize(LAM)
        assert rel_err(solver.solve(u), fresh.solve(u)) < 1e-10

    def test_batched_and_unbatched_updates_bitwise_equal(self, data, monkeypatch):
        X, Xi, u = data
        ws = {}
        for switch in ("1", "0"):
            groups_of_one(monkeypatch, switch)
            solver = build_solver(X)
            solver.factorize(LAM)
            solver.update(X_insert=Xi)
            ws[switch] = solver.solve(u)
        assert np.array_equal(ws["0"], ws["1"])
