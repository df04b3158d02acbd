"""Task-parallel factorization: DAG construction, scheduling, execution."""

import numpy as np
import pytest

from repro.config import SkeletonConfig, SolverConfig, TreeConfig
from repro.exceptions import ConfigurationError
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.parallel.taskdag import (
    REDUCED_TASK,
    FactorTask,
    TaskDAG,
    build_factor_dag,
    execute_factorization,
    simulate_schedule,
)
from repro.solvers import factorize

RNG = np.random.default_rng(23)


@pytest.fixture(scope="module")
def dag_problem():
    # clusters of very different tightness -> adaptive ranks vary widely.
    centers = RNG.standard_normal((4, 6)) * 3.0
    spreads = [0.05, 0.3, 0.8, 1.5]
    X = np.concatenate(
        [c + s * RNG.standard_normal((128, 6)) for c, s in zip(centers, spreads)]
    )
    h = build_hmatrix(
        X,
        GaussianKernel(bandwidth=1.0),
        tree_config=TreeConfig(leaf_size=32, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-6, max_rank=96, num_samples=192, num_neighbors=8, seed=2
        ),
    )
    return h, build_factor_dag(h)


class TestDAGStructure:
    def test_one_task_per_node_plus_reduced(self, dag_problem):
        h, dag = dag_problem
        assert len(dag.tasks) == len(h._nodes_at_or_below_frontier()) + 1
        assert REDUCED_TASK in dag.tasks

    def test_dependencies_are_children(self, dag_problem):
        h, dag = dag_problem
        tree = h.tree
        for tid, task in dag.tasks.items():
            if tid == REDUCED_TASK:
                assert set(task.deps) == {f.id for f in h.frontier}
            elif tree.is_leaf(tree.node(tid)):
                assert task.deps == ()
            else:
                assert set(task.deps) == {2 * tid, 2 * tid + 1}

    def test_costs_positive(self, dag_problem):
        _, dag = dag_problem
        assert all(t.cost > 0 for t in dag.tasks.values())

    def test_critical_path_bounds(self, dag_problem):
        _, dag = dag_problem
        cp = dag.critical_path_cost
        assert cp <= dag.total_cost
        # the critical path includes at least one leaf-to-root chain.
        chain = max(t.cost for t in dag.tasks.values())
        assert cp >= chain

    def test_adaptive_ranks_create_imbalance(self, dag_problem):
        """Internal-node costs at one level should differ measurably
        (adaptive ranks, the paper's load-balancing motivation; leaf
        costs are m^3-dominated and stay balanced)."""
        h, dag = dag_problem
        level = max(1, h.tree.depth - 1)
        costs = [dag.tasks[n.id].cost for n in h.tree.level_nodes(level)]
        assert max(costs) > 1.2 * min(costs)


class TestScheduleSimulation:
    @pytest.mark.parametrize("policy", ["level", "task"])
    def test_makespan_bounds(self, dag_problem, policy):
        _, dag = dag_problem
        for p in (1, 2, 4, 8):
            res = simulate_schedule(dag, p, policy)
            assert res.makespan >= dag.total_cost / p * (1 - 1e-12)
            assert res.makespan <= dag.total_cost * (1 + 1e-12)
            assert res.speedup_vs_serial <= p * (1 + 1e-12)
            assert len(res.utilization) == p
            assert all(0 <= u <= 1 + 1e-9 for u in res.utilization)

    def test_task_never_worse_than_level(self, dag_problem):
        _, dag = dag_problem
        for p in (2, 4, 8, 16):
            lv = simulate_schedule(dag, p, "level")
            tk = simulate_schedule(dag, p, "task")
            assert tk.makespan <= lv.makespan * 1.001, p

    def test_single_worker_equals_total(self, dag_problem):
        _, dag = dag_problem
        for policy in ("level", "task"):
            res = simulate_schedule(dag, 1, policy)
            assert res.makespan == pytest.approx(dag.total_cost)

    def test_task_respects_critical_path(self, dag_problem):
        _, dag = dag_problem
        res = simulate_schedule(dag, 64, "task")
        assert res.makespan >= dag.critical_path_cost - 1e-9

    def test_rejects_bad_inputs(self, dag_problem):
        _, dag = dag_problem
        with pytest.raises(ConfigurationError):
            simulate_schedule(dag, 0)
        with pytest.raises(ConfigurationError):
            simulate_schedule(dag, 2, "chaotic")

    def test_handmade_chain_vs_parallel(self):
        """Sanity on a tiny hand-built DAG: a chain cannot parallelize,
        independent tasks parallelize perfectly."""
        chain = TaskDAG(tasks={
            1: FactorTask(1, level=2, cost=1.0, deps=()),
            2: FactorTask(2, level=1, cost=1.0, deps=(1,)),
            3: FactorTask(3, level=0, cost=1.0, deps=(2,)),
        })
        assert simulate_schedule(chain, 4, "task").makespan == pytest.approx(3.0)
        indep = TaskDAG(tasks={
            i: FactorTask(i, level=0, cost=1.0, deps=()) for i in range(1, 5)
        })
        assert simulate_schedule(indep, 4, "task").makespan == pytest.approx(1.0)
        assert simulate_schedule(indep, 2, "task").makespan == pytest.approx(2.0)


class TestParallelExecution:
    def test_matches_serial_factorization(self, dag_problem):
        h, _ = dag_problem
        serial = factorize(h, 0.4)
        parallel = execute_factorization(h, 0.4, n_workers=4)
        u = RNG.standard_normal(h.n_points)
        assert np.allclose(parallel.solve(u), serial.solve(u), atol=1e-10)
        assert parallel.residual(u, parallel.solve(u)) < 1e-10

    def test_hybrid_method_supported(self, dag_problem):
        h, _ = dag_problem
        from repro.config import GMRESConfig

        cfg = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-10, max_iters=200))
        parallel = execute_factorization(h, 0.4, cfg, n_workers=3)
        u = RNG.standard_normal(h.n_points)
        w = parallel.solve(u)
        assert parallel.residual(u, w) < 1e-8

    def test_single_worker(self, dag_problem):
        h, _ = dag_problem
        fact = execute_factorization(h, 0.4, n_workers=1)
        u = RNG.standard_normal(h.n_points)
        assert fact.residual(u, fact.solve(u)) < 1e-10

    def test_rejects_nlog2n(self, dag_problem):
        h, _ = dag_problem
        with pytest.raises(ConfigurationError):
            execute_factorization(h, 0.4, SolverConfig(method="nlog2n"))

    def test_single_leaf_tree(self):
        X = RNG.standard_normal((20, 3))
        h = build_hmatrix(
            X, GaussianKernel(bandwidth=1.0), tree_config=TreeConfig(leaf_size=32)
        )
        fact = execute_factorization(h, 0.5, n_workers=2)
        u = RNG.standard_normal(20)
        assert fact.residual(u, fact.solve(u)) < 1e-12

    def test_recovery_ladder_matches_serial(self):
        """A near-singular problem at lambda = 0: node tasks take the
        same lambda bumps as the serial factorization, bit for bit, on
        more workers than cores and with frequent thread switches."""
        import sys
        import warnings

        from repro.config import RecoveryConfig

        X = np.random.default_rng(0).standard_normal((256, 3))
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=8.0),
            tree_config=TreeConfig(leaf_size=32),
            skeleton_config=SkeletonConfig(rank=16),
        )
        cfg = SolverConfig(recovery=RecoveryConfig(enabled=True))
        u = RNG.standard_normal(256)
        by_node = lambda f: sorted(  # noqa: E731
            (e["node_id"], e["attempts"]) for e in f.recovery_events
        )
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                serial = factorize(h, 0.0, cfg)
                assert serial.recovery_events
                for _ in range(3):
                    parallel = execute_factorization(h, 0.0, cfg, n_workers=8)
                    assert by_node(parallel) == by_node(serial)
                    assert np.array_equal(parallel.solve(u), serial.solve(u))
        finally:
            sys.setswitchinterval(interval)

    def test_propagates_task_errors(self, dag_problem):
        h, _ = dag_problem
        # negative lambda passes factorize()'s entry check only through
        # execute_factorization's internals; simulate an error by making
        # the kernel produce NaN blocks.
        bad = build_hmatrix(
            RNG.standard_normal((128, 3)),
            GaussianKernel(bandwidth=1.0),
            tree_config=TreeConfig(leaf_size=32, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-6, max_rank=32, num_samples=64, num_neighbors=0, seed=2
            ),
        )
        # poison a cached leaf block so the LU raises.
        leaf = bad.tree.leaves()[0]
        bad.cache.put(
            (bad._ns, "leaf", leaf.id), np.full((leaf.size, leaf.size), np.nan)
        )
        with pytest.raises(Exception):
            execute_factorization(bad, 0.5, n_workers=2)
