"""Task-parallel factorization model: DAG construction and schedule simulation."""

import numpy as np
import pytest

from repro.config import SkeletonConfig, TreeConfig
from repro.exceptions import ConfigurationError
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.parallel.taskdag import (
    REDUCED_TASK,
    FactorTask,
    TaskDAG,
    build_factor_dag,
    simulate_schedule,
)

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
