"""Task-parallel tree traversal (the paper's stated future work), modelled.

From the conclusions: *"we would like to introduce task parallelism in
the tree traversal to address the load balancing issue.  While adaptive
ranks ... are used, each treenode may have different workload.  In this
case, scheduling is important to avoid the critical path."*

This module models that question; it does not execute the
factorization (every in-process factorization runs
:func:`repro.solvers.factorize`'s level loop on the caller's thread):

* :func:`build_factor_dag` — the factorization as a task DAG: one task
  per node at/below the frontier (child tasks precede the parent, which
  matches the data dependencies of Algorithm II.2: a node needs its
  children's ``P^``), plus one coalescing task for the frontier system.
  Task costs are the flop estimates implied by the actual skeleton
  ranks, so adaptive-rank imbalance is visible in the DAG.
* :func:`simulate_schedule` — event-driven simulation of ``p`` workers
  under two policies: ``"level"`` (the paper's current implementation:
  level-by-level traversal with a barrier per level) and ``"task"``
  (list scheduling by critical-path priority, no barriers).  Returns
  makespan and utilization, quantifying what task parallelism buys.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hmatrix.hmatrix import HMatrix

__all__ = [
    "FactorTask",
    "TaskDAG",
    "ScheduleResult",
    "build_factor_dag",
    "simulate_schedule",
]

#: task id of the coalesced frontier stage (tree node ids start at 1,
#: and 0 is never a node).
REDUCED_TASK = 0


@dataclass
class FactorTask:
    """One schedulable unit of the factorization.

    ``cost`` is in flops (modeled from the node's size and the actual
    skeleton ranks); ``deps`` are task ids that must complete first.
    """

    task_id: int
    level: int
    cost: float
    deps: tuple[int, ...]


@dataclass
class TaskDAG:
    """The factorization DAG plus derived scheduling metadata."""

    tasks: dict[int, FactorTask]

    def successors(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {tid: [] for tid in self.tasks}
        for task in self.tasks.values():
            for dep in task.deps:
                succ[dep].append(task.task_id)
        return succ

    def critical_path_priority(self) -> dict[int, float]:
        """Bottom-level (task cost + longest downstream chain) per task."""
        succ = self.successors()
        priority: dict[int, float] = {}
        # reverse topological order: lower level = later in the DAG
        # (parents above, reduced task at level -1 last), so ascending
        # level order visits consumers before their producers.
        for task in sorted(self.tasks.values(), key=lambda t: t.level):
            downstream = [priority[s] for s in succ[task.task_id] if s in priority]
            priority[task.task_id] = task.cost + (max(downstream) if downstream else 0.0)
        return priority

    @property
    def total_cost(self) -> float:
        return sum(t.cost for t in self.tasks.values())

    @property
    def critical_path_cost(self) -> float:
        return max(self.critical_path_priority().values())


@dataclass
class ScheduleResult:
    """Outcome of a schedule simulation."""

    policy: str
    n_workers: int
    makespan: float
    total_cost: float
    #: per-worker busy time / makespan.
    utilization: list[float] = field(default_factory=list)

    @property
    def speedup_vs_serial(self) -> float:
        return self.total_cost / self.makespan if self.makespan > 0 else 1.0

    @property
    def efficiency(self) -> float:
        return self.speedup_vs_serial / self.n_workers


def _node_cost(h: HMatrix, node) -> float:
    """Modeled flops of factoring one node (Algorithm II.2 step)."""
    tree = h.tree
    sset = h.skeletons
    if tree.is_leaf(node):
        m = node.size
        s = sset[node.id].rank if sset.is_skeletonized(node.id) else 0
        return (2.0 / 3.0) * m**3 + 2.0 * m * m * s
    left, right = tree.children(node)
    s_l = sset[left.id].rank
    s_r = sset[right.id].rank
    s2 = s_l + s_r
    cost = 2.0 * s_l * s_r * (left.size + right.size)  # V W Gram blocks
    cost += (2.0 / 3.0) * s2**3  # Z LU
    if sset.is_skeletonized(node.id):
        s_a = sset[node.id].rank
        cost += 4.0 * s_a * node.size * max(s_l, s_r)  # telescoping (eq. 10)
    return cost


def build_factor_dag(h: HMatrix) -> TaskDAG:
    """Task DAG of the factorization over ``h`` (adaptive ranks included)."""
    tasks: dict[int, FactorTask] = {}
    tree = h.tree
    for node in h._nodes_at_or_below_frontier():
        deps: tuple[int, ...] = ()
        if not tree.is_leaf(node):
            deps = (node.left_id, node.right_id)
        tasks[node.id] = FactorTask(
            task_id=node.id, level=node.level, cost=_node_cost(h, node), deps=deps
        )
    # the coalesced frontier system waits for every frontier node.
    m_total = h.skeletons.total_frontier_rank() if h.skeletons.skeletons else 0
    reduced_cost = (2.0 / 3.0) * m_total**3 + sum(
        2.0 * m_total * f.size * h.skeletons[f.id].rank for f in h.frontier
    ) if m_total else 0.0
    tasks[REDUCED_TASK] = FactorTask(
        task_id=REDUCED_TASK,
        level=-1,
        cost=reduced_cost,
        deps=tuple(f.id for f in h.frontier),
    )
    return TaskDAG(tasks=tasks)


def simulate_schedule(
    dag: TaskDAG, n_workers: int, policy: str = "task"
) -> ScheduleResult:
    """Event-driven simulation of the DAG on ``n_workers`` workers.

    ``policy="level"`` — the paper's current scheme: levels are
    processed deepest-first with a barrier between levels; within a
    level, ready tasks go to the earliest-free worker, longest first.

    ``policy="task"`` — dependency-driven list scheduling: whenever a
    worker frees up it takes the ready task with the largest
    critical-path (bottom-level) priority.  No barriers, so a cheap
    subtree can race ahead into its ancestors while an expensive
    sibling subtree is still being processed.
    """
    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    if policy not in ("task", "level"):
        raise ConfigurationError(f"unknown policy {policy!r}")

    busy = [0.0] * n_workers

    if policy == "level":
        makespan = 0.0
        levels = sorted({t.level for t in dag.tasks.values()}, reverse=True)
        for level in levels:
            group = sorted(
                (t for t in dag.tasks.values() if t.level == level),
                key=lambda t: -t.cost,
            )
            finish = [0.0] * n_workers  # within-level worker clocks
            for task in group:
                w = int(np.argmin(finish))
                finish[w] += task.cost
                busy[w] += task.cost
            makespan += max(finish)  # barrier: wait for the whole level
        util = [b / makespan if makespan else 0.0 for b in busy]
        return ScheduleResult(
            policy=policy,
            n_workers=n_workers,
            makespan=makespan,
            total_cost=dag.total_cost,
            utilization=util,
        )

    # --- dependency-driven list scheduling ------------------------------
    priority = dag.critical_path_priority()
    succ = dag.successors()
    pending = {tid: len(t.deps) for tid, t in dag.tasks.items()}
    ready = [
        (-priority[tid], tid) for tid, cnt in pending.items() if cnt == 0
    ]
    heapq.heapify(ready)
    # (free_time, worker_id) heap.
    workers = [(0.0, w) for w in range(n_workers)]
    heapq.heapify(workers)
    # tasks finishing in the future: (finish_time, task_id).
    in_flight: list[tuple[float, int]] = []
    makespan = 0.0

    while ready or in_flight:
        if ready:
            free_at, w = heapq.heappop(workers)
            _neg, tid = heapq.heappop(ready)
            # the task may not be startable before its deps finished;
            # deps are resolved through the in_flight retirement below,
            # so anything in `ready` is dependency-free already.
            start = free_at
            finish = start + dag.tasks[tid].cost
            busy[w] += dag.tasks[tid].cost
            heapq.heappush(workers, (finish, w))
            heapq.heappush(in_flight, (finish, tid))
            makespan = max(makespan, finish)
        else:
            # no ready task: retire the earliest in-flight one.
            finish, tid = heapq.heappop(in_flight)
            for s in succ[tid]:
                pending[s] -= 1
                if pending[s] == 0:
                    heapq.heappush(ready, (-priority[s], s))
            # workers idle until `finish` if they freed earlier.
            new_workers = []
            while workers:
                t_free, w = heapq.heappop(workers)
                new_workers.append((max(t_free, finish), w))
            for item in new_workers:
                heapq.heappush(workers, item)
            continue
        # retire any tasks that finished before the next dispatch point.
        while in_flight and in_flight[0][0] <= workers[0][0]:
            _t, tid_done = heapq.heappop(in_flight)
            for s in succ[tid_done]:
                pending[s] -= 1
                if pending[s] == 0:
                    heapq.heappush(ready, (-priority[s], s))

    util = [b / makespan if makespan else 0.0 for b in busy]
    return ScheduleResult(
        policy="task",
        n_workers=n_workers,
        makespan=makespan,
        total_cost=dag.total_cost,
        utilization=util,
    )

