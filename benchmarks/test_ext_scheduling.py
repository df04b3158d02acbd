"""Extension bench: task-parallel tree traversal (paper's future work).

The conclusions call for task parallelism "to address the load
balancing issue [of] adaptive ranks ... scheduling is important to
avoid the critical path."  This bench builds the factorization DAG of a
deliberately imbalanced problem (clusters of very different tightness,
so adaptive ranks differ wildly between subtrees), then compares the
paper's level-synchronous schedule against dependency-driven
critical-path list scheduling.  The comparison is modelled: the
factorization itself runs level by level on one thread.
"""

import numpy as np

from conftest import emit, fmt_row
from repro.config import SkeletonConfig, TreeConfig
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.parallel import build_factor_dag, simulate_schedule

WORKERS = [2, 4, 8, 16, 32]


def _imbalanced_problem():
    rng = np.random.default_rng(31)
    spreads = [0.03, 0.08, 0.3, 0.6, 1.0, 1.6, 2.4, 3.0]
    centers = rng.standard_normal((8, 8)) * 4.0
    X = np.concatenate(
        [c + s * rng.standard_normal((512, 8)) for c, s in zip(centers, spreads)]
    )
    return build_hmatrix(
        X,
        GaussianKernel(bandwidth=0.8),
        tree_config=TreeConfig(leaf_size=64, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-6, max_rank=192, num_samples=384, num_neighbors=16, seed=2
        ),
    )


def test_ext_task_scheduling(benchmark):
    h = _imbalanced_problem()
    dag = build_factor_dag(h)
    ranks = [sk.rank for sk in h.skeletons.skeletons.values()]

    rows = []
    for p in WORKERS:
        lv = simulate_schedule(dag, p, "level")
        tk = simulate_schedule(dag, p, "task")
        rows.append((p, lv, tk))

    widths = [4, 13, 9, 13, 9, 7]
    lines = [
        "EXTENSION -- task-parallel tree traversal (paper future work)",
        f"imbalanced clusters: skeleton ranks {min(ranks)}-{max(ranks)}, "
        f"{len(dag.tasks)} tasks, "
        f"critical path = {dag.critical_path_cost / dag.total_cost:.1%} of total work",
        "",
        fmt_row(["p", "level-makespan", "lvl-eff", "task-makespan", "tsk-eff",
                 "gain"], widths),
    ]
    for p, lv, tk in rows:
        lines.append(
            fmt_row(
                [
                    p, f"{lv.makespan / 1e9:.3f}GF", f"{lv.efficiency:.2f}",
                    f"{tk.makespan / 1e9:.3f}GF", f"{tk.efficiency:.2f}",
                    f"{lv.makespan / tk.makespan:.2f}x",
                ],
                widths,
            )
        )
    gains = [lv.makespan / tk.makespan for _p, lv, tk in rows]
    lines += [
        "",
        "level = the paper's current level-synchronous traversal (barrier",
        "per level); task = dependency-driven critical-path list scheduling.",
        f"task scheduling gains up to {max(gains):.2f}x at these worker",
        "counts by letting cheap subtrees race ahead through the barriers —",
        "the effect the paper predicts for adaptive-rank workloads.",
    ]
    emit("ext_scheduling", lines)

    # task scheduling must never lose, and must win somewhere.
    assert all(g >= 0.999 for g in gains)
    assert max(gains) > 1.02

    benchmark.pedantic(
        lambda: simulate_schedule(dag, max(WORKERS), "task"),
        rounds=1,
        iterations=1,
    )
