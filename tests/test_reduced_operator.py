"""The hybrid's reduced operator: matrix-free until it has paid for ``Z``.

``HierarchicalFactorization.reduced_matvec`` applies ``I + V W^``
matrix-free and counts the columns it applies across solves.  Once they
cost as many flops as assembling ``Z`` (the ski-rental rule), it
assembles ``Z`` once, with the direct methods' assembler, and returns
``Z @ y``.  On ``hmatrix_restricted`` (4 frontier nodes of 100 points,
rank 64, S = 256) the rule switches after 48 columns.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

from repro import FastKernelSolver
from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.hmatrix import build_hmatrix
from repro.obs import Tracer, set_tracer
from repro.perf import BlockCache
from repro.solvers import factorize

RNG = np.random.default_rng(1818)

TIGHT = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-12, max_iters=400))


def _assemble_spans(tr: Tracer) -> list[dict]:
    found = []

    def visit(sp: dict) -> None:
        if sp["name"] == "solve.assemble":
            found.append(sp)
        for child in sp.get("children", []):
            visit(child)

    for root in tr.tree():
        visit(root)
    return found


@pytest.fixture
def fresh_tracer():
    tr = Tracer()
    previous = set_tracer(tr)
    yield tr
    set_tracer(previous)


def _matrix_free(fact):
    """Pin ``fact`` to the matrix-free operator (the pre-switch path)."""
    fact._assembly_declined = True
    return fact


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestRule:
    def test_threshold_from_frontier_sizes_and_ranks(self, hmatrix_restricted):
        fact = factorize(hmatrix_restricted, 0.5, TIGHT)
        red = fact.reduced
        ranks = hmatrix_restricted.skeletons
        assert [(f.size, ranks[f.id].rank) for f in red.frontier] == [(100, 64)] * 4
        # sum_g 2 n_g s_g (S - s_g) / (2 N S) = 4 * 2*100*64*192 / (2*400*256)
        assert red.assembly_columns == 48.0

    def test_short_solve_stays_matrix_free(self, hmatrix_restricted, fresh_tracer):
        cfg = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-4, max_iters=400))
        fact = factorize(hmatrix_restricted, 0.5, cfg)
        u = RNG.standard_normal(hmatrix_restricted.n_points)
        w = fact.solve(u)
        assert fact.reduced_iterations[-1] < fact.reduced.assembly_columns
        assert fact.reduced.z is None
        assert fact.reduced_operator == "matrix-free"
        assert _assemble_spans(fresh_tracer) == []
        assert fact.residual(u, w) < 1e-3

    def test_columns_count_across_solves(self, hmatrix_restricted):
        cfg = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-4, max_iters=400))
        fact = factorize(hmatrix_restricted, 0.5, cfg)
        while sum(fact.reduced_iterations) < fact.reduced.assembly_columns:
            assert fact.reduced_operator == "matrix-free"
            fact.solve(RNG.standard_normal(hmatrix_restricted.n_points))
        assert len(fact.reduced_iterations) > 1
        fact.solve(RNG.standard_normal(hmatrix_restricted.n_points))
        assert fact.reduced_operator == "assembled"

    def test_panel_crossing_the_threshold_assembles_once(
        self, hmatrix_restricted, fresh_tracer
    ):
        B = RNG.standard_normal((hmatrix_restricted.n_points, 4))
        fact = factorize(hmatrix_restricted, 0.5, TIGHT)
        W = fact.solve(B)
        ref = _matrix_free(factorize(hmatrix_restricted, 0.5, TIGHT))
        W_ref = ref.solve(B)

        (sp,) = _assemble_spans(fresh_tracer)
        assert sp["attrs"] == {
            "size": 256,
            "threshold_columns": 48,
            "columns_applied": 48,
            "outcome": "assembled",
        }
        assert fact.reduced_operator == "assembled"
        assert fact.reduced.z.shape == (256, 256)
        assert ref.reduced.z is None
        for its, its_ref in zip(fact.reduced_iterations, ref.reduced_iterations):
            assert abs(its - its_ref) <= 1
        assert _rel(W, W_ref) < 1e-9

        fact.solve(B[:, 0])  # later solves reuse Z
        assert len(_assemble_spans(fresh_tracer)) == 1

    def test_same_assembler_as_the_direct_methods(self, hmatrix_restricted):
        fact = factorize(hmatrix_restricted, 0.5, TIGHT)
        fact.solve(RNG.standard_normal((hmatrix_restricted.n_points, 4)))
        direct = factorize(hmatrix_restricted, 0.5, SolverConfig(method="direct"))
        assert direct.reduced_operator == "lu"
        assert np.array_equal(fact.reduced.z, direct._assemble_reduced(direct.reduced))


class TestAnswers:
    def test_panel_columns_match_their_own_solves_after_the_switch(
        self, hmatrix_restricted
    ):
        n = hmatrix_restricted.n_points
        fact = factorize(hmatrix_restricted, 0.5, TIGHT)
        fact.solve(RNG.standard_normal((n, 4)))
        assert fact.reduced_operator == "assembled"
        B = RNG.standard_normal((n, 4))
        W = fact.solve(B)
        for c in range(4):
            w = fact.solve(B[:, c])
            assert _rel(W[:, c], w) < 1e-12

    def test_update_lambda_after_the_switch(self, points_small, gaussian_kernel):
        solver = FastKernelSolver(
            gaussian_kernel,
            tree_config=TreeConfig(leaf_size=25, seed=3),
            skeleton_config=SkeletonConfig(
                tau=1e-9, max_rank=64, num_samples=220, num_neighbors=8, seed=5,
                level_restriction=2,
            ),
            solver_config=TIGHT,
        )
        solver.fit(points_small).factorize(0.5)
        assert solver.diagnostics()["reduced_operator"] == "matrix-free"
        solver.solve(RNG.standard_normal((solver.n_points, 4)))
        assert solver.diagnostics()["reduced_operator"] == "assembled"

        solver.update(lam=2.0)
        assert solver.diagnostics()["reduced_operator"] == "matrix-free"
        B = RNG.standard_normal((solver.n_points, 4))
        W = solver.solve(B)
        assert solver.diagnostics()["reduced_operator"] == "assembled"
        for c in range(4):
            r = B[:, c] - solver.regularized_matvec(2.0, W[:, c])
            assert np.linalg.norm(r) / np.linalg.norm(B[:, c]) < 1e-8

    def test_budget_below_s_squared_stays_matrix_free(
        self, points_small, gaussian_kernel, fresh_tracer
    ):
        budget = 256**2 - 1
        h = build_hmatrix(
            points_small,
            gaussian_kernel,
            tree_config=TreeConfig(leaf_size=25, seed=3),
            skeleton_config=SkeletonConfig(
                tau=1e-9, max_rank=64, num_samples=220, num_neighbors=8, seed=5,
                level_restriction=2,
            ),
            cache=BlockCache(budget_words=budget),
        )
        fact = factorize(h, 0.5, TIGHT)
        assert fact.reduced.size**2 > budget
        B = RNG.standard_normal((h.n_points, 4))
        W = fact.solve(B)
        (sp,) = _assemble_spans(fresh_tracer)
        assert sp["attrs"]["outcome"] == "declined"
        assert fact.reduced.z is None
        assert fact.reduced_operator == "matrix-free"
        assert sum(fact.reduced_iterations) > fact.reduced.assembly_columns
        for c in range(4):
            assert fact.residual(B[:, c], W[:, c]) < 1e-9
        fact.solve(B[:, 0])  # the decision is not retaken
        assert len(_assemble_spans(fresh_tracer)) == 1

    def test_low_storage_switches_and_matches_full(self, hmatrix_restricted):
        B = RNG.standard_normal((hmatrix_restricted.n_points, 4))
        full = factorize(hmatrix_restricted, 0.5, TIGHT)
        low = factorize(
            hmatrix_restricted,
            0.5,
            SolverConfig(method="hybrid", storage="low", gmres=TIGHT.gmres),
        )
        W_full = full.solve(B)
        W_low = low.solve(B)
        assert low.reduced_operator == full.reduced_operator == "assembled"
        assert _rel(W_low, W_full) < 1e-9


class TestState:
    def test_storage_counts_z_and_pickles_drop_it(self, hmatrix_restricted):
        fact = factorize(hmatrix_restricted, 0.5, TIGHT)
        words = fact.storage_words()
        size = len(pickle.dumps(fact))
        fact.solve(RNG.standard_normal((hmatrix_restricted.n_points, 4)))
        assert fact.storage_words() == words + 256**2
        # the solve's GMRES histories are the only state a pickle gains
        fact.reduced_iterations, fact.reduced_histories = [], []
        blob = pickle.dumps(fact)
        assert len(blob) == size
        loaded = pickle.loads(blob)
        assert loaded.reduced_operator == "matrix-free"
        assert loaded._columns_applied == 0
        assert fact.reduced_operator == "assembled"  # the live object keeps Z

    def test_concurrent_first_solves_assemble_once(
        self, hmatrix_restricted, fresh_tracer
    ):
        fact = factorize(hmatrix_restricted, 0.5, TIGHT)
        n = hmatrix_restricted.n_points
        panels = [RNG.standard_normal((n, 4)) for _ in range(4)]
        # every matrix-free application, and each solve's final W^ correction,
        # goes through _apply_what: an independent count of the columns.
        seen = [0]
        seen_lock = threading.Lock()
        apply_what = fact._apply_what

        def counting_apply_what(y):
            with seen_lock:
                seen[0] += y.shape[1]
            return apply_what(y)

        fact._apply_what = counting_apply_what
        start = threading.Barrier(len(panels))
        out: dict[int, np.ndarray] = {}

        def run(i: int) -> None:
            start.wait()
            out[i] = fact.solve(panels[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(panels))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(_assemble_spans(fresh_tracer)) == 1
        assert fact.reduced_operator == "assembled"
        # no lost update: the switch counted every matrix-free column
        assert fact._columns_applied == seen[0] - sum(B.shape[1] for B in panels)
        for i, B in enumerate(panels):
            for c in range(B.shape[1]):
                assert fact.residual(B[:, c], out[i][:, c]) < 1e-9
