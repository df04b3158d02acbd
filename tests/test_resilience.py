"""Deadline-aware execution and the graceful-degradation ladder.

Covers the primitive layer (Deadline / WorkBudget / CoarsenPolicy with
an injectable clock), the context propagation (deadline_scope across
plain calls and SPMD ranks), and the solver-level
behavior the ladder promises: a too-tight budget yields a degraded but
finite answer with the rung recorded, while ``degrade=False`` raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    RecoveryConfig,
    ResilienceConfig,
    SkeletonConfig,
    SolverConfig,
    TreeConfig,
)
from repro.core import FastKernelSolver
from repro.exceptions import (
    BudgetExhaustedError,
    DeadlineExceededError,
)
from repro.kernels import GaussianKernel
from repro.resilience import (
    CoarsenPolicy,
    Deadline,
    WorkBudget,
    check_deadline,
    current_deadline,
    deadline_scope,
)

RNG = np.random.default_rng(31)


class FakeClock:
    """Injectable monotonic clock: tests advance it explicitly."""

    def __init__(self):
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def small_problem(n=384, d=4, seed=5):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    u = gen.standard_normal(n)
    return X, u


def make_solver(resilience=None, **solver_kwargs):
    return FastKernelSolver(
        GaussianKernel(bandwidth=2.0),
        tree_config=TreeConfig(leaf_size=64, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-6, max_rank=48, num_samples=96, num_neighbors=4, seed=1
        ),
        solver_config=SolverConfig(
            resilience=resilience or ResilienceConfig(), **solver_kwargs
        ),
    )


class TestWorkBudget:
    def test_unlimited_never_exhausts(self):
        b = WorkBudget()
        b.charge(10**6)
        assert not b.exhausted
        assert b.remaining() == float("inf")

    def test_charge_to_limit_raises(self):
        b = WorkBudget(3)
        b.charge(2)
        assert not b.exhausted and b.remaining() == 1
        with pytest.raises(BudgetExhaustedError, match="3/3"):
            b.charge(1, where="unit-test")
        assert b.exhausted

    def test_budget_error_is_deadline_error(self):
        # one handler covers both exhaustion kinds
        assert issubclass(BudgetExhaustedError, DeadlineExceededError)

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError):
            WorkBudget(-1)


class TestDeadline:
    def test_untimed_never_expires(self):
        dl = Deadline()
        assert not dl.expired
        assert dl.remaining() == float("inf")
        dl.check("anywhere")  # no raise

    def test_clock_expiry(self):
        clock = FakeClock()
        dl = Deadline(10.0, clock=clock)
        assert not dl.expired
        assert dl.remaining() == pytest.approx(10.0)
        clock.advance(4.0)
        assert dl.elapsed() == pytest.approx(4.0)
        assert dl.fraction_used() == pytest.approx(0.4)
        clock.advance(7.0)
        assert dl.expired
        assert dl.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="10.000s"):
            dl.check("unit-test")

    def test_budget_rides_along(self):
        dl = Deadline(budget=WorkBudget(2))
        dl.charge(1)
        assert not dl.expired
        with pytest.raises(BudgetExhaustedError):
            dl.charge(1)
        assert dl.expired  # budget exhaustion counts as expiry

    def test_after_constructor_and_summary(self):
        clock = FakeClock()
        dl = Deadline.after(5.0, budget=WorkBudget(7), clock=clock)
        clock.advance(1.0)
        s = dl.summary()
        assert s["seconds"] == 5.0
        assert s["elapsed"] == pytest.approx(1.0)
        assert s["expired"] is False
        assert s["work_limit"] == 7

    def test_rejects_negative_seconds(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestCoarsenPolicy:
    def test_thresholds_halve_headroom(self):
        p = CoarsenPolicy(pressure=0.5, max_steps=3)
        assert p.thresholds() == pytest.approx([0.5, 0.75, 0.875])

    def test_threshold_count_matches_steps(self):
        assert len(CoarsenPolicy(max_steps=5).thresholds()) == 5


class TestDeadlineScope:
    def test_install_and_reset(self):
        assert current_deadline() is None
        dl = Deadline(60.0)
        with deadline_scope(dl) as installed:
            assert installed is dl
            assert current_deadline() is dl
            check_deadline("scoped")  # not expired: no raise
        assert current_deadline() is None

    def test_none_scope_is_a_noop(self):
        with deadline_scope(None) as installed:
            assert installed is None
            assert current_deadline() is None
            check_deadline()  # nothing installed: no-op

    def test_nested_scopes_restore_outer(self):
        outer, inner = Deadline(60.0), Deadline(30.0)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_check_raises_when_expired(self):
        clock = FakeClock()
        with deadline_scope(Deadline(1.0, clock=clock)):
            clock.advance(2.0)
            with pytest.raises(DeadlineExceededError):
                check_deadline("expired-scope")


class TestNoDeadlineUnchanged:
    """With resilience unarmed the solver must behave exactly as before."""

    def test_inactive_config_by_default(self):
        assert not ResilienceConfig().active
        assert ResilienceConfig(deadline_seconds=1.0).active
        assert ResilienceConfig(work_budget=5).active
        assert ResilienceConfig(checkpoint_dir="/tmp/x").active

    def test_no_health_no_resilience_telemetry(self):
        X, u = small_problem()
        solver = make_solver().fit(X)
        solver.factorize(0.5)
        w = solver.solve(u)
        assert solver.health is None
        assert "resilience" not in solver.telemetry()
        assert solver.residual(u, w) < 1e-8

    def test_armed_but_roomy_budget_matches_unarmed(self):
        X, u = small_problem()
        plain = make_solver().fit(X)
        plain.factorize(0.5)
        armed = make_solver(
            ResilienceConfig(deadline_seconds=3600.0)
        ).fit(X)
        armed.factorize(0.5)
        np.testing.assert_array_equal(plain.solve(u), armed.solve(u))
        assert armed.health is not None and not armed.health.degraded


class TestDegradationLadder:
    def test_tiny_budget_degrades_to_iterative(self):
        X, u = small_problem()
        solver = make_solver(ResilienceConfig(work_budget=3)).fit(X)
        solver.factorize(0.5)
        w = solver.solve(u)
        assert np.all(np.isfinite(w))
        assert solver.health.degraded
        assert solver.health.final_path == "iterative"
        stages = {e.stage for e in solver.health.events}
        assert "iterative_fallback" in stages
        # a degraded answer is still an answer
        assert solver.residual(u, w) < 1e-6

    def test_mid_budget_freezes_frontier(self):
        X, u = small_problem(n=512)
        # 512 points / leaf 64 -> 8 leaves (one full level, 8 units) plus
        # 6 internal nodes: 10 units finish the deepest level and then
        # exhaust mid-climb, so the frontier freezes at the leaf level.
        solver = make_solver(ResilienceConfig(work_budget=10)).fit(X)
        solver.factorize(0.5)
        w = solver.solve(u)
        assert np.all(np.isfinite(w))
        stages = {e.stage for e in solver.health.events}
        assert "frontier_freeze" in stages
        assert solver.health.final_path == "hybrid"
        assert solver.residual(u, w) < 1e-6

    def test_frozen_frontier_checkpoint_resumes_bitwise(
        self, tmp_path, resume_without_work, model_snapshot
    ):
        # the state payload names the moved frontier; resume rebuilds the
        # hybrid factorization there, as factorize() left the directory
        # and as save_checkpoint() writes it.
        X, u = small_problem(n=512)
        path = str(tmp_path / "cp")
        solver = make_solver(
            ResilienceConfig(work_budget=10, checkpoint_dir=path)
        ).fit(X)
        solver.factorize(0.5)
        assert solver.health.final_path == "hybrid"
        frontier = [f.id for f in solver.factorization.hmatrix.frontier]
        assert len(frontier) == 8
        expect = model_snapshot(solver, u)
        for resumed in (
            resume_without_work(path),
            resume_without_work(solver.save_checkpoint()),
        ):
            assert [f.id for f in resumed.factorization.hmatrix.frontier] == frontier
            assert model_snapshot(resumed, u) == expect

    def test_descended_frontier_checkpoint_resumes_bitwise(
        self, tmp_path, monkeypatch, resume_without_work, model_snapshot
    ):
        """Rung 2 after a breakdown: the hybrid one level down.  The
        levels on disk were written for the configured method; ``state``
        is written with the hybrid factorization's levels.  (The writer's
        cache also holds the pair blocks of the frontier it abandoned, so
        the H-matrix's stored words are not compared.)"""
        import repro.solvers.factorization as factorization

        X, u = small_problem(n=512)
        path = str(tmp_path / "cp")
        solver = make_solver(
            ResilienceConfig(checkpoint_dir=path),
            recovery=RecoveryConfig(enabled=True),
        ).fit(X)
        # only the coalesced frontier LU estimates its rcond one by one
        monkeypatch.setattr(factorization, "estimate_rcond", lambda lu, anorm: 0.0)
        solver.factorize(0.5)
        monkeypatch.undo()
        assert solver.health.final_path == "hybrid"
        assert "frontier_fallback" in {e.stage for e in solver.health.events}
        frontier = [f.id for f in solver.factorization.hmatrix.frontier]
        assert len(frontier) == 2 * len(solver.hmatrix.frontier)
        expect = model_snapshot(solver, u)
        del expect["diagnostics"]["hmatrix_storage_words"]
        for resumed in (
            resume_without_work(path),
            resume_without_work(solver.save_checkpoint()),
        ):
            assert [f.id for f in resumed.factorization.hmatrix.frontier] == frontier
            got = model_snapshot(resumed, u)
            del got["diagnostics"]["hmatrix_storage_words"]
            assert got == expect

    def test_iterative_fallback_checkpoint_resumes_bitwise(
        self, tmp_path, resume_without_work, model_snapshot
    ):
        # rung 3: the same GMRES solve, health events and slogdet error.
        X, u = small_problem()
        solver = make_solver(
            ResilienceConfig(work_budget=3, checkpoint_dir=str(tmp_path / "cp"))
        ).fit(X)
        solver.factorize(0.5)
        assert solver.health.final_path == "iterative"
        expect = model_snapshot(solver, u)
        assert "never factorizes" in expect["slogdet"]
        resumed = resume_without_work(solver.save_checkpoint())
        assert type(resumed.factorization) is type(solver.factorization)
        assert model_snapshot(resumed, u) == expect

    def test_degrade_off_raises_at_fit(self):
        # without the ladder, skeletonization charges per node and the
        # budget trips during fit() instead of coarsening tau
        X, _ = small_problem()
        solver = make_solver(ResilienceConfig(work_budget=3, degrade=False))
        with pytest.raises(DeadlineExceededError):
            solver.fit(X)

    def test_degrade_off_raises_at_factorize(self):
        X, _ = small_problem()
        solver = make_solver(
            ResilienceConfig(degrade=False, work_budget=10**9)
        ).fit(X)
        # shrink the budget after fit so only factorize can trip it
        solver._deadline.budget.limit = solver._deadline.budget.used + 2
        with pytest.raises(DeadlineExceededError):
            solver.factorize(0.5)

    def test_coarsen_under_pressure(self):
        """Skeletonization coarsens tau at level boundaries when the
        clock runs hot, instead of aborting."""
        from repro.hmatrix import build_hmatrix

        X, _ = small_problem(n=512)
        clock = FakeClock()
        dl = Deadline(10.0, clock=clock)
        clock.advance(6.0)  # already past the 0.5 pressure threshold
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=64, seed=0),
            skeleton_config=SkeletonConfig(
                tau=1e-8, max_rank=48, num_samples=96, num_neighbors=4, seed=1
            ),
            deadline=dl,
            coarsen=CoarsenPolicy(pressure=0.5, tau_factor=100.0),
        )
        events = h.skeletons.degradation_events
        assert events and all(ev["stage"] == "coarsen" for ev in events)
        assert events[0]["tau"] > 1e-8

    def test_expired_deadline_still_finite_answer(self):
        X, u = small_problem()
        clock = FakeClock()
        solver = make_solver(ResilienceConfig(deadline_seconds=5.0)).fit(X)
        # replace the pipeline deadline with an already-expired one
        solver._deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        solver.factorize(0.5)
        w = solver.solve(u)
        assert np.all(np.isfinite(w))
        assert solver.health.degraded


class TestSPMDPropagation:
    def test_ranks_see_callers_deadline(self):
        from repro.parallel.vmpi import run_spmd

        dl = Deadline(60.0)

        def probe(comm):
            return current_deadline() is dl

        with deadline_scope(dl):
            results, _ = run_spmd(probe, 4)
        assert all(results)

    def test_no_deadline_means_none_in_ranks(self):
        from repro.parallel.vmpi import run_spmd

        def probe(comm):
            return current_deadline() is None

        results, _ = run_spmd(probe, 2)
        assert all(results)
