"""Observability layer: metrics registry, span tracer, warning adapter,
JSON export — and the end-to-end acceptance blob.

The acceptance criterion of the telemetry PR: one FastKernelSolver
fit + factorize + solve produces a single JSON blob with the four
pipeline stage spans, block-cache counters satisfying
``hits + misses == lookups``, merged per-rank fabric fault counters
from a ``run_spmd`` launch, and GMRES iteration counts — and
``render_trace`` renders it.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.config import SkeletonConfig, SolverConfig, TreeConfig
from repro.core.solver import FastKernelSolver
from repro.kernels import GaussianKernel
from repro.obs import (
    MetricsRegistry,
    RateLimiter,
    Tracer,
    emit_warning,
    registry,
    render_trace,
    reset_telemetry,
    set_tracer,
    telemetry_snapshot,
    tracer,
)
from repro.parallel.vmpi import FaultPlan, RetryPolicy, run_spmd
from repro.perf import configure_default_cache
from repro.util.timing import StageTimes, Timer

RNG = np.random.default_rng(5)


@pytest.fixture(autouse=True)
def fresh_telemetry():
    """Each test sees an empty process-wide registry and tracer."""
    reset_telemetry()
    yield
    reset_telemetry()


# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.counter("ev", kind="a").inc()
        reg.counter("ev", kind="a").inc(2)
        reg.counter("ev", kind="b").inc(5)
        assert reg.value("ev", kind="a") == 3
        assert reg.value("ev", kind="b") == 5
        assert reg.total("ev") == 8

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("ev").inc(-1)

    def test_counter_handle_is_memoized(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1") is reg.counter("x", a="1")
        assert reg.counter("x", a="1") is not reg.counter("x", a="2")

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(2.5)
        g.dec()
        assert reg.value("depth") == pytest.approx(11.5)

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("res")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}

    def test_snapshot_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("faults", kind="drops", rank="2").inc(4)
        reg.gauge("words").set(123.0)
        reg.histogram("iters").observe(7)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["faults"] == [
            {"value": 4, "labels": {"kind": "drops", "rank": "2"}}
        ]
        assert snap["gauges"]["words"] == [{"value": 123.0}]
        assert snap["histograms"]["iters"][0]["value"]["count"] == 1

    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()

        def bump():
            c = reg.counter("n")
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("n") == 8000


# ---------------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_tree_export(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner", attrs={"k": 1}):
                pass
        (root,) = tr.tree()
        assert root["name"] == "outer"
        (child,) = root["children"]
        assert child["name"] == "inner" and child["attrs"] == {"k": 1}
        assert child["duration_s"] <= root["duration_s"]

    def test_counter_delta_attached(self):
        reg = MetricsRegistry()
        tr = Tracer(metrics=reg)
        with tr.span("stage", counters=True):
            reg.counter("work", kind="a").inc(3)
            reg.counter("work", kind="b").inc(1)
        (root,) = tr.tree()
        assert root["counters"] == {"work": 4}

    def test_worker_thread_span_is_a_root(self):
        """Nesting never crosses threads: a span a worker opens while
        the main thread holds a stage span is a root of its own."""

        def worker():
            with tracer().span("node"):
                pass

        with StageTimes().time("factorize"):
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=30)
        assert not t.is_alive()
        roots = tracer().tree()
        assert [r["name"] for r in roots] == ["factorize", "node"]
        assert "children" not in roots[0]

    def test_sampling_keeps_one_in_n(self):
        tr = Tracer(sample_every=3)
        for _ in range(9):
            with tr.span("tile", sampled=True):
                pass
        assert len(tr.tree()) == 3

    def test_sampling_disabled_records_nothing(self):
        tr = Tracer(sample_every=0)
        for _ in range(5):
            with tr.span("tile", sampled=True):
                pass
        assert tr.tree() == []

    def test_span_cap_drops_not_crashes(self):
        tr = Tracer(max_spans=2)
        for _ in range(5):
            with tr.span("s"):
                pass
        assert len(tr.tree()) == 2
        assert tr.dropped_spans == 3

    def test_render_contains_spans(self):
        tr = Tracer()
        with tr.span("solve"):
            pass
        assert "solve" in tr.render()


# ---------------------------------------------------------------------------
class TestWarningAdapter:
    def test_emit_warning_counts_and_still_warns(self):
        reg = MetricsRegistry()
        with pytest.warns(UserWarning, match="went sideways"):
            emit_warning("test.sideways", "went sideways", metrics=reg)
        assert reg.value("warnings.emitted", key="test.sideways") == 1

    def test_rate_limiter_fixed_window(self):
        rl = RateLimiter(burst=2, window_s=10.0)
        assert rl.allow("k", now=0.0)
        assert rl.allow("k", now=1.0)
        assert not rl.allow("k", now=2.0)
        # a new window opens after window_s elapses
        assert rl.allow("k", now=11.0)
        # keys are independent
        assert rl.allow("other", now=2.0)

    def test_over_burst_counts_suppressed_logs(self):
        reg = MetricsRegistry()
        import repro.obs.logadapter as la

        old = la._limiter
        la._limiter = RateLimiter(burst=1, window_s=3600.0)
        try:
            with pytest.warns(UserWarning):
                emit_warning("test.burst", "one", metrics=reg)
            with pytest.warns(UserWarning):
                emit_warning("test.burst", "two", metrics=reg)
        finally:
            la._limiter = old
        assert reg.value("warnings.emitted", key="test.burst") == 2
        assert reg.value("warnings.suppressed_logs", key="test.burst") == 1


# ---------------------------------------------------------------------------
class TestTimerAndStageTimes:
    def test_timer_exit_without_enter_is_clear_error(self):
        t = Timer()
        with pytest.raises(RuntimeError, match="without a matching __enter__"):
            t.__exit__(None, None, None)

    def test_timer_is_reusable(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            pass
        assert t.elapsed >= 0.0 and first >= 0.0

    def test_stagetimes_add_is_thread_safe(self):
        st = StageTimes()

        def bump():
            for _ in range(1000):
                st.add("stage", 0.001)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert st["stage"] == pytest.approx(8.0, rel=1e-9)

    def test_stagetimes_time_opens_a_span(self):
        st = StageTimes()
        with st.time("factorize"):
            pass
        assert st["factorize"] > 0.0
        assert any(s["name"] == "factorize" for s in tracer().tree())


# ---------------------------------------------------------------------------
def _spmd_prog(comm):
    total = comm.allreduce(float(comm.rank + 1))
    return total


class TestFabricTelemetry:
    def test_run_spmd_publishes_per_rank_fault_counters(self):
        plan = FaultPlan(
            seed=3,
            drop_rate=0.3,
            retry=RetryPolicy(max_retries=64, base_delay=1e-5, max_delay=1e-3),
        )
        results, stats = run_spmd(_spmd_prog, 4, fault_plan=plan)
        assert all(r == pytest.approx(10.0) for r in results)
        assert stats.drops > 0
        # per-rank attribution sums to the aggregate counters …
        assert sum(
            per.get("drops", 0) for per in stats.by_rank_faults.values()
        ) == stats.drops
        # … and the registry carries the merged labeled series.
        reg = registry()
        assert reg.total("fabric.faults") >= stats.drops + stats.retries
        assert reg.total("fabric.messages") == stats.messages
        per_rank = [
            reg.value("fabric.faults", kind="drops", rank=str(r))
            for r in range(4)
        ]
        assert sum(per_rank) == stats.drops

    def test_fault_free_launch_publishes_traffic_only(self):
        _, stats = run_spmd(_spmd_prog, 2)
        reg = registry()
        assert reg.total("fabric.messages") == stats.messages
        assert reg.total("fabric.bytes") == stats.bytes
        assert reg.total("fabric.faults") == 0


# ---------------------------------------------------------------------------
class TestEndToEndTelemetry:
    def test_solver_blob_has_stages_cache_invariant_and_gmres(self):
        configure_default_cache()
        X = RNG.standard_normal((600, 3))
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=1.0),
            tree_config=TreeConfig(leaf_size=64, seed=0),
            skeleton_config=SkeletonConfig(
                tau=1e-5, max_rank=48, num_samples=128,
                num_neighbors=8, level_restriction=2, seed=1,
            ),
            solver_config=SolverConfig(method="hybrid"),
        )
        solver.fit(X)
        solver.factorize(0.5)
        u = RNG.standard_normal(600)
        w = solver.solve(u)
        assert np.all(np.isfinite(w))
        # out-of-sample prediction exercises the GSKS tile loop
        solver.predict_matvec(RNG.standard_normal((32, 3)), w)

        blob = solver.telemetry()
        # the blob is one JSON document
        blob = json.loads(json.dumps(blob))
        assert blob["schema"] == "repro.telemetry/v1"

        top = [s["name"] for s in blob["spans"]]
        for stage in ("tree", "skeletonize", "factorize", "solve"):
            assert stage in top, (stage, top)
        # per-level factorization spans nest under the factorize stage
        fact = blob["spans"][top.index("factorize")]
        assert any(
            c["name"] == "factorize.level" for c in fact.get("children", [])
        )

        gauges = blob["metrics"]["gauges"]
        hits = gauges["blockcache.hits"][0]["value"]
        misses = gauges["blockcache.misses"][0]["value"]
        lookups = gauges["blockcache.lookups"][0]["value"]
        assert hits + misses == lookups > 0

        counters = blob["metrics"]["counters"]
        assert counters["gmres.iterations"][0]["value"] > 0
        assert counters["gsks.tiles"][0]["value"] > 0

        # legacy stage accumulators survive as a view over the same run
        assert blob["stages"]["tree+skeletonize"] > 0.0
        assert blob["stages"]["factorize"] > 0.0

        rendered = render_trace()
        assert "factorize" in rendered and "gmres.iterations" in rendered

    def test_hybrid_solve_splits_into_spans_and_gmres_seconds(self):
        X = RNG.standard_normal((600, 3))
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=1.0),
            tree_config=TreeConfig(leaf_size=64, seed=0),
            skeleton_config=SkeletonConfig(
                tau=1e-5, max_rank=48, num_samples=128,
                num_neighbors=8, level_restriction=2, seed=1,
            ),
            solver_config=SolverConfig(method="hybrid"),
        )
        solver.fit(X)
        solver.factorize(0.5)
        solver.solve(RNG.standard_normal((600, 3)))

        (solve,) = [s for s in solver.telemetry()["spans"] if s["name"] == "solve"]
        children = {c["name"]: c for c in solve["children"]}
        assert set(children) == {"solve.subtrees", "solve.reduced", "solve.what"}
        # GMRES's own clock: operator and orthogonalization seconds,
        # inside the reduced span that ran it.
        reduced = children["solve.reduced"]
        operator_s = reduced["counters"]["gmres.operator_s"]
        orthogonalize_s = reduced["counters"]["gmres.orthogonalize_s"]
        assert operator_s > 0.0 and orthogonalize_s > 0.0
        assert operator_s + orthogonalize_s <= reduced["duration_s"]
        assert reduced["counters"]["gmres.solves"] == 3
        rendered = render_trace()
        assert "solve.reduced" in rendered and "gmres.orthogonalize_s" in rendered

    def test_concurrent_solve_spans_stay_apart(self):
        """Two threads solving on one fitted solver: every ``solve``
        stage span is a root, and a span opened afterwards is too."""
        n = 2048
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=1.0),
            tree_config=TreeConfig(leaf_size=128, seed=0),
            skeleton_config=SkeletonConfig(
                tau=1e-5, max_rank=48, num_samples=128, num_neighbors=8, seed=1
            ),
        )
        solver.fit(RNG.standard_normal((n, 3)))
        solver.factorize(0.5)
        us = [RNG.standard_normal(n) for _ in range(2)]
        errors: list[BaseException] = []

        def work(u):
            try:
                for _ in range(10):
                    solver.solve(u)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        tr = Tracer()
        previous = set_tracer(tr)
        try:
            threads = [threading.Thread(target=work, args=(u,)) for u in us]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors
            with tr.span("after"):
                pass
        finally:
            set_tracer(previous)

        def names_below(sp):
            for child in sp.get("children", []):
                yield child["name"]
                yield from names_below(child)

        roots = tr.tree()
        assert [r["name"] for r in roots].count("solve") == 20
        assert not any("solve" in names_below(r) for r in roots)
        assert roots[-1]["name"] == "after"
        assert "children" not in roots[-1]

    def test_telemetry_snapshot_standalone_schema(self):
        snap = telemetry_snapshot()
        assert set(snap) == {"schema", "spans", "metrics"}
        assert set(snap["metrics"]) == {"counters", "gauges", "histograms"}


def test_no_bare_warnings_in_solvers():
    """Mirror of the CI lint: every solver warning must go through
    emit_warning so it is counted and rate-limited."""
    import pathlib

    import repro.solvers as solvers

    pkg = pathlib.Path(solvers.__file__).parent
    offenders = [
        p.name for p in pkg.glob("*.py") if "warnings.warn" in p.read_text()
    ]
    assert offenders == [], offenders
