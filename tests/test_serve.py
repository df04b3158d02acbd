"""The serving layer: registry, coalescer, service, daemon — and the
concurrency bugfix sweep that serving forced (per-solver telemetry
scoping, locked work budgets, the solve_with_info single-permute path).
"""

import asyncio
import contextlib
import json
import threading
import time

import numpy as np
import pytest

from repro import FastKernelSolver, GaussianKernel
from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    NotFactorizedError,
    OverloadedError,
)
from repro.obs import registry as metrics_registry
from repro.resilience import Deadline, WorkBudget
from repro.serve import (
    ModelRegistry,
    RequestCoalescer,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    SolverService,
)

RNG = np.random.default_rng(7)


def _make_solver(n=384, bandwidth=1.0, seed=0, method="nlogn", level=0):
    X = np.random.default_rng(seed).standard_normal((n, 3))
    solver = FastKernelSolver(
        GaussianKernel(bandwidth=bandwidth),
        tree_config=TreeConfig(leaf_size=64, seed=seed),
        skeleton_config=SkeletonConfig(
            tau=1e-6, max_rank=48, num_samples=96, num_neighbors=0,
            seed=seed, level_restriction=level,
        ),
        solver_config=SolverConfig(
            method=method, gmres=GMRESConfig(tol=1e-10, max_iters=200)
        ),
    )
    solver.fit(X)
    solver.factorize(1.0)
    return solver


@pytest.fixture(scope="module")
def solver():
    return _make_solver()


@pytest.fixture(scope="module")
def service(solver):
    svc = SolverService(ServeConfig(window_seconds=0.02, max_batch=8))
    svc.registry.register(solver)
    yield svc
    svc.close()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_register_requires_factorized(self):
        X = RNG.standard_normal((256, 3))
        s = FastKernelSolver(
            GaussianKernel(bandwidth=1.0),
            tree_config=TreeConfig(leaf_size=64, seed=0),
        )
        reg = ModelRegistry()
        with pytest.raises(ConfigurationError):
            reg.register(s)  # not even fitted
        s.fit(X)
        with pytest.raises(NotFactorizedError):
            reg.register(s)  # fitted but not factorized

    def test_lookup_resolve_and_counters(self, solver):
        reg = ModelRegistry()
        fp = reg.register(solver)
        assert fp == solver.fingerprint()
        assert reg.get(fp).solver is solver
        # resolve: full, unique prefix, sole-resident default
        assert reg.resolve(fp) == fp
        assert reg.resolve(fp[:8]) == fp
        assert reg.resolve(None) == fp
        with pytest.raises(KeyError):
            reg.resolve("zzzz")
        with pytest.raises(KeyError):
            reg.get("0" * 64)
        stats = reg.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["residents"] == 1
        assert stats["models"][fp]["storage_words"] > 0

    def test_budget_evicts_lru(self):
        a = _make_solver(n=256, bandwidth=1.0, seed=1)
        b = _make_solver(n=256, bandwidth=2.0, seed=2)
        reg = ModelRegistry()
        fa, fb = reg.register(a), reg.register(b)
        words = max(m.storage_words for m in reg.models())
        # budget fits exactly one model: admitting the second evicts
        # the least recently used one.
        reg = ModelRegistry(budget_words=words)
        fa = reg.register(a)
        fb = reg.register(b)
        assert reg.fingerprints() == [fb]
        assert reg.stats()["evictions"] == 1
        with pytest.raises(KeyError):
            reg.get(fa)

    def test_budget_recharged_after_hybrid_assembly(self):
        # two hybrid residents fit the budget at admission; serving one
        # past its assembly threshold adds its S^2-word reduced operator,
        # which the batch's count_solve must charge.
        a = _make_solver(n=512, bandwidth=1.0, seed=1, method="hybrid", level=2)
        b = _make_solver(n=512, bandwidth=2.0, seed=2, method="hybrid", level=2)
        probe = ModelRegistry()
        words = sum(probe.get(probe.register(s)).storage_words for s in (a, b))
        reg = ModelRegistry(budget_words=words)
        fa, fb = reg.register(a), reg.register(b)
        assert reg.fingerprints() == [fa, fb]
        U = RNG.standard_normal((a.n_points, 4))
        for _ in range(20):
            if a.factorization.reduced_operator == "assembled":
                break
            a.solve(U)
        assert a.factorization.reduced_operator == "assembled"
        reg.count_solve(fa)
        assert reg.fingerprints() == [fa]
        held = a.hmatrix.storage_words() + a.factorization.storage_words()
        assert reg.get(fa).storage_words == held
        assert reg.stats()["resident_words"] <= reg.budget_words

    def test_resident_that_alone_outgrows_the_budget_is_evicted(self):
        # admission refuses a model that alone exceeds the budget rather
        # than evicting everything else; a resident that outgrows it
        # while serving is treated the same way.
        a = _make_solver(n=512, bandwidth=1.0, seed=1, method="hybrid", level=2)
        c = _make_solver(n=128, seed=3)
        probe = ModelRegistry()
        words = sum(probe.get(probe.register(s)).storage_words for s in (a, c))
        reg = ModelRegistry(budget_words=words)
        fa, fc = reg.register(a), reg.register(c)
        U = RNG.standard_normal((a.n_points, 4))
        for _ in range(20):
            if a.factorization.reduced_operator == "assembled":
                break
            a.solve(U)
        assert a.hmatrix.storage_words() + a.factorization.storage_words() > words
        reg.count_solve(fa)
        assert reg.fingerprints() == [fc]
        assert reg.stats()["resident_words"] <= reg.budget_words

    def test_count_solve_measures_only_after_growth(self, monkeypatch):
        from repro.perf import BlockCache, set_default_cache
        from repro.serve import registry as registry_module

        previous = set_default_cache(BlockCache())  # unbudgeted: no thrash
        try:
            s = _make_solver(n=384, seed=4)
        finally:
            set_default_cache(previous)
        reg = ModelRegistry(budget_words=10**9)
        fp = reg.register(s)
        measure = registry_module._model_words
        calls = []

        def counted(solver):
            calls.append(solver)
            return measure(solver)

        monkeypatch.setattr(registry_module, "_model_words", counted)
        u = RNG.standard_normal(s.n_points)
        s.solve(u)  # fills the blocks the solve reads
        reg.count_solve(fp)
        cache = s.hmatrix.cache
        stores = cache.stores
        calls.clear()
        for _ in range(3):
            s.solve(u)
            reg.count_solve(fp)
        assert cache.stores == stores and calls == []
        assert reg.get(fp).solves == 4
        cache.put(("count_solve", 0), np.zeros(8))  # a store may be growth
        reg.count_solve(fp)
        assert calls == [s]

    def test_oversized_model_refused(self, solver):
        reg = ModelRegistry(budget_words=10)
        with pytest.raises(OverloadedError):
            reg.register(solver)
        assert len(reg) == 0

    def test_warm_load_solves_identically(self, solver, tmp_path):
        ckpt = solver.save_checkpoint(str(tmp_path / "ckpt"))
        reg = ModelRegistry()
        fp = reg.load(ckpt)
        assert fp == solver.fingerprint()
        u = RNG.standard_normal(solver.n_points)
        # resume() restores the exact factorization: bitwise parity.
        assert np.array_equal(reg.get(fp).solver.solve(u), solver.solve(u))
        assert reg.get(fp).source == ckpt


# ----------------------------------------------------------------------
# coalescer (fake flush_fn: pure batching semantics, no numerics)
# ----------------------------------------------------------------------
class TestRequestCoalescer:
    def test_concurrent_requests_share_one_batch(self):
        flushes = []

        def flush(key, U, deadline, metas):
            flushes.append(U.shape)
            return [float(U[:, j].sum()) for j in range(U.shape[1])]

        with RequestCoalescer(flush, window_seconds=0.05, max_batch=16) as co:
            start = threading.Barrier(4)
            results = [None] * 4
            vecs = [RNG.standard_normal(8) for _ in range(4)]

            def work(i):
                start.wait()
                results[i] = co.submit("m", vecs[i])

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert flushes == [(8, 4)]  # one batch, four columns
        for i in range(4):
            assert results[i] == pytest.approx(vecs[i].sum())
        assert co.stats()["coalesced_batches"] == 1

    def test_max_batch_flushes_before_window(self):
        done = threading.Event()

        def flush(key, U, deadline, metas):
            done.set()
            return [0.0] * U.shape[1]

        # window is effectively forever; only max_batch can flush.
        with RequestCoalescer(flush, window_seconds=30.0, max_batch=2) as co:
            t = threading.Thread(target=co.submit, args=("m", np.zeros(4)))
            t.start()
            time.sleep(0.05)
            assert not done.is_set()
            co.submit("m", np.zeros(4))
            t.join()
        assert done.is_set()

    def test_batch_runs_under_loosest_deadline(self):
        seen = []

        def flush(key, U, deadline, metas):
            seen.append(deadline)
            return [0.0] * U.shape[1]

        tight = Deadline(seconds=5.0)
        loose = Deadline(seconds=500.0)
        with RequestCoalescer(flush, window_seconds=0.05, max_batch=8) as co:
            threads = [
                threading.Thread(target=co.submit, args=("m", np.zeros(4)),
                                 kwargs={"deadline": d})
                for d in (tight, loose)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert seen == [loose]
        # any unlimited member makes the batch unlimited
        seen.clear()
        with RequestCoalescer(flush, window_seconds=0.05, max_batch=8) as co:
            threads = [
                threading.Thread(target=co.submit, args=("m", np.zeros(4)),
                                 kwargs={"deadline": d})
                for d in (tight, None)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert seen == [None]

    def test_expired_request_shed_without_failing_batchmates(self):
        def flush(key, U, deadline, metas):
            return [float(U[:, j].sum()) for j in range(U.shape[1])]

        expired = Deadline(seconds=1e-9)
        time.sleep(0.01)
        assert expired.expired
        with RequestCoalescer(flush, window_seconds=0.05, max_batch=8) as co:
            outcome = {}

            def shed():
                with pytest.raises(DeadlineExceededError):
                    co.submit("m", np.zeros(4), deadline=expired)
                outcome["shed"] = True

            t = threading.Thread(target=shed)
            t.start()
            value = co.submit("m", np.ones(4))
            t.join()
        assert outcome["shed"] and value == pytest.approx(4.0)
        assert co.stats()["shed_expired"] == 1

    def test_poisoned_request_does_not_fail_batchmates(self):
        def flush(key, U, deadline, metas):
            if any(m.get("poison") for m in metas):
                raise ValueError("poisoned column")
            return [float(U[:, j].sum()) for j in range(U.shape[1])]

        with RequestCoalescer(flush, window_seconds=0.05, max_batch=8) as co:
            outcome = {}

            def poisoned():
                with pytest.raises(ValueError):
                    co.submit("m", np.zeros(4), meta={"poison": True})
                outcome["poisoned"] = True

            t = threading.Thread(target=poisoned)
            t.start()
            value = co.submit("m", np.ones(4))  # healthy batchmate
            t.join()
        assert outcome["poisoned"] and value == pytest.approx(4.0)
        stats = co.stats()
        assert stats["batch_failures"] == 1 and stats["poisoned"] == 1

    def test_close_rejects_new_and_drains_old(self):
        def flush(key, U, deadline, metas):
            return [0.0] * U.shape[1]

        co = RequestCoalescer(flush, window_seconds=60.0, max_batch=64)
        t = threading.Thread(target=co.submit, args=("m", np.zeros(4)))
        t.start()
        time.sleep(0.02)
        co.close()  # drains the never-due batch
        t.join(timeout=5.0)
        assert not t.is_alive()
        with pytest.raises(OverloadedError):
            co.submit("m", np.zeros(4))

    def test_rejects_matrix_rhs(self):
        with RequestCoalescer(lambda *a: [], window_seconds=0.01) as co:
            with pytest.raises(ValueError):
                co.submit("m", np.zeros((4, 2)))


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class TestSolverService:
    def test_coalesced_solves_match_serial(self, service, solver):
        n = solver.n_points
        vecs = [RNG.standard_normal(n) for _ in range(6)]
        refs = [solver.solve(u) for u in vecs]
        results = [None] * 6
        start = threading.Barrier(6)

        def work(i):
            start.wait()
            results[i] = service.solve(vecs[i], with_info=True)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert any(r.coalesced for r in results)
        for res, ref in zip(results, refs):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(res.w - ref)) <= 1e-12 * scale
            assert res.residual is not None and res.residual < 1e-6
            assert res.model == solver.fingerprint()

    def test_multi_rhs_runs_directly(self, service, solver):
        U = RNG.standard_normal((solver.n_points, 3))
        results = service.solve(U, with_info=True)
        assert len(results) == 3
        ref = solver.solve(U)
        for j, res in enumerate(results):
            assert res.batch_size == 3
            assert np.allclose(res.w, ref[:, j], atol=1e-12)
            assert res.residual < 1e-6

    def test_info_only_for_requesting_column(self, service, solver):
        n = solver.n_points
        got = {}
        start = threading.Barrier(2)

        def work(name, info):
            start.wait()
            got[name] = service.solve(RNG.standard_normal(n), with_info=info)

        threads = [
            threading.Thread(target=work, args=("with", True)),
            threading.Thread(target=work, args=("without", False)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got["with"].residual is not None
        assert got["without"].residual is None

    def test_admission_sheds_beyond_max_pending(self, solver):
        svc = SolverService(
            ServeConfig(window_seconds=0.3, max_batch=8, max_pending=1)
        )
        svc.registry.register(solver)
        try:
            n = solver.n_points
            t = threading.Thread(
                target=svc.solve, args=(RNG.standard_normal(n),)
            )
            t.start()
            time.sleep(0.1)  # first request is parked in the window
            with pytest.raises(OverloadedError):
                svc.solve(RNG.standard_normal(n))
            t.join()
            assert svc.health()["shed"] == 1
        finally:
            svc.close()

    def test_request_deadline_defaults_and_overrides(self, solver):
        svc = SolverService(
            ServeConfig(window_seconds=0.0, deadline_seconds=30.0)
        )
        svc.registry.register(solver)
        try:
            seen = []
            original = svc._solve_batch

            def spy(fp, U, deadline, metas):
                seen.append(deadline)
                return original(fp, U, deadline, metas)

            svc.coalescer._flush_fn = spy
            svc.solve(RNG.standard_normal(solver.n_points))
            assert seen[-1] is not None and seen[-1].seconds == 30.0
            svc.solve(
                RNG.standard_normal(solver.n_points), work_budget=10**9
            )
            assert seen[-1].budget is not None
            assert seen[-1].budget.limit == 10**9
        finally:
            svc.close()

    def test_poisoned_rhs_rejected_at_admission(self, service, solver):
        bad = np.full(solver.n_points, np.nan)
        with pytest.raises(ConfigurationError):
            service.solve(bad)

    def test_health_blob(self, service, solver):
        blob = service.health()
        assert blob["schema"] == "repro.serve/v1"
        fp = solver.fingerprint()
        assert blob["registry"]["residents"] == 1
        model = blob["models"][fp]
        assert model["telemetry"]["schema"] == "repro.telemetry/v1"
        assert model["telemetry"]["scope"] == {"solver": fp[:12]}
        json.dumps(blob)  # must be wire-serializable


# ----------------------------------------------------------------------
# daemon (JSON lines over loopback TCP)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _serving(solver):
    """A daemon serving ``solver`` on a loopback port, in its own thread."""
    svc = SolverService(ServeConfig(window_seconds=0.01, max_batch=8))
    svc.registry.register(solver)
    daemon = ServeDaemon(svc, port=0)
    ready = threading.Event()

    async def main():
        await daemon.start()
        ready.set()
        await daemon.wait_stopped()
        await daemon.aclose()

    thread = threading.Thread(target=lambda: asyncio.run(main()))
    thread.start()
    assert ready.wait(10.0)
    try:
        yield daemon
    finally:
        daemon.request_stop()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestServeDaemon:
    @pytest.fixture()
    def endpoint(self, solver):
        with _serving(solver) as daemon:
            yield daemon

    def test_solve_health_shutdown_roundtrip(self, endpoint, solver):
        with ServeClient(port=endpoint.bound_port) as client:
            assert client.ping()
            assert client.models() == [solver.fingerprint()]
            u = RNG.standard_normal(solver.n_points)
            response = client.solve(u, info=True)
            assert np.allclose(response["w"], solver.solve(u), atol=1e-12)
            assert response["residual"] < 1e-6
            health = client.health()
            assert health["schema"] == "repro.serve/v1"

    def test_typed_errors_over_the_wire(self, endpoint, solver):
        from repro.cli import EXIT_USAGE
        from repro.serve.client import RemoteServeError

        with ServeClient(port=endpoint.bound_port) as client:
            with pytest.raises(ConfigurationError):
                client.solve(np.zeros(solver.n_points), model="nope")
            # raw protocol: unknown op carries the usage status code
            response = client._file
            client._file.write(b'{"op": "frobnicate"}\n')
            client._file.flush()
            reply = json.loads(client._file.readline())
            assert reply["ok"] is False and reply["code"] == EXIT_USAGE

    def test_request_above_asyncio_default_line_limit_is_answered(self):
        # asyncio's default 64 KiB StreamReader limit dropped every solve
        # request of a model above ~3,100 points; N=4096 sends ~85 KB.
        big = _make_solver(n=4096)
        u = RNG.standard_normal(big.n_points)
        assert len(json.dumps({"op": "solve", "rhs": u.tolist()})) > 1 << 16
        with _serving(big) as daemon, ServeClient(port=daemon.bound_port) as client:
            w = client.solve(u)["w"]
        assert np.allclose(w, big.solve(u), atol=1e-12)

    def test_overloaded_status_code(self, solver):
        from repro.cli import EXIT_OVERLOADED
        from repro.serve.daemon import error_payload

        payload = error_payload(OverloadedError("shed"))
        assert payload["status"] == "overloaded"
        assert payload["code"] == EXIT_OVERLOADED == 6


# ----------------------------------------------------------------------
# the bugfix sweep: bare-solver concurrency
# ----------------------------------------------------------------------
class TestConcurrentBareSolver:
    def test_hammer_mixed_ops_bitwise_identical(self, solver):
        """N threads hammering solve / solve_with_info / telemetry on
        one bare solver must produce bitwise-serial results and leave
        the stage-time accumulators uncorrupted."""
        n = solver.n_points
        vecs = [RNG.standard_normal(n) for _ in range(8)]
        refs = [solver.solve(u) for u in vecs]
        ref_infos = [solver.solve_with_info(u)[0] for u in vecs]
        errors = []
        start = threading.Barrier(8)

        def work(i):
            try:
                start.wait()
                for r in range(3):
                    if (i + r) % 3 == 0:
                        w, info = solver.solve_with_info(vecs[i])
                        assert np.array_equal(w, ref_infos[i])
                        assert np.isfinite(info.residual)
                    elif (i + r) % 3 == 1:
                        assert np.array_equal(solver.solve(vecs[i]), refs[i])
                    else:
                        blob = solver.telemetry()
                        assert blob["schema"] == "repro.telemetry/v1"
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # stage accumulators survived the interleaving
        assert solver.times["solve"] > 0
        assert solver.times.total >= solver.times["solve"]

    def test_workbudget_charge_is_locked(self):
        budget = WorkBudget(limit=None)
        start = threading.Barrier(8)

        def work():
            start.wait()
            for _ in range(1000):
                budget.charge()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # the unlocked `used += units` lost updates under contention
        assert budget.used == 8000

    def test_two_scoped_solvers_do_not_interleave_telemetry(self):
        a = _make_solver(n=256, bandwidth=1.0, seed=11, method="hybrid",
                         level=2)
        b = _make_solver(n=256, bandwidth=2.0, seed=12, method="hybrid",
                         level=2)
        label_a = a.scope_telemetry()
        label_b = b.scope_telemetry()
        assert label_a != label_b
        start = threading.Barrier(2)

        def work(s):
            start.wait()
            for _ in range(3):
                s.solve(RNG.standard_normal(s.n_points))

        threads = [threading.Thread(target=work, args=(s,)) for s in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # hybrid solves publish gmres.* series; each blob must carry
        # only its own solver's attributed series.
        for solver_obj, own, other in ((a, label_a, label_b),
                                       (b, label_b, label_a)):
            blob = solver_obj.telemetry()
            assert blob["scope"] == {"solver": own}
            labels_seen = set()
            for group in blob["metrics"].values():
                for entries in group.values():
                    for entry in entries:
                        labels_seen.add(entry.get("labels", {}).get("solver"))
            assert other not in labels_seen
            assert own in labels_seen  # the scoped series exist


# ----------------------------------------------------------------------
# the bugfix sweep: non-concurrency satellites
# ----------------------------------------------------------------------
class TestBugfixSatellites:
    def test_summation_half_specified_cache_pair_raises(self):
        from repro.kernels.summation import KernelSummation
        from repro.perf.blockcache import BlockCache

        kernel = GaussianKernel(bandwidth=1.0)
        XA = RNG.standard_normal((16, 2))
        XB = RNG.standard_normal((12, 2))
        cache = BlockCache(budget_words=10_000)
        with pytest.raises(ConfigurationError):
            KernelSummation(kernel, XA, XB, cache=cache)  # key missing
        with pytest.raises(ConfigurationError):
            KernelSummation(kernel, XA, XB, cache_key=("k",))  # cache missing
        # both or neither stay legal
        KernelSummation(kernel, XA, XB)
        ks = KernelSummation(kernel, XA, XB, cache=cache, cache_key=("k",))
        u = RNG.standard_normal(12)
        assert np.allclose(ks.matvec(u), kernel(XA, XB) @ u)

    def test_solve_with_info_validates_once(self, solver, monkeypatch):
        import repro.core.solver as solver_mod

        calls = []
        real = solver_mod.check_vector

        def counting(u, n=None, name="u"):
            calls.append(name)
            return real(u, n, name)

        monkeypatch.setattr(solver_mod, "check_vector", counting)
        u = RNG.standard_normal(solver.n_points)
        w, info = solver.solve_with_info(u)
        # the old path validated+permuted u twice (once in solve()):
        # one validation per request is the contract now.
        assert len(calls) == 1
        assert np.array_equal(w, solver.solve(u))
        assert info.residual < 1e-6


# ----------------------------------------------------------------------
# client retry: capped exponential backoff + jitter, typed exhaustion
# ----------------------------------------------------------------------
class TestClientRetry:
    def test_unreachable_daemon_raises_typed_error(self):
        from repro.exceptions import ServeUnavailableError
        from repro.serve import RetryConfig

        t0 = time.perf_counter()
        with pytest.raises(ServeUnavailableError, match="unreachable"):
            ServeClient(
                port=1,  # reserved port: connection refused immediately
                retry=RetryConfig(2, base=0.01, cap=0.02, jitter=0.0),
            )
        # two retries slept base + cap = 0.03 s; no unbounded spinning.
        assert time.perf_counter() - t0 < 5.0

    def test_unavailable_is_a_connection_error(self):
        from repro.exceptions import ReproError, ServeUnavailableError

        assert issubclass(ServeUnavailableError, ConnectionError)
        assert issubclass(ServeUnavailableError, ReproError)

    def test_backoff_schedule_is_capped(self):
        from repro.serve import RetryConfig

        rc = RetryConfig(6, base=0.1, cap=0.4, jitter=0.0)
        delays = [rc.delay(k) for k in range(6)]
        assert delays == [
            pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4),
            pytest.approx(0.4), pytest.approx(0.4), pytest.approx(0.4),
        ]

    def test_jitter_stays_within_band_and_is_seedable(self):
        from repro.serve import RetryConfig

        a = RetryConfig(3, base=0.1, cap=1.0, jitter=0.25, seed=42)
        b = RetryConfig(3, base=0.1, cap=1.0, jitter=0.25, seed=42)
        da = [a.delay(k) for k in range(8)]
        db = [b.delay(k) for k in range(8)]
        assert da == db  # same seed, same schedule
        for k, d in enumerate(da):
            raw = min(0.1 * 2.0 ** k, 1.0)
            assert 0.75 * raw <= d <= 1.25 * raw

    def test_retry_config_validation(self):
        from repro.serve import RetryConfig

        with pytest.raises(ConfigurationError):
            RetryConfig(-1)
        with pytest.raises(ConfigurationError):
            RetryConfig(1, base=0.0)
        with pytest.raises(ConfigurationError):
            RetryConfig(1, base=1.0, cap=0.5)
        with pytest.raises(ConfigurationError):
            RetryConfig(1, jitter=1.5)

    def test_request_reconnects_after_daemon_drop(self):
        """Kill the client's connection server-side mid-session; the
        next request must transparently reconnect and succeed."""
        import socket as socket_mod

        from repro.serve import RetryConfig

        drops = {"n": 0}

        def flaky_server(listener, stop):
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                f = conn.makefile("rwb")
                line = f.readline()
                if line and drops["n"] > 0:
                    f.write(b'{"ok": true}\n')
                    f.flush()
                elif line:
                    drops["n"] += 1  # close without replying: drop
                # makefile dups the fd: close both, or the drop never
                # reaches the client as an EOF.
                f.close()
                conn.close()

        listener = socket_mod.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        port = listener.getsockname()[1]
        stop = threading.Event()
        thread = threading.Thread(
            target=flaky_server, args=(listener, stop), daemon=True
        )
        thread.start()
        try:
            client = ServeClient(
                port=port, retry=RetryConfig(3, base=0.01, cap=0.05, jitter=0.0)
            )
            assert client.ping()  # first attempt dropped, retry succeeded
            assert drops["n"] == 1
            client.close()
        finally:
            stop.set()
            listener.close()
            thread.join(timeout=5.0)

    def test_remote_typed_errors_are_not_retried(self):
        """A live server saying 'no' must not burn the retry budget."""
        import socket as socket_mod

        from repro.serve import RetryConfig

        served = {"n": 0}

        def refusing_server(listener, stop):
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                f = conn.makefile("rwb")
                while f.readline():
                    served["n"] += 1
                    f.write(b'{"ok": false, "status": "usage", '
                            b'"error": "no such model"}\n')
                    f.flush()
                f.close()
                conn.close()

        listener = socket_mod.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        port = listener.getsockname()[1]
        stop = threading.Event()
        thread = threading.Thread(
            target=refusing_server, args=(listener, stop), daemon=True
        )
        thread.start()
        try:
            client = ServeClient(
                port=port, retry=RetryConfig(3, base=0.2, cap=1.0, jitter=0.0)
            )
            with pytest.raises(ConfigurationError):
                client.request({"op": "solve", "model": "nope"})
            # the typed error surfaced on the first attempt, unretried.
            assert served["n"] == 1
            client.close()
        finally:
            stop.set()
            listener.close()
            thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# incremental updates of resident models (docs/UPDATES.md)
# ----------------------------------------------------------------------
class TestResidentUpdates:
    def fresh_registry(self, seed=30):
        s = _make_solver(n=256, seed=seed)
        reg = ModelRegistry()
        return reg, reg.register(s), s

    def test_peek_eviction_is_typed(self):
        from repro.exceptions import ResidentEvictedError

        reg, fp, _ = self.fresh_registry()
        assert reg.peek(fp).solver is not None
        assert reg.evict(fp)
        with pytest.raises(ResidentEvictedError) as exc:
            reg.peek(fp)
        # KeyError-compatible for legacy except clauses
        assert isinstance(exc.value, KeyError)

    def test_update_resident_rotates_fingerprint(self):
        from repro.exceptions import ResidentEvictedError

        reg, fp, s = self.fresh_registry(seed=31)
        reg.get(fp)  # bump the solve counter that must survive
        solves = reg.peek(fp).solves
        Xi = s._X[7] + 0.02 * RNG.standard_normal((4, 3))
        new_fp = reg.update_resident(fp, X_insert=Xi)
        assert new_fp != fp
        assert reg.fingerprints() == [new_fp]
        assert reg.peek(new_fp).solves == solves
        assert reg.peek(new_fp).solver.n_points == 260
        with pytest.raises(ResidentEvictedError):
            reg.peek(fp)

    def test_lambda_update_keeps_fingerprint(self):
        reg, fp, s = self.fresh_registry(seed=32)
        # lambda is not part of the data fingerprint: same identity
        assert reg.update_resident(fp, lam=2.5) == fp
        assert reg.peek(fp).solver.factorization.lam == 2.5

    def test_failed_update_is_not_readmitted(self):
        from repro.exceptions import ResidentEvictedError

        reg, fp, _ = self.fresh_registry(seed=33)
        before = metrics_registry().total("serve.registry.update_failures")
        with pytest.raises(ConfigurationError):
            reg.update_resident(fp, kernel_params={"no_such_param": 1.0})
        assert (
            metrics_registry().total("serve.registry.update_failures")
            == before + 1
        )
        # the stale fingerprint no longer promises anything
        with pytest.raises(ResidentEvictedError):
            reg.peek(fp)

    def test_update_peek_race_is_typed(self):
        """Concurrent peeks during an update see either the old resident
        or ResidentEvictedError — never an untyped KeyError."""
        from repro.exceptions import ResidentEvictedError

        reg, fp, s = self.fresh_registry(seed=34)
        outcomes = {"resident": 0, "evicted": 0, "other": 0}
        stop = threading.Event()

        def peeker():
            while not stop.is_set():
                try:
                    reg.peek(fp)
                    outcomes["resident"] += 1
                except ResidentEvictedError:
                    outcomes["evicted"] += 1
                except Exception:
                    outcomes["other"] += 1

        threads = [threading.Thread(target=peeker) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        Xi = s._X[7] + 0.02 * RNG.standard_normal((4, 3))
        new_fp = reg.update_resident(fp, X_insert=Xi)
        time.sleep(0.05)
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        assert new_fp != fp
        assert outcomes["resident"] > 0
        assert outcomes["evicted"] > 0
        assert outcomes["other"] == 0

    def test_service_update_reports(self):
        s = _make_solver(n=256, seed=35)
        svc = SolverService(ServeConfig(window_seconds=0.01, max_batch=4))
        fp = svc.registry.register(s)
        try:
            result = svc.update(model=fp, lam=3.0)
            assert result["previous"] == fp
            assert result["model"] == fp
            assert result["report"]["mode"] == "lambda"
            assert result["report"]["lam"] == 3.0
        finally:
            svc.close()


class TestDaemonUpdate:
    @pytest.fixture()
    def endpoint(self):
        solver = _make_solver(n=256, seed=36)
        with _serving(solver) as daemon:
            yield daemon, solver

    def test_update_roundtrip(self, endpoint):
        daemon, solver = endpoint
        fp = solver.fingerprint()
        Xi = solver._X[7] + 0.02 * RNG.standard_normal((4, 3))
        with ServeClient(port=daemon.bound_port) as client:
            response = client.update(model=fp, insert=Xi)
            assert response["previous"] == fp
            new_fp = response["model"]
            assert new_fp != fp
            assert response["report"]["mode"] in ("incremental", "rebuild")
            assert response["report"]["n_inserted"] == 4
            assert client.models() == [new_fp]
            u = RNG.standard_normal(260)
            w = client.solve(u, model=new_fp)["w"]
            assert np.allclose(w, solver.solve(u), atol=1e-12)

    def test_stale_fingerprint_maps_to_evicted_status(self, endpoint):
        from repro.cli import EXIT_ERROR
        from repro.exceptions import ResidentEvictedError
        from repro.serve.daemon import error_payload

        daemon, solver = endpoint
        fp = solver.fingerprint()
        payload = error_payload(ResidentEvictedError("gone"))
        assert payload["status"] == "evicted"
        assert payload["code"] == EXIT_ERROR
        with ServeClient(port=daemon.bound_port) as client:
            client.update(model=fp, lam=4.0)  # same fp (lambda-only)
            client.evict(fp)
            with pytest.raises(ResidentEvictedError):
                client.update(model=fp, lam=5.0)
