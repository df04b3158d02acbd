"""Virtual MPI runtime: p2p semantics, collectives, splits, failure,
backend resolution, and the backend-agnostic pieces spawned ranks rely
on (shared-memory envelopes, picklable fabric state, env knobs)."""

import pickle

import numpy as np
import pytest

from repro.config import SkeletonConfig, SolverConfig, TreeConfig
from repro.exceptions import CommunicatorError, ConfigurationError, DeadlockError
from repro.kernels import GaussianKernel
from repro.parallel.vmpi import (
    BACKENDS,
    CommStats,
    FaultPlan,
    resolve_backend,
    run_spmd,
)
from repro.parallel.vmpi import shm

RNG = np.random.default_rng(42)


class TestPointToPoint:
    def test_ring_exchange(self):
        def prog(comm):
            comm.send(comm.rank * 10, (comm.rank + 1) % comm.size, tag=1)
            return comm.recv((comm.rank - 1) % comm.size, tag=1)

        res, _ = run_spmd(prog, 4)
        assert res == [30, 0, 10, 20]

    def test_fifo_per_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, 1, tag=7)
                return None
            return [comm.recv(0, tag=7) for _ in range(5)]

        res, _ = run_spmd(prog, 2)
        assert res[1] == [0, 1, 2, 3, 4]

    def test_tags_do_not_cross(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            # receive in the opposite order of sending.
            b = comm.recv(0, tag=2)
            a = comm.recv(0, tag=1)
            return (a, b)

        res, _ = run_spmd(prog, 2)
        assert res[1] == ("a", "b")

    def test_sendrecv_exchange(self):
        def prog(comm):
            peer = comm.size - 1 - comm.rank
            return comm.sendrecv(comm.rank, dest=peer, source=peer, tag=3)

        res, _ = run_spmd(prog, 4)
        assert res == [3, 2, 1, 0]

    def test_numpy_payloads(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(10.0), 1)
                return None
            return comm.recv(0)

        res, stats = run_spmd(prog, 2)
        assert np.allclose(res[1], np.arange(10.0))
        assert stats.bytes == 80

    def test_out_of_range_dest(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, 5)
            return None

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            run_spmd(prog, 2)


class TestCollectives:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_bcast_all_roots(self, p):
        def prog(comm):
            out = []
            for root in range(comm.size):
                val = {"root": root} if comm.rank == root else None
                out.append(comm.bcast(val, root=root)["root"])
            return out

        res, _ = run_spmd(prog, p)
        for r in res:
            assert r == list(range(p))

    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_reduce_sum(self, p):
        def prog(comm):
            return comm.reduce(np.full(3, float(comm.rank + 1)), root=0)

        res, _ = run_spmd(prog, p)
        assert np.allclose(res[0], p * (p + 1) / 2)
        for r in res[1:]:
            assert r is None

    def test_reduce_custom_op(self):
        def prog(comm):
            return comm.allreduce(comm.rank + 1, op=lambda a, b: a * b)

        res, _ = run_spmd(prog, 4)
        assert res == [24, 24, 24, 24]

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_allreduce_same_everywhere(self, p):
        def prog(comm):
            return comm.allreduce(np.ones(2) * comm.rank)

        res, _ = run_spmd(prog, p)
        expect = sum(range(p))
        for r in res:
            assert np.allclose(r, expect)

    def test_gather_and_allgather(self):
        def prog(comm):
            g = comm.gather(chr(ord("a") + comm.rank), root=1)
            ag = comm.allgather(comm.rank * 2)
            return g, ag

        res, _ = run_spmd(prog, 4)
        assert res[1][0] == ["a", "b", "c", "d"]
        assert res[0][0] is None
        for _, ag in res:
            assert ag == [0, 2, 4, 6]

    def test_barrier_completes(self):
        def prog(comm):
            comm.barrier()
            return True

        res, _ = run_spmd(prog, 8)
        assert all(res)

    def test_collective_message_count_logarithmic(self):
        """One bcast costs p-1 messages on a binomial tree."""

        def prog(comm):
            comm.bcast(b"x" * 100, root=0)

        _, stats = run_spmd(prog, 8)
        assert stats.messages == 7


class TestSplit:
    def test_split_halves(self):
        def prog(comm):
            half = comm.split(color=comm.rank // 4)
            return (half.size, half.rank, half.allreduce(comm.rank))

        res, _ = run_spmd(prog, 8)
        for world_rank, (size, rank, total) in enumerate(res):
            assert size == 4
            assert rank == world_rank % 4
            assert total == (0 + 1 + 2 + 3) if world_rank < 4 else (4 + 5 + 6 + 7)

    def test_split_key_reorders(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reverse order
            return sub.rank

        res, _ = run_spmd(prog, 4)
        assert res == [3, 2, 1, 0]

    def test_nested_splits_isolated(self):
        def prog(comm):
            a = comm.split(color=comm.rank % 2)
            b = a.split(color=a.rank % 2)
            # message on b must not leak into a.
            if b.size == 1:
                return "solo"
            b.send(comm.rank, (b.rank + 1) % b.size, tag=9)
            return b.recv((b.rank - 1) % b.size, tag=9)

        res, _ = run_spmd(prog, 8)
        assert all(r is not None for r in res)

    def test_world_rank_mapping(self):
        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            return sub.world_rank()

        res, _ = run_spmd(prog, 4)
        assert res == [0, 1, 2, 3]


class TestFailureHandling:
    def test_peer_failure_unblocks_recv(self):
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            comm.recv(0, tag=0)  # would deadlock without abort

        with pytest.raises(RuntimeError, match="boom"):
            run_spmd(prog, 2)

    def test_recv_timeout_raises_deadlock(self):
        def prog(comm):
            if comm.rank == 1:
                try:
                    comm.recv(0, tag=0)
                except DeadlockError:
                    return "timed-out"
            return "done"

        res, _ = run_spmd(prog, 2, timeout=0.2)
        assert res[1] == "timed-out"

    def test_bad_source_raises(self):
        def prog(comm):
            try:
                comm.recv(99)
            except CommunicatorError:
                return "caught"

        res, _ = run_spmd(prog, 2)
        assert res == ["caught", "caught"]


class TestStats:
    def test_byte_accounting_by_pair(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(16), 1)
            elif comm.rank == 1:
                comm.recv(0)

        _, stats = run_spmd(prog, 2)
        assert stats.by_pair[(0, 1)] == 128
        assert stats.messages == 1

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, 0)


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------

class TestBackendResolution:
    def test_explicit_values(self):
        assert resolve_backend("thread") == "thread"
        assert resolve_backend("socket") == "socket"
        assert BACKENDS == ("thread", "socket")

    def test_explicit_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="backend"):
            resolve_backend("mpi")

    def test_removed_process_backend_raises(self):
        with pytest.raises(ConfigurationError, match="backend"):
            resolve_backend("process")
        with pytest.raises(ConfigurationError, match="backend"):
            SolverConfig(backend="process")

    def test_env_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_VMPI_BACKEND", raising=False)
        assert resolve_backend() == "thread"
        monkeypatch.setenv("REPRO_VMPI_BACKEND", "socket")
        assert resolve_backend() == "socket"

    def test_env_typo_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_VMPI_BACKEND", "proces")
        assert resolve_backend() == "thread"

    def test_env_removed_process_backend_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_VMPI_BACKEND", "process")
        with pytest.warns(UserWarning, match="REPRO_VMPI_BACKEND='process'"):
            assert resolve_backend() == "thread"

    def test_config_backend_validation(self):
        assert SolverConfig(backend="socket").backend == "socket"
        with pytest.raises(ConfigurationError, match="backend"):
            SolverConfig(backend="mpi")


# ----------------------------------------------------------------------
# spawn safety: fabric state and caches cross process boundaries
# ----------------------------------------------------------------------

class TestSpawnSafety:
    def test_blockcache_pickles_as_configuration(self):
        from repro.perf.blockcache import BlockCache

        cache = BlockCache(budget_words=1234)
        cache.put(("k", 1), np.ones((8, 8)))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.budget_words == cache.budget_words
        assert clone.fetch(("k", 1)) is None  # entries do not cross
        assert clone.stats().lookups == 1  # fresh stats (the miss above)

    def test_commstats_pickle_roundtrip(self):
        st = CommStats()
        st.record(0, 1, 100)
        st.record_fault("drops", rank=1)
        clone = pickle.loads(pickle.dumps(st))
        assert clone.messages == 1 and clone.bytes == 100
        assert clone.drops == 1
        clone.record(1, 0, 50)  # lock was recreated
        assert clone.messages == 2

    def test_faultplan_pickle_preserves_decisions(self):
        plan = FaultPlan(seed=13, drop_rate=0.3, corrupt_rate=0.1)
        clone = pickle.loads(pickle.dumps(plan))
        key = ("world", 0, 1, 7)
        assert [plan.decide(key, s, 0) for s in range(64)] == [
            clone.decide(key, s, 0) for s in range(64)
        ]

    def test_faultplan_disarm_crash(self):
        plan = FaultPlan(seed=1, crash_rank=0, crash_op=0)
        plan.disarm_crash()
        plan.on_op(0)  # would raise RankCrashError if still armed


# ----------------------------------------------------------------------
# shared-memory envelopes
# ----------------------------------------------------------------------

class TestShmEnvelopes:
    def test_roundtrip_large_and_small(self):
        obj = {
            "big": np.arange(10000, dtype=np.float64),
            "small": np.arange(4, dtype=np.float64),
            "meta": ("x", 3),
        }
        env = shm.pack(obj)
        kinds = [slot[0] for slot in env["slots"]]
        assert "shm" in kinds and "inline" in kinds
        out = shm.unpack(env, unlink=True)
        assert np.array_equal(out["big"], obj["big"])
        assert np.array_equal(out["small"], obj["small"])
        assert out["meta"] == obj["meta"]

    def test_free_is_idempotent(self):
        env = shm.pack(np.ones(5000))
        assert shm.segment_names(env)
        shm.free(env)
        shm.free(env)  # second free is a no-op

    def test_unpacked_object_survives_unlink(self):
        env = shm.pack(np.arange(8192, dtype=np.float64))
        out = shm.unpack(env, unlink=True)
        # no live dependency on the (now unlinked) segment: data is intact
        # and usable after the name is gone.
        assert out[0] == 0.0 and out[-1] == 8191.0
        assert (out + 1.0)[0] == 1.0

    def test_threshold_keeps_small_payloads_inline(self):
        env = shm.pack(np.ones(4))
        assert shm.segment_names(env) == []


# ----------------------------------------------------------------------
# dtype coercion at the validation boundary
# ----------------------------------------------------------------------

class TestFloat32Regression:
    def test_balltree_coerces_float32(self):
        from repro.tree import BallTree

        X32 = RNG.standard_normal((128, 3)).astype(np.float32)
        tree = BallTree(X32, TreeConfig(leaf_size=16, seed=0))
        assert tree.points.dtype == np.float64

    def test_float32_and_float64_same_fingerprint(self):
        from repro.resilience import config_fingerprint

        X = RNG.standard_normal((64, 3))
        k = GaussianKernel(bandwidth=1.0)
        assert config_fingerprint(X.astype(np.float32).astype(np.float64), k) == \
            config_fingerprint(X.astype(np.float32), k)

    def test_backend_excluded_from_fingerprint(self):
        from repro.resilience import config_fingerprint

        X = RNG.standard_normal((32, 2))
        k = GaussianKernel(bandwidth=1.0)
        fp_t = config_fingerprint(X, k, SolverConfig(backend="thread"))
        fp_s = config_fingerprint(X, k, SolverConfig(backend="socket"))
        assert fp_t == fp_s

    def test_float32_pipeline_end_to_end(self):
        from repro import FastKernelSolver

        X32 = RNG.standard_normal((256, 3)).astype(np.float32)
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=1.5),
            tree_config=TreeConfig(leaf_size=32, seed=0),
            skeleton_config=SkeletonConfig(rank=16, seed=0),
        )
        solver.fit(X32).factorize(1.0)
        w = solver.solve(np.ones(256))
        assert w.dtype == np.float64 and np.all(np.isfinite(w))


# ----------------------------------------------------------------------
# malformed environment knobs must not crash
# ----------------------------------------------------------------------

class TestMalformedEnvKnobs:
    def test_malformed_fault_rate_falls_back(self, monkeypatch):
        from repro.parallel.vmpi.faults import plan_from_env

        monkeypatch.setenv("REPRO_FAULT_RATE", "not-a-float")
        assert plan_from_env() is None  # default rate 0 -> no plan

    def test_malformed_fault_seed_falls_back(self, monkeypatch):
        from repro.parallel.vmpi.faults import plan_from_env

        monkeypatch.setenv("REPRO_FAULT_RATE", "0.05")
        monkeypatch.setenv("REPRO_FAULT_SEED", "3.5")
        plan = plan_from_env()  # falls back to the default seed
        assert plan is not None and plan.drop_rate == pytest.approx(0.05)

    def test_out_of_range_fault_rate_clamped(self, monkeypatch):
        from repro.parallel.vmpi.faults import _MAX_ENV_RATE, plan_from_env

        monkeypatch.setenv("REPRO_FAULT_RATE", "0.9")
        plan = plan_from_env()
        assert plan is not None
        assert plan.drop_rate == pytest.approx(_MAX_ENV_RATE)

    def test_malformed_trace_tiles_disables_sampling(self, monkeypatch):
        from repro.obs.trace import Tracer

        monkeypatch.setenv("REPRO_TRACE_TILES", "every-third")
        tracer = Tracer()  # must not raise
        with tracer.span("check"):
            pass

    def test_malformed_knobs_emit_warnings_not_crashes(self, monkeypatch):
        from repro.obs.metrics import registry
        from repro.parallel.vmpi.faults import plan_from_env

        before = registry().total("warnings.emitted")
        monkeypatch.setenv("REPRO_FAULT_RATE", "banana")
        plan_from_env()
        assert registry().total("warnings.emitted") >= before
