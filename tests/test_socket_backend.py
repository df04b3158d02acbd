"""Socket-backed vMPI: transport parity, heartbeats, elastic recovery.

Tentpole invariants of the socket backend (docs/PARALLELISM.md):

* ``run_spmd(..., backend="socket")`` — spawned workers over a TCP
  control plane — is *bitwise interchangeable* with the thread
  backend, fault-free and under seeded chaos (the FaultPlan hash is
  pure, so both backends see the same schedule);
* a hung rank is detected by the heartbeat failure detector
  (suspected, then confirmed dead) instead of stalling the launch;
* with ``elastic=True`` a *permanent* rank loss repartitions the
  subtrees onto the survivors, resumes from per-level control-plane
  checkpoints, and the result matches the fault-free run to 1e-10.

A :class:`World` keeps its ranks across programs: distributed handles
solve on the ranks that factorized, a refit over the same H-matrix
takes their world over, telemetry is shipped per program, and no rank
process or shared-memory segment outlives its use.

All SPMD functions here are module-level: the socket backend pickles
the program for spawn, so closures are rejected (covered below too).
"""

import gc
import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest

from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.exceptions import CommunicatorError, ConfigurationError, RankLostError
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.obs import Tracer, registry, set_tracer
from repro.parallel.dist_hybrid import (
    distributed_hybrid_factorize,
    distributed_hybrid_solve,
)
from repro.parallel.dist_solver import (
    _solve_worker,
    distributed_factorize,
    distributed_solve,
)
from repro.parallel.vmpi import (
    FaultPlan,
    FailureDetector,
    HeartbeatConfig,
    Membership,
    World,
    run_spmd,
)

RNG = np.random.default_rng(7)

#: tight heartbeat schedule so detection tests finish in seconds.
FAST_HB = HeartbeatConfig(interval=0.1, suspect_after=0.4, confirm_after=1.2)


# ----------------------------------------------------------------------
# module-level SPMD programs (spawn-picklable)
# ----------------------------------------------------------------------

def ring_prog(comm, base):
    """Point-to-point ring + collective; payloads above the shm threshold."""
    x = np.full(3000, float(comm.rank) + base)  # 24 kB > DEFAULT_THRESHOLD
    comm.send(x, (comm.rank + 1) % comm.size, tag=1)
    y = comm.recv((comm.rank - 1) % comm.size, tag=1)
    return comm.allreduce(float(y.sum()))


def failing_prog(comm):
    raise ValueError(f"boom from rank {comm.rank}")


def apply_prog(comm, f):
    """Apply a caller-supplied function on every rank."""
    return f(float(comm.rank))


def cache_publish_prog(comm):
    """Publish to the default BlockCache inside a worker process."""
    from repro.perf import default_cache

    cache = default_cache()
    key = ("test", "spawn", comm.rank)
    cache.put(key, np.ones((64, 64)))
    hit = cache.fetch(key)
    stats = cache.stats()
    return {
        "got_back": hit is not None,
        "hits": stats.hits,
        "lookups": stats.lookups,
    }


def metrics_prog(comm):
    """Increment a counter in the child; shipped back and merged."""
    from repro.obs.metrics import registry

    registry().counter("test.child_work").inc(comm.rank + 1)
    return comm.rank


def flops_prog(comm):
    """Count flops in the child; charged to the caller's counter."""
    from repro.util.flops import count_flops

    count_flops(100 * (comm.rank + 1), label="test_child")
    return comm.rank


def keep_prog(comm, value):
    """Leave a value in this rank's resident store."""
    comm.resident["kept"] = value + comm.rank
    return comm.rank


def read_prog(comm):
    """Read back what an earlier program (or a seed) left on this rank."""
    return comm.resident.get("kept")


def pid_prog(comm):
    return os.getpid()


def resident_prog(comm):
    """What this rank keeps between programs."""
    return sorted(comm.resident)


def state_prog(comm):
    """This rank's resident state, shipped home."""
    return comm.resident["state"]


def checkpoint_prog(comm, rounds):
    """Exchange + checkpoint each round; traffic counters must ignore
    the control-plane checkpoint frames."""
    total = 0.0
    for r in range(rounds):
        peer = comm.rank ^ 1
        comm.send(float(comm.rank * 10 + r), peer, tag=r)
        total += comm.recv(peer, tag=r)
        comm.checkpoint({"rank": comm.rank, "round": r, "total": total})
    return total


@pytest.fixture(scope="module")
def problem():
    X = RNG.standard_normal((512, 3))
    h = build_hmatrix(
        X,
        GaussianKernel(bandwidth=1.5),
        tree_config=TreeConfig(leaf_size=32, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-8, max_rank=48, num_samples=192, num_neighbors=8, seed=2
        ),
    )
    u = RNG.standard_normal(512)
    return h, u


# ----------------------------------------------------------------------
# tentpole: socket parity with thread
# ----------------------------------------------------------------------

class TestSocketParity:
    def test_spmd_results_and_stats_match_thread(self):
        rt, st = run_spmd(ring_prog, 2, 5.0, backend="thread")
        rs, ss = run_spmd(ring_prog, 2, 5.0, backend="socket")
        assert rt == rs
        assert (st.messages, st.bytes) == (ss.messages, ss.bytes)

    def test_distributed_solve_bitwise_identical(self, problem):
        h, u = problem
        dt = distributed_factorize(h, 0.7, n_ranks=2, backend="thread")
        wt, _ = distributed_solve(dt, u)
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        ws, _ = distributed_solve(ds, u)
        assert ds.backend == "socket"
        assert np.array_equal(wt, ws)

    def test_socket_states_share_callers_hmatrix(self, problem):
        h, _ = problem
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        assert all(s.local.hmatrix is h for s in ds.states)

    def test_factor_payloads_bitwise_identical(self, problem):
        h, _ = problem
        dt = distributed_factorize(h, 0.7, n_ranks=2, backend="thread")
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        for st, ss in zip(dt.states, ds.states):
            for nid, lf in st.local.leaf_factors.items():
                assert np.array_equal(lf.lu[0], ss.local.leaf_factors[nid].lu[0])
                assert np.array_equal(lf.phat, ss.local.leaf_factors[nid].phat)

    def test_env_backend_selects_socket(self, monkeypatch):
        monkeypatch.setenv("REPRO_VMPI_BACKEND", "socket")
        rs, _ = run_spmd(ring_prog, 2, 1.0)
        rt, _ = run_spmd(ring_prog, 2, 1.0, backend="thread")
        assert rs == rt
        # the environment really picked spawned ranks: closures cannot cross.
        with pytest.raises(ConfigurationError, match="module-level"):
            run_spmd(lambda comm: None, 2)

    def test_parity_under_chaos(self, problem):
        h, u = problem
        plan = lambda: FaultPlan(  # noqa: E731 - two identical plans
            seed=9, drop_rate=0.05, corrupt_rate=0.025, delay_rate=0.0125
        )
        dt = distributed_factorize(
            h, 0.7, n_ranks=2, fault_plan=plan(), backend="thread"
        )
        wt, _ = distributed_solve(dt, u)
        ds = distributed_factorize(
            h, 0.7, n_ranks=2, fault_plan=plan(), backend="socket"
        )
        ws, _ = distributed_solve(ds, u)
        assert np.array_equal(wt, ws)
        assert ds.factor_stats.drops == dt.factor_stats.drops
        assert ds.factor_stats.corruptions == dt.factor_stats.corruptions
        assert ds.factor_stats.retries == dt.factor_stats.retries

    def test_rank_crash_respawn(self, problem):
        h, u = problem
        dt = distributed_factorize(h, 0.7, n_ranks=2, backend="thread")
        wt, _ = distributed_solve(dt, u)
        ds = distributed_factorize(
            h,
            0.7,
            n_ranks=2,
            fault_plan=FaultPlan(seed=5, crash_rank=1, crash_op=4),
            backend="socket",
        )
        ws, _ = distributed_solve(ds, u)
        assert np.array_equal(wt, ws)
        assert ds.factor_stats.crashes == 1
        assert ds.factor_stats.respawns == 1
        assert ds.factor_stats.rank_recoveries[0]["rank"] == 1

    def test_closures_rejected_with_guidance(self):
        captured = 3.0

        def closure_prog(comm):
            return captured

        with pytest.raises(ConfigurationError, match="module-level"):
            run_spmd(closure_prog, 2, backend="socket")

    def test_closure_arguments_rejected_with_guidance(self):
        offset = 3.0

        def shift(x):
            return x + offset

        # threads share the closure; spawned ranks would have to pickle it.
        rt, _ = run_spmd(apply_prog, 2, shift, backend="thread")
        assert rt == [3.0, 4.0]
        with pytest.raises(ConfigurationError, match="module-level"):
            run_spmd(apply_prog, 2, shift, backend="socket")

    def test_run_spmd_error_message_parity(self):
        with pytest.raises(RuntimeError, match="rank 0 failed"):
            run_spmd(failing_prog, 2, backend="socket")


class TestFourRankParity:
    """Thread parity at four spawned ranks: the distributed phase spans
    log2(4) = 2 tree levels instead of one."""

    @pytest.fixture(scope="class")
    def factorized(self, problem):
        h, _ = problem
        dt = distributed_factorize(h, 0.7, n_ranks=4, backend="thread")
        ds = distributed_factorize(h, 0.7, n_ranks=4, backend="socket")
        return dt, ds

    def test_spmd_results_and_stats_match(self):
        rt, st = run_spmd(ring_prog, 4, 5.0, backend="thread")
        rs, ss = run_spmd(ring_prog, 4, 5.0, backend="socket")
        assert rt == rs
        assert (st.messages, st.bytes) == (ss.messages, ss.bytes)

    def test_distributed_solve_bitwise_identical(self, problem, factorized):
        _, u = problem
        dt, ds = factorized
        assert ds.backend == "socket" and ds.n_ranks == 4
        wt, _ = distributed_solve(dt, u)
        ws, _ = distributed_solve(ds, u)
        assert np.array_equal(wt, ws)

    def test_states_share_callers_hmatrix(self, problem, factorized):
        h, _ = problem
        _, ds = factorized
        assert len(ds.states) == 4
        assert all(s.local.hmatrix is h for s in ds.states)

    def test_parity_under_chaos(self, problem):
        h, u = problem
        plan = lambda: FaultPlan(  # noqa: E731 - two identical plans
            seed=9, drop_rate=0.05, corrupt_rate=0.025, delay_rate=0.0125
        )
        dt = distributed_factorize(
            h, 0.7, n_ranks=4, fault_plan=plan(), backend="thread"
        )
        wt, _ = distributed_solve(dt, u)
        ds = distributed_factorize(
            h, 0.7, n_ranks=4, fault_plan=plan(), backend="socket"
        )
        ws, _ = distributed_solve(ds, u)
        assert np.array_equal(wt, ws)
        assert ds.factor_stats.drops == dt.factor_stats.drops
        assert ds.factor_stats.corruptions == dt.factor_stats.corruptions
        assert ds.factor_stats.retries == dt.factor_stats.retries

    def test_root_rank_crash_respawn(self, problem):
        h, u = problem
        dt = distributed_factorize(h, 0.7, n_ranks=4, backend="thread")
        wt, _ = distributed_solve(dt, u)
        ds = distributed_factorize(
            h,
            0.7,
            n_ranks=4,
            fault_plan=FaultPlan(seed=5, crash_rank=0, crash_op=4),
            backend="socket",
        )
        ws, _ = distributed_solve(ds, u)
        assert np.array_equal(wt, ws)
        assert ds.factor_stats.crashes == 1
        assert ds.factor_stats.respawns == 1
        assert ds.factor_stats.rank_recoveries[0]["rank"] == 0


class _LateRankOneContext:
    """``spawn`` context whose rank-1 worker starts a few seconds late,
    so rank 0 posts to rank 1 before rank 1's connection exists."""

    def __init__(self, delay: float) -> None:
        import multiprocessing

        self._ctx = multiprocessing.get_context("spawn")
        self._delay = delay

    def get_context(self, method):
        assert method == "spawn"
        return self

    def Process(self, *args, name, **kwargs):
        import time

        if name == "vmpi-sock-rank-1":
            time.sleep(self._delay)
        return self._ctx.Process(*args, name=name, **kwargs)


class TestLateConnection:
    def test_posts_before_a_rank_connects_are_delivered(self, monkeypatch):
        from repro.parallel.vmpi import sockets

        monkeypatch.setattr(sockets, "mp", _LateRankOneContext(delay=4.0))
        rt, _ = run_spmd(ring_prog, 2, 5.0, backend="thread")
        rs, _ = run_spmd(ring_prog, 2, 5.0, backend="socket", timeout=20.0)
        assert rs == rt


# ----------------------------------------------------------------------
# process-wide singletons inside spawned ranks
# ----------------------------------------------------------------------

class TestSpawnSafety:
    def test_blockcache_publish_after_spawn(self):
        with World(2, "socket") as world:
            for _ in range(2):
                results, _ = world.run(cache_publish_prog)
                for r in results:
                    assert r["got_back"]
                    # stats start from zero per program: exactly this
                    # program's traffic, also on a rank that lives on.
                    assert r["lookups"] == 1 and r["hits"] == 1

    def test_metrics_merge_from_children(self):
        from repro.obs.metrics import registry

        before = registry().total("test.child_work")
        with World(2, "socket") as world:
            world.run(metrics_prog)
            # ranks 0 and 1 incremented by 1 and 2 respectively.
            assert registry().total("test.child_work") == before + 3.0
            world.run(metrics_prog)
            # the second program ships its own counts, not running totals.
            assert registry().total("test.child_work") == before + 6.0

    def test_flops_charged_once_per_program(self):
        from repro.util.flops import FlopCounter

        with World(2, "socket") as world:
            for _ in range(2):
                with FlopCounter() as counter:
                    world.run(flops_prog)
                assert counter.by_label["test_child"] == 300


# ----------------------------------------------------------------------
# worlds: ranks and their resident stores outlive programs
# ----------------------------------------------------------------------

def live_ranks() -> set:
    """Live socket rank processes of this test process."""
    return {
        p.pid
        for p in multiprocessing.active_children()
        if p.name.startswith("vmpi-sock-rank")
    }


def shm_segments() -> set:
    return set(os.listdir("/dev/shm"))


@pytest.mark.parametrize("backend", ["thread", "socket"])
class TestWorld:
    def test_residents_outlive_a_program(self, backend):
        with World(2, backend) as world:
            world.run(keep_prog, 10)
            results, _ = world.run(read_prog)
        assert results == [10, 11]

    def test_residents_seed_a_fresh_world(self, backend):
        results, _ = run_spmd(
            read_prog, 2, backend=backend, residents=lambda r: {"kept": -r}
        )
        assert results == [0, -1]

    def test_closed_world_refuses_programs(self, backend):
        world = World(2, backend)
        world.run(keep_prog, 0)
        world.close()
        with pytest.raises(CommunicatorError, match="closed"):
            world.run(read_prog)

    def test_failed_program_closes_the_world(self, backend):
        world = World(2, backend)
        with pytest.raises(RuntimeError, match="rank 0 failed"):
            world.run(failing_prog)
        assert world.closed

    def test_each_program_records_a_span_and_one_launch(self, backend):
        launched = worlds_launched(backend)
        tr = Tracer()
        previous = set_tracer(tr)
        try:
            with World(2, backend) as world:
                world.run(keep_prog, 0)
                world.run(read_prog)
        finally:
            set_tracer(previous)
        spans = [r for r in tr.tree() if r["name"] == "vmpi.program"]
        assert [sp["attrs"] for sp in spans] == [
            {"backend": backend, "ranks": 2, "program": name, "launched": first}
            for name, first in (("keep_prog", True), ("read_prog", False))
        ]
        assert worlds_launched(backend) == launched + 1


class TestLiveHandles:
    """A socket handle solves on the ranks that factorized."""

    @pytest.fixture(scope="class")
    def reference(self, problem):
        h, u = problem
        dt = distributed_factorize(h, 0.7, n_ranks=2, backend="thread")
        wt, _ = distributed_solve(dt, u)
        return dt, wt

    def test_solves_ship_only_the_right_hand_side(self, problem, reference):
        h, u = problem
        _, wt = reference
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        procs = list(ds._world._ranks._procs)
        for _ in range(3):
            ws, _ = distributed_solve(ds, u)
            assert np.array_equal(wt, ws)
        # the same two processes served every solve.
        assert all(p.is_alive() for p in procs) and ds._world._ranks._procs == procs
        ds.close()

    def test_crash_in_a_solve_respawns_and_reseeds(self, problem, reference):
        h, u = problem
        dt, wt = reference
        plan = lambda: FaultPlan(seed=5, crash_rank=1, crash_op=3)  # noqa: E731
        wt_crash, st = distributed_solve(dt, u, fault_plan=plan())
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        ws, ss = distributed_solve(ds, u, fault_plan=plan())
        assert np.array_equal(wt, ws) and np.array_equal(wt_crash, ws)
        assert ss.crashes == st.crashes == 1
        assert ss.respawns == st.respawns == 1
        # the replacement holds dist.states[1] and serves later solves.
        ws, _ = distributed_solve(ds, u)
        assert np.array_equal(wt, ws)
        ds.close()

    def test_concurrent_solves_run_one_at_a_time(self, problem, reference):
        """Four threads share one live handle: every answer stays bitwise."""
        h, u = problem
        _, wt = reference
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        answers: list = []

        def solve_some() -> None:
            for _ in range(5):
                answers.append(distributed_solve(ds, u)[0])

        threads = [threading.Thread(target=solve_some) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
            assert not t.is_alive()
        assert len(answers) == 20
        assert all(np.array_equal(wt, w) for w in answers)
        ds.close()

    def test_unpickled_handle_solves_bitwise(self, problem, reference):
        h, u = problem
        _, wt = reference
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        assert "_world" not in ds.__getstate__()
        clone = pickle.loads(pickle.dumps(ds))
        ws, _ = distributed_solve(clone, u)
        assert np.array_equal(wt, ws)
        ws, _ = distributed_solve(ds, u)  # the original keeps its ranks
        assert np.array_equal(wt, ws)
        ds.close()

    @pytest.mark.parametrize("backend", ["thread", "socket"])
    def test_closed_handle_solves_bitwise(self, problem, reference, backend):
        h, u = problem
        _, wt = reference
        dist = distributed_factorize(h, 0.7, n_ranks=2, backend=backend)
        dist.close()
        # a one-program world on the handle's backend, seeded from its states.
        ws, _ = distributed_solve(dist, u)
        assert np.array_equal(wt, ws)


def assert_states_bound(dist):
    """Every state is bound to the handle's H-matrix, and ships without it."""
    assert all(state.local.hmatrix is dist.hmatrix for state in dist.states)
    for state in dist.states:
        assert pickle.loads(pickle.dumps(state)).local.hmatrix is None
    clone = pickle.loads(pickle.dumps(dist))
    assert all(state.local.hmatrix is clone.hmatrix for state in clone.states)
    return clone


class TestRankStates:
    """A rank state crosses without the H-matrix; its holder binds its own."""

    def test_a_state_a_rank_returns_carries_no_hmatrix(self, problem):
        h, _ = problem
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        shipped, _ = ds._world.run(state_prog)
        assert [state.local.hmatrix for state in shipped] == [None, None]
        ds.close()

    @pytest.mark.parametrize("backend", ["thread", "socket"])
    def test_states_bind_to_the_handles_hmatrix(self, problem, backend):
        h, u = problem
        dist = distributed_factorize(h, 0.7, n_ranks=2, backend=backend)
        clone = assert_states_bound(dist)
        assert np.array_equal(distributed_solve(clone, u)[0], distributed_solve(dist, u)[0])
        dist.close()

    @pytest.mark.parametrize("backend", ["thread", "socket"])
    def test_hybrid_states_bind_to_the_handles_hmatrix(self, hmatrix_restricted, backend):
        dist = distributed_hybrid_factorize(
            hmatrix_restricted, 0.7, 2, SolverConfig(method="hybrid"), backend=backend
        )
        assert_states_bound(dist)
        dist.close()


class TestNoLeaks:
    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_threads_and_segments_flat_over_solves(self, problem):
        h, u = problem
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        distributed_solve(ds, u)
        threads, segments = threading.active_count(), shm_segments()
        for _ in range(50):
            distributed_solve(ds, u)
        assert threading.active_count() == threads
        assert shm_segments() - segments == set()
        ds.close()

    def test_no_rank_outlives_close(self, problem):
        h, _ = problem
        before = live_ranks()
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        assert len(live_ranks() - before) == 2
        ds.close()
        assert live_ranks() <= before

    def test_no_rank_outlives_the_handle(self, problem):
        h, _ = problem
        before = live_ranks()
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        del ds
        gc.collect()
        assert live_ranks() <= before

    def test_no_rank_outlives_a_failed_launch(self):
        before = live_ranks()
        with pytest.raises(RuntimeError, match="rank 0 failed"):
            run_spmd(failing_prog, 2, backend="socket")
        assert live_ranks() <= before

    def test_rank_exits_when_its_link_closes(self):
        world = World(2, "socket")
        pids, _ = world.run(pid_prog)
        ranks = world._ranks
        procs = list(ranks._procs)
        assert [p.pid for p in procs] == pids
        for conn in list(ranks._conns.values()):
            conn.hang_up()  # the supervisor's end goes away, close() is not called
        for p in procs:
            p.join(10.0)
            assert p.exitcode == 0  # left by itself, not terminated
        world.close()

    def test_accept_loop_survives_a_world_closed_before_it_runs(self):
        from repro.parallel.vmpi.sockets import SocketRanks

        ranks = SocketRanks(2)
        ranks.close()
        ranks._accept_loop()  # returns: the closed socket is not touched


# ----------------------------------------------------------------------
# refits: a new factorization over the same H-matrix takes its world over
# ----------------------------------------------------------------------

LAMS = (0.1, 1.0, 5.0, 25.0, 0.5)


def worlds_launched(backend: str = "socket") -> float:
    return registry().value("vmpi.worlds_launched", backend=backend)


def factor_payloads(dist) -> list[np.ndarray]:
    """Every array a distributed telescoping factorization holds."""
    arrays = []
    for state in dist.states:
        local = state.local
        for nid in sorted((*local.leaf_factors, *local.node_factors)):
            payload = local.export_node_payload(nid)
            arrays += [v for v in payload.values() if isinstance(v, np.ndarray)]
        for l in sorted(state.levels):
            z_lu = state.levels[l].z_lu
            arrays += list(z_lu) if z_lu is not None else []
        arrays += [state.phat_chain[l] for l in sorted(state.phat_chain)]
    return arrays


def assert_bitwise(a: list[np.ndarray], b: list[np.ndarray]) -> None:
    assert len(a) == len(b)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.fixture(scope="module")
def thread_refits(problem):
    """Thread-backend payloads and solve at each (p, lam) of the sweeps."""
    h, u = problem
    out = {}
    for p in (2, 4):
        for lam in (0.7, *LAMS):
            dt = distributed_factorize(h, lam, n_ranks=p, backend="thread")
            out[p, lam] = factor_payloads(dt), distributed_solve(dt, u)[0]
    return out


class TestRefit:
    """A lambda sweep over one H-matrix spawns one world."""

    @pytest.mark.parametrize("p", [2, 4])
    def test_sweep_keeps_its_ranks_and_matches_threads(
        self, problem, thread_refits, p
    ):
        h, u = problem
        ds = distributed_factorize(h, 0.7, n_ranks=p, backend="socket")
        procs = list(ds._world._ranks._procs)
        launched = worlds_launched()
        for lam in LAMS:
            ds = distributed_factorize(h, lam, n_ranks=p, backend="socket")
            payloads, wt = thread_refits[p, lam]
            assert_bitwise(factor_payloads(ds), payloads)
            assert np.array_equal(distributed_solve(ds, u)[0], wt)
        assert worlds_launched() == launched
        assert ds._world._ranks._procs == procs
        assert all(proc.is_alive() for proc in procs)
        ds.close()
        assert not any(proc.is_alive() for proc in procs)

    def test_hybrid_sweep_over_a_restricted_hmatrix(self, hmatrix_restricted):
        h = hmatrix_restricted
        cfg = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-11, max_iters=300))
        u = np.random.default_rng(3).standard_normal(h.n_points)
        wt = {}
        for lam in LAMS:
            dt = distributed_hybrid_factorize(h, lam, 2, cfg, backend="thread")
            wt[lam] = distributed_hybrid_solve(dt, u)[0]
        ds = distributed_hybrid_factorize(h, 0.7, 2, cfg, backend="socket")
        procs = list(ds._world._ranks._procs)
        launched = worlds_launched()
        for lam in LAMS:
            ds = distributed_hybrid_factorize(h, lam, 2, cfg, backend="socket")
            assert np.array_equal(distributed_hybrid_solve(ds, u)[0], wt[lam])
        assert worlds_launched() == launched
        assert ds._world._ranks._procs == procs
        ds.close()

    def test_older_handle_solves_and_its_collection_spares_the_world(
        self, problem, thread_refits
    ):
        h, u = problem
        old = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        w_old = distributed_solve(old, u)[0]
        procs = list(old._world._ranks._procs)
        new = distributed_factorize(h, 5.0, n_ranks=2, backend="socket")
        assert new._world._ranks._procs == procs
        assert "_world" not in old.__dict__
        assert np.array_equal(distributed_solve(old, u)[0], w_old)
        old.close()  # owns no world any more: a no-op
        del old
        gc.collect()
        assert all(p.is_alive() for p in procs)
        assert np.array_equal(distributed_solve(new, u)[0], thread_refits[2, 5.0][1])
        new.close()
        assert not any(p.is_alive() for p in procs)

    def test_older_handle_solve_racing_a_refit_keeps_its_lambda(
        self, problem, thread_refits, monkeypatch
    ):
        """A refit on another thread waits for a solve the older handle
        has in flight on the world, so that solve keeps its lambda."""
        h, u = problem
        old = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        world = old._world
        in_flight, release = threading.Event(), threading.Event()

        def held_solves(fn, *args, **kwargs):
            if fn is _solve_worker:  # past the handle's world check
                in_flight.set()
                release.wait(60.0)
            return World.run(world, fn, *args, **kwargs)

        monkeypatch.setattr(world, "run", held_solves)
        answers: list = []
        handles: list = []
        solve = threading.Thread(
            target=lambda: answers.append(distributed_solve(old, u)[0])
        )
        refit = threading.Thread(
            target=lambda: handles.append(
                distributed_factorize(h, 25.0, n_ranks=2, backend="socket")
            )
        )
        solve.start()
        try:
            assert in_flight.wait(60.0)
            refit.start()
            refit.join(1.0)
            assert refit.is_alive()  # the hand-over waits for the older solve
        finally:
            release.set()
        solve.join(60.0)
        refit.join(120.0)
        assert not solve.is_alive() and not refit.is_alive()
        assert np.array_equal(answers[0], thread_refits[2, 0.7][1])
        (new,) = handles
        assert new._world is world
        assert np.array_equal(distributed_solve(new, u)[0], thread_refits[2, 25.0][1])
        assert np.array_equal(distributed_solve(old, u)[0], thread_refits[2, 0.7][1])
        new.close()

    def test_refit_past_the_respawn_budget_leaves_no_rank(
        self, problem, thread_refits
    ):
        h, u = problem
        before = live_ranks()
        old = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        with pytest.raises(RuntimeError, match="RankCrashError"):
            distributed_factorize(
                h, 1.0, n_ranks=2, backend="socket",
                fault_plan=FaultPlan(seed=5, crash_rank=1, crash_op=4),
                max_respawns=0,
            )
        assert live_ranks() <= before
        assert np.array_equal(distributed_solve(old, u)[0], thread_refits[2, 0.7][1])
        later = distributed_factorize(h, 1.0, n_ranks=2, backend="socket")
        assert np.array_equal(distributed_solve(later, u)[0], thread_refits[2, 1.0][1])
        later.close()
        assert live_ranks() <= before

    def test_crash_in_a_refit_respawns_a_seeded_rank(self, problem, thread_refits):
        h, u = problem
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        launched = worlds_launched()
        ds = distributed_factorize(
            h, 5.0, n_ranks=2, backend="socket",
            fault_plan=FaultPlan(seed=5, crash_rank=1, crash_op=4),
        )
        assert ds.factor_stats.respawns == 1
        assert worlds_launched() == launched
        payloads, wt = thread_refits[2, 5.0]
        assert_bitwise(factor_payloads(ds), payloads)
        assert np.array_equal(distributed_solve(ds, u)[0], wt)
        keys, _ = ds._world.run(resident_prog)
        assert keys == [["hmatrix", "state"]] * 2
        ds.close()

    def test_crash_in_a_solve_then_a_refit(self, problem, thread_refits):
        h, u = problem
        ds = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        launched = worlds_launched()
        w, stats = distributed_solve(
            ds, u, fault_plan=FaultPlan(seed=5, crash_rank=1, crash_op=3)
        )
        assert stats.respawns == 1
        assert np.array_equal(w, thread_refits[2, 0.7][1])
        # the replacement process was seeded with the H-matrix: it refits.
        ds = distributed_factorize(h, 25.0, n_ranks=2, backend="socket")
        assert worlds_launched() == launched
        payloads, wt = thread_refits[2, 25.0]
        assert_bitwise(factor_payloads(ds), payloads)
        assert np.array_equal(distributed_solve(ds, u)[0], wt)
        ds.close()

    def test_another_shape_spawns_its_own_world(self, problem, thread_refits):
        h, u = problem
        d2 = distributed_factorize(h, 0.7, n_ranks=2, backend="socket")
        world = d2._world
        launched = worlds_launched()
        d4 = distributed_factorize(h, 0.7, n_ranks=4, backend="socket")
        dt = distributed_factorize(h, 0.7, n_ranks=2, backend="thread")
        assert worlds_launched() == launched + 1
        assert d4._world is not world and d2._world is world and not world.closed
        for dist, p in ((d2, 2), (d4, 4), (dt, 2)):
            assert np.array_equal(distributed_solve(dist, u)[0], thread_refits[p, 0.7][1])
        d2.close()
        d4.close()


# ----------------------------------------------------------------------
# control-plane checkpoints: invisible to traffic and chaos accounting
# ----------------------------------------------------------------------

class TestCheckpointSeam:
    def test_checkpoints_do_not_shift_traffic_or_chaos(self):
        plan = lambda: FaultPlan(seed=3, drop_rate=0.1)  # noqa: E731
        r_plain, s_plain = run_spmd(
            ring_prog, 2, 5.0, backend="socket", fault_plan=plan()
        )
        r_ckpt, s_ckpt = run_spmd(
            checkpoint_prog, 2, 3, backend="socket", fault_plan=plan()
        )
        # different programs, but the ring run's schedule is what it
        # would be with no checkpoint machinery at all: compare against
        # the thread backend running the same two programs.
        rt_plain, st_plain = run_spmd(
            ring_prog, 2, 5.0, backend="thread", fault_plan=plan()
        )
        rt_ckpt, st_ckpt = run_spmd(
            checkpoint_prog, 2, 3, backend="thread", fault_plan=plan()
        )
        assert r_plain == rt_plain and r_ckpt == rt_ckpt
        assert s_plain.messages == st_plain.messages
        assert s_ckpt.messages == st_ckpt.messages
        assert s_ckpt.drops == st_ckpt.drops

    def test_checkpoint_messages_uncounted(self):
        # a zero-rate plan pins the schedule even when the CI chaos job
        # exports REPRO_FAULT_RATE for every other launch.
        _, with_ckpt = run_spmd(
            checkpoint_prog, 2, 1, backend="thread", fault_plan=FaultPlan(seed=0)
        )
        # one exchange each way per round, nothing for the checkpoints.
        assert with_ckpt.messages == 2


# ----------------------------------------------------------------------
# heartbeat failure detection (socket backend only)
# ----------------------------------------------------------------------

class TestHeartbeatDetection:
    def test_hang_confirmed_dead_and_stale_frames_rejected(self):
        plan = FaultPlan(seed=1, hang_rank=1, hang_op=3, hang_seconds=2.5)
        with pytest.raises(RankLostError) as info:
            run_spmd(
                ring_prog, 2, 5.0,
                backend="socket",
                fault_plan=plan,
                max_respawns=0,
                elastic=True,
                heartbeat=FAST_HB,
            )
        exc = info.value
        assert exc.rank == 1
        assert exc.epoch == 1
        assert exc.stats.suspicions >= 1
        assert exc.stats.confirmed_losses == 1
        assert exc.stats.heartbeats > 0
        # the zombie wakes inside the supervisor's linger window and its
        # late frames are rejected by the membership epoch, not applied.
        assert exc.stats.stale_rejected >= 1

    def test_hang_recovered_by_respawn(self):
        rt, _ = run_spmd(ring_prog, 2, 5.0, backend="thread")
        plan = FaultPlan(seed=1, hang_rank=1, hang_op=3, hang_seconds=2.5)
        rs, stats = run_spmd(
            ring_prog, 2, 5.0,
            backend="socket",
            fault_plan=plan,
            max_respawns=1,
            heartbeat=FAST_HB,
        )
        assert rs == rt
        assert stats.respawns == 1
        assert stats.confirmed_losses == 0


# ----------------------------------------------------------------------
# elastic repartitioning on permanent rank loss
# ----------------------------------------------------------------------

class TestElasticRepartition:
    def test_rank_lost_error_carries_survivor_checkpoints(self):
        plan = FaultPlan(seed=2, crash_rank=1, crash_op=2)
        with pytest.raises(RankLostError) as info:
            run_spmd(
                checkpoint_prog, 2, 3,
                backend="thread",
                fault_plan=plan,
                max_respawns=0,
                elastic=True,
            )
        exc = info.value
        assert exc.rank == 1 and exc.epoch == 1
        assert 1 not in exc.checkpoints  # the lost rank's host is gone
        assert exc.stats.confirmed_losses == 1

    def test_without_elastic_permanent_loss_is_fatal(self):
        plan = FaultPlan(seed=2, crash_rank=1, crash_op=2)
        with pytest.raises(RuntimeError, match="RankCrashError"):
            run_spmd(
                checkpoint_prog, 2, 3,
                backend="thread",
                fault_plan=plan,
                max_respawns=0,
            )

    @pytest.mark.parametrize("backend", ["thread", "socket"])
    def test_repartition_completes_and_matches_fault_free(
        self, problem, backend
    ):
        """The acceptance test: permanently kill one rank of four
        mid-factorization with respawn disabled; the launch must
        repartition onto two survivors, complete, and match the
        fault-free solution to 1e-10."""
        h, u = problem
        d0 = distributed_factorize(h, 0.7, n_ranks=4, backend="thread")
        w0, _ = distributed_solve(d0, u)
        before = live_ranks()

        plan = FaultPlan(seed=4, crash_rank=1, crash_op=4)
        de = distributed_factorize(
            h, 0.7, n_ranks=4,
            fault_plan=plan,
            backend=backend,
            elastic=True,
            max_respawns=0,
        )
        we, _ = distributed_solve(de, u)

        assert de.n_ranks == 2  # halved once
        assert float(np.max(np.abs(we - w0))) < 1e-10
        if backend == "socket":
            # the lost world's survivors are gone; the handle's two remain.
            assert len(live_ranks() - before) == 2
            de.close()
            assert live_ranks() <= before

        # the repartition is recorded in SolverHealth and telemetry.
        events = [e for e in de.health.events if e.stage == "repartition"]
        assert len(events) == 1
        detail = events[0].detail
        assert detail["from_ranks"] == 4 and detail["to_ranks"] == 2
        assert detail["lost_rank"] == 1
        assert detail["restored_nodes"] > 0
        assert de.factor_stats.repartitions == 1
        assert de.factor_stats.confirmed_losses == 1
        assert de.health.faults.get("repartitions") == 1

    def test_distributed_without_elastic_stays_fatal(self, problem):
        """Same permanent loss, elastic off: the launch fails loudly
        instead of silently shrinking the rank count."""
        h, _ = problem
        plan = FaultPlan(seed=4, crash_rank=1, crash_op=4)
        with pytest.raises(RuntimeError, match="RankCrashError"):
            distributed_factorize(
                h, 0.7, n_ranks=4,
                fault_plan=plan,
                backend="thread",
                max_respawns=0,
            )


# ----------------------------------------------------------------------
# membership / failure-detector unit tests (no sleeping: explicit clocks)
# ----------------------------------------------------------------------

class TestFailureDetector:
    def test_suspect_then_confirm(self):
        cfg = HeartbeatConfig(interval=1.0, suspect_after=3.0, confirm_after=9.0)
        det = FailureDetector(cfg, [0, 1])
        det.beat(0, now=0.0)
        det.beat(1, now=0.0)
        assert det.poll(now=2.0) == []
        transitions = det.poll(now=4.0)
        assert transitions == [(0, "suspected"), (1, "suspected")]
        det.beat(1, now=5.0)  # rank 1 resumes: suspicion retracted
        assert det.state(1) == "alive"
        transitions = det.poll(now=10.0)
        assert (0, "dead") in transitions
        assert det.state(0) == "dead"

    def test_dead_rank_ignores_late_beats(self):
        cfg = HeartbeatConfig(interval=1.0, suspect_after=2.0, confirm_after=4.0)
        det = FailureDetector(cfg, [0])
        det.beat(0, now=0.0)
        det.poll(now=10.0)
        assert det.state(0) == "dead"
        det.beat(0, now=10.5)  # zombie beat: no resurrection by traffic
        assert det.state(0) == "dead"
        det.resurrect(0)
        assert det.state(0) == "alive"

    def test_suspicion_scales_with_silence(self):
        cfg = HeartbeatConfig(interval=1.0, suspect_after=3.0, confirm_after=9.0)
        det = FailureDetector(cfg, [0])
        det.beat(0, now=0.0)
        assert det.suspicion(0, now=0.5) < det.suspicion(0, now=5.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            HeartbeatConfig(interval=0.0)
        with pytest.raises(ConfigurationError):
            HeartbeatConfig(interval=1.0, suspect_after=0.5)
        with pytest.raises(ConfigurationError):
            HeartbeatConfig(interval=1.0, suspect_after=2.0, confirm_after=1.0)


class TestMembership:
    def test_epochs_and_generations(self):
        m = Membership([0, 1, 2, 3])
        assert m.epoch == 0
        g = m.respawn(2)
        assert g == 1 and m.generation(2) == 1
        assert m.is_stale(2, 0) and not m.is_stale(2, 1)
        epoch = m.confirm_dead(1)
        assert epoch == 1 and m.epoch == 1
        assert 1 not in m.alive
        assert m.is_stale(1, 0)  # every generation of a dead rank is stale

    def test_summary_shape(self):
        m = Membership([0, 1])
        m.confirm_dead(0)
        s = m.summary()
        assert s["epoch"] == 1
        assert s["alive"] == [1]
