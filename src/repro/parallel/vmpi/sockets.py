"""Socket-transport SPMD execution: ranks over TCP with heartbeats.

The multi-core fabric backend (the thread backend is the other one):
each virtual rank is a worker process spawned on this machine, and
every frame — posts, checkpoints, heartbeats, status reports — travels
over one TCP connection per rank to a supervisor-side router.  Payloads
are pickle-5 envelopes (:mod:`repro.parallel.vmpi.shm`): large buffers
ride shared memory, small ones travel inline in the frame.

A :class:`SocketRanks` is the supervisor of one *world*: its rank
processes are spawned once and then run SPMD programs one after
another, each holding a per-rank resident store (a dict) that outlives
the program.  Every program gets a fresh message log, fresh cursors and
its own fault plan; a rank process exits when its supervisor link
closes (:meth:`SocketRanks.close`).

Topology::

    rank process --TCP frames--> supervisor
        ("hello", rank, generation)           registration / replay trigger
        ("post", prog, key..., envelope)      data plane (logged + routed)
        ("ckpt", prog, rank, tag, payload)    control plane (latest kept)
        ("hb", rank)                          heartbeat
        ("status", prog, rank, ...)           end of one program
    supervisor --TCP frames--> rank process
        ("seed", envelope)                    residents of a fresh process
        ("run", prog, envelope, ...)          start one program
        ("msg", prog, key, envelope)          routed delivery
        ("abort", prog, err)                  peer failed; unwind

The supervisor keeps the same pessimistic message log as the thread
fabric (append every post, forward to the destination's connection,
sender-side dedup on replay), so the seeded
:class:`~repro.parallel.vmpi.faults.FaultPlan` classifies identical
``(key, seq, attempt)`` tuples and chaos schedules are *identical*
across thread/socket — the backend-parity suite asserts bitwise-equal
results, faults included.  A program's log segments are freed when the
program ends.

On top of that sits an **elastic membership layer**
(:mod:`repro.parallel.vmpi.membership`):

* every rank heartbeats; a supervisor-side failure detector promotes
  silence to *suspected* and then *confirmed dead* — catching hangs
  and partitions that never report a crash (exit codes alone cannot);
* a confirmed death first tries the usual log-replay respawn (the
  replacement process is re-seeded with the program's ``residents``);
  when the respawn budget is exhausted and the program is *elastic*,
  the rank is declared permanently lost: the membership epoch is
  bumped, frames from the dead generation are rejected as stale (zombie
  protection), survivors are unwound, and
  :class:`~repro.exceptions.RankLostError` carries the survivors'
  latest control-plane checkpoints out to the caller — which
  repartitions the lost subtree onto the survivors and resumes from
  checkpointed state instead of replaying the world (see
  ``distributed_factorize(elastic=True)``).

TCP ordering is load-bearing: one connection per rank means a rank's
status frame is ordered after every post it made, so replay arming
needs no extra barrier, a survivor's checkpoint is always routed
before its terminal status, and a program's ``run`` frame reaches a
rank before any message of that program.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import socket
import struct
import sys
import threading
import time
from collections import defaultdict, deque

from repro.exceptions import ConfigurationError, DeadlockError, RankLostError
from repro.parallel.vmpi import shm
from repro.parallel.vmpi.communicator import Communicator
from repro.parallel.vmpi.fabric import CommStats, payload_bytes
from repro.parallel.vmpi.faults import (
    FaultAction,
    FaultPlan,
    MessageCorrupted,
    MessageDropped,
    RetryPolicy,
)
from repro.parallel.vmpi.membership import (
    DEAD,
    SUSPECTED,
    FailureDetector,
    HeartbeatConfig,
    Membership,
)

__all__ = ["SocketRankFabric", "SocketRanks"]

_HDR = struct.Struct("!Q")

#: how long the supervisor lingers after an elastic hang-loss for the
#: zombie's stale frames (exercises epoch rejection deterministically).
_ZOMBIE_LINGER = 3.0

#: grace period between noticing a silently-dead process and declaring
#: it crashed (its final status frame may still be in flight).
_DEATH_GRACE = 1.0

#: how long ranks get to notice an abort before being terminated.
_ABORT_GRACE = 15.0

#: how long ranks get to exit on their own after their link closes.
_CLOSE_GRACE = 2.0


def _send_frame(sock: socket.socket, lock: threading.Lock, frame) -> None:
    data = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    with lock:
        sock.sendall(_HDR.pack(len(data)) + data)


class _FrameReader:
    """Buffered length-prefixed frame reads off one socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()

    def read(self, timeout: float | None):
        """Next frame; ``None`` on timeout; ConnectionError on EOF."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if len(self._buf) >= _HDR.size:
                (n,) = _HDR.unpack(bytes(self._buf[: _HDR.size]))
                if len(self._buf) >= _HDR.size + n:
                    data = bytes(self._buf[_HDR.size : _HDR.size + n])
                    del self._buf[: _HDR.size + n]
                    return pickle.loads(data)
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
            try:
                self._sock.settimeout(remaining)
                chunk = self._sock.recv(1 << 20)
            except socket.timeout:
                return None
            except OSError as exc:
                raise ConnectionError(f"socket read failed: {exc!r}") from exc
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self._buf.extend(chunk)


class SocketRankFabric:
    """Rank-process side of the fabric for one program.

    Implements the interface :class:`Communicator` needs (``post`` /
    ``wait`` / ``retry_policy`` / ``fault_plan`` / ``stats``): posts are
    frames written to the supervisor, receives drain routed ``msg``
    frames off the same socket, and cursors / attempt counters / fault
    classification are rank-local — ``FaultPlan.decide`` is a pure
    hash, so the chaos schedule matches the thread fabric exactly.  A
    respawned rank starts with zeroed cursors and the supervisor
    redelivers its full receive history.  Frames of an earlier program
    are skipped unread: that program's log owns their segments.
    """

    def __init__(
        self,
        world_rank: int,
        prog: int,
        sock: socket.socket,
        write_lock: threading.Lock,
        reader: _FrameReader,
        timeout: float,
        fault_plan: FaultPlan | None,
    ) -> None:
        self.fault_plan = fault_plan
        self.timeout = timeout
        self.stats = CommStats()
        self._rank = world_rank
        self._prog = prog
        self._sock = sock
        self._wlock = write_lock
        self._reader = reader
        self._pending: dict[tuple, deque] = defaultdict(deque)
        self._consumed: dict[tuple, int] = defaultdict(int)
        self._attempts: dict[tuple, int] = defaultdict(int)
        self._aborted = None

    @property
    def retry_policy(self) -> RetryPolicy:
        if self.fault_plan is not None:
            return self.fault_plan.retry
        return RetryPolicy()

    def post(
        self,
        comm_key: str,
        src: int,
        dst: int,
        tag: int,
        payload,
        *,
        src_world: int,
        dst_world: int,
    ) -> None:
        env = shm.pack(payload)
        _send_frame(
            self._sock,
            self._wlock,
            (
                "post",
                self._prog,
                comm_key,
                src,
                dst,
                tag,
                src_world,
                dst_world,
                env,
                payload_bytes(payload),
            ),
        )

    def post_checkpoint(self, world_rank: int, tag: int, payload) -> None:
        """Control plane: latest-wins checkpoint, held by the supervisor.

        Always inline (never shared memory): a checkpoint must outlive
        the rank that posted it.  Uncounted and unlogged, like the
        thread fabric's — cannot perturb chaos schedules or parity.
        """
        _send_frame(
            self._sock, self._wlock, ("ckpt", self._prog, world_rank, tag, payload)
        )

    def wait(self, comm_key: str, src: int, dst: int, tag: int):
        """One delivery attempt — the mirror of ``Fabric.wait``."""
        key = (comm_key, src, dst, tag)
        pending = self._pending[key]
        deadline = time.monotonic() + self.timeout
        while not pending:
            if self._aborted is not None:
                raise DeadlockError(f"peer rank failed: {self._aborted}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlockError(
                    f"recv timed out after {self.timeout}s waiting for "
                    f"(comm={comm_key!r}, src={src}, dst={dst}, tag={tag})"
                )
            try:
                frame = self._reader.read(min(remaining, 0.5))
            except ConnectionError as exc:
                raise DeadlockError(f"lost the supervisor link: {exc}") from exc
            if frame is None or frame[1] != self._prog:
                continue
            if frame[0] == "abort":
                self._aborted = frame[2]
                continue
            _, _prog, mkey, env = frame
            self._pending[mkey].append(env)
        seq = self._consumed[key]
        delay = 0.0
        if self.fault_plan is not None:
            action = self.fault_plan.decide(key, seq, self._attempts[key])
            if action == FaultAction.DROP:
                self._attempts[key] += 1
                self.stats.record_fault("drops", rank=self._rank)
                raise MessageDropped(f"dropped {key} seq {seq}")
            if action == FaultAction.CORRUPT:
                self._attempts[key] += 1
                self.stats.record_fault("corruptions", rank=self._rank)
                raise MessageCorrupted(f"corrupted {key} seq {seq}")
            if action == FaultAction.DELAY:
                self.stats.record_fault("delays", rank=self._rank)
                delay = self.fault_plan.delay_seconds
        env = pending.popleft()
        self._consumed[key] = seq + 1
        self._attempts[key] = 0
        if delay > 0.0:
            time.sleep(delay)
        # no unlink: the supervisor's log owns any shm segments.
        return shm.unpack(env)


def _socket_rank_main(
    world_rank: int,
    generation: int,
    n_ranks: int,
    addr: tuple,
    hb_interval: float,
) -> None:
    """Rank-process entry point (module-level: spawn must pickle it).

    Registers, then runs each program the supervisor sends until the
    link closes.  The resident store lives as long as the process.
    """
    from repro.exceptions import RankCrashError, RankHangError
    from repro.obs.metrics import registry
    from repro.perf import default_cache
    from repro.resilience.deadline import Deadline, deadline_scope
    from repro.util.flops import FlopCounter

    wlock = threading.Lock()
    try:
        sock = socket.create_connection(addr, timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _send_frame(sock, wlock, ("hello", world_rank, generation))
    except OSError:
        return  # the world closed before this rank came up

    hb_stop = threading.Event()

    def _beat() -> None:
        while not hb_stop.wait(hb_interval):
            try:
                _send_frame(sock, wlock, ("hb", world_rank))
            except OSError:
                return

    threading.Thread(target=_beat, name=f"vmpi-hb-{world_rank}", daemon=True).start()
    reader = _FrameReader(sock)
    resident: dict = {}

    def run_program(frame) -> bool:
        """Run one program and report it; False ends the process.

        A crashed rank exits (its replacement is a new process); a hung
        one goes silent, wakes as a zombie and exits.  Telemetry covers
        this program only: the registry and the block-cache counters
        restart here, so the supervisor never re-counts an earlier one.
        """
        _, prog, prog_env, timeout, fault_plan, disarm_crash, deadline_s = frame
        if fault_plan is not None and disarm_crash:
            fault_plan.disarm_crash()
        registry().reset()
        default_cache().reset_stats()
        fabric = SocketRankFabric(
            world_rank, prog, sock, wlock, reader, timeout, fault_plan
        )
        counter = FlopCounter()
        status, err, result_env, hung = "ok", None, None, False
        try:
            fn, args, kwargs = shm.unpack(prog_env)
            comm = Communicator(
                fabric, "world", world_rank, list(range(n_ranks)), resident=resident
            )
            dl = Deadline(deadline_s) if deadline_s is not None else None
            counter.attach()
            try:
                with deadline_scope(dl):
                    result = fn(comm, *args, **kwargs)
            finally:
                counter.detach()
            result_env = shm.pack(result)
        except RankCrashError as exc:
            status, err = "crashed", repr(exc)
        except RankHangError as exc:
            # A hang is reported to NOBODY: stop beating, go silent, and
            # (if the plan says so) wake up later as a zombie whose frames
            # the supervisor must reject as stale.
            hung = True
            status, err = "failed", repr(exc)
        except BaseException as exc:  # noqa: BLE001 - reported to supervisor
            status, err = "failed", repr(exc)
        telemetry = {
            "stats": fabric.stats,
            "metrics": registry().snapshot(),
            "flops": {
                "flops": counter.flops,
                "mops": counter.mops,
                "kernel_evals": counter.kernel_evals,
                "by_label": dict(counter.by_label),
            },
        }
        if hung:
            hb_stop.set()
            wedge = fault_plan.hang_seconds if fault_plan is not None else 3600.0
            time.sleep(wedge)
            try:
                # the zombie probe: by now the supervisor has (or should
                # have) retired this generation — these must be rejected.
                _send_frame(sock, wlock, ("hb", world_rank))
                _send_frame(
                    sock,
                    wlock,
                    ("status", prog, world_rank, status, err, None, telemetry),
                )
            except OSError:
                pass
            return False
        # same-connection FIFO orders this after every post we made, so the
        # supervisor needs no extra barrier before arming replay.
        try:
            _send_frame(
                sock,
                wlock,
                ("status", prog, world_rank, status, err, result_env, telemetry),
            )
        except OSError:
            if result_env is not None:
                shm.free(result_env)
            return False
        return status != "crashed"

    while True:
        try:
            frame = reader.read(None)
        except ConnectionError:
            # the world closed (or its supervisor died).  Skip interpreter
            # teardown: nothing here needs it, and close() waits for us.
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)
        if frame[0] == "seed":
            resident.update(shm.unpack(frame[1]))
        elif frame[0] == "run" and not run_program(frame):
            return
        # anything else is a leftover of an earlier program: skip it.


class _Conn:
    """One registered rank connection: writer queue + reader thread."""

    def __init__(
        self, sock: socket.socket, reader: _FrameReader, rank: int, gen: int
    ) -> None:
        self.sock = sock
        self.reader = reader
        self.rank = rank
        self.gen = gen
        self.outbox: "queue.Queue" = queue.Queue()
        self._writer = threading.Thread(
            target=self._write_loop, name=f"vmpi-sock-tx-{rank}", daemon=True
        )
        self._wlock = threading.Lock()
        self._writer.start()

    def _write_loop(self) -> None:
        while True:
            frame = self.outbox.get()
            if frame is None:
                try:
                    self.sock.close()
                except OSError:  # pragma: no cover - already closed
                    pass
                return
            try:
                _send_frame(self.sock, self._wlock, frame)
            except OSError:
                return

    def send(self, frame) -> None:
        self.outbox.put(frame)

    def close(self) -> None:
        self.outbox.put(None)

    def hang_up(self) -> None:
        """Close the link now: the rank sees EOF whatever the writer is doing."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.close()


class _Program:
    """Router state of one program: its log, checkpoints, stats and seeds."""

    def __init__(self, pid, env, timeout, fault_plan, deadline_s, hb):
        self.id = pid
        self.env = env
        self.timeout = timeout
        self.fault_plan = fault_plan
        self.deadline_s = deadline_s
        self.logs: dict[tuple, list] = defaultdict(list)
        self.key_world: dict[tuple, tuple[int, int]] = {}
        self.suppress: dict[tuple, int] = defaultdict(int)
        self.checkpoints: dict[int, object] = {}
        self.stats = CommStats()
        #: status reports, ``(rank, status, err, result_env, telemetry)``.
        self.statuses: "queue.Queue" = queue.Queue()
        #: residents envelope per rank still to be seeded.
        self.seeds: dict[int, dict] = {}
        #: every seed envelope packed for this program (freed at its end).
        self.seed_envs: list[dict] = []
        #: ranks respawned during this program (their crash is disarmed).
        self.respawned: set[int] = set()
        self.detector = FailureDetector(hb, [])
        self.detector_lock = threading.Lock()

    def beat(self, rank: int) -> None:
        with self.detector_lock:
            self.detector.beat(rank)

    def free(self) -> None:
        """Release the program's segments: unread results, log, envelopes."""
        while True:
            try:
                report = self.statuses.get_nowait()
            except queue.Empty:
                break
            if report[3] is not None:
                shm.free(report[3])
        for envs in self.logs.values():
            for env in envs:
                shm.free(env)
        self.logs.clear()
        for env in (self.env, *self.seed_envs):
            shm.free(env)


class SocketRanks:
    """Supervisor of one socket world: spawned ranks that run programs.

    The socket launcher behind :class:`repro.parallel.vmpi.World`.  The
    first program spawns one process per rank; they serve every later
    program until :meth:`close`.  ``run`` keeps the ``run_spmd`` contract — returns ``(results,
    stats)``, raises ``RuntimeError("virtual rank r failed: ...")`` on
    rank failure, recovers injected crashes by respawn-with-replay —
    and with ``elastic=True`` a rank that is permanently lost (crash
    with the respawn budget exhausted, or a heartbeat-confirmed hang)
    raises :class:`~repro.exceptions.RankLostError` carrying the
    survivors' latest checkpoints, instead of a bare RuntimeError.
    ``heartbeat`` is the failure detector's schedule (default
    :class:`HeartbeatConfig`).
    """

    def __init__(self, n_ranks: int, heartbeat: HeartbeatConfig | None = None) -> None:
        self.n_ranks = n_ranks
        self.closed = False
        self._ctx = mp.get_context("spawn")
        self._hb = heartbeat if heartbeat is not None else HeartbeatConfig()
        # every rank is spawned on this machine: the supervisor binds loopback.
        self._lsock = socket.create_server(("127.0.0.1", 0), backlog=2 * n_ranks)
        # set here, not in the accept thread: a world closed before that
        # thread first runs would hand it a closed socket.
        self._lsock.settimeout(0.2)
        self._addr = self._lsock.getsockname()
        self._lock = threading.Lock()  # router state: conns, the program
        self._membership = Membership(list(range(n_ranks)))
        self._conns: dict[int, _Conn] = {}
        self._procs: list = [None] * n_ranks
        #: replaced rank processes, reaped at close.
        self._retired: list = []
        #: ranks whose process has not started a program yet.
        self._fresh = [True] * n_ranks
        self._prog: _Program | None = None
        self._n_programs = 0
        self._accept_stop = threading.Event()
        threading.Thread(
            target=self._accept_loop, name="vmpi-sock-accept", daemon=True
        ).start()

    @property
    def started(self) -> bool:
        """Whether a program has spawned the rank processes."""
        return self._n_programs > 0

    # -- processes and connections --------------------------------------
    def _spawn(self, rank: int, generation: int) -> None:
        name = (
            f"vmpi-sock-rank-{rank}"
            if generation == 0
            else f"vmpi-sock-rank-{rank}-adopted-by-{rank ^ 1}-gen{generation}"
        )
        p = self._ctx.Process(
            target=_socket_rank_main,
            args=(
                rank,
                generation,
                self.n_ranks,
                self._addr,
                self._hb.interval,
            ),
            name=name,
            daemon=True,
        )
        p.start()
        if self._procs[rank] is not None:
            self._retired.append(self._procs[rank])
        self._procs[rank] = p
        self._fresh[rank] = True

    def _start(self, prog: _Program, rank: int, conn: _Conn) -> None:
        """Hand ``rank`` the program (caller holds the router lock).

        A fresh process gets its residents first; then the ``run``
        frame; then everything logged for the rank so far, in log order
        and before any new forward — a respawn's full receive history,
        or the posts peers made before this rank connected.
        """
        if self._fresh[rank] and rank in prog.seeds:
            conn.send(("seed", prog.seeds.pop(rank)))
        self._fresh[rank] = False
        conn.send(
            (
                "run",
                prog.id,
                prog.env,
                prog.timeout,
                prog.fault_plan,
                rank in prog.respawned,
                prog.deadline_s,
            )
        )
        for key, (_sw, dw) in prog.key_world.items():
            if dw == rank:
                for msg in prog.logs[key]:
                    conn.send(("msg", prog.id, key, msg))

    def _route(self, prog: _Program, frame) -> None:
        """Log and forward one post (caller holds the router lock)."""
        _, _pid, comm_key, src, dst, tag, sw, dw, env, nbytes = frame
        key = (comm_key, src, dst, tag)
        prog.key_world.setdefault(key, (sw, dw))
        if prog.suppress[key] > 0:
            prog.suppress[key] -= 1
            prog.stats.record_fault("duplicates_suppressed", rank=sw)
            shm.free(env)
            return
        prog.logs[key].append(env)
        prog.stats.record(sw, dw, nbytes)
        conn = self._conns.get(dw)
        if conn is not None:
            conn.send(("msg", prog.id, key, env))
        # conn is None until the rank (or its respawn) connects: the
        # message is logged, and hello-time replay delivers it in order.

    def _read_loop(self, conn: _Conn) -> None:
        while True:
            try:
                frame = conn.reader.read(None)
            except ConnectionError:
                with self._lock:
                    if self._conns.get(conn.rank) is conn:
                        del self._conns[conn.rank]
                # beats stop with the connection; the heartbeat detector
                # (or the exitcode poll) owns the verdict.
                return
            kind = frame[0]
            live = True
            with self._lock:
                prog = self._prog
                if self._membership.is_stale(conn.rank, conn.gen):
                    if prog is not None:
                        prog.stats.record_fault("stale_rejected", rank=conn.rank)
                    live = False
                elif kind != "hb" and (prog is None or frame[1] != prog.id):
                    live = False  # a frame of an earlier program
                elif kind == "post":
                    self._route(prog, frame)
                elif kind == "ckpt":
                    prog.checkpoints[frame[2]] = frame[4]
                elif kind == "status":
                    prog.statuses.put(tuple(frame[2:]))
            if not live:
                # dropped: free the segments the frame handed over.
                if kind == "post":
                    shm.free(frame[8])
                elif kind == "status" and frame[5] is not None:
                    shm.free(frame[5])
                continue
            if prog is not None:
                # any frame from a live generation proves liveness.
                prog.beat(conn.rank)
                if kind == "hb":
                    prog.stats.record_fault("heartbeats")

    def _accept_loop(self) -> None:
        while not self._accept_stop.is_set():
            try:
                s, _peer = self._lsock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = _FrameReader(s)
            try:
                hello = reader.read(10.0)
            except ConnectionError:
                s.close()
                continue
            if not hello or hello[0] != "hello":
                s.close()
                continue
            _, rank, gen = hello
            conn = _Conn(s, reader, rank, gen)
            with self._lock:
                m = self._membership
                if self.closed or m.is_stale(rank, gen) or gen != m.generation(rank):
                    # a zombie reconnect from a retired generation.
                    if self._prog is not None:
                        self._prog.stats.record_fault("stale_rejected", rank=rank)
                    conn.close()
                    continue
                self._conns[rank] = conn
                prog = self._prog
                if prog is not None:
                    self._start(prog, rank, conn)
            if prog is not None:
                with prog.detector_lock:
                    prog.detector.resurrect(rank)
            threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name=f"vmpi-sock-rx-{rank}",
                daemon=True,
            ).start()

    # -- one program ------------------------------------------------------
    def run(
        self,
        fn,
        args: tuple,
        kwargs: dict,
        *,
        timeout: float,
        fault_plan: FaultPlan | None,
        max_respawns: int,
        elastic: bool,
        residents,
    ):
        """Run ``fn(comm, *args, **kwargs)`` once on every rank."""
        from repro.obs.metrics import registry
        from repro.resilience.deadline import current_deadline
        from repro.util.flops import current_counter

        n_ranks = self.n_ranks
        dl = current_deadline()
        deadline_s = None
        if dl is not None and dl.seconds is not None:
            deadline_s = dl.remaining()
            timeout = min(timeout, deadline_s + 5.0)
        try:
            env = shm.pack((fn, args, kwargs))
        except Exception as exc:
            raise ConfigurationError(
                "the socket backend must pickle the SPMD function and its "
                "arguments for spawned ranks; use a module-level function "
                f"(closures/lambdas cannot cross processes): {exc!r}"
            ) from exc
        first = self._n_programs == 0
        self._n_programs += 1
        prog = _Program(self._n_programs, env, timeout, fault_plan, deadline_s, self._hb)

        def seed(rank: int) -> None:
            if residents is None:
                return
            packed = shm.pack(residents(rank))
            prog.seed_envs.append(packed)
            prog.seeds[rank] = packed

        procs = self._procs
        finished = [False] * n_ranks
        results: list = [None] * n_ranks
        errors: list[tuple[int, str]] = []
        respawn_counts = [0] * n_ranks
        recoveries: list[dict] = []
        telemetries: list[tuple[int, dict]] = []
        suspect_since: dict[int, float] = {}
        abort_deadline: float | None = None
        lost_rank: int | None = None
        lost_epoch = 0
        stats = prog.stats
        detector = prog.detector

        def broadcast_abort(err: str) -> None:
            nonlocal abort_deadline
            with self._lock:
                live = [self._conns.get(r) for r in range(n_ranks) if not finished[r]]
            for conn in live:
                if conn is not None:
                    conn.send(("abort", prog.id, err))
            if abort_deadline is None:
                abort_deadline = time.monotonic() + _ABORT_GRACE

        def handle_loss(rank: int, err: str) -> bool:
            """Crash/hang recovery; True when the rank is finished.

            Respawn-with-replay while the budget lasts; past it, either a
            fatal abort (classic) or a permanent loss carrying checkpoints
            out via RankLostError (elastic).
            """
            nonlocal lost_rank, lost_epoch
            stats.record_fault("crashes", rank=rank)
            if respawn_counts[rank] < max_respawns:
                respawn_counts[rank] += 1
                sibling = rank ^ 1 if n_ranks > 1 else rank
                recoveries.append(
                    {
                        "stage": "rank_respawn",
                        "rank": rank,
                        "adopted_by": sibling,
                        "generation": respawn_counts[rank],
                        "error": err,
                    }
                )
                seed(rank)
                with self._lock:
                    old = self._conns.pop(rank, None)
                    for key, (sw, _dw) in prog.key_world.items():
                        if sw == rank:
                            prog.suppress[key] = len(prog.logs[key])
                    gen = self._membership.respawn(rank)
                    prog.respawned.add(rank)
                stats.record_fault("respawns", rank=rank)
                if old is not None:
                    old.close()
                p = procs[rank]
                if p is not None and p.is_alive():
                    p.terminate()  # a hung worker must not shadow its replacement
                self._spawn(rank, gen)
                return False
            with self._lock:
                epoch = self._membership.confirm_dead(rank)
                self._conns.pop(rank, None)
            stats.record_fault("confirmed_losses", rank=rank)
            if elastic:
                lost_rank, lost_epoch = rank, epoch
                recoveries.append(
                    {
                        "stage": "rank_lost",
                        "rank": rank,
                        "epoch": epoch,
                        "error": err,
                    }
                )
                broadcast_abort(f"rank {rank} permanently lost: {err}")
                return True
            errors.append((rank, err))
            broadcast_abort(err)
            return True

        try:
            if first:
                # the first program spawns the ranks, once its pickle is good.
                for r in range(n_ranks):
                    self._spawn(r, 0)
            for r in range(n_ranks):
                if self._fresh[r]:
                    seed(r)
            with self._lock:
                self._prog = prog
                for rank, conn in self._conns.items():
                    self._start(prog, rank, conn)
                connected = list(self._conns)
            with prog.detector_lock:
                for rank in connected:
                    detector.resurrect(rank)

            n_finished = 0
            while n_finished < n_ranks:
                with prog.detector_lock:
                    transitions = detector.poll()
                for rank, state in transitions:
                    if finished[rank]:
                        continue
                    if state == SUSPECTED:
                        stats.record_fault("suspicions", rank=rank)
                    elif state == DEAD:
                        err = (
                            f"heartbeat failure: rank {rank} silent for more "
                            f"than {self._hb.confirm_after}s"
                        )
                        if handle_loss(rank, err):
                            finished[rank] = True
                            n_finished += 1
                try:
                    report = prog.statuses.get(timeout=0.2)
                except queue.Empty:
                    now = time.monotonic()
                    for r in range(n_ranks):
                        p = procs[r]
                        if finished[r] or p is None or p.exitcode is None:
                            continue
                        # process gone; its status frame may still be in
                        # our reader's hands — grace window first.
                        first = suspect_since.setdefault(r, now)
                        if now - first < _DEATH_GRACE:
                            continue
                        suspect_since.pop(r, None)
                        err = f"rank process died (exitcode {p.exitcode})"
                        if handle_loss(r, err):
                            finished[r] = True
                            n_finished += 1
                    if abort_deadline is not None and now > abort_deadline:
                        for r in range(n_ranks):
                            if not finished[r]:
                                if procs[r] is not None and procs[r].is_alive():
                                    procs[r].terminate()
                                finished[r] = True
                                n_finished += 1
                    continue
                rank, status, err, result_env, telemetry = report
                if finished[rank]:  # pragma: no cover - late duplicate status
                    if result_env is not None:
                        shm.free(result_env)
                    continue
                suspect_since.pop(rank, None)
                telemetries.append((rank, telemetry))
                if status == "crashed":
                    if not handle_loss(rank, err):
                        continue
                elif status == "failed":
                    if lost_rank is None:
                        errors.append((rank, err))
                        broadcast_abort(err)
                else:
                    results[rank] = shm.unpack(result_env, unlink=True)
                finished[rank] = True
                n_finished += 1
                with prog.detector_lock:
                    detector.mark_dead(rank)  # done ranks leave the detector

            if lost_rank is not None:
                p = procs[lost_rank]
                plan = fault_plan
                if (
                    p is not None
                    and p.is_alive()
                    and plan is not None
                    and plan.hang_rank == lost_rank
                    and plan.hang_seconds <= _ZOMBIE_LINGER
                ):
                    # deterministic zombie-rejection coverage: the wedged
                    # worker wakes shortly; wait (bounded) for its stale
                    # frames to hit the router before tearing down.
                    linger_until = time.monotonic() + _ZOMBIE_LINGER
                    while (
                        stats.stale_rejected == 0
                        and p.is_alive()
                        and time.monotonic() < linger_until
                    ):
                        time.sleep(0.05)
        finally:
            with self._lock:
                self._prog = None
                prog.free()

        for _rank, telemetry in telemetries:
            stats.merge(telemetry["stats"])
        stats.rank_recoveries.extend(recoveries)
        stats.publish()

        reg = registry()
        counter = current_counter()
        for rank, telemetry in telemetries:
            reg.merge_snapshot(telemetry["metrics"], rank=str(rank))
            if counter is not None:
                f = telemetry["flops"]
                labeled = 0
                for label, n in f["by_label"].items():
                    counter.add_flops(n, label)
                    labeled += n
                counter.add_flops(f["flops"] - labeled)
                counter.add_mops(f["mops"])
                counter.add_kernel_evals(f["kernel_evals"])

        if lost_rank is not None:
            survivors = {
                r: p for r, p in prog.checkpoints.items() if r != lost_rank
            }
            raise RankLostError(
                f"virtual rank {lost_rank} permanently lost "
                f"(epoch {lost_epoch}); {len(survivors)} survivor "
                "checkpoint(s) available for repartitioning",
                rank=lost_rank,
                epoch=lost_epoch,
                checkpoints=survivors,
                stats=stats,
            )
        if errors:
            rank, err = min(errors, key=lambda e: e[0])
            raise RuntimeError(f"virtual rank {rank} failed: {err}")
        return results, stats

    # -- shutdown ----------------------------------------------------------
    def close(self) -> None:
        """End every rank process (idempotent).

        Closing a rank's link is its signal to exit; a rank that has not
        gone within a short grace (wedged, or mid-computation after a
        failed program) is terminated.  Returns once all are reaped.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            conns = list(self._conns.values())
            self._conns.clear()
        self._accept_stop.set()
        try:
            self._lsock.close()
        except OSError:  # pragma: no cover - teardown race
            pass
        for conn in conns:
            conn.hang_up()
        procs = [p for p in (*self._procs, *self._retired) if p is not None]
        until = time.monotonic() + _CLOSE_GRACE
        for p in procs:
            p.join(max(0.0, until - time.monotonic()))
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(1.0)
            if p.is_alive():  # pragma: no cover - ignored SIGTERM
                p.kill()
                p.join()
