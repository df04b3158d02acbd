"""Socket-transport SPMD execution: ranks over TCP with heartbeats.

The multi-core fabric backend (the thread backend is the other one):
each virtual rank is a spawned worker process, and every frame —
posts, checkpoints, heartbeats, status reports — travels over one TCP
connection per rank to a supervisor-side router.  Payloads are
pickle-5 envelopes (:mod:`repro.parallel.vmpi.shm`): buffers ride
shared memory when the rank shares the supervisor's host and go inline
over the wire when its assigned host is remote, so a single code path
covers both the multi-core-one-box and the multi-box deployment
shapes.

Topology::

    rank process --TCP frames--> supervisor
        ("hello", rank, generation)     registration / replay trigger
        ("post", key..., envelope)      data plane (logged + routed)
        ("ckpt", rank, tag, payload)    control plane (latest kept)
        ("hb", rank)                    heartbeat
        ("status", rank, ...)           terminal report
    supervisor --TCP frames--> rank process
        ("msg", key, envelope)          routed delivery
        ("abort", err)                  peer failed; unwind

The supervisor keeps the same pessimistic message log as the thread
fabric (append every post, forward to the destination's connection,
sender-side dedup on replay), so the seeded
:class:`~repro.parallel.vmpi.faults.FaultPlan` classifies identical
``(key, seq, attempt)`` tuples and chaos schedules are *identical*
across thread/socket — the backend-parity suite asserts bitwise-equal
results, faults included.

On top of that sits an **elastic membership layer**
(:mod:`repro.parallel.vmpi.membership`):

* every rank heartbeats; a supervisor-side failure detector promotes
  silence to *suspected* and then *confirmed dead* — catching hangs
  and partitions that never report a crash (exit codes alone cannot);
* a confirmed death first tries the usual log-replay respawn; when the
  respawn budget is exhausted and the launch is *elastic*, the rank is
  declared permanently lost: the membership epoch is bumped, frames
  from the dead generation are rejected as stale (zombie protection),
  survivors are unwound, and :class:`~repro.exceptions.RankLostError`
  carries the survivors' latest control-plane checkpoints out to the
  caller — which repartitions the lost subtree onto the survivors and
  resumes from checkpointed state instead of replaying the world
  (see ``distributed_factorize(elastic=True)``).

TCP ordering is load-bearing: one connection per rank means a rank's
status frame is ordered after every post it made, so replay arming
needs no extra barrier, and a survivor's checkpoint is always routed
before its terminal status.

Remote hosts: ``hosts=[...]`` (or ``REPRO_VMPI_HOSTS``) assigns ranks
round-robin.  Workers are always *spawned* locally (``"spawn"`` start
method) — this repo has no launcher agent — but a rank assigned a
non-local host honestly uses the remote transport shape: all-inline
envelopes, nothing through shared memory.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue
import socket
import struct
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
    heartbeat_config_from_env,
    hosts_from_env,
    port_from_env,
)

__all__ = ["SocketRankFabric", "run_spmd_sockets"]

_HDR = struct.Struct("!Q")

#: threshold that forces every envelope buffer inline (remote hosts
#: cannot attach the supervisor's shared-memory segments).
_INLINE = 1 << 62

#: how long the supervisor lingers after an elastic hang-loss for the
#: zombie's stale frames (exercises epoch rejection deterministically).
_ZOMBIE_LINGER = 3.0

#: grace period between noticing a silently-dead process and declaring
#: it crashed (its final status frame may still be in flight).
_DEATH_GRACE = 1.0

#: how long ranks get to notice an abort before being terminated.
_ABORT_GRACE = 15.0

#: hostnames that resolve to the supervisor's own machine.
_LOCAL_HOSTS = frozenset({"localhost", "127.0.0.1", "::1"})


def _is_local_host(host: str) -> bool:
    return host in _LOCAL_HOSTS or host == socket.gethostname()


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
    """Rank-process side of the fabric over one TCP connection.

    Implements the interface :class:`Communicator` needs (``post`` /
    ``wait`` / ``retry_policy`` / ``fault_plan`` / ``stats``): posts are
    frames written to the supervisor, receives drain routed ``msg``
    frames off the same socket, and cursors / attempt counters / fault
    classification are rank-local — ``FaultPlan.decide`` is a pure
    hash, so the chaos schedule matches the thread fabric exactly.  A
    respawned rank starts with zeroed cursors and the supervisor
    redelivers its full receive history.
    """

    def __init__(
        self,
        world_rank: int,
        sock: socket.socket,
        write_lock: threading.Lock,
        timeout: float,
        fault_plan: FaultPlan | None,
        inline_only: bool = False,
    ) -> None:
        self.fault_plan = fault_plan
        self.timeout = timeout
        self.stats = CommStats()
        self._rank = world_rank
        self._sock = sock
        self._wlock = write_lock
        self._reader = _FrameReader(sock)
        self._threshold = _INLINE if inline_only else None
        self._pending: dict[tuple, deque] = defaultdict(deque)
        self._consumed: dict[tuple, int] = defaultdict(int)
        self._attempts: dict[tuple, int] = defaultdict(int)
        self._aborted = None

    @property
    def retry_policy(self) -> RetryPolicy:
        if self.fault_plan is not None:
            return self.fault_plan.retry
        return RetryPolicy()

    def _pack(self, payload):
        if self._threshold is None:
            return shm.pack(payload)
        return shm.pack(payload, threshold=self._threshold)

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
        env = self._pack(payload)
        _send_frame(
            self._sock,
            self._wlock,
            (
                "post",
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
        _send_frame(self._sock, self._wlock, ("ckpt", world_rank, tag, payload))

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
            if frame is None:
                continue
            if frame[0] == "abort":
                self._aborted = frame[1]
                continue
            _, mkey, env = frame
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


def _socket_worker_main(
    world_rank: int,
    generation: int,
    n_ranks: int,
    addr: tuple,
    prog_env: dict,
    timeout: float,
    fault_plan: FaultPlan | None,
    disarm_crash: bool,
    deadline_s: float | None,
    hb_interval: float,
    inline_only: bool,
) -> None:
    """Rank-process entry point (module-level: spawn must pickle it)."""
    from repro.exceptions import RankCrashError, RankHangError
    from repro.obs.metrics import registry
    from repro.resilience.deadline import Deadline, deadline_scope
    from repro.util.flops import FlopCounter

    if fault_plan is not None and disarm_crash:
        fault_plan.disarm_crash()
    sock = socket.create_connection(addr, timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    wlock = threading.Lock()
    _send_frame(sock, wlock, ("hello", world_rank, generation))

    hb_stop = threading.Event()

    def _beat() -> None:
        while not hb_stop.wait(hb_interval):
            try:
                _send_frame(sock, wlock, ("hb", world_rank))
            except OSError:
                return

    hb_thread = threading.Thread(
        target=_beat, name=f"vmpi-hb-{world_rank}", daemon=True
    )
    hb_thread.start()

    fabric = SocketRankFabric(
        world_rank, sock, wlock, timeout, fault_plan, inline_only=inline_only
    )
    counter = FlopCounter()
    status, err, result_env, hung = "ok", None, None, False
    try:
        fn, args, kwargs = shm.unpack(prog_env)
        comm = Communicator(fabric, "world", world_rank, list(range(n_ranks)))
        dl = Deadline(deadline_s) if deadline_s is not None else None
        counter.attach()
        try:
            with deadline_scope(dl):
                result = fn(comm, *args, **kwargs)
        finally:
            counter.detach()
        result_env = fabric._pack(result)
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
                ("status", world_rank, status, err, None, telemetry),
            )
        except OSError:
            pass
        return
    hb_stop.set()
    # same-connection FIFO orders this after every post we made, so the
    # supervisor needs no extra barrier before arming replay.
    try:
        _send_frame(
            sock,
            wlock,
            ("status", world_rank, status, err, result_env, telemetry),
        )
    except OSError:
        if result_env is not None:
            shm.free(result_env)


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


def run_spmd_sockets(
    fn,
    n_ranks: int,
    *args,
    timeout: float = 120.0,
    fault_plan: FaultPlan | None = None,
    max_respawns: int = 2,
    elastic: bool = False,
    hosts: list[str] | None = None,
    heartbeat: HeartbeatConfig | None = None,
    **kwargs,
):
    """Socket-backend twin of :func:`repro.parallel.vmpi.run_spmd`.

    Same contract as the thread backend — returns ``(results, stats)``,
    raises ``RuntimeError("virtual rank r failed: ...")`` on rank
    failure, recovers injected crashes by respawn-with-replay — plus
    the elastic extras:

    * ``elastic=True``: a rank that is permanently lost (crash with the
      respawn budget exhausted, or a heartbeat-confirmed hang) raises
      :class:`~repro.exceptions.RankLostError` carrying the survivors'
      latest checkpoints, instead of a bare RuntimeError;
    * ``hosts``: round-robin rank→host assignment (default: the
      ``REPRO_VMPI_HOSTS`` environment, else all-local).  Non-local
      ranks use all-inline envelopes (the remote transport shape);
    * ``heartbeat``: failure-detector timing (default: the
      ``REPRO_VMPI_HB_*`` environment knobs).
    """
    from repro.obs.metrics import registry
    from repro.resilience.deadline import current_deadline
    from repro.util.flops import current_counter

    ctx = mp.get_context("spawn")
    hb = heartbeat if heartbeat is not None else heartbeat_config_from_env()
    if hosts is None:
        hosts = hosts_from_env()
    dl = current_deadline()
    deadline_s = None
    if dl is not None and dl.seconds is not None:
        deadline_s = dl.remaining()
        timeout = min(timeout, deadline_s + 5.0)

    def host_of(rank: int) -> str | None:
        if not hosts:
            return None
        return hosts[rank % len(hosts)]

    def is_remote(rank: int) -> bool:
        h = host_of(rank)
        return h is not None and not _is_local_host(h)

    any_remote = any(is_remote(r) for r in range(n_ranks))
    try:
        prog_env = shm.pack((fn, args, kwargs))
        prog_env_inline = (
            shm.pack((fn, args, kwargs), threshold=_INLINE) if any_remote else None
        )
    except Exception as exc:
        raise ConfigurationError(
            "the socket backend must pickle the SPMD function and its "
            "arguments for spawned ranks; use a module-level function "
            f"(closures/lambdas cannot cross processes): {exc!r}"
        ) from exc

    # the supervisor binds loopback: workers are spawned locally even
    # when assigned a remote host (no launcher agent in this repo) —
    # remote assignment changes the transport shape, not the placement.
    lsock = socket.create_server(("127.0.0.1", port_from_env()), backlog=2 * n_ranks)
    addr = lsock.getsockname()

    # -- supervisor-side router state ---------------------------------
    router_lock = threading.Lock()
    logs: dict[tuple, list] = defaultdict(list)
    key_world: dict[tuple, tuple[int, int]] = {}
    suppress: dict[tuple, int] = defaultdict(int)
    checkpoints: dict[int, object] = {}
    conns: dict[int, _Conn] = {}
    stats = CommStats()
    membership = Membership(list(range(n_ranks)))
    detector = FailureDetector(hb, [])
    detector_lock = threading.Lock()
    events: "queue.Queue" = queue.Queue()
    accept_stop = threading.Event()

    procs: list = [None] * n_ranks
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

    def _route(frame) -> None:
        _, comm_key, src, dst, tag, sw, dw, env, nbytes = frame
        key = (comm_key, src, dst, tag)
        with router_lock:
            key_world.setdefault(key, (sw, dw))
            if suppress[key] > 0:
                suppress[key] -= 1
                stats.record_fault("duplicates_suppressed", rank=sw)
                shm.free(env)
                return
            logs[key].append(env)
            stats.record(sw, dw, nbytes)
            conn = conns.get(dw)
            if conn is not None:
                conn.send(("msg", key, env))
            # conn is None until the rank (or its respawn) connects:
            # the message is logged, and hello-time replay delivers it
            # in order.

    def _read_loop(conn: _Conn) -> None:
        while True:
            try:
                frame = conn.reader.read(None)
            except ConnectionError:
                with router_lock:
                    if conns.get(conn.rank) is conn:
                        conns.pop(conn.rank, None)
                events.put(("conn_lost", conn.rank, conn.gen))
                return
            kind = frame[0]
            with router_lock:
                stale = membership.is_stale(conn.rank, conn.gen)
            if stale:
                stats.record_fault("stale_rejected", rank=conn.rank)
                if kind == "post":
                    shm.free(frame[7])
                continue
            # any frame from a live generation proves liveness.
            with detector_lock:
                detector.beat(conn.rank)
            if kind == "hb":
                stats.record_fault("heartbeats")
            elif kind == "post":
                _route(frame)
            elif kind == "ckpt":
                _, rank, _tag, payload = frame
                with router_lock:
                    checkpoints[rank] = payload
            elif kind == "status":
                events.put(("status",) + tuple(frame[1:]))

    def _accept_loop() -> None:
        lsock.settimeout(0.2)
        while not accept_stop.is_set():
            try:
                s, _peer = lsock.accept()
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
            with router_lock:
                if membership.is_stale(rank, gen) or gen != membership.generation(rank):
                    # a zombie reconnect from a retired generation.
                    stats.record_fault("stale_rejected", rank=rank)
                    conn.close()
                    continue
                conns[rank] = conn
                # deliver everything logged for this rank so far, in log
                # order, before any new forwards (same lock): a respawn's
                # full receive history, or — first generation — the
                # posts peers made before this rank connected.
                for key, (_sw, dw) in key_world.items():
                    if dw == rank:
                        for env in logs[key]:
                            conn.send(("msg", key, env))
            with detector_lock:
                detector.resurrect(rank)
            threading.Thread(
                target=_read_loop,
                args=(conn,),
                name=f"vmpi-sock-rx-{rank}",
                daemon=True,
            ).start()

    def spawn(rank: int, generation: int) -> None:
        name = (
            f"vmpi-sock-rank-{rank}"
            if generation == 0
            else f"vmpi-sock-rank-{rank}-adopted-by-{rank ^ 1}-gen{generation}"
        )
        env = prog_env_inline if is_remote(rank) else prog_env
        p = ctx.Process(
            target=_socket_worker_main,
            args=(
                rank,
                generation,
                n_ranks,
                addr,
                env,
                timeout,
                fault_plan,
                generation > 0,
                deadline_s,
                hb.interval,
                is_remote(rank),
            ),
            name=name,
            daemon=True,
        )
        p.start()
        procs[rank] = p

    def broadcast_abort(err: str) -> None:
        nonlocal abort_deadline
        with router_lock:
            live = [conns.get(r) for r in range(n_ranks) if not finished[r]]
        for conn in live:
            if conn is not None:
                conn.send(("abort", err))
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
            with router_lock:
                old = conns.pop(rank, None)
                for key, (sw, _dw) in key_world.items():
                    if sw == rank:
                        suppress[key] = len(logs[key])
                gen = membership.respawn(rank)
            stats.record_fault("respawns", rank=rank)
            if old is not None:
                old.close()
            p = procs[rank]
            if p is not None and p.is_alive():
                p.terminate()  # a hung worker must not shadow its replacement
            spawn(rank, gen)
            return False
        with router_lock:
            epoch = membership.confirm_dead(rank)
            conns.pop(rank, None)
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

    accept_thread = threading.Thread(
        target=_accept_loop, name="vmpi-sock-accept", daemon=True
    )
    accept_thread.start()

    try:
        for r in range(n_ranks):
            spawn(r, 0)

        n_finished = 0
        while n_finished < n_ranks:
            with detector_lock:
                transitions = detector.poll()
            for rank, state in transitions:
                if finished[rank]:
                    continue
                if state == SUSPECTED:
                    stats.record_fault("suspicions", rank=rank)
                elif state == DEAD:
                    err = (
                        f"heartbeat failure: rank {rank} silent for more "
                        f"than {hb.confirm_after}s"
                    )
                    if handle_loss(rank, err):
                        finished[rank] = True
                        n_finished += 1
            try:
                ev = events.get(timeout=0.2)
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
            if ev[0] == "conn_lost":
                # beats stop with the connection; the heartbeat detector
                # (or the exitcode poll) owns the verdict.
                continue
            _, rank, status, err, result_env, telemetry = ev
            if finished[rank]:  # pragma: no cover - late duplicate status
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
            with detector_lock:
                detector.mark_dead(rank)  # done ranks stop beating

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
        accept_stop.set()
        try:
            lsock.close()
        except OSError:  # pragma: no cover - teardown race
            pass
        with router_lock:
            live = list(conns.values())
            conns.clear()
        for conn in live:
            conn.close()
        # drain unread statuses so their result envelopes are freed.
        while True:
            try:
                ev = events.get_nowait()
            except queue.Empty:
                break
            if ev[0] == "status" and ev[4] is not None:
                shm.free(ev[4])
        with router_lock:
            for envs in logs.values():
                for env in envs:
                    shm.free(env)
            logs.clear()
        shm.free(prog_env)
        if prog_env_inline is not None:
            shm.free(prog_env_inline)
        for p in procs:
            if p is not None and p.is_alive():
                p.terminate()

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
            r: p for r, p in checkpoints.items() if r != lost_rank
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
