"""Message fabric: logged mailboxes + traffic/fault accounting.

One :class:`Fabric` is shared by every rank of a :func:`run_spmd`
launch.  Mailboxes are keyed by ``(comm_key, src, dst, tag)`` so
messages on different (sub-)communicators never collide; within one
key, delivery is FIFO — matching MPI's non-overtaking guarantee.

The fabric is a *message-logging* fabric (the classic pessimistic
message-logging recovery protocol): every post is appended to a
per-key log and consumption advances a cursor instead of destroying
the message.  That buys two things:

* **transient faults** — a delivery attempt classified DROP or CORRUPT
  by the :class:`~repro.parallel.vmpi.faults.FaultPlan` leaves the
  message in the log; the receiver's retry (with backoff) re-attempts
  the *same* payload, modeling retransmission;
* **rank crash recovery** — :meth:`begin_replay` rewinds a dead rank's
  receive cursors to zero and arms sender-side deduplication, so a
  respawned replacement re-executes the rank's deterministic program
  against the logged history: messages it already sent are suppressed
  as duplicates, messages it already consumed are replayed from the
  log, and the protocol resumes exactly where the victim died.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DeadlockError
from repro.parallel.vmpi.faults import (
    FaultAction,
    FaultPlan,
    MessageCorrupted,
    MessageDropped,
    RetryPolicy,
)

__all__ = ["Fabric", "CommStats"]

#: default receive timeout; virtual ranks share one process, so a
#: missing message means a bug, not a slow network.
DEFAULT_TIMEOUT = 120.0


def payload_bytes(obj) -> int:
    """Modeled wire size of a message payload."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return sum(payload_bytes(o) for o in obj)
    if obj is None:
        return 0
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable diagnostics object
        return 64


@dataclass
class CommStats:
    """Aggregate traffic and fault counters for one SPMD launch.

    ``messages``/``bytes`` count point-to-point sends (collectives are
    built from sends, so their cost is included automatically).  The
    fault counters record every chaos event observed and every recovery
    action taken — :class:`~repro.solvers.recovery.SolverHealth`
    ingests them so distributed results carry their fault history.
    """

    messages: int = 0
    bytes: int = 0
    by_pair: dict[tuple[int, int], int] = field(default_factory=dict)
    #: delivery attempts dropped by the fault plan.
    drops: int = 0
    #: delivery attempts corrupted (failed the integrity check).
    corruptions: int = 0
    #: delivery attempts delayed.
    delays: int = 0
    #: receiver retransmission attempts (drops + corruptions retried).
    retries: int = 0
    #: injected rank crashes observed.
    crashes: int = 0
    #: rank respawns performed by the supervisor.
    respawns: int = 0
    #: re-sent messages suppressed by dedup during replay.
    duplicates_suppressed: int = 0
    #: heartbeats received by the supervisor (socket backend).
    heartbeats: int = 0
    #: heartbeat-detector alive -> suspected transitions.
    suspicions: int = 0
    #: ranks declared permanently dead by the failure detector (or by a
    #: crash with the respawn budget exhausted under elastic mode).
    confirmed_losses: int = 0
    #: frames from a dead rank's membership epoch rejected at the router.
    stale_rejected: int = 0
    #: elastic repartitions of subtree ownership onto survivors.
    repartitions: int = 0
    #: one dict per crash recovery performed by the supervisor.
    rank_recoveries: list[dict] = field(default_factory=list)
    #: per-world-rank fault counters, ``{rank: {kind: count}}`` — the
    #: rank *charged* with the fault (the receiver for transport faults,
    #: the victim for crashes/respawns, the replayer for dedup hits).
    by_rank_faults: dict[int, dict[str, int]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- pickling: rank processes ship their stats back at join --------
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def merge(self, other: "CommStats") -> None:
        """Fold another launch-segment's counters into this one.

        Used by the socket backend: each rank counts the faults *it*
        observed in a rank-local ``CommStats`` (the rank-side fabric),
        and the supervisor merges them into the router's traffic stats
        at join so the launch total matches the thread backend's single
        shared instance.
        """
        with self._lock:
            self.messages += other.messages
            self.bytes += other.bytes
            for pair, nbytes in other.by_pair.items():
                self.by_pair[pair] = self.by_pair.get(pair, 0) + nbytes
            self.drops += other.drops
            self.corruptions += other.corruptions
            self.delays += other.delays
            self.retries += other.retries
            self.crashes += other.crashes
            self.respawns += other.respawns
            self.duplicates_suppressed += other.duplicates_suppressed
            self.heartbeats += other.heartbeats
            self.suspicions += other.suspicions
            self.confirmed_losses += other.confirmed_losses
            self.stale_rejected += other.stale_rejected
            self.repartitions += other.repartitions
            self.rank_recoveries.extend(other.rank_recoveries)
            for rank, per in other.by_rank_faults.items():
                mine = self.by_rank_faults.setdefault(rank, {})
                for kind, n in per.items():
                    mine[kind] = mine.get(kind, 0) + n

    def record(self, src_world: int, dst_world: int, nbytes: int) -> None:
        with self._lock:
            self.messages += 1
            self.bytes += nbytes
            key = (src_world, dst_world)
            self.by_pair[key] = self.by_pair.get(key, 0) + nbytes

    def record_fault(self, kind: str, n: int = 1, rank: int | None = None) -> None:
        """Bump one of the fault counters (kind = attribute name).

        With ``rank``, the fault is additionally attributed to that
        world rank in :attr:`by_rank_faults`, so the supervisor can
        publish per-rank series at join time.
        """
        with self._lock:
            setattr(self, kind, getattr(self, kind) + n)
            if rank is not None:
                per = self.by_rank_faults.setdefault(rank, {})
                per[kind] = per.get(kind, 0) + n

    def publish(self, metrics=None) -> None:
        """Mirror this launch's counters into the metrics registry.

        Called by :func:`~repro.parallel.vmpi.runtime.run_spmd` at
        supervisor join — counters accumulate across launches, labeled
        fault series carry ``kind`` and (when attributed) ``rank``.
        """
        from repro.obs.metrics import registry

        reg = metrics if metrics is not None else registry()
        with self._lock:
            reg.counter("fabric.messages").inc(self.messages)
            reg.counter("fabric.bytes").inc(self.bytes)
            if self.heartbeats:
                reg.counter("fabric.heartbeats").inc(self.heartbeats)
            unattributed = {
                "drops": self.drops,
                "corruptions": self.corruptions,
                "delays": self.delays,
                "retries": self.retries,
                "crashes": self.crashes,
                "respawns": self.respawns,
                "duplicates_suppressed": self.duplicates_suppressed,
                "suspicions": self.suspicions,
                "confirmed_losses": self.confirmed_losses,
                "stale_rejected": self.stale_rejected,
                "repartitions": self.repartitions,
            }
            for rank, per in self.by_rank_faults.items():
                for kind, n in per.items():
                    reg.counter("fabric.faults", kind=kind, rank=rank).inc(n)
                    unattributed[kind] -= n
            for kind, n in unattributed.items():
                if n > 0:
                    reg.counter("fabric.faults", kind=kind, rank="?").inc(n)

    @property
    def faults(self) -> dict[str, int]:
        """The fault counters as a plain dict (for health reports)."""
        return {
            "drops": self.drops,
            "corruptions": self.corruptions,
            "delays": self.delays,
            "retries": self.retries,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "duplicates_suppressed": self.duplicates_suppressed,
            "suspicions": self.suspicions,
            "confirmed_losses": self.confirmed_losses,
            "stale_rejected": self.stale_rejected,
            "repartitions": self.repartitions,
        }

    @property
    def total_faults(self) -> int:
        return self.drops + self.corruptions + self.delays + self.crashes


class Fabric:
    """Shared logged-mailbox router for one SPMD launch."""

    def __init__(
        self,
        n_ranks: int,
        timeout: float = DEFAULT_TIMEOUT,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.n_ranks = n_ranks
        self.timeout = timeout
        self.fault_plan = fault_plan
        self.stats = CommStats()
        # per-key message log + cursors (see module docstring).
        self._logs: dict[tuple, list] = defaultdict(list)
        self._consumed: dict[tuple, int] = defaultdict(int)
        #: per-key failed attempts on the current head message.
        self._attempts: dict[tuple, int] = defaultdict(int)
        #: world (src, dst) of each key — each key has exactly one
        #: sender and one receiver, which is what makes replay local.
        self._key_world: dict[tuple, tuple[int, int]] = {}
        #: replay dedup: posts remaining to suppress per key.
        self._suppress: dict[tuple, int] = defaultdict(int)
        self._dead: set[int] = set()
        #: latest control-plane checkpoint per world rank (elastic
        #: repartitioning resumes from these instead of the log).
        self._checkpoints: dict[int, tuple[int, object]] = {}
        self._cond = threading.Condition()
        self._aborted: BaseException | None = None

    @property
    def retry_policy(self) -> RetryPolicy:
        if self.fault_plan is not None:
            return self.fault_plan.retry
        return RetryPolicy()

    # ------------------------------------------------------------------
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
        """Append a message to its key's log (called by the sender)."""
        key = (comm_key, src, dst, tag)
        with self._cond:
            self._key_world.setdefault(key, (src_world, dst_world))
            if self._suppress[key] > 0:
                # replaying rank re-sent a message its predecessor
                # already delivered: suppress (receivers saw it).
                self._suppress[key] -= 1
                self.stats.record_fault("duplicates_suppressed", rank=src_world)
                return
            self._logs[key].append(payload)
            self._cond.notify_all()
        self.stats.record(src_world, dst_world, payload_bytes(payload))

    def wait(self, comm_key: str, src: int, dst: int, tag: int):
        """One delivery *attempt* for the next message on the key.

        Blocks until a message is available (FIFO per key), then asks
        the fault plan to classify the attempt:

        * DELIVER — consume and return the payload;
        * DELAY — sleep ``delay_seconds`` then deliver;
        * DROP — raise :class:`MessageDropped` (transient; the caller
          retries with backoff and the message stays logged);
        * CORRUPT — raise :class:`MessageCorrupted` (the payload failed
          its integrity check; retransmission re-reads the log).
        """
        key = (comm_key, src, dst, tag)
        delay = 0.0
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self._aborted is not None
                or self._consumed[key] < len(self._logs[key]),
                timeout=self.timeout,
            )
            if self._aborted is not None:
                raise DeadlockError(
                    f"peer rank failed: {self._aborted!r}"
                ) from self._aborted
            if not ok:
                raise DeadlockError(
                    f"recv timed out after {self.timeout}s waiting for "
                    f"(comm={comm_key!r}, src={src}, dst={dst}, tag={tag})"
                )
            seq = self._consumed[key]
            payload = self._logs[key][seq]
            if self.fault_plan is not None:
                dst_w = self._key_world.get(key, (None, None))[1]
                action = self.fault_plan.decide(key, seq, self._attempts[key])
                if action == FaultAction.DROP:
                    self._attempts[key] += 1
                    self.stats.record_fault("drops", rank=dst_w)
                    raise MessageDropped(f"dropped {key} seq {seq}")
                if action == FaultAction.CORRUPT:
                    self._attempts[key] += 1
                    self.stats.record_fault("corruptions", rank=dst_w)
                    raise MessageCorrupted(f"corrupted {key} seq {seq}")
                if action == FaultAction.DELAY:
                    self.stats.record_fault("delays", rank=dst_w)
                    delay = self.fault_plan.delay_seconds
            self._consumed[key] = seq + 1
            self._attempts[key] = 0
        if delay > 0.0:
            time.sleep(delay)
        return payload

    # ------------------------------------------------------------------
    # control plane: per-rank checkpoints (elastic repartitioning)
    # ------------------------------------------------------------------
    def post_checkpoint(self, world_rank: int, tag: int, payload) -> None:
        """Record ``world_rank``'s latest checkpoint (control plane).

        Checkpoints are *not* messages: they are never counted in the
        traffic stats, never replayed, and never delivered to peers.
        The supervisor hands the most recent one per surviving rank to
        the caller when a rank is permanently lost
        (:class:`~repro.exceptions.RankLostError`), so elastic
        repartitioning resumes from checkpointed state instead of
        replaying the whole message log.
        """
        with self._cond:
            self._checkpoints[world_rank] = (tag, payload)

    def collect_checkpoints(self) -> dict[int, object]:
        """Latest checkpoint payload per rank (supervisor side)."""
        with self._cond:
            return {rank: payload for rank, (_tag, payload) in self._checkpoints.items()}

    # ------------------------------------------------------------------
    # failure detection and recovery
    # ------------------------------------------------------------------
    def mark_dead(self, world_rank: int) -> None:
        """Failure detector input: ``world_rank``'s thread has died."""
        with self._cond:
            self._dead.add(world_rank)
            self._cond.notify_all()
        self.stats.record_fault("crashes", rank=world_rank)

    def is_dead(self, world_rank: int) -> bool:
        with self._cond:
            return world_rank in self._dead

    def begin_replay(self, world_rank: int) -> None:
        """Arm deterministic replay for a respawned ``world_rank``.

        Rewinds the dead rank's receive cursors to the start of every
        log it consumes from, and arms sender-side dedup so the posts
        its replacement re-issues (up to the predecessor's progress) are
        suppressed rather than duplicated.  Peers are untouched: they
        keep their cursors and simply resume receiving once the
        replacement advances past the crash point.
        """
        with self._cond:
            self._dead.discard(world_rank)
            for key, (src_w, dst_w) in self._key_world.items():
                if dst_w == world_rank:
                    self._consumed[key] = 0
                    self._attempts[key] = 0
                if src_w == world_rank:
                    self._suppress[key] = len(self._logs[key])
            self._cond.notify_all()
        self.stats.record_fault("respawns", rank=world_rank)

    def abort(self, exc: BaseException) -> None:
        """Wake all waiting ranks after a rank died (deadlock prevention)."""
        with self._cond:
            if self._aborted is None:
                self._aborted = exc
            self._cond.notify_all()
