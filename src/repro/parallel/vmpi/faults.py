"""Deterministic fault injection for the virtual MPI fabric.

A :class:`FaultPlan` is a *seeded, repeatable* chaos schedule: every
delivery attempt of every message is classified (deliver / drop /
corrupt / delay) by hashing ``(seed, mailbox key, message seq,
attempt)`` — so two runs with the same plan observe exactly the same
fault sequence regardless of thread interleaving, and a replayed
(respawned) rank re-experiences the same faults its predecessor did.

Faults are *transient by construction*: the hash includes the attempt
counter, so a retransmission of a dropped or corrupted message is an
independent Bernoulli trial and delivery succeeds with probability one
in the limit.  The retry/backoff loop lives in
:meth:`repro.parallel.vmpi.communicator.Communicator.recv` (collectives
are built from sends and recvs, so ``bcast``/``reduce``/... inherit the
semantics for free); :class:`RetryPolicy` bounds it.

Rank crashes are scheduled by *operation index* — "world rank ``r``
dies on its ``k``-th communicator operation" — which is deterministic
because a rank's own operation sequence depends only on its program,
not on scheduling.  A crash fires exactly once per plan; the respawned
replacement sails past the crash point.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from dataclasses import dataclass, field

from repro.exceptions import RankCrashError, RankHangError

__all__ = [
    "FaultAction",
    "FaultPlan",
    "RetryPolicy",
    "MessageDropped",
    "MessageCorrupted",
    "plan_from_env",
]

#: environment knobs honoured by :func:`plan_from_env` (the CI chaos job
#: sets these so the whole tier-1 suite runs under injected faults).
ENV_RATE = "REPRO_FAULT_RATE"
ENV_SEED = "REPRO_FAULT_SEED"


class FaultAction:
    """Classification of one delivery attempt."""

    DELIVER = "deliver"
    DROP = "drop"
    CORRUPT = "corrupt"
    DELAY = "delay"


class MessageDropped(Exception):
    """Transient: this delivery attempt was dropped (retransmit)."""


class MessageCorrupted(Exception):
    """Transient: payload failed its integrity check (retransmit)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retransmission bounds.

    ``delay(attempt) = min(base_delay * 2**attempt, max_delay)``; after
    ``max_retries`` failed attempts the receive raises
    :class:`~repro.exceptions.FaultInjectionError` (the link is treated
    as down, not slow).
    """

    max_retries: int = 16
    base_delay: float = 1e-4
    max_delay: float = 2e-2

    def delay(self, attempt: int) -> float:
        return min(self.base_delay * (2.0**attempt), self.max_delay)


@dataclass
class FaultPlan:
    """Seeded chaos schedule for one (or more) SPMD launches.

    Attributes
    ----------
    seed:
        Root of the deterministic per-attempt hash.
    drop_rate, corrupt_rate, delay_rate:
        Per-delivery-attempt probabilities (disjoint: a single uniform
        draw is partitioned, so ``drop + corrupt + delay <= 1`` must
        hold).
    delay_seconds:
        Injected latency for DELAY attempts.
    crash_rank:
        World rank to kill, or ``None``.
    crash_op:
        The victim dies when it executes its ``crash_op``-th
        communicator operation (sends and receives both count).  Fires
        once per plan.
    hang_rank / hang_op:
        World rank to *hang* (silently stop participating — the model
        of a partitioned or wedged host) on its ``hang_op``-th
        communicator operation.  A hang is reported to nobody; only the
        socket backend's heartbeat failure detector
        (:mod:`repro.parallel.vmpi.membership`) can recover from it.
        On the thread backend a hang degenerates into a recv timeout
        on the peers (documented; do not use it there).
    hang_seconds:
        How long a hung rank stays wedged before waking up as a
        *zombie* and attempting to resume — exercising the supervisor's
        stale-epoch rejection.  The default is effectively forever (the
        supervisor terminates hung workers at teardown).
    retry:
        Retransmission policy applied by receivers under this plan.
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 1e-3
    crash_rank: int | None = None
    crash_op: int = 4
    hang_rank: int | None = None
    hang_op: int = 4
    hang_seconds: float = 3600.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _op_counts: dict[int, int] = field(default_factory=dict, repr=False)
    _crash_fired: bool = field(default=False, repr=False)
    _hang_fired: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        total = self.drop_rate + self.corrupt_rate + self.delay_rate
        if not (0.0 <= total <= 1.0):
            raise ValueError(
                f"drop+corrupt+delay rates must lie in [0, 1]; got {total}"
            )

    # ------------------------------------------------------------------
    def decide(self, key: tuple, seq: int, attempt: int) -> str:
        """Classify one delivery attempt; pure function of the inputs."""
        if self.drop_rate == 0.0 and self.corrupt_rate == 0.0 and self.delay_rate == 0.0:
            return FaultAction.DELIVER
        u = self._uniform(key, seq, attempt)
        if u < self.drop_rate:
            return FaultAction.DROP
        if u < self.drop_rate + self.corrupt_rate:
            return FaultAction.CORRUPT
        if u < self.drop_rate + self.corrupt_rate + self.delay_rate:
            return FaultAction.DELAY
        return FaultAction.DELIVER

    def _uniform(self, key: tuple, seq: int, attempt: int) -> float:
        h = hashlib.blake2b(digest_size=8)
        h.update(repr((self.seed, key, seq, attempt)).encode())
        (v,) = struct.unpack("<Q", h.digest())
        return v / 2.0**64

    # ------------------------------------------------------------------
    def on_op(self, world_rank: int) -> None:
        """Count one communicator operation; raise the scheduled fault.

        Called by :class:`Communicator` send/recv.  Thread-safe; the
        crash (and the hang) each fire at most once per plan instance,
        so a respawned rank replays straight through the old crash
        point.
        """
        if self.crash_rank is None and self.hang_rank is None:
            return
        with self._lock:
            count = self._op_counts.get(world_rank, 0) + 1
            self._op_counts[world_rank] = count
            fire_crash = (
                not self._crash_fired
                and world_rank == self.crash_rank
                and count >= self.crash_op
            )
            if fire_crash:
                self._crash_fired = True
            fire_hang = (
                not fire_crash
                and not self._hang_fired
                and world_rank == self.hang_rank
                and count >= self.hang_op
            )
            if fire_hang:
                self._hang_fired = True
        if fire_crash:
            raise RankCrashError(
                f"injected crash: world rank {world_rank} at op {count}"
            )
        if fire_hang:
            raise RankHangError(
                f"injected hang: world rank {world_rank} at op {count}"
            )

    @property
    def crash_pending(self) -> bool:
        return self.crash_rank is not None and not self._crash_fired

    def disarm_crash(self) -> None:
        """Mark the scheduled crash (and hang) as already fired.

        The socket backend ships each rank a *copy* of the plan, so a
        respawned replacement would re-fire the crash its predecessor
        already suffered; the supervisor disarms the replacement's copy
        (the thread backend gets this for free from the shared
        ``_crash_fired`` flag).
        """
        with self._lock:
            self._crash_fired = True
            self._hang_fired = True

    # -- pickling: the socket backend ships the plan to every rank -----
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


#: the largest rate ``plan_from_env`` accepts: the single uniform draw
#: is partitioned into drop (r) + corrupt (r/2) + delay (r/4) = 1.75 r.
_MAX_ENV_RATE = 1.0 / 1.75


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        from repro.obs.logadapter import emit_warning

        emit_warning(
            f"env.{name}",
            f"ignoring malformed {name}={raw!r} (not a number); "
            f"using default {default!r}",
        )
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        from repro.obs.logadapter import emit_warning

        emit_warning(
            f"env.{name}",
            f"ignoring malformed {name}={raw!r} (not an integer); "
            f"using default {default!r}",
        )
        return default


def plan_from_env() -> FaultPlan | None:
    """Default chaos plan from the environment (CI's chaos job).

    ``REPRO_FAULT_RATE=r`` enables message faults at drop rate ``r``,
    corruption rate ``r/2`` and delay rate ``r/4`` (seed from
    ``REPRO_FAULT_SEED``, default 0).  Returns ``None`` when unset so
    production launches pay nothing.

    Malformed values (``"0.05x"``) and out-of-range rates are not worth
    crashing a solve over: they fall back to the documented defaults
    (no faults; seed 0; rates clamped so the partitioned probabilities
    stay in [0, 1]) with one rate-limited warning via
    :func:`repro.obs.logadapter.emit_warning`.
    """
    rate = _env_float(ENV_RATE, 0.0)
    if rate <= 0.0:
        return None
    if rate > _MAX_ENV_RATE:
        from repro.obs.logadapter import emit_warning

        emit_warning(
            f"env.{ENV_RATE}",
            f"{ENV_RATE}={rate!r} exceeds the maximum partitionable rate "
            f"{_MAX_ENV_RATE:.4f} (drop + corrupt + delay = 1.75r must "
            "stay <= 1); clamping",
        )
        rate = _MAX_ENV_RATE
    seed = _env_int(ENV_SEED, 0)
    return FaultPlan(
        seed=seed,
        drop_rate=rate,
        corrupt_rate=rate / 2.0,
        delay_rate=rate / 4.0,
        delay_seconds=1e-4,
    )
