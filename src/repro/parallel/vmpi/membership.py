"""Elastic membership for the socket-backed vMPI fabric.

A real MPI cluster can lose a rank *for good* — the host dies, the
network partitions, the process is OOM-killed.  The thread backend
never faces this (every rank shares the supervisor's process and
lifetime), so its only recovery is log-replay respawn.  The socket
backend (:mod:`repro.parallel.vmpi.sockets`) spans processes, and this
module gives its supervisor the two pieces real clusters need:

* a **heartbeat failure detector** (:class:`FailureDetector`): every
  rank beats at ``HeartbeatConfig.interval``; a rank whose last beat is
  older than ``suspect_after`` becomes *suspected* (a phi-style
  suspicion level grows with silence), and older than ``confirm_after``
  is *confirmed dead*.  The two thresholds separate the transient
  hiccups the retry/backoff loop already absorbs from the permanent
  losses that need repartitioning;
* a **membership epoch** (:class:`Membership`): confirming a death
  bumps the epoch and retires the dead rank's connection generation, so
  frames from a zombie — a host that was wrongly declared dead and
  wakes up later — are rejected as *stale* instead of corrupting the
  new epoch's protocol state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["HeartbeatConfig", "FailureDetector", "Membership"]

#: rank state as seen by the failure detector.
ALIVE = "alive"
SUSPECTED = "suspected"
DEAD = "dead"


@dataclass(frozen=True)
class HeartbeatConfig:
    """Failure-detector timing (seconds).

    ``interval`` is how often ranks beat; ``suspect_after`` and
    ``confirm_after`` are silence thresholds.  The defaults are the
    schedule every world runs (a beat every 0.5 s, suspicion after 4
    missed beats, confirmed death after 12), sized for ranks on the
    supervisor's machine; a tighter one, passed to
    ``World(heartbeat=...)``, confirms a hang within seconds.
    """

    interval: float = 0.5
    suspect_after: float = 2.0
    confirm_after: float = 6.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(
                f"heartbeat interval must be > 0; got {self.interval}"
            )
        if self.suspect_after < self.interval:
            raise ConfigurationError(
                "suspect_after must be >= the heartbeat interval; got "
                f"{self.suspect_after} < {self.interval}"
            )
        if self.confirm_after < self.suspect_after:
            raise ConfigurationError(
                "confirm_after must be >= suspect_after; got "
                f"{self.confirm_after} < {self.suspect_after}"
            )


@dataclass
class _RankLiveness:
    last_beat: float
    state: str = ALIVE


class FailureDetector:
    """Heartbeat bookkeeping with a phi-style suspicion level.

    Single-threaded by design: the supervisor's monitor loop owns it
    and serializes ``beat``/``poll`` calls.  ``suspicion(rank)`` is the
    silence measured in heartbeat intervals — the discrete cousin of
    the phi-accrual detector's ``phi``: 0 while beating, crossing
    ``suspect_after/interval`` marks suspicion, ``confirm_after/
    interval`` marks confirmed death.
    """

    def __init__(self, config: HeartbeatConfig, ranks: list[int]) -> None:
        self.config = config
        now = time.monotonic()
        self._ranks: dict[int, _RankLiveness] = {
            r: _RankLiveness(last_beat=now) for r in ranks
        }

    def beat(self, rank: int, now: float | None = None) -> None:
        """Record a heartbeat (ignored for ranks already confirmed dead)."""
        liveness = self._ranks.get(rank)
        if liveness is None or liveness.state == DEAD:
            return
        liveness.last_beat = time.monotonic() if now is None else now
        liveness.state = ALIVE

    def suspicion(self, rank: int, now: float | None = None) -> float:
        """Silence in units of the heartbeat interval (0 = just beat)."""
        liveness = self._ranks[rank]
        now = time.monotonic() if now is None else now
        return max(0.0, now - liveness.last_beat) / self.config.interval

    def state(self, rank: int) -> str:
        return self._ranks[rank].state

    def poll(self, now: float | None = None) -> list[tuple[int, str]]:
        """Advance every rank's state; return the transitions.

        Each returned tuple is ``(rank, new_state)`` with ``new_state``
        in {``"suspected"``, ``"dead"``}.  A suspected rank that beats
        again returns to alive silently (that is the transient case the
        retry loop absorbs — not an event worth surfacing).
        """
        now = time.monotonic() if now is None else now
        cfg = self.config
        transitions: list[tuple[int, str]] = []
        for rank, liveness in self._ranks.items():
            if liveness.state == DEAD:
                continue
            silence = now - liveness.last_beat
            if silence > cfg.confirm_after:
                liveness.state = DEAD
                transitions.append((rank, DEAD))
            elif silence > cfg.suspect_after and liveness.state == ALIVE:
                liveness.state = SUSPECTED
                transitions.append((rank, SUSPECTED))
        return transitions

    def mark_dead(self, rank: int) -> None:
        """External death evidence (connection reset, waitpid)."""
        liveness = self._ranks.get(rank)
        if liveness is not None:
            liveness.state = DEAD

    def resurrect(self, rank: int) -> None:
        """A respawned replacement took over the rank: start fresh."""
        self._ranks[rank] = _RankLiveness(last_beat=time.monotonic())


class Membership:
    """Epoch-stamped rank membership for one SPMD launch.

    Every rank connection carries a *generation* (0 for the original
    worker, bumped per respawn).  Confirming a permanent death bumps
    the launch *epoch* and freezes the dead rank's generation; frames
    arriving later from a connection at or below that generation are
    stale — the sender is a zombie from a previous epoch — and must be
    dropped at the router, never logged or delivered.
    """

    def __init__(self, ranks: list[int]) -> None:
        self.epoch = 0
        self._alive = set(ranks)
        self._generation = {r: 0 for r in ranks}
        #: rank -> generation at which the rank was declared dead.
        self._retired: dict[int, int] = {}

    @property
    def alive(self) -> set[int]:
        return set(self._alive)

    def generation(self, rank: int) -> int:
        return self._generation[rank]

    def respawn(self, rank: int) -> int:
        """Bump and return the rank's generation for its replacement."""
        self._generation[rank] += 1
        return self._generation[rank]

    def confirm_dead(self, rank: int) -> int:
        """Declare ``rank`` permanently lost; returns the new epoch."""
        if rank in self._alive:
            self._alive.discard(rank)
            self._retired[rank] = self._generation[rank]
            self.epoch += 1
        return self.epoch

    def is_stale(self, rank: int, generation: int) -> bool:
        """True when a frame from ``(rank, generation)`` is from a dead
        epoch and must be rejected."""
        retired_gen = self._retired.get(rank)
        if retired_gen is None:
            return generation < self._generation.get(rank, 0)
        return generation <= retired_gen

    def summary(self) -> dict:
        return {
            "epoch": self.epoch,
            "alive": sorted(self._alive),
            "lost": sorted(self._retired),
        }
