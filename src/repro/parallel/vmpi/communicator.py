"""Communicator: mpi4py-shaped API over the virtual fabric.

Point-to-point: :meth:`Communicator.send` / :meth:`recv` /
:meth:`sendrecv`.  Collectives are binomial trees built from
point-to-point messages — ``O(log p)`` rounds each — so the fabric's
counters expose the same asymptotic traffic a real MPI run would.
:meth:`split` creates sub-communicators (the paper's per-treenode
communicators in Figure 1) without any central coordination beyond an
allgather on the parent.

Fault semantics: when the fabric carries a
:class:`~repro.parallel.vmpi.faults.FaultPlan`, every delivery attempt
may be dropped, corrupted, or delayed.  :meth:`recv` owns the recovery
loop — retransmission with exponential backoff up to the plan's
:class:`~repro.parallel.vmpi.faults.RetryPolicy` budget — and because
the collectives are built from ``send``/``recv``, ``bcast``/``reduce``
/``allreduce``/``gather`` inherit retry/timeout/backoff for free.
Injected rank crashes fire from the per-operation hook at the top of
``send`` and ``recv``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.exceptions import CommunicatorError, FaultInjectionError
from repro.parallel.vmpi.fabric import Fabric
from repro.parallel.vmpi.faults import MessageCorrupted, MessageDropped

__all__ = ["Communicator"]


class Communicator:
    """A group of virtual ranks with p2p and collective operations.

    Do not construct directly — use :func:`repro.parallel.vmpi.run_spmd`
    or :meth:`repro.parallel.vmpi.World.run` (which hand each rank the
    world communicator) and :meth:`split`.

    ``resident`` is this rank's store on its world: a dict that outlives
    the program (a sub-communicator shares its parent's).
    """

    def __init__(
        self,
        fabric: Fabric,
        key: str,
        rank: int,
        world_ranks: list[int],
        resident: dict | None = None,
    ) -> None:
        self._fabric = fabric
        self._key = key
        self._rank = rank
        self._world_ranks = world_ranks
        self._split_epoch = 0
        self.resident = resident if resident is not None else {}

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._world_ranks)

    def world_rank(self, rank: int | None = None) -> int:
        """Global rank id of ``rank`` (default: self) in this group."""
        return self._world_ranks[self._rank if rank is None else rank]

    def _op_hook(self) -> None:
        """Per-operation fault hook (injected rank crashes)."""
        plan = self._fabric.fault_plan
        if plan is not None:
            plan.on_op(self.world_rank())

    # -- point to point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not (0 <= dest < self.size):
            raise CommunicatorError(f"dest {dest} out of range (size {self.size})")
        self._op_hook()
        self._fabric.post(
            self._key,
            self._rank,
            dest,
            tag,
            obj,
            src_world=self.world_rank(),
            dst_world=self._world_ranks[dest],
        )

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive with retransmission: retry dropped/corrupted delivery
        attempts with exponential backoff up to the plan's budget."""
        if not (0 <= source < self.size):
            raise CommunicatorError(f"source {source} out of range (size {self.size})")
        self._op_hook()
        policy = self._fabric.retry_policy
        attempt = 0
        while True:
            try:
                return self._fabric.wait(self._key, source, self._rank, tag)
            except (MessageDropped, MessageCorrupted) as fault:
                attempt += 1
                if attempt > policy.max_retries:
                    raise FaultInjectionError(
                        f"recv from {source} (tag {tag}) failed after "
                        f"{attempt} attempts: {fault}"
                    ) from fault
                self._fabric.stats.record_fault("retries", rank=self.world_rank())
                time.sleep(policy.delay(attempt - 1))

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        """Simultaneous exchange (no deadlock: mailboxes are buffered)."""
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    def checkpoint(self, payload: Any, tag: int = 0) -> None:
        """Post a control-plane checkpoint of this rank's state.

        The supervisor keeps the *latest* checkpoint per rank; when a
        rank is permanently lost under elastic mode, the survivors'
        checkpoints ride back on the
        :class:`~repro.exceptions.RankLostError` so the caller can
        repartition without replaying the message log.  Checkpoints are
        not messages: they are uncounted, unlogged, and undeliverable —
        and therefore cannot perturb chaos schedules or traffic parity.
        """
        self._fabric.post_checkpoint(self.world_rank(), tag, payload)

    # -- collectives -------------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the object on every rank."""
        size, rank = self.size, self._rank
        if size == 1:
            return obj
        # rotate so the root is virtual rank 0.
        vrank = (rank - root) % size
        mask = 1
        while mask < size:
            if vrank < mask:
                peer = vrank + mask
                if peer < size:
                    self.send(obj, (peer + root) % size, tag=-1)
            elif vrank < 2 * mask:
                obj = self.recv(((vrank - mask) + root) % size, tag=-1)
            mask <<= 1
        return obj

    def reduce(
        self,
        value: Any,
        root: int = 0,
        op: Callable[[Any, Any], Any] | None = None,
    ) -> Any:
        """Binomial-tree reduction to ``root`` (default op: ndarray sum).

        Returns the reduced value on ``root`` and ``None`` elsewhere.
        """
        if op is None:
            op = _add
        size, rank = self.size, self._rank
        vrank = (rank - root) % size
        acc = value
        mask = 1
        while mask < size:
            if vrank & mask:
                self.send(acc, ((vrank - mask) + root) % size, tag=-2)
                return None
            peer = vrank + mask
            if peer < size:
                other = self.recv((peer + root) % size, tag=-2)
                acc = op(acc, other)
            mask <<= 1
        return acc

    def allreduce(
        self, value: Any, op: Callable[[Any, Any], Any] | None = None
    ) -> Any:
        """Reduce to rank 0 then broadcast (2 log p rounds)."""
        acc = self.reduce(value, root=0, op=op)
        return self.bcast(acc, root=0)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank into a list at ``root``."""
        contributions = self.reduce({self._rank: obj}, root=root, op=_merge)
        if contributions is None:
            return None
        return [contributions[r] for r in range(self.size)]

    def allgather(self, obj: Any) -> list[Any]:
        return self.bcast(self.gather(obj, root=0), root=0)

    def barrier(self) -> None:
        self.allreduce(0, op=lambda a, b: 0)

    # -- sub-communicators ---------------------------------------------------
    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition the group by ``color`` (collective over all ranks).

        Ranks with equal ``color`` form a new communicator, ordered by
        ``(key, old rank)``.  The new communicator's fabric key is
        derived deterministically from the parent's, so no global
        coordination is needed beyond one allgather.
        """
        if key is None:
            key = self._rank
        members = self.allgather((color, key, self._rank))
        epoch = self._split_epoch
        self._split_epoch += 1
        group = sorted(
            (k, r) for (c, k, r) in members if c == color
        )
        ranks_in_group = [r for (_k, r) in group]
        new_rank = ranks_in_group.index(self._rank)
        new_key = f"{self._key}/{epoch}:{color}"
        return Communicator(
            self._fabric,
            new_key,
            new_rank,
            [self._world_ranks[r] for r in ranks_in_group],
            resident=self.resident,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Communicator(key={self._key!r}, rank={self._rank}, "
            f"size={self.size})"
        )


def _add(a, b):
    if isinstance(a, np.ndarray):
        return a + b
    return a + b


def _merge(a: dict, b: dict) -> dict:
    out = dict(a)
    out.update(b)
    return out
