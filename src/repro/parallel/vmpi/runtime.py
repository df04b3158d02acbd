"""SPMD launcher: run the same function on p virtual ranks.

A :class:`World` starts ``p`` virtual ranks once and then runs SPMD
programs on them one after another.  Each program gets a
:class:`Communicator` for the world group per rank; the caller gets
every rank's return value plus the fabric's traffic statistics.  A
rank that raises aborts the program (waking any rank blocked in
``recv``) and re-raises in the caller.  Each rank also holds a
*resident store*, ``comm.resident``: a dict that outlives the program,
so a later program can find what an earlier one left on that rank
(the distributed solvers keep each rank's factors there).

``run_spmd(fn, p)`` — the moral equivalent of ``mpiexec -n p`` — opens
a world, runs one program and closes it.

Two backends, one launcher each (docs/PARALLELISM.md):

* ``backend="thread"`` (default) — ranks are threads over the shared
  logged-mailbox :class:`~repro.parallel.vmpi.fabric.Fabric`, started
  per program; the resident stores live in the caller's process.
  Zero-copy, single-process, fully debuggable; but the GIL serializes
  everything that is not inside BLAS.
* ``backend="socket"`` — ranks are worker processes, spawned once per
  world, speaking TCP frames to a supervisor router
  (:mod:`repro.parallel.vmpi.sockets`): true multi-core execution with
  bitwise-identical results.  Payloads are pickle-5 envelopes (large
  buffers through shared memory), and heartbeat failure detection plus
  elastic membership make it the backend that can recover a *hang*.
  Requires ``fn`` and its arguments to be picklable.

``backend=None`` resolves from the ``REPRO_VMPI_BACKEND`` environment
variable, defaulting to ``thread``.

**Fault tolerance.**  With a :class:`~repro.parallel.vmpi.faults.FaultPlan`
(passed explicitly or installed from the ``REPRO_FAULT_RATE``
environment by the CI chaos job), the launcher becomes a supervisor:

* message drops/corruptions/delays are absorbed by the communicator's
  retransmission loop — nothing to do here;
* an injected **rank crash** (:class:`~repro.exceptions.RankCrashError`)
  is detected when the victim's thread exits.  Instead of aborting, the
  supervisor re-routes the dead subtree owner's work to its *sibling
  host* (rank ``r ^ 1``'s side of the tree): a replacement worker for
  rank ``r`` is spawned against the fabric's message log
  (:meth:`~repro.parallel.vmpi.fabric.Fabric.begin_replay`).  Because
  skeletons and kernel blocks are checkpointed in the shared
  :class:`~repro.hmatrix.hmatrix.HMatrix`, the replacement re-derives
  the dead rank's factors without re-skeletonizing, replays the
  messages its predecessor consumed, and its duplicate re-sends are
  suppressed — so peers blocked mid-collective simply resume.  A
  replacement *process* (socket backend) starts with the program's
  ``residents`` in its store.

Recovery events are recorded in ``stats.rank_recoveries`` so
:class:`~repro.solvers.recovery.SolverHealth` can enumerate them.
A program that fails closes its world.

**Telemetry.**  Every program records one ``vmpi.program`` span
(``backend``, ``ranks``, ``program``, ``launched``), and each world
whose ranks start counts once in ``vmpi.worlds_launched{backend}``.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Any, Callable

from repro.exceptions import (
    CommunicatorError,
    ConfigurationError,
    RankCrashError,
    RankLostError,
)
from repro.obs import registry, span
from repro.parallel.vmpi.communicator import Communicator
from repro.parallel.vmpi.fabric import CommStats, Fabric
from repro.parallel.vmpi.faults import FaultPlan, plan_from_env
from repro.util.flops import current_counter

__all__ = ["World", "run_spmd", "resolve_backend", "BACKENDS"]

#: execution backends for :func:`run_spmd`.
BACKENDS = ("thread", "socket")

#: environment override for the default backend.
ENV_BACKEND = "REPRO_VMPI_BACKEND"


def resolve_backend(backend: str | None = None) -> str:
    """Resolve the execution backend.

    Explicit ``backend`` wins (an unknown value is a
    :class:`~repro.exceptions.ConfigurationError`); ``None`` consults
    ``REPRO_VMPI_BACKEND`` — where an unknown value only warns (an env
    typo must not take a solve down) and falls back to ``thread``.
    """
    if backend is None:
        raw = os.environ.get(ENV_BACKEND, "").strip()
        if not raw:
            return "thread"
        if raw not in BACKENDS:
            from repro.obs.logadapter import emit_warning

            emit_warning(
                f"env.{ENV_BACKEND}",
                f"ignoring unknown {ENV_BACKEND}={raw!r} "
                f"(expected one of {BACKENDS}); using 'thread'",
            )
            return "thread"
        return raw
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}; got {backend!r}"
        )
    return backend


class World:
    """``n_ranks`` virtual ranks that run SPMD programs one after another.

    Parameters
    ----------
    n_ranks:
        Number of virtual ranks.
    backend:
        ``"thread"`` (default), ``"socket"``, or ``None`` to consult
        ``REPRO_VMPI_BACKEND``.  Both backends produce bitwise-identical
        results; socket additionally requires each program and its
        arguments to be picklable (module-level functions).
    heartbeat:
        Socket-backend only: the failure detector's schedule (default
        :class:`~repro.parallel.vmpi.membership.HeartbeatConfig`); a
        tighter one confirms a hang within seconds.  Ignored by the
        thread backend.

    Socket ranks are spawned by the first program and end on
    :meth:`close` — called directly, by ``with World(...) as world:``,
    by a failed program, or at interpreter exit.  Programs from
    several threads run one at a time.
    """

    def __init__(
        self,
        n_ranks: int,
        backend: str | None = None,
        *,
        heartbeat=None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.n_ranks = n_ranks
        self.backend = resolve_backend(backend)
        self._one_program = threading.Lock()
        if self.backend == "socket":
            from repro.parallel.vmpi.sockets import SocketRanks

            self._ranks = SocketRanks(n_ranks, heartbeat=heartbeat)
        else:
            self._ranks = _ThreadRanks(n_ranks)

    @property
    def closed(self) -> bool:
        return self._ranks.closed

    def run(
        self,
        fn: Callable[..., Any],
        *args,
        timeout: float = 120.0,
        fault_plan: FaultPlan | None = None,
        max_respawns: int = 2,
        elastic: bool = False,
        residents: Callable[[int], dict] | None = None,
        **kwargs,
    ) -> tuple[list[Any], CommStats]:
        """Execute ``fn(comm, *args, **kwargs)`` once on every rank.

        Parameters
        ----------
        fn:
            SPMD function; its first argument is the world
            :class:`Communicator`, whose ``resident`` dict is the
            rank's store.
        timeout:
            Per-receive deadlock timeout in seconds (capped by the
            caller's deadline).
        fault_plan:
            Chaos schedule (drop/corrupt/delay/crash) for this program.
            ``None`` checks the ``REPRO_FAULT_RATE`` environment (the CI
            chaos job) and runs fault-free if that is unset too.
        max_respawns:
            Per-rank budget of crash recoveries before the program
            aborts.
        elastic:
            When True, a rank that is *permanently* lost (crash with the
            respawn budget exhausted, or — socket backend — a
            heartbeat-confirmed hang) raises
            :class:`~repro.exceptions.RankLostError` carrying the
            survivors' latest ``Communicator.checkpoint`` payloads, so
            the caller can repartition the lost work instead of failing.
        residents:
            ``residents(rank)`` is the store of a rank that starts
            without one during this program: every rank on a world's
            first program, and a respawned rank process.  Thread ranks
            share the caller's process, so a crash loses nothing there.

        Returns
        -------
        (results, stats):
            ``results[r]`` is rank r's return value; ``stats`` holds the
            fabric's message/byte/fault counters for this program, plus
            ``stats.rank_recoveries`` — one dict per crash recovery.
        """
        if fault_plan is None:
            fault_plan = plan_from_env()
        attrs = {
            "backend": self.backend,
            "ranks": self.n_ranks,
            "program": getattr(fn, "__qualname__", repr(fn)),
        }
        with self._one_program:
            if self.closed:
                raise CommunicatorError("this world is closed")
            starting = not self._ranks.started
            with span("vmpi.program", attrs=attrs) as sp:
                try:
                    return self._ranks.run(
                        fn,
                        args,
                        kwargs,
                        timeout=timeout,
                        fault_plan=fault_plan,
                        max_respawns=max_respawns,
                        elastic=elastic,
                        residents=residents,
                    )
                except BaseException:
                    self.close()
                    raise
                finally:
                    launched = starting and self._ranks.started
                    if sp is not None:
                        sp.attrs["launched"] = launched
                    if launched:
                        registry().counter(
                            "vmpi.worlds_launched", backend=self.backend
                        ).inc()

    def close(self) -> None:
        """End the ranks and drop their stores (idempotent)."""
        self._ranks.close()

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_spmd(
    fn: Callable[..., Any],
    n_ranks: int,
    *args,
    timeout: float = 120.0,
    fault_plan: FaultPlan | None = None,
    max_respawns: int = 2,
    backend: str | None = None,
    elastic: bool = False,
    heartbeat=None,
    residents: Callable[[int], dict] | None = None,
    **kwargs,
) -> tuple[list[Any], CommStats]:
    """Execute ``fn(comm, *args, **kwargs)`` on ``n_ranks`` fresh ranks.

    Opens a :class:`World`, runs one program and closes it; the
    parameters are :class:`World`'s and :meth:`World.run`'s.
    """
    with World(n_ranks, backend, heartbeat=heartbeat) as world:
        return world.run(
            fn,
            *args,
            timeout=timeout,
            fault_plan=fault_plan,
            max_respawns=max_respawns,
            elastic=elastic,
            residents=residents,
            **kwargs,
        )


class _ThreadRanks:
    """The thread launcher: one thread per rank and program."""

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks
        self.closed = False
        self._stores: list[dict] = [{} for _ in range(n_ranks)]
        #: set by the first program, the only one that seeds the stores.
        self.started = False

    def close(self) -> None:
        self.closed = True
        self._stores = [{} for _ in range(self.n_ranks)]

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
        from repro.resilience.deadline import current_deadline, deadline_scope

        n_ranks = self.n_ranks
        if residents is not None and not self.started:
            for rank, store in enumerate(self._stores):
                store.update(residents(rank))
        self.started = True
        stores = self._stores
        dl = current_deadline()  # contextvars do not cross thread spawns
        if dl is not None and dl.seconds is not None:
            # a hung receive should not outlive the caller's deadline
            timeout = min(timeout, dl.remaining() + 5.0)
        fabric = Fabric(n_ranks, timeout=timeout, fault_plan=fault_plan)
        results: list[Any] = [None] * n_ranks
        errors: list[tuple[int, BaseException]] = []
        counter = current_counter()  # charge rank work to the caller's counter
        done: "queue.Queue[tuple[int, str, BaseException | None]]" = queue.Queue()

        def worker(rank: int) -> None:
            comm = Communicator(
                fabric, "world", rank, list(range(n_ranks)), resident=stores[rank]
            )
            if counter is not None:
                counter.attach()
            try:
                with deadline_scope(dl):
                    results[rank] = fn(comm, *args, **kwargs)
            except RankCrashError as exc:
                # injected crash: report to the supervisor, do NOT abort —
                # peers stay blocked until the replacement catches up.
                done.put((rank, "crashed", exc))
                return
            except BaseException as exc:  # noqa: BLE001 - must abort peers
                errors.append((rank, exc))
                fabric.abort(exc)
                done.put((rank, "failed", exc))
                return
            finally:
                if counter is not None:
                    counter.detach()
            done.put((rank, "ok", None))

        def spawn(rank: int, generation: int) -> threading.Thread:
            name = (
                f"vmpi-rank-{rank}"
                if generation == 0
                else f"vmpi-rank-{rank}-adopted-by-{rank ^ 1}-gen{generation}"
            )
            t = threading.Thread(target=worker, args=(rank,), name=name)
            t.start()
            return t

        respawn_counts = [0] * n_ranks
        recoveries: list[dict] = []
        lost_rank: int | None = None
        for r in range(n_ranks):
            spawn(r, 0)

        finished = 0
        while finished < n_ranks:
            rank, outcome, exc = done.get()
            if outcome == "crashed":
                fabric.mark_dead(rank)
                if respawn_counts[rank] < max_respawns:
                    respawn_counts[rank] += 1
                    sibling = rank ^ 1 if n_ranks > 1 else rank
                    recoveries.append(
                        {
                            "stage": "rank_respawn",
                            "rank": rank,
                            "adopted_by": sibling,
                            "generation": respawn_counts[rank],
                            "error": repr(exc),
                        }
                    )
                    fabric.begin_replay(rank)
                    spawn(rank, respawn_counts[rank])
                    continue
                # budget exhausted: permanent loss (elastic) or fatal.
                if elastic and lost_rank is None:
                    lost_rank = rank
                    fabric.stats.record_fault("confirmed_losses", rank=rank)
                    recoveries.append(
                        {
                            "stage": "rank_lost",
                            "rank": rank,
                            "epoch": 1,
                            "error": repr(exc),
                        }
                    )
                else:
                    errors.append((rank, exc))
                fabric.abort(exc)
            finished += 1

        stats = fabric.stats
        stats.rank_recoveries.extend(recoveries)
        stats.publish()
        if lost_rank is not None:
            checkpoints = {
                r: p
                for r, p in fabric.collect_checkpoints().items()
                if r != lost_rank
            }
            raise RankLostError(
                f"virtual rank {lost_rank} permanently lost; "
                f"{len(checkpoints)} survivor checkpoint(s) available for "
                "repartitioning",
                rank=lost_rank,
                epoch=1,
                checkpoints=checkpoints,
                stats=stats,
            )
        if errors:
            rank, exc = min(errors, key=lambda e: e[0])
            raise RuntimeError(f"virtual rank {rank} failed: {exc!r}") from exc
        return results, stats
