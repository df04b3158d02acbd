"""SPMD launcher: run the same function on p virtual ranks.

``run_spmd(fn, p)`` is the moral equivalent of ``mpiexec -n p``.  Each
rank gets a :class:`Communicator` for the world group; the caller gets
every rank's return value plus the fabric's traffic statistics.  A
rank that raises aborts the whole launch (waking any rank blocked in
``recv``) and re-raises in the caller.

Two backends share this entry point (docs/PARALLELISM.md):

* ``backend="thread"`` (default) — ranks are threads over the shared
  logged-mailbox :class:`~repro.parallel.vmpi.fabric.Fabric`.
  Zero-copy, single-process, fully debuggable; but the GIL serializes
  everything that is not inside BLAS.
* ``backend="socket"`` — ranks are spawned worker processes speaking
  TCP frames to a supervisor router (:mod:`repro.parallel.vmpi.sockets`):
  true multi-core execution with bitwise-identical results.  Payloads
  are pickle-5 envelopes (shared memory for co-hosted ranks, inline
  over the wire for remote ones), and heartbeat failure detection plus
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
  suppressed — so peers blocked mid-collective simply resume.

Recovery events are recorded in ``stats.rank_recoveries`` so
:class:`~repro.solvers.recovery.SolverHealth` can enumerate them.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Any, Callable

from repro.exceptions import ConfigurationError, RankCrashError, RankLostError
from repro.parallel.vmpi.communicator import Communicator
from repro.parallel.vmpi.fabric import CommStats, Fabric
from repro.parallel.vmpi.faults import FaultPlan, plan_from_env
from repro.util.flops import current_counter

__all__ = ["run_spmd", "resolve_backend", "BACKENDS"]

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


def run_spmd(
    fn: Callable[..., Any],
    n_ranks: int,
    *args,
    timeout: float = 120.0,
    fault_plan: FaultPlan | None = None,
    max_respawns: int = 2,
    backend: str | None = None,
    elastic: bool = False,
    hosts: list[str] | None = None,
    heartbeat=None,
    **kwargs,
) -> tuple[list[Any], CommStats]:
    """Execute ``fn(comm, *args, **kwargs)`` on ``n_ranks`` virtual ranks.

    Parameters
    ----------
    fn:
        SPMD function; its first argument is the world
        :class:`Communicator`.
    n_ranks:
        Number of virtual ranks.
    timeout:
        Per-receive deadlock timeout in seconds.
    fault_plan:
        Chaos schedule (drop/corrupt/delay/crash).  ``None`` checks the
        ``REPRO_FAULT_RATE`` environment (the CI chaos job) and runs
        fault-free if that is unset too.
    max_respawns:
        Per-rank budget of crash recoveries before the launch aborts.
    backend:
        ``"thread"`` (default), ``"socket"``, or ``None`` to consult
        ``REPRO_VMPI_BACKEND``.  Both backends produce bitwise-identical
        results; socket additionally requires ``fn`` and its arguments
        to be picklable (module-level functions).
    elastic:
        When True, a rank that is *permanently* lost (crash with the
        respawn budget exhausted, or — socket backend — a
        heartbeat-confirmed hang) raises
        :class:`~repro.exceptions.RankLostError` carrying the
        survivors' latest ``Communicator.checkpoint`` payloads, so the
        caller can repartition the lost work instead of failing.
    hosts / heartbeat:
        Socket-backend only: round-robin rank→host assignment and
        failure-detector timing (see
        :mod:`repro.parallel.vmpi.membership`).  Ignored by the thread
        backend.

    Returns
    -------
    (results, stats):
        ``results[r]`` is rank r's return value; ``stats`` holds the
        fabric's message/byte/fault counters for the whole launch, plus
        ``stats.rank_recoveries`` — one dict per crash recovery.
    """
    from repro.resilience.deadline import current_deadline, deadline_scope

    if fault_plan is None:
        fault_plan = plan_from_env()
    resolved = resolve_backend(backend)
    if resolved == "socket":
        from repro.parallel.vmpi.sockets import run_spmd_sockets

        return run_spmd_sockets(
            fn,
            n_ranks,
            *args,
            timeout=timeout,
            fault_plan=fault_plan,
            max_respawns=max_respawns,
            elastic=elastic,
            hosts=hosts,
            heartbeat=heartbeat,
            **kwargs,
        )
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
        comm = Communicator(fabric, "world", rank, list(range(n_ranks)))
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
