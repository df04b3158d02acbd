"""Degradation ladder: finish *something* when the budget runs out.

The source paper's level-restricted hybrid scheme (section II-C) is
what makes graceful degradation possible at all: a factorization that
stops at *any* antichain of skeletonized nodes is still a valid
partial factorization, and the hybrid GMRES path can finish the solve
from there without ever factorizing the coalesced system.  The ladder:

1. **coarsen** (in :func:`repro.skeleton.skeletonize.skeletonize`) —
   under deadline pressure the rank tolerance ``tau`` is multiplied up
   at level boundaries, shrinking skeletons and all downstream work;
2. **freeze-frontier** (:func:`freeze_frontier_at_level`, here) — when
   the deadline lands mid-factorization, the deepest *completed* level
   becomes the frontier; the finished factors are transplanted and the
   hybrid reduced solve finishes the job;
3. **iterative** — preconditioned GMRES on ``lambda I + K~`` via
   :class:`repro.solvers.recovery.IterativeFallback`.

Every rung lands in :class:`~repro.solvers.recovery.SolverHealth` and
the ``resilience.degradation`` metric, so a degraded answer always
says how it was obtained.
"""

from __future__ import annotations

import copy
from dataclasses import replace

from repro.config import SolverConfig
from repro.exceptions import DeadlineExceededError, StabilityError
from repro.hmatrix.hmatrix import HMatrix
from repro.obs import registry
from repro.resilience.deadline import Deadline
from repro.solvers.factorization import factorize
from repro.solvers.recovery import (
    IterativeFallback,
    SolverHealth,
    robust_factorize,
)

__all__ = ["freeze_frontier_at_level", "resilient_factorize"]


def freeze_frontier_at_level(hmatrix: HMatrix, level: int) -> HMatrix:
    """A shallow copy of ``hmatrix`` with the frontier frozen at ``level``.

    The frozen frontier is the antichain made of (a) every node at
    exactly ``level`` that sat at/below the old frontier and (b) old
    frontier nodes already deeper than ``level``.  Because leaves all
    sit at the same depth and splits are median, this antichain
    partitions the point set, and every member is skeletonized (the
    whole below-frontier region is), so the hybrid method can run on it
    directly.  Skeletons, blocks, and the cache are shared — only the
    factorization boundary moves, exactly like
    :func:`repro.solvers.recovery.descend_frontier` but *upward-bounded*
    by finished work instead of downward by breakdown.
    """
    new_frontier = [f for f in hmatrix.frontier if f.level > level]
    new_frontier += [
        n for n in hmatrix._nodes_at_or_below_frontier() if n.level == level
    ]
    new_frontier.sort(key=lambda n: n.lo)
    frozen = copy.copy(hmatrix)
    frozen.frontier = new_frontier
    frozen._frontier_ids = {f.id for f in new_frontier}
    frozen._below = frozen._nodes_at_or_below_frontier()
    return frozen


def resilient_factorize(
    hmatrix: HMatrix,
    lam: float = 0.0,
    config: SolverConfig | None = None,
    *,
    health: SolverHealth | None = None,
    deadline: Deadline | None = None,
    checkpoint=None,
):
    """Factorize under a deadline, degrading instead of dying.

    Runs the configured factorization (through
    :func:`~repro.solvers.recovery.robust_factorize` when the numerical
    recovery ladder is enabled) with ``deadline`` charged per node and
    ``checkpoint`` written per completed level.  When the budget runs
    out mid-factorization and ``config.resilience.degrade`` is on:

    * **rung 2 (freeze-frontier)** — if at least one level below the
      root finished, the completed factors are transplanted onto
      :func:`freeze_frontier_at_level`'s frozen H-matrix and the cheap
      hybrid reduced stage finishes the factorization (no per-node work
      remains; the finishing stage runs on a fresh unlimited deadline —
      the budget already spoke, the point now is to return);
    * **rung 3 (iterative)** — otherwise, or if the frozen hybrid also
      fails, an :class:`~repro.solvers.recovery.IterativeFallback`.

    With ``degrade`` off the
    :class:`~repro.exceptions.DeadlineExceededError` propagates.

    Returns ``(factorization_like, health)``.
    """
    config = config or SolverConfig()
    res = config.resilience
    health = health or SolverHealth()
    partial: list = []

    resume_levels = None
    on_level = None
    if checkpoint is not None:
        resume_levels = checkpoint.load_levels(lam=lam, method=config.method)

        def on_level(level, fact):
            checkpoint.save_level(
                level,
                fact.export_level_payload(level),
                lam=lam,
                method=config.method,
            )
            if fact.recovery_events:
                # a lambda bump re-factorizes a whole subtree, touching
                # levels already on disk — re-save them so a later
                # resume never mixes pre- and post-bump factors.
                for lv in fact.completed_levels:
                    if lv != level:
                        checkpoint.save_level(
                            lv,
                            fact.export_level_payload(lv),
                            lam=lam,
                            method=config.method,
                        )

    kwargs = dict(
        deadline=deadline,
        resume_levels=resume_levels,
        on_level=on_level,
        partial_sink=partial,
    )
    try:
        if config.recovery.enabled:
            return robust_factorize(hmatrix, lam, config, health, **kwargs)
        fact = factorize(hmatrix, lam, config, **kwargs)
        health.ingest_factorization(fact)
        health.final_path = config.method
        return fact, health
    except DeadlineExceededError as exc:
        if not res.degrade:
            raise
        health.record("escalation", rung="deadline", error=repr(exc))

    # ---- rung 2: freeze the frontier at the deepest completed level --
    fact0 = partial[0] if partial else None
    finish = Deadline()  # unlimited: the remaining work is the cheap tail
    if fact0 is not None and fact0.completed_levels:
        cut = min(fact0.completed_levels)
        # a frontier at the root (level 0) is the whole problem: the
        # reduced system would be as big as the original.
        if cut >= 1:
            frozen = freeze_frontier_at_level(hmatrix, cut)
            hybrid = replace(config, method="hybrid")
            transplant = {
                lv: fact0.export_level_payload(lv)
                for lv in fact0.completed_levels
            }
            try:
                fact = factorize(
                    frozen,
                    lam,
                    hybrid,
                    deadline=finish,
                    resume_levels=transplant,
                )
                health.ingest_factorization(fact)
                health.record(
                    "frontier_freeze",
                    level=cut,
                    frontier_size=len(frozen.frontier),
                )
                registry().counter(
                    "resilience.degradation", rung="frontier_freeze"
                ).inc()
                health.final_path = "hybrid"
                return fact, health
            except StabilityError as exc:
                health.record(
                    "escalation", rung="frontier_freeze", error=repr(exc)
                )

    # ---- rung 3: iterative fallback ---------------------------------
    health.record("iterative_fallback", rung="deadline")
    registry().counter("resilience.degradation", rung="iterative").inc()
    health.final_path = "iterative"
    return IterativeFallback(hmatrix, lam, config), health
