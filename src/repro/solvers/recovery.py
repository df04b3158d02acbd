"""The fallback ladder + solver health reporting (docs/ROBUSTNESS.md).

The paper's level restriction (section II-C) is why a factorization
stopped at *any* antichain of skeletonized nodes can still be finished
by the hybrid reduced solve.  :func:`robust_factorize` builds one ladder
on it; a breakdown (an rcond estimate below
``RecoveryConfig.rcond_breakdown``) or a spent deadline escalates
instead of returning garbage or dying:

1. **lambda bump** — re-regularize the offending diagonal block(s) and
   re-factorize *just that subtree* (checkpointed skeletons make this
   local; implemented in
   :meth:`~repro.solvers.factorization.HierarchicalFactorization._recover_node`);
2. **move the frontier and finish with the hybrid** (Algorithm II.6,
   which never LU-factorizes the coalesced system): one level down
   after a :class:`~repro.exceptions.StabilityError`
   (:func:`descend_frontier`), or up to the deepest completed level
   after a :class:`~repro.exceptions.DeadlineExceededError`, with the
   finished factors transplanted;
3. **iterative fallback** — preconditioned GMRES directly on
   ``lambda I + K~`` (:class:`IterativeFallback`).

:func:`robust_solve` verifies a solve's residual and escalates to GMRES.
Every rung taken — plus the communication-fault history of distributed
runs — is recorded in a structured :class:`SolverHealth` report, so a
result always carries the story of how it was obtained.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import SolverConfig
from repro.exceptions import DeadlineExceededError, NotFactorizedError, StabilityError
from repro.hmatrix.hmatrix import HMatrix
from repro.obs import registry
from repro.resilience.deadline import Deadline
from repro.solvers.factorization import (
    HierarchicalFactorization,
    factorize,
    level_payload_nodes,
)
from repro.solvers.gmres import gmres, gmres_batched
from repro.solvers.stability import StabilityReport

__all__ = [
    "RecoveryEvent",
    "SolverHealth",
    "IterativeFallback",
    "descend_frontier",
    "robust_factorize",
    "robust_solve",
]


@dataclass
class RecoveryEvent:
    """One recovery action: a ladder rung taken or a fault recovered.

    ``stage`` is one of ``"lambda_bump"``, ``"escalation"``,
    ``"frontier_fallback"``, ``"frontier_freeze"``,
    ``"iterative_fallback"``, ``"solve_escalation"``, ``"coarsen"``,
    ``"rank_respawn"``, or ``"repartition"`` (elastic subtree
    reassignment after a permanent rank loss).
    """

    stage: str
    node_id: int | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class SolverHealth:
    """Structured report of every recovery step behind a result.

    Attributes
    ----------
    events:
        Chronological :class:`RecoveryEvent` list — one entry per
        lambda bump, fallback, solve escalation, and rank respawn.
    faults:
        Aggregate communication-fault counters (drops, corruptions,
        delays, retries, crashes, respawns, duplicates_suppressed,
        suspicions, confirmed_losses, stale_rejected, repartitions)
        from the distributed fabric, summed over ingested launches.
    final_path:
        Which solver ultimately produced the result: the configured
        method name, ``"hybrid"`` after rung 2 moved the frontier, or
        ``"iterative"``.
    """

    events: list[RecoveryEvent] = field(default_factory=list)
    faults: dict[str, int] = field(default_factory=dict)
    final_path: str = "direct"

    def record(self, stage: str, node_id: int | None = None, **detail) -> None:
        self.events.append(RecoveryEvent(stage=stage, node_id=node_id, detail=detail))
        registry().counter("recovery.events", stage=stage).inc()

    @property
    def degraded(self) -> bool:
        """True when any recovery rung was taken or any fault observed."""
        return bool(self.events) or any(self.faults.values())

    def ingest_factorization(self, fact: HierarchicalFactorization) -> None:
        """Absorb the lambda-bump events a factorization recorded."""
        for ev in fact.recovery_events:
            detail = {k: v for k, v in ev.items() if k not in ("stage", "node_id")}
            self.record(ev["stage"], ev.get("node_id"), **detail)

    def ingest_comm(self, stats) -> None:
        """Absorb a :class:`~repro.parallel.vmpi.fabric.CommStats`.

        Fault counters are summed; each supervisor crash recovery
        becomes a ``"rank_respawn"`` event.
        """
        for kind, n in stats.faults.items():
            self.faults[kind] = self.faults.get(kind, 0) + n
        for rec in stats.rank_recoveries:
            detail = {k: v for k, v in rec.items() if k not in ("stage", "rank")}
            self.record(rec.get("stage", "rank_respawn"), rec.get("rank"), **detail)

    def summary(self) -> dict:
        """Plain-dict digest for logs and diagnostics."""
        stages: dict[str, int] = {}
        for ev in self.events:
            stages[ev.stage] = stages.get(ev.stage, 0) + 1
        return {
            "final_path": self.final_path,
            "degraded": self.degraded,
            "n_events": len(self.events),
            "stages": stages,
            "faults": dict(self.faults),
        }


def descend_frontier(hmatrix: HMatrix) -> HMatrix | None:
    """``hmatrix`` with the frontier one level deeper (:meth:`HMatrix.with_frontier`).

    Every non-leaf frontier node whose children are skeletonized is
    replaced by its children.  Returns ``None`` when no node can descend
    (the frontier is already all leaves).
    """
    tree = hmatrix.tree
    new_frontier = []
    moved = False
    for f in hmatrix.frontier:
        if not tree.is_leaf(f):
            left, right = tree.children(f)
            if hmatrix.skeletons.is_skeletonized(
                left.id
            ) and hmatrix.skeletons.is_skeletonized(right.id):
                new_frontier.extend([left, right])
                moved = True
                continue
        new_frontier.append(f)
    return hmatrix.with_frontier(new_frontier) if moved else None


class IterativeFallback:
    """Ladder rung 3: GMRES on ``lambda I + K~``, factorization-shaped.

    Quacks like a :class:`HierarchicalFactorization` for the facade's
    purposes (``solve`` / ``residual`` / ``stability`` /
    ``reduced_iterations``), so callers switch paths transparently.
    With a ``preconditioner`` (any object with a working ``solve``,
    e.g. a degraded factorization), the solve is right-preconditioned:
    GMRES iterates on ``A M^{-1}`` and un-preconditions the result.
    """

    #: GMRES applies ``lambda I + K~`` itself, never an assembled matrix.
    reduced_operator = "matrix-free"

    def __init__(
        self,
        hmatrix: HMatrix,
        lam: float,
        config: SolverConfig | None = None,
        preconditioner=None,
    ) -> None:
        self.hmatrix = hmatrix
        self.lam = float(lam)
        self.config = config or SolverConfig()
        self.preconditioner = preconditioner
        self.stability = StabilityReport(enabled=False)
        self.reduced_iterations: list[int] = []
        self.reduced_histories: list[list[float]] = []

    def _op(self, v: np.ndarray) -> np.ndarray:
        if self.preconditioner is not None:
            v = self.preconditioner.solve(v)
        return self.hmatrix.regularized_matvec(self.lam, v)

    def solve(self, u: np.ndarray) -> np.ndarray:
        """``w ~= (lambda I + K~)^{-1} u`` by (preconditioned) GMRES."""
        u = np.asarray(u, dtype=np.float64)
        cfg = self.config.gmres
        if u.ndim == 1:
            res = gmres(self._op, u, cfg)
            self.reduced_iterations.append(res.n_iters)
            self.reduced_histories.append(res.residuals)
            y = res.x
        else:
            results = gmres_batched(self._op, u, cfg)
            for res in results:
                self.reduced_iterations.append(res.n_iters)
                self.reduced_histories.append(res.residuals)
            y = np.stack([res.x for res in results], axis=1)
        if self.preconditioner is not None:
            y = self.preconditioner.solve(y)
        return y

    def residual(self, u: np.ndarray, w: np.ndarray) -> float:
        r = u - self.hmatrix.regularized_matvec(self.lam, w)
        un = float(np.linalg.norm(u))
        return float(np.linalg.norm(r)) / un if un > 0 else float(np.linalg.norm(r))

    def factor_words(self) -> int:
        return 0

    storage_words = factor_words

    def slogdet(self) -> tuple[float, float]:
        raise NotFactorizedError(
            "the iterative fallback never factorizes; no determinant available"
        )


def robust_factorize(
    hmatrix: HMatrix,
    lam: float = 0.0,
    config: SolverConfig | None = None,
    health: SolverHealth | None = None,
    *,
    deadline=None,
    resume_nodes: dict[int, dict] | None = None,
    checkpoint=None,
) -> tuple[HierarchicalFactorization | IterativeFallback, SolverHealth]:
    """Factorize through the fallback ladder (docs/ROBUSTNESS.md).

    Returns ``(factorization, health)``; the factorization is an
    :class:`IterativeFallback` if both factorizing rungs failed.  The
    call itself is the opt-in: ``config.recovery.enabled`` is forced on.
    (:meth:`repro.FastKernelSolver.factorize` runs the same ladder with
    the configuration as given whenever recovery or resilience is armed.)

    ``deadline``, ``resume_nodes`` and ``checkpoint`` (a
    :class:`repro.resilience.Checkpoint`, whose levels matching
    ``(lam, config.method)`` are transplanted and which receives each
    level it factors) serve the *primary* attempt.  A spent deadline
    degrades when ``config.resilience`` is armed with ``degrade`` on,
    and propagates otherwise.
    """
    config = config or SolverConfig()
    if not config.recovery.enabled:
        config = replace(config, recovery=replace(config.recovery, enabled=True))
    return _ladder(
        hmatrix,
        lam,
        config,
        health or SolverHealth(),
        deadline=deadline,
        resume_nodes=resume_nodes,
        checkpoint=checkpoint,
    )


def _ladder(hmatrix, lam, config, health, *, deadline, resume_nodes, checkpoint):
    """The ladder behind :func:`robust_factorize`, for ``config`` as given."""
    resume: dict[int, dict] = {}
    on_level = None
    if checkpoint is not None:
        for payload in checkpoint.load_levels(lam=lam, method=config.method).values():
            resume.update(level_payload_nodes(payload))
    resume.update(resume_nodes or {})
    if checkpoint is not None:
        carried = {id(e) for p in resume.values() for e in p["recovery_events"]}
        seen = 0

        def on_level(level, fact):
            nonlocal seen
            levels = [level]
            if any(id(e) not in carried for e in fact.recovery_events[seen:]):
                # a lambda bump at this level re-factorized subtrees whose
                # deeper levels are already on disk: re-save those so a
                # later resume never mixes pre- and post-bump factors.
                levels += [lv for lv in fact.completed_levels if lv > level]
            seen = len(fact.recovery_events)
            for lv in levels:
                checkpoint.save_level(
                    lv, fact.export_level_payload(lv), lam=lam, method=config.method
                )

    partial: list[HierarchicalFactorization] = []
    rung3: dict = {}
    try:
        # ---- rung 1: the configured method, lambda bumps inside ---------
        try:
            fact = factorize(
                hmatrix,
                lam,
                config,
                deadline=deadline,
                resume_nodes=resume,
                on_level=on_level,
                partial_sink=partial,
            )
            health.ingest_factorization(fact)
            health.final_path = config.method
            return fact, health
        except StabilityError as exc:
            health.record("escalation", rung="factorize", error=repr(exc))
        # ---- rung 2 after a breakdown: the frontier one level down -------
        lowered = descend_frontier(hmatrix)
        fact = _finish_hybrid(
            lowered if lowered is not None else hmatrix,
            lam,
            config,
            health,
            "frontier_fallback",
            deadline=deadline,
            descended=lowered is not None,
        )
    except DeadlineExceededError as exc:
        res = config.resilience
        if not (res.active and res.degrade):
            raise
        health.record("escalation", rung="deadline", error=repr(exc))
        # ---- rung 2 after a spent deadline: the deepest completed level --
        fact0 = partial[0]
        cut = min(fact0.completed_levels, default=0)
        fact = None
        # a frontier at the root (level 0) is the whole problem: the
        # reduced system would be as big as the original.
        if cut >= 1:
            frontier = [f for f in hmatrix.frontier if f.level > cut]
            frontier += [
                n for n in hmatrix._nodes_at_or_below_frontier() if n.level == cut
            ]
            fact = _finish_hybrid(
                hmatrix.with_frontier(sorted(frontier, key=lambda n: n.lo)),
                lam,
                config,
                health,
                "frontier_freeze",
                # the budget already spoke: the cheap tail runs unlimited.
                deadline=Deadline(),
                resume_nodes={
                    nid: fact0.export_node_payload(nid)
                    for nid in (*fact0.leaf_factors, *fact0.node_factors)
                },
                level=cut,
            )
        rung = "frontier_freeze" if fact is not None else "iterative"
        registry().counter("resilience.degradation", rung=rung).inc()
        rung3 = {"rung": "deadline"}
    if fact is not None:
        return fact, health

    # ---- rung 3: iterative fallback -------------------------------------
    health.record("iterative_fallback", **rung3)
    health.final_path = "iterative"
    return IterativeFallback(hmatrix, lam, config), health


def _finish_hybrid(
    target, lam, config, health, stage, *, deadline, resume_nodes=None, **detail
):
    """Rung 2: the hybrid method below ``target``'s moved frontier.

    Returns the factorization, or ``None`` after a breakdown.
    """
    try:
        fact = factorize(
            target,
            lam,
            replace(config, method="hybrid"),
            deadline=deadline,
            resume_nodes=resume_nodes,
        )
    except StabilityError as exc:
        health.record("escalation", rung=stage, error=repr(exc))
        return None
    health.ingest_factorization(fact)
    health.record(stage, **detail, frontier_size=len(target.frontier))
    health.final_path = "hybrid"
    return fact


def robust_solve(
    fact: HierarchicalFactorization | IterativeFallback,
    u: np.ndarray,
    config: SolverConfig | None = None,
    health: SolverHealth | None = None,
) -> tuple[np.ndarray, SolverHealth]:
    """Solve with residual verification and iterative escalation.

    Runs ``fact.solve``, *measures* the relative residual against the
    fast matvec, and — when it exceeds
    ``config.recovery.solve_residual_limit`` (e.g. after a silent GMRES
    breakdown in the hybrid reduced solve) — re-solves with GMRES on the
    full operator, preconditioned by the degraded factorization, keeping
    whichever answer is better.  Every escalation lands in ``health``.
    """
    config = config or getattr(fact, "config", None) or SolverConfig()
    health = health or SolverHealth()
    rec = config.recovery
    limit = rec.solve_residual_limit

    w = fact.solve(u)
    rel = fact.residual(u, w)
    if np.isfinite(rel) and rel <= limit:
        return w, health

    health.record("solve_escalation", residual=float(rel), limit=limit)
    best_w, best_rel = w, rel

    # right-preconditioning with the factorization is only sound when
    # its worst block is comfortably nonsingular — applying a
    # near-singular M^{-1} perturbs the operator GMRES sees by
    # O(eps/rcond) per matvec, which breaks the Arnoldi recursion and
    # produces *false* convergence.  Fall through to plain GMRES on
    # ``lambda I + K~`` (whose residual recursion is monotone) and keep
    # the best verified answer.
    preconds = []
    if (
        isinstance(fact, HierarchicalFactorization)
        and fact.stability.min_rcond >= rec.rcond_breakdown
    ):
        preconds.append(fact)
    preconds.append(None)
    for precond in preconds:
        fallback = IterativeFallback(
            fact.hmatrix, fact.lam, config, preconditioner=precond
        )
        w_it = fallback.solve(u)
        rel_it = fallback.residual(u, w_it)
        health.record(
            "iterative_fallback",
            preconditioned=precond is not None,
            residual=float(rel_it),
        )
        if np.isfinite(rel_it) and rel_it < best_rel:
            best_w, best_rel = w_it, rel_it
            health.final_path = "iterative"
        if np.isfinite(best_rel) and best_rel <= limit:
            break
    return best_w, health
