"""Numerical recovery ladder + solver health reporting (docs/ROBUSTNESS.md).

When a factorization or solve hits numerical breakdown (an rcond
estimate below ``RecoveryConfig.rcond_breakdown``, or a GMRES
Hessenberg breakdown), :func:`robust_factorize` / :func:`robust_solve`
escalate through a fixed ladder instead of returning garbage:

1. **lambda bump** — re-regularize the offending diagonal block(s) and
   re-factorize *just that subtree* (checkpointed skeletons make this
   local; implemented in
   :meth:`~repro.solvers.factorization.HierarchicalFactorization._recover_node`);
2. **frontier fallback** — move the skeletonization frontier one level
   down and retry with the hybrid method (Algorithm II.6), which never
   LU-factorizes the coalesced system;
3. **iterative fallback** — preconditioned GMRES directly on
   ``lambda I + K~`` (:class:`IterativeFallback`).

Every rung taken — plus the communication-fault history of distributed
runs — is recorded in a structured :class:`SolverHealth` report, so a
result always carries the story of how it was obtained.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import SolverConfig
from repro.exceptions import NotFactorizedError, StabilityError
from repro.hmatrix.hmatrix import HMatrix
from repro.solvers.factorization import HierarchicalFactorization, factorize
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
    ``"frontier_fallback"``, ``"iterative_fallback"``,
    ``"solve_escalation"``, ``"rank_respawn"``, or ``"repartition"``
    (elastic subtree reassignment after a permanent rank loss).
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
        method name, ``"hybrid"`` after a frontier fallback, or
        ``"iterative"``.
    """

    events: list[RecoveryEvent] = field(default_factory=list)
    faults: dict[str, int] = field(default_factory=dict)
    final_path: str = "direct"

    def record(self, stage: str, node_id: int | None = None, **detail) -> None:
        self.events.append(RecoveryEvent(stage=stage, node_id=node_id, detail=detail))
        from repro.obs import registry

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
    """A shallow copy of ``hmatrix`` with the frontier one level deeper.

    Every non-leaf frontier node whose children are skeletonized is
    replaced by its children (skeletons, blocks, and the cache are
    shared — only the factorization boundary moves).  Returns ``None``
    when no node can descend (the frontier is already all leaves).
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
    if not moved:
        return None
    lowered = copy.copy(hmatrix)
    lowered.frontier = new_frontier
    lowered._frontier_ids = {f.id for f in new_frontier}
    lowered._below = lowered._nodes_at_or_below_frontier()
    return lowered


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

    def storage_words(self) -> int:
        return 0

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
    resume_levels: dict[int, dict] | None = None,
    resume_nodes: dict[int, dict] | None = None,
    on_level=None,
    partial_sink: list | None = None,
) -> tuple[HierarchicalFactorization | IterativeFallback, SolverHealth]:
    """Factorize with the recovery ladder armed (docs/ROBUSTNESS.md).

    Returns ``(factorization, health)``; the factorization is an
    :class:`IterativeFallback` if both factorizing rungs failed.  The
    call itself is the opt-in: ``config.recovery.enabled`` is forced on.

    The keyword-only arguments are passed through to
    :func:`~repro.solvers.factorization.factorize` for the *primary*
    attempt (deadline charging, checkpoint resume/write hooks; see
    :mod:`repro.resilience`).  Fallback rungs keep the deadline but not
    the checkpoint hooks — their factors belong to a different frontier
    and must not overwrite the primary factorization's levels.
    """
    config = config or SolverConfig()
    if not config.recovery.enabled:
        config = replace(config, recovery=replace(config.recovery, enabled=True))
    health = health or SolverHealth()

    try:
        fact = factorize(
            hmatrix,
            lam,
            config,
            deadline=deadline,
            resume_levels=resume_levels,
            resume_nodes=resume_nodes,
            on_level=on_level,
            partial_sink=partial_sink,
        )
        health.ingest_factorization(fact)
        health.final_path = config.method
        return fact, health
    except StabilityError as exc:
        health.record("escalation", rung="factorize", error=repr(exc))

    lowered = descend_frontier(hmatrix)
    target = lowered if lowered is not None else hmatrix
    hybrid_config = replace(config, method="hybrid")
    try:
        fact = factorize(target, lam, hybrid_config, deadline=deadline)
        health.ingest_factorization(fact)
        health.record(
            "frontier_fallback",
            descended=lowered is not None,
            frontier_size=len(target.frontier),
        )
        health.final_path = "hybrid"
        return fact, health
    except StabilityError as exc:
        health.record("escalation", rung="frontier_fallback", error=repr(exc))

    health.record("iterative_fallback")
    health.final_path = "iterative"
    return IterativeFallback(hmatrix, lam, config), health


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
