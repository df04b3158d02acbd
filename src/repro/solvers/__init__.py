"""Factorization and solve algorithms (paper sections II-B and II-C).

* :func:`factorize` — build a :class:`HierarchicalFactorization` of
  ``lambda I + K~`` with one of the paper's methods:

  - ``"nlogn"`` / ``"direct"``: Algorithm II.2 with the telescoping
    identity (eq. 10) — O(N log N) work (the paper's contribution);
  - ``"nlog2n"``: the INV-ASKIT [36] baseline that re-solves on every
    subtree — O(N log^2 N) work, *identical factors* up to roundoff;
  - ``"hybrid"``: partial factorization up to the skeletonization
    frontier + GMRES on the reduced system (Algorithm II.6), matrix-free
    until its applications have cost one assembly of the system.

* :mod:`repro.solvers.gmres` — the Krylov solver (one lockstep core,
  batched CGS2).
"""

from repro.solvers.factorization import HierarchicalFactorization, factorize
from repro.solvers.gmres import GMRESResult, gmres, gmres_batched
from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.estimators import effective_dof, estimate_diagonal, hutchinson_trace
from repro.solvers.preconditioned import PreconditionedSolveResult, solve_exact
from repro.solvers.recovery import (
    IterativeFallback,
    RecoveryEvent,
    SolverHealth,
    descend_frontier,
    robust_factorize,
    robust_solve,
)
from repro.solvers.stability import StabilityReport, estimate_rcond, is_breakdown

__all__ = [
    "HierarchicalFactorization",
    "factorize",
    "GMRESResult",
    "gmres",
    "gmres_batched",
    "CGResult",
    "conjugate_gradient",
    "hutchinson_trace",
    "estimate_diagonal",
    "effective_dof",
    "PreconditionedSolveResult",
    "solve_exact",
    "StabilityReport",
    "estimate_rcond",
    "is_breakdown",
    "RecoveryEvent",
    "SolverHealth",
    "IterativeFallback",
    "descend_frontier",
    "robust_factorize",
    "robust_solve",
]
