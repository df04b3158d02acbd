"""Resilient execution: deadlines, work budgets, checkpoint/restart.

The paper's value proposition is a *predictable* O(N log N)
factorization; this layer makes the reproduction predictable under
operational pressure too:

* :mod:`repro.resilience.deadline` — a monotonic-clock
  :class:`Deadline` / :class:`WorkBudget` threaded through tree build,
  skeletonization, per-level factorization, the iterative solvers, and
  ``run_spmd``, with cooperative cancellation checks at tree-node /
  level / iteration granularity;
* :mod:`repro.resilience.checkpoint` — the versioned on-disk
  ``repro.checkpoint/v1`` format: content checksums, config
  fingerprints, refuse-to-load-on-mismatch, so an interrupted
  factorization resumes from the last completed level.

Deadline pressure coarsens the rank tolerance during skeletonization;
a deadline spent during factorization takes the one fallback ladder,
:func:`repro.solvers.recovery.robust_factorize` (freeze the frontier
at the deepest completed level and finish with the hybrid GMRES path,
then preconditioned iterative fallback), every rung recorded in
:class:`repro.solvers.recovery.SolverHealth`.

See docs/ROBUSTNESS.md sections 3 and 6–8 for the full guide.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    config_fingerprint,
)
from repro.resilience.deadline import (
    CoarsenPolicy,
    Deadline,
    WorkBudget,
    check_deadline,
    current_deadline,
    deadline_scope,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CoarsenPolicy",
    "Deadline",
    "WorkBudget",
    "check_deadline",
    "config_fingerprint",
    "current_deadline",
    "deadline_scope",
]
