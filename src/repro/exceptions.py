"""Exception and warning types for :mod:`repro`.

The solver distinguishes *usage* errors (bad arguments, calling ``solve``
before ``factorize``) from *numerical* conditions detected at runtime
(ill-conditioned diagonal blocks, per paper section III).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NotFactorizedError",
    "NotSkeletonizedError",
    "ConfigurationError",
    "StabilityError",
    "StabilityWarning",
    "ConvergenceWarning",
    "CommunicatorError",
    "DeadlockError",
    "FaultInjectionError",
    "RankCrashError",
    "RankHangError",
    "RankLostError",
    "ServeUnavailableError",
    "DeadlineExceededError",
    "BudgetExhaustedError",
    "CheckpointError",
    "OverloadedError",
    "ResidentEvictedError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter combination was supplied."""


class NotSkeletonizedError(ReproError, RuntimeError):
    """An operation required skeletons that have not been computed."""


class NotFactorizedError(ReproError, RuntimeError):
    """``solve`` was called before ``factorize``."""


class StabilityError(ReproError, ArithmeticError):
    """The factorization is numerically unstable beyond recovery.

    Raised when a diagonal block or reduced system is singular to working
    precision.  Paper section III: with a small regularization ``lambda``
    and a narrow bandwidth ``h``, ``lambda*I + D`` can become poorly
    conditioned even when ``lambda*I + K`` is fine; the method can detect
    but not repair this while staying log-linear.
    """


class StabilityWarning(UserWarning):
    """A diagonal block or reduced system is ill-conditioned.

    The factorization proceeds, but the computed solution may be
    inaccurate.  Mirrors the detection behaviour described for
    experiment #30 in the paper.
    """


class ConvergenceWarning(UserWarning):
    """An iterative solve stopped before reaching its tolerance."""


class CommunicatorError(ReproError, RuntimeError):
    """Misuse of the virtual MPI communicator API."""


class DeadlockError(CommunicatorError):
    """A virtual MPI operation timed out waiting for a peer."""


class FaultInjectionError(CommunicatorError):
    """A receive exhausted its retransmission budget under injected
    faults (the link is treated as down, not merely lossy)."""


class RankCrashError(CommunicatorError):
    """An injected rank crash (chaos testing).

    Raised *inside* the victim rank by the fault plan; the SPMD
    supervisor catches it and re-routes the dead rank's work instead of
    aborting the launch (see :mod:`repro.parallel.vmpi.runtime`).
    """


class RankHangError(CommunicatorError):
    """An injected rank *hang* (chaos testing of failure detection).

    Unlike :class:`RankCrashError` — which the victim reports to the
    supervisor before exiting — a hang models a network partition or a
    wedged host: the rank silently stops participating while its TCP
    connection stays open.  Only a backend with a heartbeat failure
    detector (the socket backend; see
    :mod:`repro.parallel.vmpi.membership`) can recover from it.
    """


class RankLostError(CommunicatorError):
    """A rank was declared *permanently* lost by the supervisor.

    Raised by ``run_spmd(..., elastic=True)`` when a rank dies (crash
    with the respawn budget exhausted, or a heartbeat-confirmed hang)
    and log-replay respawn is no longer an option.  Carries everything
    the caller needs to repartition the lost rank's work onto the
    survivors:

    * ``rank`` — the world rank that was lost;
    * ``epoch`` — the membership epoch *after* the loss was confirmed
      (messages from earlier epochs are stale and must be rejected);
    * ``checkpoints`` — ``{world_rank: payload}`` of the most recent
      per-rank checkpoint posted via ``Communicator.checkpoint`` by the
      *surviving* ranks (the dead rank's checkpoint is discarded: its
      host is gone);
    * ``stats`` — the aborted launch's :class:`CommStats`.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int,
        epoch: int = 0,
        checkpoints: dict | None = None,
        stats=None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.epoch = epoch
        self.checkpoints = checkpoints if checkpoints is not None else {}
        self.stats = stats


class ServeUnavailableError(ReproError, ConnectionError):
    """The serve daemon stayed unreachable after the retry budget.

    Raised by :class:`repro.serve.ServeClient` once capped
    exponential backoff (mirroring the fabric's
    :class:`repro.parallel.vmpi.RetryPolicy`) has been exhausted on
    transient connect/read failures.  Distinct from
    :class:`OverloadedError`: the daemon never answered at all, so the
    caller should fail over to another replica rather than retry the
    same one.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A cooperative cancellation point found the deadline expired.

    Raised by :class:`repro.resilience.Deadline.check` between tree
    nodes / factorization levels / solver iterations.  With degradation
    enabled (the default when a deadline is configured) the facade
    catches this and steps down the degradation ladder instead of
    letting it escape (see docs/ROBUSTNESS.md).
    """


class BudgetExhaustedError(DeadlineExceededError):
    """A :class:`repro.resilience.WorkBudget` ran out of work units.

    Subclasses :class:`DeadlineExceededError` so one handler covers
    both forms of "out of budget" — wall-clock and work-unit.
    """


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint could not be written, or refused to load.

    Raised on schema/config-fingerprint mismatches, payload checksum
    failures, and truncated or missing payload files — loading never
    silently produces a solver built from the wrong state.
    """


class OverloadedError(ReproError, RuntimeError):
    """The serving layer shed this request to protect resident work.

    Raised by :class:`repro.serve.SolverService` admission control when
    the pending-request queue is full (or a model will not fit the
    registry budget).  Distinct from :class:`DeadlineExceededError`:
    the request was refused *before* any work was spent on it, so the
    client can safely retry against another replica or after backoff.
    The CLI/daemon map it to exit/status code
    :data:`repro.cli.EXIT_OVERLOADED`.
    """


class ResidentEvictedError(ReproError, KeyError):
    """A resident model vanished between lookup and use.

    Raised by :meth:`repro.serve.ModelRegistry.peek` when the
    fingerprint was resident at dispatch time but was evicted — or
    invalidated by an in-place :meth:`~repro.serve.ModelRegistry.update_resident`
    — before the solve pinned it.  Subclasses :class:`KeyError` so
    callers treating "not resident" generically keep working; the
    daemon maps it to status ``"evicted"`` so clients can distinguish
    "reload and retry" from a plain unknown-model usage error.
    """
