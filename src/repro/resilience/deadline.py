"""Monotonic-clock deadlines and work budgets with cooperative checks.

A :class:`Deadline` is created once at the top of a pipeline (the
facade builds it from ``SolverConfig.resilience``) and *installed* for
the duration of the work with :func:`deadline_scope`.  Deep code —
skeletonization levels, factorization nodes, GMRES/CG iterations —
calls :func:`check_deadline` (or reads :func:`current_deadline` once
and polls ``expired``) at natural cancellation points.  When no
deadline is installed every check is a single ``ContextVar`` read (or
a pre-resolved ``None`` test), so the un-budgeted paths keep their
performance.

Checks are *cooperative*: a BLAS call in flight is never interrupted,
so cancellation latency is bounded by the largest single dense
operation (one leaf LU, one reduced-system solve), not by the whole
factorization.

Thread propagation: a ``ContextVar`` does not cross thread spawns, so
``run_spmd``, which fans work out to rank threads, captures
:func:`current_deadline` in the caller and re-installs it inside each
rank.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from dataclasses import dataclass

from repro.exceptions import BudgetExhaustedError, DeadlineExceededError

__all__ = [
    "CoarsenPolicy",
    "Deadline",
    "WorkBudget",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]


class WorkBudget:
    """A counted budget of abstract work units (e.g. node factorizations).

    Deterministic companion to the wall-clock deadline: tests and
    reproducible degradation runs trip on an exact unit count instead
    of a racy timer.

    Parameters
    ----------
    limit:
        Maximum units; ``None`` means unlimited.
    """

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"work budget limit must be >= 0; got {limit}")
        self.limit = limit
        self.used = 0
        # concurrent solves against one resident solver charge the same
        # budget; an unlocked `used += units` loses updates under
        # threads, silently inflating the budget.
        self._lock = threading.Lock()

    # -- pickling: locks are not picklable; recreate on load -------------
    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.used >= self.limit

    def remaining(self) -> float:
        if self.limit is None:
            return float("inf")
        return max(0, self.limit - self.used)

    def charge(self, units: int = 1, where: str = "") -> None:
        """Consume ``units``; raise once the budget is exhausted."""
        with self._lock:
            self.used += units
            used = self.used
        if self.limit is not None and used >= self.limit:
            raise BudgetExhaustedError(
                f"work budget exhausted ({used}/{self.limit} units"
                + (f" at {where}" if where else "")
                + ")"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkBudget(used={self.used}, limit={self.limit})"


class Deadline:
    """A monotonic-clock deadline, optionally paired with a work budget.

    The clock starts at construction.  ``seconds=None`` means no time
    limit (useful to carry only a :class:`WorkBudget`); an entirely
    limitless deadline is legal and never expires.

    Parameters
    ----------
    seconds:
        Wall-clock budget from construction, or ``None``.
    budget:
        Optional :class:`WorkBudget` checked alongside the clock.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        seconds: float | None = None,
        *,
        budget: WorkBudget | None = None,
        clock=time.monotonic,
    ) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError(f"deadline seconds must be >= 0; got {seconds}")
        self._clock = clock
        self._start = clock()
        self.seconds = seconds
        self.budget = budget

    @classmethod
    def after(cls, seconds: float, **kwargs) -> "Deadline":
        return cls(seconds, **kwargs)

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left (``inf`` when untimed, clamped at 0.0)."""
        if self.seconds is None:
            return float("inf")
        return max(0.0, self.seconds - self.elapsed())

    @property
    def expired(self) -> bool:
        if self.budget is not None and self.budget.exhausted:
            return True
        return self.seconds is not None and self.elapsed() >= self.seconds

    def fraction_used(self) -> float:
        """Pressure gauge in [0, inf): elapsed / budget (0 when untimed)."""
        if self.seconds is None or self.seconds <= 0.0:
            return float("inf") if self.seconds == 0.0 else 0.0
        return self.elapsed() / self.seconds

    # ------------------------------------------------------------------
    def check(self, where: str = "") -> None:
        """Cooperative cancellation point: raise when out of budget."""
        if self.budget is not None and self.budget.exhausted:
            raise BudgetExhaustedError(
                f"work budget exhausted ({self.budget.used}/"
                f"{self.budget.limit} units"
                + (f" at {where}" if where else "")
                + ")"
            )
        if self.seconds is not None and self.elapsed() >= self.seconds:
            raise DeadlineExceededError(
                f"deadline of {self.seconds:.3f}s exceeded "
                f"({self.elapsed():.3f}s elapsed"
                + (f" at {where}" if where else "")
                + ")"
            )

    def charge(self, units: int = 1, where: str = "") -> None:
        """Consume work units (if budgeted) and check the clock."""
        if self.budget is not None:
            self.budget.charge(units, where)
        self.check(where)

    def summary(self) -> dict:
        """JSON-friendly digest for telemetry and reports."""
        out: dict = {
            "seconds": self.seconds,
            "elapsed": self.elapsed(),
            "expired": self.expired,
        }
        if self.budget is not None:
            out["work_used"] = self.budget.used
            out["work_limit"] = self.budget.limit
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(seconds={self.seconds}, elapsed={self.elapsed():.3f}, "
            f"budget={self.budget})"
        )


@dataclass(frozen=True)
class CoarsenPolicy:
    """Rung 1 of the degradation ladder: coarsen the rank tolerance.

    Skeletonization watches :meth:`Deadline.fraction_used` at level
    boundaries; each time the pressure crosses the next threshold the
    effective ``tau`` is multiplied by ``tau_factor`` (coarser
    tolerance → smaller skeletons → cheaper remaining levels).  The
    thresholds halve the remaining headroom each step:
    ``pressure, (1+pressure)/2, (3+pressure)/4, ...``.

    Attributes
    ----------
    pressure:
        Budget fraction at which the first coarsening triggers.
    tau_factor:
        Multiplier applied to ``tau`` per rung step.
    max_steps:
        Cap on coarsening steps (``tau`` never exceeds 0.5).
    """

    pressure: float = 0.5
    tau_factor: float = 10.0
    max_steps: int = 3

    def thresholds(self) -> list[float]:
        out, p = [], self.pressure
        for _ in range(self.max_steps):
            out.append(p)
            p = (1.0 + p) / 2.0
        return out


# ------------------------------------------------------------------
# the installed deadline (per-thread; executors re-install explicitly)
# ------------------------------------------------------------------
_current: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The deadline installed by the innermost :func:`deadline_scope`."""
    return _current.get()


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None):
    """Install ``deadline`` for the duration of the block.

    ``None`` is accepted and installs nothing, so call sites can write
    ``with deadline_scope(maybe_none):`` unconditionally.
    """
    if deadline is None:
        yield None
        return
    token = _current.set(deadline)
    try:
        yield deadline
    finally:
        _current.reset(token)


def check_deadline(where: str = "") -> None:
    """Check the installed deadline, if any (no-op otherwise)."""
    deadline = _current.get()
    if deadline is not None:
        deadline.check(where)
