"""Wall-clock timing helpers for the benchmark harnesses.

:class:`StageTimes` is a thin view over the observability layer's
spans: :meth:`StageTimes.time` opens a :mod:`repro.obs` span (with
counter deltas attached), so stage timings show up both in the paper's
ASKIT/Tf/Ts accounting *and* in the ``repro trace`` span tree from one
call site.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["Timer", "StageTimes"]


class Timer:
    """Context-manager stopwatch (re-usable).

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._start is None:
            raise RuntimeError(
                "Timer.__exit__ called without a matching __enter__ "
                "(the timer was never started, or was already stopped)"
            )
        self.elapsed = time.perf_counter() - self._start
        self._start = None


@dataclass
class StageTimes:
    """Named stage timings (tree build, skeletonize, factorize, solve).

    Mirrors the columns the paper reports: ASKIT build time, ``Tf``
    (factorization time) and ``Ts`` (solve time).  Accumulation is
    thread-safe — concurrent solves add to the same stage.
    """

    stages: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.stages[name] = self.stages.get(name, 0.0) + seconds

    def time(self, name: str):
        """Context manager: an obs span named ``name`` whose duration
        accumulates into stage ``name`` on exit."""
        outer = self
        # deferred import: repro.obs must not be required just to
        # construct a StageTimes (and it avoids an import cycle).
        from repro.obs import tracer

        class _Stage:
            def __enter__(self_inner):
                self_inner._handle = tracer().span(name, counters=True)
                self_inner._t = time.perf_counter()
                self_inner._handle.__enter__()
                return self_inner

            def __exit__(self_inner, *exc):
                self_inner._handle.__exit__(*exc)
                outer.add(name, time.perf_counter() - self_inner._t)

        return _Stage()

    # -- pickling: locks are not picklable; recreate on load -------------
    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __getitem__(self, name: str) -> float:
        with self._lock:
            return self.stages.get(name, 0.0)

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self.stages.values())
