"""Request coalescing: many concurrent single-RHS solves, one batched call.

The batched multi-RHS path (one ``(N, k)`` panel through
``gmres_batched``) is several times faster than ``k`` separate
single-RHS solves (``benchmarks/test_ext_serving.py`` measures it end
to end through the service).  A serving daemon is exactly the
workload that can exploit it: many independent clients ask for one
column each, at the same time, against the same resident model.
:class:`RequestCoalescer` collects those requests for a small window,
stacks them column-wise, runs **one** batched solve, and scatters the
per-column results (and per-column residual/iteration info) back to
each caller.

Semantics (docs/SERVING.md):

* the first request against a model opens a batch; the batch flushes
  when its window closes or it reaches ``max_batch`` columns;
* requests whose deadline has already expired at flush time are shed
  with :class:`~repro.exceptions.DeadlineExceededError` and do not
  join the stack;
* the batch runs under the *loosest* member deadline (every member
  consented to wait for the batch; the tightest member's budget is
  enforced at admission and at flush, never by soft-stopping the whole
  batch at the tightest clock);
* a failing batch falls back to per-column solo solves, so one
  poisoned request cannot fail its batchmates — only the poisoned
  column gets its error.

All waiting happens in the submitting threads; one background flusher
thread executes the batched solves.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Hashable

import numpy as np

from repro.exceptions import DeadlineExceededError, OverloadedError
from repro.obs import registry as metrics_registry
from repro.resilience import Deadline

__all__ = ["RequestCoalescer"]

#: flush callback: (key, U (n, k), deadline, metas) -> k per-column results.
FlushFn = Callable[[Hashable, np.ndarray, "Deadline | None", list[dict]], list[Any]]


class _Pending:
    __slots__ = ("rhs", "deadline", "meta", "event", "result", "error")

    def __init__(self, rhs: np.ndarray, deadline, meta: dict) -> None:
        self.rhs = rhs
        self.deadline = deadline
        self.meta = meta
        self.event = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None

    def complete(self, result: Any = None, error: BaseException | None = None):
        self.result = result
        self.error = error
        self.event.set()


class _Batch:
    __slots__ = ("opened_at", "items")

    def __init__(self, opened_at: float) -> None:
        self.opened_at = opened_at
        self.items: list[_Pending] = []


def _loosest_deadline(items: list[_Pending]):
    """The batch deadline: the member with the most remaining budget
    (``None`` — unlimited — if any member is unlimited)."""
    loosest = None
    best = -1.0
    for req in items:
        if req.deadline is None:
            return None
        remaining = req.deadline.remaining()
        if remaining > best:
            best = remaining
            loosest = req.deadline
    return loosest


class RequestCoalescer:
    """Batches concurrent single-column requests per key (resident model).

    Parameters
    ----------
    flush_fn:
        ``flush_fn(key, U, deadline, metas) -> list`` solving the
        ``(n, k)`` panel ``U`` and returning one result per column (in
        column order).  Raising fails over to per-column solo calls.
    window_seconds / max_batch:
        See :class:`repro.serve.ServeConfig`.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        flush_fn: FlushFn,
        *,
        window_seconds: float = 0.005,
        max_batch: int = 32,
        clock=time.monotonic,
    ) -> None:
        if window_seconds < 0:
            raise ValueError(f"window_seconds must be >= 0; got {window_seconds}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1; got {max_batch}")
        self._flush_fn = flush_fn
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self._clock = clock
        self._cond = threading.Condition()
        self._queues: dict[Hashable, _Batch] = {}
        self._closed = False
        # local counters (mirrored into the metrics registry) so
        # health() works even on a non-default registry.
        self._requests = 0
        self._batches = 0
        self._coalesced_batches = 0  # batches with >= 2 columns
        self._max_batch_seen = 0
        self._shed_expired = 0
        self._batch_failures = 0
        self._poisoned = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-coalescer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        key: Hashable,
        rhs: np.ndarray,
        *,
        deadline: Deadline | None = None,
        meta: dict | None = None,
    ) -> Any:
        """Queue one single-RHS request and block until its batch flushes.

        Returns the per-column result from ``flush_fn``; re-raises the
        per-request error (shed deadline, poisoned column, ...) in the
        caller's thread.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim != 1:
            raise ValueError(
                f"submit() coalesces single-RHS vectors; got shape {rhs.shape}"
            )
        req = _Pending(rhs, deadline, dict(meta or {}))
        with self._cond:
            if self._closed:
                raise OverloadedError("coalescer is shut down")
            batch = self._queues.get(key)
            if batch is None:
                batch = self._queues[key] = _Batch(self._clock())
            batch.items.append(req)
            self._requests += 1
            self._cond.notify_all()
        metrics_registry().counter("serve.coalesce.requests").inc()
        req.event.wait()
        if req.error is not None:
            raise req.error
        return req.result

    def flush_now(self) -> None:
        """Flush every open batch immediately (tests, shutdown drain)."""
        with self._cond:
            batches = [(k, self._queues.pop(k)) for k in list(self._queues)]
        for key, batch in batches:
            self._flush(key, batch)

    def close(self) -> None:
        """Stop accepting requests, drain open batches, join the flusher."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join()
        self.flush_now()

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _due_keys(self, now: float) -> list[Hashable]:
        return [
            key
            for key, batch in self._queues.items()
            if len(batch.items) >= self.max_batch
            or now - batch.opened_at >= self.window_seconds
        ]

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._closed:
                    due = self._due_keys(self._clock())
                    if due:
                        break
                    if self._queues:
                        next_due = min(
                            b.opened_at + self.window_seconds
                            for b in self._queues.values()
                        )
                        self._cond.wait(max(next_due - self._clock(), 0.0) + 1e-4)
                    else:
                        self._cond.wait()
                if self._closed:
                    # close() drains what remains after the join.
                    return
                batches = [(key, self._queues.pop(key)) for key in due]
            for key, batch in batches:
                self._flush(key, batch)

    # ------------------------------------------------------------------
    def _flush(self, key: Hashable, batch: _Batch) -> None:
        reg = metrics_registry()
        live: list[_Pending] = []
        for req in batch.items:
            if req.deadline is not None and req.deadline.expired:
                self._shed_expired += 1
                reg.counter("serve.coalesce.shed_expired").inc()
                req.complete(error=DeadlineExceededError(
                    "request deadline expired while waiting in the "
                    "coalescing window"
                ))
            else:
                live.append(req)
        if not live:
            return
        with self._cond:
            self._batches += 1
            if len(live) > 1:
                self._coalesced_batches += 1
            self._max_batch_seen = max(self._max_batch_seen, len(live))
        reg.counter("serve.coalesce.batches").inc()
        reg.histogram("serve.coalesce.batch_size").observe(len(live))
        try:
            U = np.stack([req.rhs for req in live], axis=1)
            results = self._flush_fn(
                key, U, _loosest_deadline(live), [req.meta for req in live]
            )
            if len(results) != len(live):  # pragma: no cover - contract guard
                raise RuntimeError(
                    f"flush_fn returned {len(results)} results for "
                    f"{len(live)} columns"
                )
        except BaseException:
            self._batch_failures += 1
            reg.counter("serve.coalesce.batch_failures").inc()
            self._flush_solo(key, live)
            return
        for req, result in zip(live, results):
            req.complete(result=result)

    def _flush_solo(self, key: Hashable, live: list[_Pending]) -> None:
        """Failover: solve each column alone so a poisoned request only
        fails itself, never its batchmates."""
        reg = metrics_registry()
        for req in live:
            try:
                results = self._flush_fn(
                    key, req.rhs[:, None], req.deadline, [req.meta]
                )
                req.complete(result=results[0])
            except BaseException as exc:
                self._poisoned += 1
                reg.counter("serve.coalesce.poisoned").inc()
                req.complete(error=exc)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-friendly digest for the health endpoint."""
        with self._cond:
            return {
                "requests": self._requests,
                "batches": self._batches,
                "coalesced_batches": self._coalesced_batches,
                "max_batch": self._max_batch_seen,
                "shed_expired": self._shed_expired,
                "batch_failures": self._batch_failures,
                "poisoned": self._poisoned,
                "window_seconds": self.window_seconds,
                "max_batch_limit": self.max_batch,
            }
