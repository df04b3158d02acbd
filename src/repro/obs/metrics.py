"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` instance per process answers "what did
this solve actually do?" — every telemetry island of the library
(:class:`~repro.perf.BlockCache`, the virtual-MPI fabric, the recovery
ladder, GMRES/CG) publishes into it instead of keeping private
counters.  Series are identified by a metric name plus a small set of
string labels (``fabric.faults{kind=drops, rank=2}``), mirroring the
Prometheus data model without any of its machinery.

Handles (:class:`Counter`, :class:`Gauge`, :class:`Histogram`) are
memoized per ``(name, labels)`` and each carries its own lock, so
hot-path increments never contend on the registry lock.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import weakref
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_label_scope",
    "label_scope",
    "registry",
    "set_registry",
]


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# ------------------------------------------------------------------
# label scoping: attribute series to the entity doing the work
# ------------------------------------------------------------------
# A long-lived process serving several resident solvers emits the same
# metric names (gmres.iterations, recovery.events, ...) on behalf of
# different models; without attribution the series interleave and the
# per-model health endpoint cannot tell them apart.  label_scope()
# installs extra labels for the current (thread's) context; the handle
# factories below fold them into every series created inside the scope.
# Explicit labels at the call site win over scope labels of the same
# name.  Scopes nest (inner scope wins per key) and, like the deadline
# ContextVar, do not cross thread spawns — executors re-install.
_scope: contextvars.ContextVar[tuple[tuple[str, str], ...]] = contextvars.ContextVar(
    "repro_metric_labels", default=()
)


def current_label_scope() -> dict[str, str]:
    """The labels installed by the innermost :func:`label_scope`."""
    return dict(_scope.get())


@contextlib.contextmanager
def label_scope(**labels: str):
    """Attach ``labels`` to every metric series created in the block.

    ``label_scope()`` with no labels (or all-None values) installs
    nothing, so call sites can scope unconditionally.
    """
    labels = {str(k): str(v) for k, v in labels.items() if v is not None}
    if not labels:
        yield
        return
    merged = dict(_scope.get())
    merged.update(labels)
    token = _scope.set(tuple(sorted(merged.items())))
    try:
        yield
    finally:
        _scope.reset(token)


def _apply_scope(labels: dict[str, str]) -> dict[str, str]:
    scope = _scope.get()
    if not scope:
        return labels
    merged = dict(scope)
    merged.update(labels)
    return merged


def _scope_match(labels: dict[str, str], scope: dict[str, str]) -> bool:
    """True when ``labels`` is compatible with a snapshot ``scope``:
    for every scope key the series either matches or is unattributed."""
    for key, value in scope.items():
        theirs = labels.get(key)
        if theirs is not None and theirs != str(value):
            return False
    return True


class _Series:
    """Base: one labeled series with its own lock."""

    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = {str(k): str(v) for k, v in labels.items()}
        self._lock = threading.Lock()


class Counter(_Series):
    """Monotonically increasing count (events, iterations, bytes)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        super().__init__(name, labels)
        self._value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Gauge(_Series):
    """Point-in-time value (cache words, hit rate, queue depth)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Series):
    """Streaming summary of observations (count/sum/min/max/mean).

    Keeps O(1) state — no buckets, no reservoir — which is all the
    trace renderer and the JSON export need.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        super().__init__(name, labels)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def summary(self) -> dict:
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0}
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.total / self.count,
            }

    def merge_summary(self, summary: dict) -> None:
        """Fold another histogram's :meth:`summary` into this series
        (exact for count/sum/min/max/mean — the O(1) state is closed
        under merging, which is what lets per-rank registries combine)."""
        count = int(summary.get("count", 0))
        if count == 0:
            return
        with self._lock:
            self.count += count
            self.total += float(summary["sum"])
            self.min = min(self.min, float(summary.get("min", self.min)))
            self.max = max(self.max, float(summary.get("max", self.max)))


class MetricsRegistry:
    """Thread-safe home for every labeled metric series in the process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        _instances.add(self)

    # -- handle factories (memoized per name+labels) ---------------------
    # each factory folds in the ambient label_scope(), so deep emit
    # sites need no knowledge of who (which resident solver) they are
    # working for.
    def counter(self, name: str, **labels: str) -> Counter:
        labels = _apply_scope(labels)
        key = (name, _label_key(labels))
        with self._lock:
            handle = self._counters.get(key)
            if handle is None:
                handle = self._counters[key] = Counter(name, labels)
            return handle

    def gauge(self, name: str, **labels: str) -> Gauge:
        labels = _apply_scope(labels)
        key = (name, _label_key(labels))
        with self._lock:
            handle = self._gauges.get(key)
            if handle is None:
                handle = self._gauges[key] = Gauge(name, labels)
            return handle

    def histogram(self, name: str, **labels: str) -> Histogram:
        labels = _apply_scope(labels)
        key = (name, _label_key(labels))
        with self._lock:
            handle = self._histograms.get(key)
            if handle is None:
                handle = self._histograms[key] = Histogram(name, labels)
            return handle

    # -- queries ---------------------------------------------------------
    def value(self, name: str, **labels: str) -> int | float:
        """Current value of a counter or gauge series (0 if absent).

        The ambient :func:`label_scope` applies here too, so code reads
        back exactly the series it would have written.
        """
        key = (name, _label_key(_apply_scope(labels)))
        with self._lock:
            handle = self._counters.get(key) or self._gauges.get(key)
        return handle.value if handle is not None else 0

    def total(self, name: str) -> int | float:
        """Sum of a counter's value across all label sets."""
        with self._lock:
            handles = [c for (n, _), c in self._counters.items() if n == name]
        return sum(h.value for h in handles)

    def counter_totals(self) -> dict[str, int | float]:
        """``{name: sum over labels}`` for every counter — the snapshot
        the span tracer diffs to attach counter deltas to stage spans."""
        with self._lock:
            handles = list(self._counters.items())
        totals: dict[str, int | float] = {}
        for (name, _), handle in handles:
            totals[name] = totals.get(name, 0) + handle.value
        return totals

    def _grouped(self, handles: Iterable[tuple[tuple, _Series]], value_of, scope):
        out: dict[str, list[dict]] = {}
        for (name, _), handle in sorted(handles, key=lambda kv: kv[0]):
            if scope and not _scope_match(handle.labels, scope):
                continue
            entry: dict = {"value": value_of(handle)}
            if handle.labels:
                entry["labels"] = dict(handle.labels)
            out.setdefault(name, []).append(entry)
        return out

    def snapshot(self, *, scope: dict[str, str] | None = None) -> dict:
        """JSON-ready dump of every series, grouped by metric name.

        ``scope`` restricts the dump per label key: a series is kept
        when, for every ``key: value`` in ``scope``, it either carries
        ``key=value`` or does not carry ``key`` at all.  That is the
        per-solver telemetry contract — ``scope={"solver": fp}`` keeps
        that solver's attributed series plus the shared process-global
        ones, and drops series attributed to *other* solvers.
        """
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": self._grouped(counters, lambda h: h.value, scope),
            "gauges": self._grouped(gauges, lambda h: h.value, scope),
            "histograms": self._grouped(histograms, lambda h: h.summary(), scope),
        }

    def merge_snapshot(self, snap: dict, **extra_labels: str) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        The socket-backed SPMD launcher ships each rank's registry
        snapshot back at the end of every program (a rank restarts its
        registry at the start of one, so the snapshot covers that
        program only) and merges it here with an extra ``rank``
        label, so per-rank series stay distinguishable while
        :meth:`total` still reports launch-wide sums (the thread
        backend's single shared registry semantics).  Counters add,
        gauges overwrite (point-in-time), histograms merge exactly.
        """
        for name, entries in snap.get("counters", {}).items():
            for entry in entries:
                labels = dict(entry.get("labels", {}))
                labels.update(extra_labels)
                self.counter(name, **labels).inc(entry["value"])
        for name, entries in snap.get("gauges", {}).items():
            for entry in entries:
                labels = dict(entry.get("labels", {}))
                labels.update(extra_labels)
                self.gauge(name, **labels).set(entry["value"])
        for name, entries in snap.get("histograms", {}).items():
            for entry in entries:
                labels = dict(entry.get("labels", {}))
                labels.update(extra_labels)
                self.histogram(name, **labels).merge_summary(entry["value"])

    def reset(self) -> None:
        """Drop every series (tests and fresh benchmark variants)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def _reinit_after_fork(self) -> None:
        """Fork-safety: fresh locks + empty per-process series.

        A fork can land while another thread holds ``_lock`` (or any
        series lock), leaving the child's copy locked forever; and the
        inherited series would double-count once the child's snapshot
        is merged back at join.  Children start clean.
        """
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}


# -- process-wide default -------------------------------------------------
_default_lock = threading.Lock()
_default: MetricsRegistry | None = None
_instances: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def _after_fork_in_child() -> None:  # pragma: no cover - exercised via mp
    global _default_lock
    _default_lock = threading.Lock()
    for reg in list(_instances):
        reg._reinit_after_fork()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_after_fork_in_child)


def registry() -> MetricsRegistry:
    """The process-wide registry every library component publishes to."""
    global _default
    with _default_lock:
        if _default is None:
            _default = MetricsRegistry()
        return _default


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _default
    if not isinstance(reg, MetricsRegistry):
        raise TypeError("set_registry expects a MetricsRegistry")
    with _default_lock:
        previous = _default
        _default = reg
    return previous if previous is not None else reg
