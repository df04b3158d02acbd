"""Lightweight span tracer: nested wall-clock spans for the pipeline.

The paper's headline claims are stage-level *measured* claims (ASKIT
build time, ``Tf``, ``Ts``); the tracer records those stages — and
anything nested inside them, down to sampled per-tile GSKS spans — as a
tree of :class:`Span` objects that exports to JSON and renders as an
ASCII tree (``repro trace``).

Design points:

* **thread-local nesting** — each thread keeps its own span stack, so
  concurrent solves nest correctly: a span opened on a thread with no
  open span is a root, whatever other threads have open;
* **counter deltas** — spans opened with ``counters=True`` snapshot the
  registry's counter totals on entry and store the delta on exit, so
  the trace shows e.g. how many cache misses each stage caused;
* **sampling knob** — spans marked ``sampled=True`` (per-tile GSKS
  spans) are recorded once every ``sample_every`` starts (0 disables
  them entirely, the default; ``REPRO_TRACE_TILES`` overrides);
* **bounded memory** — at most ``max_spans`` spans are retained;
  further spans still run (and time nothing) but are counted in
  ``dropped_spans``.
"""

from __future__ import annotations

import os
import threading
import time

from repro.obs.metrics import MetricsRegistry, registry

__all__ = ["Span", "Tracer", "tracer", "set_tracer", "span"]

#: retained-span cap; a runaway per-tile loop must not hold the heap.
DEFAULT_MAX_SPANS = 20_000


class Span:
    """One timed node of the trace tree."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "duration",
        "counter_delta",
        "_t0",
    )

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.duration: float | None = None  # None while still open
        self.counter_delta: dict[str, int | float] | None = None
        self._t0 = time.perf_counter()

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "duration_s": self.duration,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counter_delta:
            out["counters"] = dict(self.counter_delta)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class _SpanHandle:
    """Context manager for one span (returned by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "span", "_counters_before", "_track_counters")

    def __init__(self, tracer: "Tracer", sp: Span, track_counters: bool):
        self._tracer = tracer
        self.span = sp
        self._track_counters = track_counters
        self._counters_before: dict | None = None

    def __enter__(self) -> Span:
        self._tracer._enter(self.span)
        if self._track_counters:
            self._counters_before = self._tracer._registry().counter_totals()
        return self.span

    def __exit__(self, *exc) -> None:
        sp = self.span
        sp.duration = time.perf_counter() - sp._t0
        if self._counters_before is not None:
            after = self._tracer._registry().counter_totals()
            delta = {
                name: after[name] - self._counters_before.get(name, 0)
                for name in after
                if after[name] != self._counters_before.get(name, 0)
            }
            if delta:
                sp.counter_delta = delta
        self._tracer._exit(sp)


class _NoopHandle:
    """Shared do-nothing stand-in for sampled-out / dropped spans."""

    span = None

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        return None


_NOOP = _NoopHandle()


class Tracer:
    """Process-wide span collector; see module docstring."""

    def __init__(
        self,
        *,
        max_spans: int = DEFAULT_MAX_SPANS,
        sample_every: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if sample_every is None:
            raw = os.environ.get("REPRO_TRACE_TILES", "").strip()
            try:
                sample_every = int(raw) if raw else 0
            except ValueError:
                # a typo'd env knob must not take the tracer (and with it
                # the whole solve) down; fall back to the documented
                # default (0 = per-tile spans disabled).
                from repro.obs.logadapter import emit_warning

                emit_warning(
                    "env.REPRO_TRACE_TILES",
                    f"ignoring malformed REPRO_TRACE_TILES={raw!r} "
                    "(not an integer); per-tile span sampling disabled",
                    metrics=metrics,
                )
                sample_every = 0
        self.max_spans = max_spans
        self.sample_every = max(0, int(sample_every))
        self._metrics = metrics
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self._tls = threading.local()
        self._n_spans = 0
        self.dropped_spans = 0
        self._sample_counts: dict[str, int] = {}

    def _registry(self) -> MetricsRegistry:
        return self._metrics if self._metrics is not None else registry()

    # -- span lifecycle --------------------------------------------------
    def span(
        self,
        name: str,
        *,
        attrs: dict | None = None,
        counters: bool = False,
        sampled: bool = False,
    ):
        """Open a span context.  See the module docstring for the knobs."""
        if sampled and not self._sample(name):
            return _NOOP
        with self._lock:
            if self._n_spans >= self.max_spans:
                self.dropped_spans += 1
                return _NOOP
            self._n_spans += 1
        return _SpanHandle(self, Span(name, attrs), counters)

    def _sample(self, name: str) -> bool:
        if self.sample_every <= 0:
            return False
        with self._lock:
            count = self._sample_counts.get(name, 0)
            self._sample_counts[name] = count + 1
        return count % self.sample_every == 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _enter(self, sp: Span) -> None:
        stack = self._stack()
        with self._lock:
            if stack:
                stack[-1].children.append(sp)
            else:
                self._roots.append(sp)
        stack.append(sp)

    def _exit(self, sp: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()

    # -- export ----------------------------------------------------------
    def tree(self) -> list[dict]:
        """JSON-ready list of completed root spans (open spans included
        with ``duration_s: null``)."""
        with self._lock:
            roots = list(self._roots)
        return [r.to_dict() for r in roots]

    def render(self, *, min_duration: float = 0.0) -> str:
        """ASCII tree: one line per span with timing, attrs, deltas."""
        lines: list[str] = []

        def visit(sp: Span, depth: int) -> None:
            if sp.duration is not None and sp.duration < min_duration:
                return
            dur = f"{sp.duration * 1e3:10.2f} ms" if sp.duration is not None else "      open"
            attrs = "".join(f"  {k}={v}" for k, v in sp.attrs.items())
            lines.append(f"{dur}  {'  ' * depth}{sp.name}{attrs}")
            if sp.counter_delta:
                deltas = "  ".join(
                    f"{k}: +{v:g}" for k, v in sorted(sp.counter_delta.items())
                )
                lines.append(f"{'':14}{'  ' * (depth + 1)}[{deltas}]")
            for child in sp.children:
                visit(child, depth + 1)

        with self._lock:
            roots = list(self._roots)
        for root in roots:
            visit(root, 0)
        if self.dropped_spans:
            lines.append(f"({self.dropped_spans} spans dropped past the "
                         f"{self.max_spans}-span cap)")
        return "\n".join(lines) if lines else "(no spans recorded)"

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()
            self._n_spans = 0
            self.dropped_spans = 0
            self._sample_counts.clear()
        self._tls = threading.local()


# -- process-wide default -------------------------------------------------
_default_lock = threading.Lock()
_default: Tracer | None = None


def tracer() -> Tracer:
    """The process-wide tracer used by the pipeline stages."""
    global _default
    with _default_lock:
        if _default is None:
            _default = Tracer()
        return _default


def set_tracer(tr: Tracer) -> Tracer:
    """Replace the process-wide tracer; returns the previous one."""
    global _default
    if not isinstance(tr, Tracer):
        raise TypeError("set_tracer expects a Tracer")
    with _default_lock:
        previous = _default
        _default = tr
    return previous if previous is not None else tr


def span(name: str, **kwargs):
    """Shorthand for ``tracer().span(name, ...)``."""
    return tracer().span(name, **kwargs)
