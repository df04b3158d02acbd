"""Observability layer: metrics registry, span tracer, telemetry export.

The paper's claims are *measured* claims — Tf/Ts stage breakdowns,
storage-vs-recompute trade-offs, per-level communication — and before
this package the reproduction's measurements were scattered across
four ad-hoc surfaces (``StageTimes``, ``CacheStats``, the fabric's
fault counters, ``SolverHealth``) plus ``warnings.warn`` chatter.
Everything now publishes into one process-wide pair:

* :func:`registry` — labeled counters/gauges/histograms
  (:mod:`repro.obs.metrics`);
* :func:`tracer` — nested wall-clock spans for tree build →
  skeletonize → factorize → solve, per-level factorization, and
  (sampled) per-tile GSKS work (:mod:`repro.obs.trace`).

Exports: :func:`telemetry_snapshot` (JSON blob, embedded by
``report.py`` and the serving health endpoint) and
:func:`render_trace` (the ``repro trace`` CLI).  Solver warnings go
through :func:`emit_warning` — rate-limited logging plus metric counts
plus a real :func:`warnings.warn`.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import render_trace, reset_telemetry, telemetry_snapshot
from repro.obs.logadapter import RateLimiter, emit_warning, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_label_scope,
    label_scope,
    registry,
    set_registry,
)
from repro.obs.trace import Span, Tracer, set_tracer, span, tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RateLimiter",
    "Span",
    "Tracer",
    "current_label_scope",
    "emit_warning",
    "label_scope",
    "get_logger",
    "registry",
    "render_trace",
    "reset_telemetry",
    "set_registry",
    "set_tracer",
    "span",
    "telemetry_snapshot",
    "tracer",
]
