"""Telemetry export: one JSON blob (and an ASCII rendering) per process.

:func:`telemetry_snapshot` is the single "what did this solve actually
do?" call: the completed span tree plus every metric series.  Before
snapshotting it asks the process-default :class:`~repro.perf.BlockCache`
to publish its counters, so the blob is self-contained even for code
paths that never touched the registry explicitly.

The blob's shape (``schema: repro.telemetry/v1``) is documented in
``docs/OBSERVABILITY.md``; ``report.py`` embeds it under a
``"telemetry"`` key and the serving health endpoint reports one per
resident model.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.trace import Tracer, tracer

__all__ = ["telemetry_snapshot", "render_trace", "reset_telemetry"]

SCHEMA = "repro.telemetry/v1"


def _publish_default_cache(reg: MetricsRegistry) -> None:
    # deferred import: repro.perf must stay importable without obs and
    # vice versa (blockcache imports us only inside methods).
    from repro.perf.blockcache import _default as default_cache_instance

    if default_cache_instance is not None:
        default_cache_instance.publish(reg)


def telemetry_snapshot(
    *,
    metrics: MetricsRegistry | None = None,
    trace: Tracer | None = None,
    scope: dict[str, str] | None = None,
) -> dict:
    """The process's telemetry as one JSON-serializable dict.

    ``scope`` restricts the metric series per
    :meth:`MetricsRegistry.snapshot` — e.g. ``{"solver": fp}`` keeps
    one resident solver's attributed series plus the shared unlabeled
    ones.  Spans stay process-wide (the span tree has no per-series
    labels); a scoped blob records its scope under ``"scope"``.
    """
    reg = metrics if metrics is not None else registry()
    tr = trace if trace is not None else tracer()
    _publish_default_cache(reg)
    blob = {
        "schema": SCHEMA,
        "spans": tr.tree(),
        "metrics": reg.snapshot(scope=scope),
    }
    if scope:
        blob["scope"] = dict(scope)
    return blob


def render_trace(
    *,
    metrics: MetricsRegistry | None = None,
    trace: Tracer | None = None,
    min_duration: float = 0.0,
) -> str:
    """Human rendering: span tree with timings, then the counter table."""
    reg = metrics if metrics is not None else registry()
    tr = trace if trace is not None else tracer()
    _publish_default_cache(reg)
    lines = ["== span tree " + "=" * 47, tr.render(min_duration=min_duration)]
    snap = reg.snapshot()
    for kind in ("counters", "gauges"):
        series = snap[kind]
        if not series:
            continue
        lines.append(f"== {kind} " + "=" * (56 - len(kind)))
        for name, entries in series.items():
            for entry in entries:
                labels = entry.get("labels")
                label_txt = (
                    "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels
                    else ""
                )
                lines.append(f"  {name}{label_txt} = {entry['value']:g}")
    hists = snap["histograms"]
    if hists:
        lines.append("== histograms " + "=" * 46)
        for name, entries in hists.items():
            for entry in entries:
                s = entry["value"]
                if s["count"] == 0:
                    continue
                lines.append(
                    f"  {name}: n={s['count']} mean={s['mean']:.3g} "
                    f"min={s['min']:.3g} max={s['max']:.3g}"
                )
    return "\n".join(lines)


def reset_telemetry() -> None:
    """Clear the process-wide registry and tracer (tests, benchmarks)."""
    registry().reset()
    tracer().reset()
