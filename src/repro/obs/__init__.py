"""Observability: metrics, structured events, trace export, views.

The layer the evaluation's artifacts are built from (see
``docs/observability.md``):

* :mod:`repro.obs.events` — the structured event stream: bounded
  collection with per-kind drop accounting, cycle-stamped from the
  machine clock.  This is the tracer: attach an
  :class:`~repro.obs.events.EventStream` as ``system.tracer`` (the
  legacy ``repro.sim.trace.Tracer`` shim is gone).
* :mod:`repro.obs.metrics` — a typed metrics registry (counters,
  gauges, histograms).  Counts are collected, distributions are
  observed: only histograms are written during a run, at transaction
  boundaries, and a run without a registry pays one ``is not None``
  test per boundary for them.
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON export: any
  run opens in ``ui.perfetto.dev`` with one track per core.
* :mod:`repro.obs.views` — derived views: per-block contention
  heatmap and the abort-attribution breakdown.
* :mod:`repro.obs.collect` — end-of-run collection of every count
  (the per-core ``CoreStats`` transaction counts, cache spills,
  evictions, cycle breakdown) into a registry.
"""

from repro.obs.events import EventStream, TraceEvent
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_snapshot,
)
from repro.obs.views import (
    abort_attribution,
    abort_breakdown,
    contention_counts,
    contention_heatmap,
)

__all__ = [
    "Counter",
    "EventStream",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceEvent",
    "abort_attribution",
    "abort_breakdown",
    "chrome_trace",
    "contention_counts",
    "contention_heatmap",
    "render_snapshot",
    "validate_chrome_trace",
    "write_chrome_trace",
]
