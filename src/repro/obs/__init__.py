"""Unified observability layer: tracing and metrics.

The run store's event log answers "what happened to *this job*" as
JSONL.  ``repro.obs`` is the layer for machine-readable, cross-run
observability, and the one place that measures time:

- :mod:`repro.obs.trace` — :class:`trace_span` is the only timer in
  ``repro``: kernel ops, GP iterations, flow stages, the router and
  runner jobs all open spans, every reported duration (``StageTimes``,
  ``runtime`` fields) is a span's, and a :class:`Tracer` collects them
  with recorded nesting for Chrome trace-event JSON export
  (``chrome://tracing`` / Perfetto) and for the ``--profile`` table
  (:mod:`repro.perf.profiler`, a pure view over the spans).
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with Prometheus-text and JSON
  exposition, mergeable across worker processes so a sweep aggregates
  fleet-level series.

CLI surfacing: ``--trace-out``/``--metrics-out`` on ``place``/``batch``/
``sweep``, and ``repro runs --stats`` for run-store aggregates.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorders import IterationRecorder
from repro.obs.trace import Span, Trace, Tracer, trace_span
from repro.obs.trace import active as active_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "RATIO_BUCKETS",
    "IterationRecorder",
    "Span",
    "Trace",
    "Tracer",
    "trace_span",
    "active_tracer",
]
