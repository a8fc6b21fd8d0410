"""Observability layer: metrics, latency histograms, exporters.

``obs`` is the repo's telemetry substrate.  It is dependency-free (stdlib
only, besides the shared error types) and sits below every instrumented
layer:

* :mod:`repro.obs.metrics` — :class:`~repro.obs.metrics.MetricsRegistry`
  with counters, gauges (including zero-overhead snapshot-time callback
  gauges), streaming log-bucketed
  :class:`~repro.obs.metrics.LatencyHistogram` quantiles, timer context
  managers, and the no-op :data:`~repro.obs.metrics.NULL_REGISTRY` default
  that keeps uninstrumented hot paths at one-branch cost.
* :mod:`repro.obs.export` — the ``.json``, ``.jsonl`` and ``.csv``
  exporters, chosen by file suffix (:func:`~repro.obs.export.exporter_for_path`),
  which serialise registry snapshots and collector series losslessly.
* :mod:`repro.obs.collector` — :class:`~repro.obs.collector.TelemetryCollector`
  sampling a registry on an interval (or explicit ``tick()``), diffing
  consecutive snapshots into per-metric delta/rate series with
  histogram-quantile readouts, retained in a bounded
  :class:`~repro.obs.collector.TimeSeriesStore` with trailing-window
  rollups (rate, mean, p50/p95/p99).
* :mod:`repro.obs.dashboard` — static self-contained HTML dashboards
  (inline SVG sparklines, per-tenant SLO grading) rendered from a live
  collector or any exported series file, zero third-party dependencies.

Telemetry has one switch: ``with use_default_metrics(registry):``
installs ``registry`` as the process default, and every instrumented layer
reads it through :func:`~repro.obs.metrics.default_metrics` (see there for
which layers read it per call and which bind it at construction).
Instrumented layers: :class:`~repro.serve.EstimatorServer` (per-request
latency, cache hits/misses, generation swaps, per-tenant labels),
:class:`~repro.serve.admission.AdmissionController` (decision counters),
:class:`~repro.persist.journal.JournaledIngest` (journal appends, rows and
checkpoints), :class:`~repro.persist.store.ModelStore` (publishes,
rollbacks, quarantines), :class:`~repro.shard.parallel.ShardExecutor`
per-shard task timings, and the query fast path's culled-vs-dense routing
counters, which take their registry from
:func:`repro.core.fastpath.set_route_metrics` instead.
"""

from repro.obs.collector import (
    SeriesPoint,
    TelemetryCollector,
    TimeSeriesStore,
    WindowRollup,
    series_payload,
    store_from_payload,
)
from repro.obs.dashboard import load_series, render_dashboard, write_dashboard
from repro.obs.export import (
    CSVExporter,
    JSONExporter,
    JSONLExporter,
    MetricsExporter,
    exporter_for_path,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    NullRegistry,
    default_metrics,
    hit_rate,
    metric_key,
    use_default_metrics,
)

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "default_metrics",
    "use_default_metrics",
    "hit_rate",
    "metric_key",
    "MetricsExporter",
    "JSONExporter",
    "JSONLExporter",
    "CSVExporter",
    "exporter_for_path",
    "SeriesPoint",
    "TimeSeriesStore",
    "TelemetryCollector",
    "WindowRollup",
    "series_payload",
    "store_from_payload",
    "render_dashboard",
    "write_dashboard",
    "load_series",
]
