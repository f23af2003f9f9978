"""Fleet observability: spans, metrics, exporters and alerts.

The fleet engines (:mod:`repro.serving.fleet` and
:mod:`repro.serving.columnar`) are deterministic black boxes between
"workload in" and "FleetReport out" — admission decisions, breaker
trips, hedge cancellations, brownout rung changes and autoscaler
actions all happen invisibly.  This package is the flight recorder:

* :class:`Telemetry` — the collector the fleet engine emits into when a
  ``simulate_fleet(..., telemetry=...)`` kwarg is passed.  Zero
  overhead when absent (every hook is an ``if telemetry is None``
  guard) and **purely observational** when present: a telemetry-on
  run produces a bit-identical ``FleetReport`` to a telemetry-off
  run, because the collector never schedules events or touches
  simulation state.
* :class:`~repro.obs.spans.RequestSpan` — per-request timestamped
  state transitions (submit → admit/shed → dispatch →
  complete/retry/hedge/cancel) with the pool/server/rung involved.
* :class:`~repro.obs.metrics.MetricSeries` /
  :class:`~repro.obs.metrics.HistogramSeries` — counters, gauges and
  windowed latency histograms sampled on simulated-time ticks.
* :mod:`repro.obs.export` — versioned, byte-deterministic JSONL
  telemetry traces (same canonical-bytes discipline as
  ``TrafficTrace``), gated in CI by
  ``tools/check_telemetry_schema.py``.
* :mod:`repro.obs.perfetto` — Chrome-trace/Perfetto export rendering
  a fleet run as per-server lanes with request slices, instant
  events and counter tracks.
* :mod:`repro.obs.alerts` — multi-window SLO burn-rate alert rules
  (Google-SRE style) evaluated over the recorded spans.

``python -m repro.obs`` summarizes and queries saved telemetry files.
See ``docs/OBSERVABILITY.md`` for the span schema, metric names and
alert semantics.  All times are simulated seconds (``_s`` suffix).
"""

from repro.obs.alerts import (
    DEFAULT_RULES,
    AlertFiring,
    BurnRateRule,
    evaluate_alerts,
)
from repro.obs.export import (
    TELEMETRY_SCHEMA,
    TELEMETRY_VERSION,
    dumps_telemetry,
    load_telemetry,
    loads_telemetry,
    save_telemetry,
)
from repro.obs.metrics import HistogramSeries, MetricSeries
from repro.obs.perfetto import (
    save_chrome_telemetry,
    telemetry_to_chrome_trace,
)
from repro.obs.spans import (
    SPAN_STATES,
    TERMINAL_STATES,
    RequestSpan,
    SpanEvent,
    validate_span,
)
from repro.obs.telemetry import FleetEvent, Telemetry, TelemetryLog

__all__ = [
    "AlertFiring",
    "BurnRateRule",
    "DEFAULT_RULES",
    "FleetEvent",
    "HistogramSeries",
    "MetricSeries",
    "RequestSpan",
    "SPAN_STATES",
    "SpanEvent",
    "TELEMETRY_SCHEMA",
    "TELEMETRY_VERSION",
    "TERMINAL_STATES",
    "Telemetry",
    "TelemetryLog",
    "dumps_telemetry",
    "evaluate_alerts",
    "load_telemetry",
    "loads_telemetry",
    "save_chrome_telemetry",
    "save_telemetry",
    "telemetry_to_chrome_trace",
    "validate_span",
]
