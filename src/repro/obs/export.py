"""Versioned, byte-deterministic JSONL telemetry traces.

The canonical-JSONL framing of :mod:`repro.jsonl`, shared with
traffic traces and chaos campaigns: every line is one JSON record
with sorted keys and compact separators, line 1 is a header carrying
the schema id, version and record counts, and
``dumps -> loads -> dumps`` is a byte identity.  A telemetry file is
therefore diffable, hashable and CI-gateable —
``tools/check_telemetry_schema.py`` validates the format
independently of this serializer, so a serializer bug cannot
self-certify.

Record kinds, in file order:

* ``header`` — schema/version, sampling interval, makespan, pool
  names, server-to-pool map, record counts, free-form ``meta``.
* ``span`` — one per request, sorted by request id; events are
  ``[ts_s, state, attrs]`` triples.
* ``event`` — fleet control-plane events in processing order.
* ``series`` — one per metric, sorted by name, with aligned
  ``times``/``values`` arrays.
* ``histogram`` — windowed histograms with bucket ``edges`` and one
  count row per sample window.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from repro import jsonl
from repro.obs.metrics import HistogramSeries, MetricSeries
from repro.obs.spans import RequestSpan, SpanEvent
from repro.obs.telemetry import FleetEvent, TelemetryLog

TELEMETRY_SCHEMA = "repro-telemetry"
"""Schema identifier written into every telemetry header record."""

TELEMETRY_VERSION = 1
"""Current telemetry format version."""

_COUNTS = (
    ("span", "num_spans"), ("event", "num_events"),
    ("series", "num_series"), ("histogram", "num_histograms"),
)


def _attrs(value: object) -> dict:
    """An event's ``attrs``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"attrs {value!r} is not an object")
    return value


def dumps_telemetry(log: TelemetryLog) -> str:
    """Serialize a telemetry log to canonical JSONL bytes.

    The output is byte-deterministic: the same simulation (same
    workload, pools, faults, resilience and telemetry config)
    produces the same string in any process — pinned by a subprocess
    determinism test.
    """
    header = {
        "sample_interval_s": log.sample_interval_s,
        "makespan_s": log.makespan_s,
        "pools": list(log.pools),
        "server_pools": list(log.server_pools),
        "num_spans": len(log.spans),
        "num_events": len(log.events),
        "num_series": len(log.series),
        "num_histograms": len(log.histograms),
        "meta": dict(log.meta),
    }
    spans = (
        {"kind": "span", "request": span.request_id, "model": span.model,
         "events": [[event.ts_s, event.state, dict(event.attrs)]
                    for event in span.events]}
        for span in log.spans
    )
    events = (
        {"kind": "event", "ts_s": event.ts_s, "event": event.kind,
         "attrs": dict(event.attrs)}
        for event in log.events
    )
    series = (
        {"kind": "series", "name": metric.name, "metric": metric.kind,
         "times": list(metric.times), "values": list(metric.values)}
        for metric in log.series
    )
    histograms = (
        {"kind": "histogram", "name": histogram.name,
         "edges": list(histogram.edges), "times": list(histogram.times),
         "counts": [list(row) for row in histogram.counts]}
        for histogram in log.histograms
    )
    return jsonl.dumps(
        TELEMETRY_SCHEMA, TELEMETRY_VERSION, header,
        itertools.chain(spans, events, series, histograms),
    )


def loads_telemetry(text: str) -> TelemetryLog:
    """Parse a telemetry JSONL string back into a TelemetryLog.

    Validates the header contract (schema id, version, record
    counts); ``dumps_telemetry(loads_telemetry(s)) == s`` for any
    string this module wrote.  Malformed input raises a
    ``ValueError`` naming the line (see :func:`repro.jsonl.loads`).
    """
    head: dict = {}
    promised: list = []
    spans: list[RequestSpan] = []
    events: list[FleetEvent] = []
    series: list[MetricSeries] = []
    histograms: list[HistogramSeries] = []

    def header(record: dict) -> None:
        head.update(
            pools=tuple(record["pools"]),
            server_pools=tuple(int(p) for p in record["server_pools"]),
            sample_interval_s=float(record["sample_interval_s"]),
            makespan_s=float(record["makespan_s"]),
            meta=dict(record["meta"]),
        )
        promised.extend(record[field] for _, field in _COUNTS)

    def span(record: dict) -> None:
        spans.append(RequestSpan(
            request_id=int(record["request"]),
            model=record["model"],
            events=tuple(
                SpanEvent(float(ts), state, _attrs(attrs))
                for ts, state, attrs in record["events"]
            ),
        ))

    def event(record: dict) -> None:
        events.append(FleetEvent(
            ts_s=float(record["ts_s"]), kind=record["event"],
            attrs=_attrs(record["attrs"]),
        ))

    def metric(record: dict) -> None:
        series.append(MetricSeries(
            name=record["name"],
            kind=record["metric"],
            times=tuple(float(t) for t in record["times"]),
            values=tuple(float(v) for v in record["values"]),
        ))

    def histogram(record: dict) -> None:
        histograms.append(HistogramSeries(
            name=record["name"],
            edges=tuple(float(e) for e in record["edges"]),
            times=tuple(float(t) for t in record["times"]),
            counts=tuple(
                tuple(int(c) for c in row) for row in record["counts"]
            ),
        ))

    jsonl.loads(text, TELEMETRY_SCHEMA, TELEMETRY_VERSION, {
        "header": header, "span": span, "event": event,
        "series": metric, "histogram": histogram,
    })
    found = (spans, events, series, histograms)
    for (kind, _), want, got in zip(_COUNTS, promised, found):
        if len(got) != want:
            raise ValueError(
                f"line 1: header promised {want!r} {kind} records, "
                f"file has {len(got)}"
            )
    return TelemetryLog(
        spans=tuple(spans),
        events=tuple(events),
        series=tuple(series),
        histograms=tuple(histograms),
        **head,
    )


def save_telemetry(log: TelemetryLog, path: str | Path) -> Path:
    """Write a telemetry log as JSONL; returns the path written."""
    path = Path(path)
    path.write_text(dumps_telemetry(log))
    return path


def load_telemetry(path: str | Path) -> TelemetryLog:
    """Read a telemetry JSONL file written by :func:`save_telemetry`."""
    return loads_telemetry(Path(path).read_text())
