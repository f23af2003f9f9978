#!/usr/bin/env python
"""Validate a telemetry JSONL file against the v1 schema.

Usage::

    python tools/check_telemetry_schema.py examples/traces/telemetry_small.jsonl

The telemetry format (``docs/OBSERVABILITY.md``) is the interchange
boundary of the observability layer: logs are committed to the repo,
diffed byte-for-byte by the determinism suite, and replayed through
the ``python -m repro.obs`` CLI.  This checker is the CI gate that a
committed log actually honors the contract *without* loading it
through ``repro.obs.export`` — an independent line-by-line
validation, so a serializer bug cannot self-certify.

Checks, in order per file, after the shared framing of
``jsonl_gate.py`` (canonical lines, header schema id and version):

* the header has a positive sampling interval, a finite makespan,
  unique pool names and an in-range server-to-pool map;
* records appear in kind order (spans, events, series, histograms)
  and their counts match what the header promised;
* spans are sorted by request id and well-formed: first event is
  ``submit``, timestamps monotone, exactly one terminal state, only
  ``cancel`` after it (mirrors ``repro.obs.spans.validate_span``);
* fleet events carry known kinds with monotone timestamps;
* series are sorted by name, drawn from the known counter/gauge
  vocabulary, sampled at strictly increasing times ending exactly at
  the makespan; counters never decrease;
* histogram bucket edges ascend and every count row spans
  ``len(edges) + 1`` buckets of non-negative ints.

Exit status: 0 when every file passes, 1 on any violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    from jsonl_gate import canonical, finite, is_int, read_records, report
finally:
    sys.path.pop(0)

EXPECTED_SCHEMA = "repro-telemetry"
EXPECTED_VERSION = 1

SPAN_STATES = (
    "submit", "admit", "dispatch", "complete", "retry", "hedge",
    "cancel", "shed", "fail",
)
TERMINAL_STATES = ("complete", "fail", "shed")
EVENT_KINDS = (
    "breaker_open", "breaker_half_open", "breaker_close",
    "rung_change", "scale_up", "scale_down", "server_activate",
    "server_crash", "server_recover", "server_cordon",
    "server_uncordon", "domain_down", "domain_detected", "domain_up",
)
FLEET_COUNTERS = (
    "completed", "failed", "shed", "retries", "hedges_launched",
    "breaker_opens", "rung_changes",
)
POOL_GAUGES = (
    "queue_depth", "busy_servers", "active_servers", "rung",
    "breaker_open",
)
LATENCY_HISTOGRAM = "fleet.latency_s"

RECORD_ORDER = ("span", "event", "series", "histogram")


def check_header(record: dict, errors: list[str]) -> dict:
    """Validate the header fields; returns the record."""
    interval = record.get("sample_interval_s")
    if not finite(interval) or not interval > 0.0:
        errors.append(
            f"line 1: sample_interval_s must be a positive number, "
            f"got {interval!r}"
        )
    makespan = record.get("makespan_s")
    if not finite(makespan) or makespan < 0.0:
        errors.append(
            f"line 1: makespan_s must be a finite number >= 0, got "
            f"{makespan!r}"
        )
    pools = record.get("pools")
    if (
        not isinstance(pools, list)
        or not pools
        or not all(isinstance(name, str) and name for name in pools)
    ):
        errors.append("line 1: pools must be a non-empty string list")
    elif len(set(pools)) != len(pools):
        errors.append("line 1: duplicate pool names in header")
    server_pools = record.get("server_pools")
    num_pools = len(pools) if isinstance(pools, list) else 0
    if not isinstance(server_pools, list) or not all(
        is_int(p) and 0 <= p < num_pools
        for p in server_pools
    ):
        errors.append(
            f"line 1: server_pools must be ints in [0, {num_pools})"
        )
    for field in ("num_spans", "num_events", "num_series",
                  "num_histograms"):
        count = record.get(field)
        if not is_int(count) or count < 0:
            errors.append(
                f"line 1: {field} must be a non-negative int, got "
                f"{count!r}"
            )
    if not isinstance(record.get("meta"), dict):
        errors.append("line 1: meta must be an object")
    return record


def _check_span(number: int, record: dict, errors: list[str],
                last_request: int) -> int:
    """Validate one span record; returns its request id."""
    request = record.get("request")
    if not is_int(request):
        errors.append(f"line {number}: bad request id {request!r}")
        request = last_request
    elif request <= last_request:
        errors.append(
            f"line {number}: span {request} out of order (spans are "
            "sorted by request id)"
        )
    if not isinstance(record.get("model"), str) or not record["model"]:
        errors.append(
            f"line {number}: model must be a non-empty string"
        )
    events = record.get("events")
    if not isinstance(events, list) or not events:
        errors.append(f"line {number}: span has no events")
        return request
    last_ts = -math.inf
    terminal_count = 0
    terminal_seen = False
    for index, event in enumerate(events):
        if (
            not isinstance(event, list) or len(event) != 3
            or not finite(event[0])
            or not isinstance(event[1], str)
            or not isinstance(event[2], dict)
        ):
            errors.append(
                f"line {number}: event {index} is not a "
                "[ts, state, attrs] triple"
            )
            continue
        ts, state, _ = event
        if index == 0 and state != "submit":
            errors.append(
                f"line {number}: first event is {state!r}, not "
                "'submit'"
            )
        if state not in SPAN_STATES:
            errors.append(
                f"line {number}: unknown span state {state!r}"
            )
        if ts < last_ts:
            errors.append(
                f"line {number}: event {index} timestamp {ts!r} goes "
                f"backwards (previous {last_ts!r})"
            )
        last_ts = ts
        if terminal_seen and state != "cancel":
            errors.append(
                f"line {number}: {state!r} event after terminal state"
            )
        if state in TERMINAL_STATES:
            terminal_count += 1
            terminal_seen = True
    if terminal_count != 1:
        errors.append(
            f"line {number}: {terminal_count} terminal events (want "
            "exactly 1)"
        )
    return request


def _check_series(number: int, record: dict, errors: list[str],
                  header: dict, known_names: set[str]) -> str:
    """Validate one series record; returns its name."""
    name = record.get("name")
    if not isinstance(name, str):
        errors.append(f"line {number}: bad series name {name!r}")
        return ""
    if name not in known_names:
        errors.append(
            f"line {number}: series {name!r} not in the known "
            "counter/gauge vocabulary"
        )
    metric = record.get("metric")
    if metric not in ("counter", "gauge"):
        errors.append(
            f"line {number}: unknown metric kind {metric!r}"
        )
    times = record.get("times")
    values = record.get("values")
    if not isinstance(times, list) or not isinstance(values, list) or (
        len(times) != len(values)
    ):
        errors.append(
            f"line {number}: times and values must be aligned lists"
        )
        return name
    makespan = header.get("makespan_s")
    last_t = -math.inf
    for ts in times:
        if not finite(ts) or ts < 0.0:
            errors.append(f"line {number}: bad sample time {ts!r}")
            continue
        if ts <= last_t:
            errors.append(
                f"line {number}: sample times must strictly increase "
                f"({ts!r} after {last_t!r})"
            )
        last_t = ts
    if finite(makespan):
        if any(finite(ts) and ts > makespan for ts in times):
            errors.append(
                f"line {number}: sample past the makespan "
                f"({makespan!r})"
            )
        if times and times[-1] != makespan:
            errors.append(
                f"line {number}: final sample at {times[-1]!r}, "
                f"expected the makespan {makespan!r}"
            )
    bad = [v for v in values if not finite(v)]
    if bad:
        errors.append(
            f"line {number}: non-finite series value {bad[0]!r}"
        )
    elif metric == "counter" and any(
        later < earlier
        for earlier, later in zip(values, values[1:])
    ):
        errors.append(
            f"line {number}: counter {name!r} decreases"
        )
    return name


def _check_histogram(number: int, record: dict,
                     errors: list[str]) -> None:
    """Validate one histogram record."""
    if record.get("name") != LATENCY_HISTOGRAM:
        errors.append(
            f"line {number}: unknown histogram "
            f"{record.get('name')!r} (expected "
            f"{LATENCY_HISTOGRAM!r})"
        )
    edges = record.get("edges")
    if not isinstance(edges, list) or not edges or not all(
        finite(e) for e in edges
    ) or any(b <= a for a, b in zip(edges, edges[1:])):
        errors.append(
            f"line {number}: edges must be a non-empty ascending "
            "number list"
        )
        return
    times = record.get("times")
    counts = record.get("counts")
    if not isinstance(times, list) or not isinstance(counts, list) or (
        len(times) != len(counts)
    ):
        errors.append(
            f"line {number}: times and counts must be aligned lists"
        )
        return
    width = len(edges) + 1
    for index, row in enumerate(counts):
        if not isinstance(row, list) or len(row) != width:
            errors.append(
                f"line {number}: count row {index} must have "
                f"{width} buckets (len(edges) + 1)"
            )
        elif not all(is_int(c) and c >= 0 for c in row):
            errors.append(
                f"line {number}: count row {index} holds a negative "
                "or non-int bucket"
            )


def check_telemetry(path: Path, *, max_errors: int = 20) -> list[str]:
    """Validate one telemetry file; returns errors (empty = pass)."""
    errors: list[str] = []
    records = read_records(path, EXPECTED_SCHEMA, EXPECTED_VERSION, errors)
    if not records:
        return errors[:max_errors]

    header = check_header(records[0], errors)
    pools = header.get("pools")
    pools = pools if isinstance(pools, list) else []
    known_series = {f"fleet.{name}" for name in FLEET_COUNTERS}
    for pool in pools:
        known_series |= {f"pool.{pool}.{g}" for g in POOL_GAUGES}

    seen = dict.fromkeys(RECORD_ORDER, 0)
    last_request = -1
    last_event_ts = -math.inf
    last_series_name = ""
    for number, record in enumerate(records[1:], start=2):
        if len(errors) >= max_errors:
            errors.append("... further errors suppressed")
            break
        kind = record.get("kind")
        if kind not in RECORD_ORDER:
            errors.append(
                f"line {number}: unknown record kind {kind!r}"
            )
            continue
        later = RECORD_ORDER[RECORD_ORDER.index(kind) + 1:]
        if any(seen[k] for k in later):
            errors.append(
                f"line {number}: {kind} record out of order (file "
                f"order is {', '.join(RECORD_ORDER)})"
            )
        seen[kind] += 1
        if kind == "span":
            last_request = _check_span(
                number, record, errors, last_request
            )
        elif kind == "event":
            ts = record.get("ts_s")
            if not finite(ts) or ts < 0.0:
                errors.append(
                    f"line {number}: bad event timestamp {ts!r}"
                )
            else:
                if ts < last_event_ts:
                    errors.append(
                        f"line {number}: event timestamp {ts!r} "
                        f"before previous {last_event_ts!r}"
                    )
                last_event_ts = ts
            if record.get("event") not in EVENT_KINDS:
                errors.append(
                    f"line {number}: unknown event kind "
                    f"{record.get('event')!r}"
                )
            if not isinstance(record.get("attrs"), dict):
                errors.append(
                    f"line {number}: event attrs must be an object"
                )
        elif kind == "series":
            name = _check_series(
                number, record, errors, header, known_series
            )
            if name and name <= last_series_name:
                errors.append(
                    f"line {number}: series {name!r} out of order "
                    "(series are sorted by name)"
                )
            last_series_name = name or last_series_name
        else:
            _check_histogram(number, record, errors)
    for kind, field in (("span", "num_spans"), ("event", "num_events"),
                        ("series", "num_series"),
                        ("histogram", "num_histograms")):
        promised = header.get(field)
        if isinstance(promised, int) and seen[kind] != promised:
            errors.append(
                f"header promised {promised} {kind} records, file "
                f"has {seen[kind]}"
            )
    return errors[: max_errors + 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "logs", type=Path, nargs="+",
        help="telemetry files in the JSONL schema",
    )
    args = parser.parse_args(argv)
    return report(
        args.logs, check_telemetry,
        lambda records: (
            f"{records[0]['num_spans']} spans, "
            f"{records[0]['num_series']} series"
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
