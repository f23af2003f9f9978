"""Chrome-trace export and re-import.

The paper's methodology records PyTorch Profiler timelines and parses
them with custom scripts; this module round-trips our traces through the
same ``chrome://tracing`` JSON event format so they can be inspected in
Perfetto or post-processed externally.

Lane layout: single-GPU op traces get one named thread lane per
operator category (attention, linear, conv, ...), so category
breakdowns are visible at a glance instead of stacking every op on
``tid 0``.  Distributed traces (:func:`distributed_to_chrome_trace`)
get one lane per rank, with flow events stitching each collective's
per-rank slices together so comm dependencies render as arrows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.distributed.timeline import DistributedTrace
from repro.ir.ops import OpCategory
from repro.ir.trace import Trace, TraceEvent

CATEGORY_LANES: dict[OpCategory, int] = {
    category: lane for lane, category in enumerate(OpCategory)
}
"""Thread-lane id per operator category (enum declaration order)."""


def to_chrome_trace(trace: Trace) -> dict:
    """Serialize a trace as Chrome-trace JSON (complete 'X' events).

    The process is named ``gpu``.  Each operator category gets its
    own named thread lane (see :data:`CATEGORY_LANES`); lanes are
    declared only for categories the trace actually contains.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": "gpu"},
        }
    ]
    present = {event.category for event in trace}
    for category, lane in CATEGORY_LANES.items():
        if category not in present:
            continue
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": lane,
                "args": {"name": category.value},
            }
        )
    for event in trace:
        events.append(
            {
                "name": event.op.name,
                "cat": event.category.value,
                "ph": "X",
                "pid": 0,
                "tid": CATEGORY_LANES[event.category],
                "ts": event.start_s * 1e6,
                "dur": event.cost.time_s * 1e6,
                "args": {
                    "module": event.module_path,
                    "flops": event.cost.flops,
                    "bytes": event.cost.moved_bytes,
                    "limiter": event.cost.limiter,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def distributed_to_chrome_trace(trace: DistributedTrace) -> dict:
    """Serialize a distributed trace with one lane per rank.

    Compute and comm entries become ``"X"`` slices on their rank's
    lane (``tid`` = rank).  The *k*-th comm entry with a given label is
    the same collective wherever it appears, so when it shows up on
    more than one rank (SPMD collectives; pipeline sends only live on
    the sending rank) the slices are linked with ``"s"``/``"f"`` flow
    events — rendered as arrows in Perfetto.  The lowest rank carrying
    a collective starts its flow; every other rank ends it.  Requires
    timelines built with ``keep_entries=True``.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {
                "name": (
                    f"{trace.strategy} x{trace.world} on "
                    f"{trace.machine.name}"
                ),
            },
        }
    ]
    for timeline in trace.timelines:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": timeline.rank,
                "args": {"name": f"rank {timeline.rank}"},
            }
        )
    # Pre-pass: count how many ranks carry each (label, occurrence) so
    # flows are only emitted for collectives spanning >= 2 ranks.
    rank_counts: dict[tuple[str, int], int] = {}
    for timeline in trace.timelines:
        comm_seen: dict[str, int] = {}
        for entry in timeline.entries:
            if entry.kind != "comm":
                continue
            occurrence = comm_seen.get(entry.label, 0)
            comm_seen[entry.label] = occurrence + 1
            key = (entry.label, occurrence)
            rank_counts[key] = rank_counts.get(key, 0) + 1
    flow_ids: dict[tuple[str, int], int] = {}
    for timeline in trace.timelines:
        comm_seen = {}
        for entry in timeline.entries:
            events.append(
                {
                    "name": entry.label,
                    "cat": entry.kind,
                    "ph": "X",
                    "pid": 0,
                    "tid": timeline.rank,
                    "ts": entry.start_s * 1e6,
                    "dur": entry.duration_s * 1e6,
                    "args": {"rank": timeline.rank},
                }
            )
            if entry.kind != "comm":
                continue
            occurrence = comm_seen.get(entry.label, 0)
            comm_seen[entry.label] = occurrence + 1
            key = (entry.label, occurrence)
            if rank_counts[key] < 2:
                continue
            started = key in flow_ids
            flow_id = flow_ids.setdefault(key, len(flow_ids) + 1)
            events.append(
                {
                    "name": entry.label,
                    "cat": "comm-flow",
                    "ph": "f" if started else "s",
                    "bp": "e",
                    "id": flow_id,
                    "pid": 0,
                    "tid": timeline.rank,
                    "ts": entry.start_s * 1e6,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_chrome_trace(trace: Trace, path: str | Path) -> Path:
    """Write a trace to disk; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(trace)))
    return path


def save_distributed_chrome_trace(
    trace: DistributedTrace, path: str | Path
) -> Path:
    """Write a distributed trace to disk; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(distributed_to_chrome_trace(trace)))
    return path


def parse_chrome_trace(payload: dict) -> list[dict[str, Any]]:
    """Parse a Chrome-trace dict back to a flat list of kernel records.

    This is the script-side half of the paper's methodology: linking
    each GPU kernel to its module annotation and category so operator
    breakdowns can be computed from the serialized timeline alone.
    """
    records = []
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        records.append(
            {
                "name": event["name"],
                "category": event["cat"],
                "module": event["args"]["module"],
                "start_us": event["ts"],
                "duration_us": event["dur"],
                "flops": event["args"]["flops"],
                "bytes": event["args"]["bytes"],
            }
        )
    return records


def category_times_from_records(
    records: list[dict[str, Any]],
) -> dict[OpCategory, float]:
    """Operator-category times (seconds) from parsed trace records."""
    times: dict[OpCategory, float] = {}
    for record in records:
        category = OpCategory(record["category"])
        times[category] = times.get(category, 0.0) + (
            record["duration_us"] / 1e6
        )
    return times


def load_chrome_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read a trace file written by :func:`save_chrome_trace`."""
    return parse_chrome_trace(json.loads(Path(path).read_text()))


__all__ = [
    "CATEGORY_LANES",
    "category_times_from_records",
    "distributed_to_chrome_trace",
    "load_chrome_trace",
    "parse_chrome_trace",
    "save_chrome_trace",
    "save_distributed_chrome_trace",
    "to_chrome_trace",
]
