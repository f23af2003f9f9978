#!/usr/bin/env python
"""Validate a chaos-campaign JSONL file against the v1 schema.

Usage::

    python tools/check_campaign_schema.py examples/traces/zone_outage_small.jsonl

The campaign format (``docs/CHAOS.md``) is the interchange boundary of
the chaos layer: campaigns are committed to the repo, compiled into the
per-server fault schedule, and replayed bit-identically on both fleet
engines.  This checker is the CI gate that a committed campaign actually
honors the contract *without* loading it through
``repro.serving.chaos`` — an independent line-by-line validation, so a
serializer bug cannot self-certify.

Checks, in order per file, after the shared framing of
``jsonl_gate.py`` (canonical lines, header schema id and version):

* the header has a non-negative integer seed, a positive finite
  ``duration_s``, and a positive ``servers`` count;
* line 2 is a ``topology`` record whose ``host_of``/``rack_of``/
  ``zone_of`` columns are equal-length non-negative integer lists of
  exactly ``servers`` entries, with consistent nesting (one rack per
  host, one zone per rack);
* every further line is an ``event`` record of a known event name with
  its kind-specific required fields: finite ``at_s`` >= 0, finite
  ``duration_s`` > 0, outage ``stagger_s`` in ``[0, duration_s)``,
  scopes drawn from ``{rack, zone}``, targeted domain indexes that
  exist in the topology, ``bandwidth_factor`` in (0, 1) and
  ``comm_fraction`` in [0, 1] for degraded links.

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

EXPECTED_SCHEMA = "repro-chaos-campaign"
EXPECTED_VERSION = 1
SCOPES = ("rack", "zone")
EVENT_NAMES = ("zone_outage", "rack_outage", "partition", "degraded_link")


def check_header(record: dict, errors: list[str]) -> dict:
    """Validate the header fields; returns the record."""
    seed = record.get("seed")
    if not is_int(seed) or seed < 0:
        errors.append(
            f"line 1: seed must be a non-negative int, got {seed!r}"
        )
    duration = record.get("duration_s")
    if not isinstance(duration, float) or not (
        math.isfinite(duration) and duration > 0.0
    ):
        errors.append(
            f"line 1: duration_s must be a positive finite float, "
            f"got {duration!r}"
        )
    servers = record.get("servers")
    if not is_int(servers) or servers <= 0:
        errors.append(
            f"line 1: servers must be a positive int, got {servers!r}"
        )
    return record


def check_topology(record: dict, servers: int,
                   errors: list[str]) -> dict[str, list[int]]:
    """Validate the topology record; returns its (possibly bad) columns."""
    if record.get("kind") != "topology":
        errors.append("line 2: second record must have kind 'topology'")
    columns: dict[str, list[int]] = {}
    for name in ("host_of", "rack_of", "zone_of"):
        column = record.get(name)
        if not isinstance(column, list) or not all(
            is_int(v) and v >= 0 for v in column
        ):
            errors.append(
                f"line 2: {name} must be a non-negative int list"
            )
            column = []
        columns[name] = column
    lengths = {len(column) for column in columns.values()}
    if len(lengths) != 1:
        errors.append("line 2: topology columns have unequal lengths")
        return columns
    (length,) = lengths
    if isinstance(servers, int) and length != servers:
        errors.append(
            f"line 2: topology describes {length} servers, header "
            f"promised {servers}"
        )
    host_rack: dict[int, int] = {}
    rack_zone: dict[int, int] = {}
    for sid in range(length):
        host = columns["host_of"][sid]
        rack = columns["rack_of"][sid]
        zone = columns["zone_of"][sid]
        if host_rack.setdefault(host, rack) != rack:
            errors.append(
                f"line 2: host {host} spans racks "
                f"{host_rack[host]} and {rack}"
            )
        if rack_zone.setdefault(rack, zone) != zone:
            errors.append(
                f"line 2: rack {rack} spans zones "
                f"{rack_zone[rack]} and {zone}"
            )
    return columns


def check_event(record: dict, number: int, duration: float,
                racks: frozenset[int], zones: frozenset[int],
                errors: list[str]) -> None:
    """Validate one event record against the topology's domains."""
    name = record.get("event")
    if name not in EVENT_NAMES:
        errors.append(f"line {number}: unknown event {name!r}")
        return
    at = record.get("at_s")
    if not finite(at) or at < 0.0:
        errors.append(
            f"line {number}: at_s must be finite and >= 0, got {at!r}"
        )
    span = record.get("duration_s")
    if not finite(span) or span <= 0.0:
        errors.append(
            f"line {number}: duration_s must be finite and > 0, "
            f"got {span!r}"
        )
        span = math.inf
    if finite(at) and math.isfinite(span) and at > duration:
        errors.append(
            f"line {number}: event starts at {at!r}, after the "
            f"campaign duration {duration!r}"
        )
    if name in ("zone_outage", "rack_outage"):
        stagger = record.get("stagger_s")
        if not finite(stagger) or not 0.0 <= stagger < span:
            errors.append(
                f"line {number}: stagger_s must lie in "
                f"[0, duration_s), got {stagger!r}"
            )
        field = "zone" if name == "zone_outage" else "rack"
        domains = zones if name == "zone_outage" else racks
        index = record.get(field)
        if not is_int(index) or index not in domains:
            errors.append(
                f"line {number}: {field} {index!r} not in the "
                "topology"
            )
    else:
        scope = record.get("scope")
        if scope not in SCOPES:
            errors.append(
                f"line {number}: scope {scope!r} not in {SCOPES}"
            )
        index = record.get("index")
        domains = zones if scope == "zone" else racks
        if not is_int(index) or index not in domains:
            errors.append(
                f"line {number}: {scope or 'domain'} {index!r} not "
                "in the topology"
            )
    if name == "degraded_link":
        factor = record.get("bandwidth_factor")
        if not finite(factor) or not 0.0 < factor < 1.0:
            errors.append(
                f"line {number}: bandwidth_factor must lie in "
                f"(0, 1), got {factor!r}"
            )
        fraction = record.get("comm_fraction")
        if not finite(fraction) or not 0.0 <= fraction <= 1.0:
            errors.append(
                f"line {number}: comm_fraction must lie in [0, 1], "
                f"got {fraction!r}"
            )


def check_campaign(path: Path, *, max_errors: int = 20) -> list[str]:
    """Validate one campaign file; returns error strings (empty = pass)."""
    errors: list[str] = []
    records = read_records(path, EXPECTED_SCHEMA, EXPECTED_VERSION, errors)
    if len(records) < 2:
        if records:
            errors.append(
                "campaign file needs a header and a topology record"
            )
        return errors[:max_errors]

    header = check_header(records[0], errors)
    columns = check_topology(
        records[1], header.get("servers", -1), errors
    )
    duration = header.get("duration_s")
    duration = duration if finite(duration) else math.inf
    racks = frozenset(columns.get("rack_of") or ())
    zones = frozenset(columns.get("zone_of") or ())
    for number, record in enumerate(records[2:], start=3):
        if len(errors) >= max_errors:
            errors.append("... further errors suppressed")
            break
        if record.get("kind") != "event":
            errors.append(
                f"line {number}: expected kind 'event', got "
                f"{record.get('kind')!r}"
            )
            continue
        check_event(record, number, duration, racks, zones, errors)
    return errors[: max_errors + 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "campaigns", type=Path, nargs="+",
        help="campaign files in the JSONL schema",
    )
    args = parser.parse_args(argv)
    return report(
        args.campaigns, check_campaign,
        lambda records: (
            f"{records[0]['servers']} servers, {len(records) - 2} events"
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
