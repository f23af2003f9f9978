#!/usr/bin/env python
"""Validate a traffic-trace JSONL file against the v1 schema.

Usage::

    python tools/check_trace_schema.py examples/traces/launch_day_small.jsonl

The trace format (``docs/TRAFFIC.md``) is the interchange boundary of
the workload layer: traces are committed to the repo, replayed into
both fleet engines, and diffed byte-for-byte by the determinism suite.
This checker is the CI gate that a committed trace actually honors the
contract *without* loading it through ``repro.serving.traffic`` — an
independent line-by-line validation, so a serializer bug cannot
self-certify.

Checks, in order per file, after the shared framing of
``jsonl_gate.py`` (canonical lines, header schema id and version):

* exactly ``num_clients`` client records, ids ``0..n-1`` in order,
  rates finite and >= 0, tiers drawn from the known tier names;
* request ids ``0..n-1`` in order, arrivals monotone non-decreasing
  within ``[0, duration_s]``, service times finite and > 0;
* every request's model is in the header's model table, its client id
  in range, and its combo id indexes that model's combo table;
* model names are *known*: present in the repository's model registry
  (``--any-model`` skips this for traces of hypothetical fleets).

Exit status: 0 when every file passes, 1 on any violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    from jsonl_gate import canonical, finite, is_int, read_records, report
finally:
    sys.path.pop(0)

REPO_ROOT = Path(__file__).resolve().parents[1]

EXPECTED_SCHEMA = "repro-traffic-trace"
EXPECTED_VERSION = 1
TIER_NAMES = ("heavy", "medium", "light")


def registry_models() -> frozenset[str]:
    """Model names the repository's registry can instantiate."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.models.registry import suite_names
    finally:
        sys.path.pop(0)
    return frozenset(suite_names())


def check_header(record: dict, errors: list[str]) -> None:
    """Validate the header fields the body checks rely on."""
    duration = record.get("duration_s")
    if not isinstance(duration, float) or not duration > 0.0:
        errors.append(
            f"line 1: duration_s must be a positive float, got "
            f"{duration!r}"
        )
    models = record.get("models")
    if (
        not isinstance(models, list)
        or not models
        or not all(isinstance(name, str) for name in models)
    ):
        errors.append("line 1: models must be a non-empty string list")
    elif len(set(models)) != len(models):
        errors.append("line 1: duplicate model names in header")
    combos = record.get("combos")
    if not isinstance(combos, list) or not all(
        isinstance(table, list) for table in combos
    ) or (isinstance(models, list) and len(combos) != len(models)):
        errors.append(
            "line 1: combos must hold one table per header model"
        )
    if not is_int(record.get("num_clients")) or record["num_clients"] < 0:
        errors.append("line 1: num_clients must be a non-negative int")
    if not isinstance(record.get("meta"), dict):
        errors.append("line 1: meta must be an object")


def check_trace(path: Path, *, known_models: frozenset[str] | None,
                max_errors: int = 20) -> list[str]:
    """Validate one trace file; returns error strings (empty = pass).

    A header that fails its checks ends the check: the body checks
    read the header's duration, model and combo tables and client
    count.
    """
    errors: list[str] = []
    records = read_records(path, EXPECTED_SCHEMA, EXPECTED_VERSION, errors)
    if not records:
        return errors[:max_errors]
    header = records[0]
    check_header(header, errors)
    if errors:
        return errors[:max_errors]
    duration = header["duration_s"]
    models = header["models"]
    combos = header["combos"]
    num_clients = header["num_clients"]
    if known_models is not None:
        for name in models:
            if name not in known_models:
                errors.append(
                    f"line 1: model {name!r} not in the repository "
                    "registry (use --any-model to allow)"
                )

    clients_seen = 0
    requests_seen = 0
    last_arrival = 0.0
    for number, record in enumerate(records[1:], start=2):
        if len(errors) >= max_errors:
            errors.append("... further errors suppressed")
            break
        kind = record.get("kind")
        if kind == "client":
            if requests_seen:
                errors.append(
                    f"line {number}: client record after request "
                    "records"
                )
            if not is_int(record.get("id")) or (
                record["id"] != clients_seen
            ):
                errors.append(
                    f"line {number}: client id {record.get('id')!r}, "
                    f"expected {clients_seen} (ids are dense and "
                    "ordered)"
                )
            rate = record.get("rate")
            if not finite(rate) or rate < 0.0:
                errors.append(
                    f"line {number}: client rate must be finite and "
                    f">= 0, got {rate!r}"
                )
            if record.get("tier") not in TIER_NAMES:
                errors.append(
                    f"line {number}: unknown tier "
                    f"{record.get('tier')!r}"
                )
            clients_seen += 1
        elif kind == "request":
            if not is_int(record.get("id")) or (
                record["id"] != requests_seen
            ):
                errors.append(
                    f"line {number}: request id {record.get('id')!r}, "
                    f"expected {requests_seen}"
                )
            arrival = record.get("arrival_s")
            if not finite(arrival):
                errors.append(
                    f"line {number}: bad arrival_s {arrival!r}"
                )
            else:
                if arrival < last_arrival:
                    errors.append(
                        f"line {number}: arrival {arrival!r} before "
                        f"previous arrival {last_arrival!r} "
                        "(arrivals must be monotone)"
                    )
                if not 0.0 <= arrival <= duration:
                    errors.append(
                        f"line {number}: arrival {arrival!r} outside "
                        f"[0, {duration}]"
                    )
                last_arrival = max(last_arrival, float(arrival))
            service = record.get("service_s")
            if not finite(service) or service <= 0.0:
                errors.append(
                    f"line {number}: service_s must be finite and "
                    f"> 0, got {service!r}"
                )
            client = record.get("client")
            if not is_int(client) or not 0 <= client < num_clients:
                errors.append(
                    f"line {number}: client {client!r} not in "
                    f"[0, {num_clients})"
                )
            model = record.get("model")
            if model not in models:
                errors.append(
                    f"line {number}: model {model!r} not in the "
                    "header's model table"
                )
            else:
                table = combos[models.index(model)]
                combo = record.get("combo")
                if not (is_int(combo) and 0 <= combo < len(table)):
                    errors.append(
                        f"line {number}: combo {combo!r} does not "
                        f"index {model!r}'s combo table "
                        f"(size {len(table)})"
                    )
            requests_seen += 1
        else:
            errors.append(f"line {number}: unknown record kind {kind!r}")
    if clients_seen != num_clients:
        errors.append(
            f"header promised {num_clients} clients, file has "
            f"{clients_seen}"
        )
    return errors[: max_errors + 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "traces", type=Path, nargs="+",
        help="trace files in the JSONL schema",
    )
    parser.add_argument(
        "--any-model", action="store_true",
        help="skip the model-registry membership check",
    )
    args = parser.parse_args(argv)
    known = None if args.any_model else registry_models()
    return report(
        args.traces,
        lambda path: check_trace(path, known_models=known),
        lambda records: f"{records[0]['num_clients']} clients",
    )


if __name__ == "__main__":
    raise SystemExit(main())
