"""Framing shared by the three canonical-JSONL schema gates.

``check_trace_schema.py``, ``check_telemetry_schema.py`` and
``check_campaign_schema.py`` share these rules: the file ends with a
newline, every line is a canonical JSON object (sorted keys, compact
separators), and line 1 is a ``header`` with the expected schema id
and integer version.  Each gate keeps its own record rules.  Nothing
here imports ``repro``: the gates stay independent witnesses of the
serializers, so a serializer bug cannot certify itself.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Callable


def canonical(obj: object) -> str:
    """Canonical one-line JSON (matches the serializer's contract)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def is_int(value: object) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def finite(value: object) -> bool:
    """A finite int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(
        value, bool
    ) and math.isfinite(value)


def read_records(path: Path, schema: str, version: int,
                 errors: list[str]) -> list[dict]:
    """Read a file's records, appending an error per framing violation.

    Returns ``[]`` when the file is unreadable or empty, lacks its
    final newline, or holds a line that is not a canonical JSON
    object; otherwise every record, after checking the header's kind,
    schema and version.
    """
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except OSError as error:
        errors.append(str(error))
        return []
    if lines[-1] == "":
        lines.pop()
    else:
        errors.append("file must end with a trailing newline")
    if not lines:
        errors.append("empty file (no header record)")
    failed = bool(errors)
    records: list[dict] = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            errors.append(f"line {number}: invalid JSON ({error.msg})")
            failed = True
            continue
        if not isinstance(record, dict):
            errors.append(f"line {number}: record is not a JSON object")
            failed = True
        elif line != canonical(record):
            errors.append(
                f"line {number}: not canonical JSON "
                "(keys sorted, separators (',', ':'))"
            )
            failed = True
        records.append(record)
    if failed:
        return []
    header = records[0]
    if header.get("kind") != "header":
        errors.append("line 1: first record must have kind 'header'")
    if header.get("schema") != schema:
        errors.append(
            f"line 1: schema {header.get('schema')!r} != {schema!r}"
        )
    if not is_int(header.get("version")) or header["version"] != version:
        errors.append(
            f"line 1: version {header.get('version')!r} != {version}"
        )
    return records


def report(paths: list[Path], check: Callable[[Path], list[str]],
           describe: Callable[[list[dict]], str]) -> int:
    """Print ok/FAIL per file; exit status 1 if any file fails.

    ``describe`` summarizes a passing file's records on its ok line.
    """
    failures = 0
    for path in paths:
        errors = check(path)
        if errors:
            failures += 1
            print(f"FAIL  {path}", file=sys.stderr)
            for line in errors:
                print(f"  {line}", file=sys.stderr)
        else:
            records = [json.loads(line) for line in
                       path.read_text(encoding="utf-8").splitlines()]
            print(f"ok    {path}: {describe(records)}, "
                  f"schema v{records[0]['version']}")
    return 1 if failures else 0
