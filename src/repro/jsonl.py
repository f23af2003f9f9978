"""Canonical JSONL: the one wire discipline of the persisted formats.

Traffic traces (:mod:`repro.serving.traffic`), fleet telemetry
(:mod:`repro.obs.export`) and chaos campaigns
(:mod:`repro.serving.chaos`) share one framing, owned here: every line
is one JSON object in canonical form (sorted keys, compact
separators), so equal values serialize to identical bytes; line 1 is
the ``header`` record, stamped with the format's ``schema`` id and
``version``; every record names its ``kind``; the text ends with a
newline.  A format module keeps only its record mapping and the
counts its header promises.  The CI schema gates under ``tools/``
re-check the same framing without importing this module, so a
serializer bug cannot certify itself.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Mapping

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical(obj: object) -> str:
    """One canonical JSON line: sorted keys, compact separators."""
    return _ENCODER.encode(obj)


def dumps(schema: str, version: int, header: Mapping[str, Any],
          records: Iterable[Mapping[str, Any]]) -> str:
    """Serialize a header and its body records as canonical JSONL.

    ``kind``, ``schema`` and ``version`` are stamped into the header;
    ``records`` (each carrying its own ``kind``) may be a lazy
    iterable and are written in the order given.
    """
    lines = [canonical({
        **header, "kind": "header", "schema": schema, "version": version,
    })]
    lines.extend(map(canonical, records))
    return "\n".join(lines) + "\n"


def loads(text: str, schema: str, version: int,
          decoders: Mapping[str, Callable[[dict], object]]) -> None:
    """Parse canonical JSONL, handing each record to its decoder.

    Line 1 must be a ``header`` of this ``schema`` and integer
    ``version``; it goes to ``decoders["header"]``, and each later
    record to ``decoders[record["kind"]]``, in file order.  The final
    newline is optional.  Invalid JSON, a wrong header, an unknown
    kind, and a ``KeyError``, ``TypeError``, ``ValueError`` or
    ``IndexError`` raised by a decoder all surface as a
    ``ValueError`` whose message starts ``line <n>:``.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("line 1: empty file (no header record)")
    number = 1
    try:
        header = json.loads(lines[0])
        if header["kind"] != "header":
            raise ValueError("first record must be the header")
        if header["schema"] != schema:
            raise ValueError(f"schema {header['schema']!r}, not {schema!r}")
        found = header["version"]
        if type(found) is not int or found != version:
            raise ValueError(f"unsupported version {found!r} ({version})")
        decoders["header"](header)
        body = {k: v for k, v in decoders.items() if k != "header"}
        for number, line in enumerate(lines[1:], start=2):
            record = json.loads(line)
            decode = body.get(record["kind"])
            if decode is None:
                raise ValueError(f"unknown record kind {record['kind']!r}")
            decode(record)
    except json.JSONDecodeError as error:
        raise ValueError(
            f"line {number}: invalid JSON ({error.msg})"
        ) from error
    except KeyError as error:
        raise ValueError(f"line {number}: missing field {error}") from error
    except ValueError as error:
        raise ValueError(f"line {number}: {error}") from error
    except (TypeError, IndexError) as error:
        raise ValueError(
            f"line {number}: malformed record ({error})"
        ) from error
