"""One-field mutants of the committed examples, through loader and gate.

For each committed example (a traffic trace, a telemetry log, a chaos
campaign), the first record of each kind gets one field set to
``null``, ``"x"``, ``-1``, ``1.5``, ``[]``, ``{}`` or ``true``, or the
field deleted.  Every mutant must satisfy the codec contract:

* the schema gate returns errors and never raises;
* the library loader either returns a value or raises a
  ``ValueError`` whose message starts ``line <n>:`` — never a raw
  ``KeyError``, ``TypeError`` or ``IndexError``;
* whatever the loader returns serializes again;
* a mutant the gate accepts loads and re-serializes byte-identically.

Loader and gate do not yet agree on every mutant: the loaders accept
some that the gates reject (see ROADMAP, open item 4).
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from repro.obs import dumps_telemetry, loads_telemetry
from repro.serving import (
    dumps_campaign,
    dumps_trace,
    loads_campaign,
    loads_trace,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
TRACES = REPO_ROOT / "examples" / "traces"
VALUES = (None, "x", -1, 1.5, [], {}, True)
_DELETE = object()


def _load_checker(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


_TRACE = _load_checker("check_trace_schema")
_TELEMETRY = _load_checker("check_telemetry_schema")
_CAMPAIGN = _load_checker("check_campaign_schema")

FORMATS = {
    "launch_day_small.jsonl": (
        loads_trace, dumps_trace,
        lambda path: _TRACE.check_trace(path, known_models=None),
    ),
    "telemetry_small.jsonl": (
        loads_telemetry, dumps_telemetry, _TELEMETRY.check_telemetry,
    ),
    "zone_outage_small.jsonl": (
        loads_campaign, dumps_campaign, _CAMPAIGN.check_campaign,
    ),
}


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def mutants(text: str):
    """Yield ``(label, mutant_text)`` for every one-field mutant."""
    lines = text.split("\n")[:-1]
    kinds_seen = set()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record["kind"] in kinds_seen:
            continue
        kinds_seen.add(record["kind"])
        for key in sorted(record):
            for value in VALUES + (_DELETE,):
                mutant = dict(record)
                if value is _DELETE:
                    del mutant[key]
                else:
                    mutant[key] = value
                mutated = list(lines)
                mutated[index] = _canonical(mutant)
                label = (
                    f"line {index + 1} {record['kind']}.{key} = "
                    f"{'<deleted>' if value is _DELETE else repr(value)}"
                )
                yield label, "\n".join(mutated) + "\n"


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_mutant_honours_the_codec_contract(name, tmp_path):
    loads, dumps, check = FORMATS[name]
    problems: list[str] = []
    count = 0
    path = tmp_path / name
    for label, text in mutants((TRACES / name).read_text()):
        count += 1
        path.write_text(text)
        try:
            accepted = not check(path)
        except Exception as error:  # a crash is the failure recorded
            problems.append(f"{label}: checker raised {error!r}")
            accepted = False
        try:
            loaded = loads(text)
        except ValueError as error:
            if not re.match(r"line \d+: ", str(error)):
                problems.append(f"{label}: unnumbered {error!r}")
            if accepted:
                problems.append(f"{label}: gate accepts, loader rejects")
            continue
        except Exception as error:
            problems.append(f"{label}: loader raised {error!r}")
            continue
        try:
            again = dumps(loaded)
        except Exception as error:
            problems.append(f"{label}: loaded value does not dump: {error!r}")
            continue
        if accepted and again != text:
            problems.append(f"{label}: gate accepts, bytes change")
    assert count > 100
    assert not problems, "\n".join(problems)
