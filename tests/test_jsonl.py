"""The shared canonical-JSONL codec and the committed example files."""

import json
from pathlib import Path

import pytest

from repro import jsonl
from repro.obs import dumps_telemetry, loads_telemetry
from repro.serving import (
    dumps_campaign,
    dumps_trace,
    loads_campaign,
    loads_trace,
)

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples" / "traces")
    .glob("*.jsonl")
)

CODECS = {
    "repro-traffic-trace": (loads_trace, dumps_trace),
    "repro-telemetry": (loads_telemetry, dumps_telemetry),
    "repro-chaos-campaign": (loads_campaign, dumps_campaign),
}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_committed_example_round_trips_through_its_loader(path):
    text = path.read_text(encoding="utf-8")
    loads, dumps = CODECS[json.loads(text.split("\n", 1)[0])["schema"]]
    assert dumps(loads(text)) == text


def test_every_format_has_a_committed_example():
    schemas = {
        json.loads(path.read_text().split("\n", 1)[0])["schema"]
        for path in EXAMPLES
    }
    assert schemas == set(CODECS)


def _decode_into(seen):
    return {
        "header": lambda record: seen.append(("header", record["n"])),
        "row": lambda record: seen.append(("row", record["value"])),
    }


class TestDumps:
    def test_header_is_stamped_and_lines_are_canonical(self):
        text = jsonl.dumps(
            "demo", 3, {"n": 2, "kind": "ignored"},
            iter([{"kind": "row", "value": 1.5, "a": [1, 2]}]),
        )
        assert text == (
            '{"kind":"header","n":2,"schema":"demo","version":3}\n'
            '{"a":[1,2],"kind":"row","value":1.5}\n'
        )

    def test_loads_hands_records_to_decoders_in_file_order(self):
        text = jsonl.dumps(
            "demo", 1, {"n": 2},
            [{"kind": "row", "value": v} for v in (3, 1)],
        )
        seen = []
        jsonl.loads(text, "demo", 1, _decode_into(seen))
        assert seen == [("header", 2), ("row", 3), ("row", 1)]


class TestLoadsErrorsNameTheLine:
    TEXT = (
        '{"kind":"header","n":1,"schema":"demo","version":1}\n'
        '{"kind":"row","value":1}\n'
    )

    @pytest.mark.parametrize("text,message", [
        ("", "line 1: empty"),
        ('{"kind":"row"}\n', "line 1: first record must be the header"),
        ('{"kind":"header","schema":"other","version":1}\n',
         "line 1: schema 'other'"),
        ('{"kind":"header","schema":"demo","version":true}\n',
         "line 1: unsupported version True"),
        ('{"kind":"header","schema":"demo","version":1}\n',
         "line 1: missing field 'n'"),
        (TEXT + "{oops\n", "line 3: invalid JSON"),
        (TEXT + '{"kind":"mystery"}\n',
         "line 3: unknown record kind 'mystery'"),
        (TEXT + '{"kind":"header","n":1}\n',
         "line 3: unknown record kind 'header'"),
        (TEXT + '{"kind":"row"}\n', "line 3: missing field 'value'"),
        (TEXT + "[1]\n", "line 3: malformed record"),
        (TEXT + "\n" + '{"kind":"row","value":2}\n',
         "line 3: invalid JSON"),
    ])
    def test_message_starts_with_the_line(self, text, message):
        with pytest.raises(ValueError) as raised:
            jsonl.loads(text, "demo", 1, _decode_into([]))
        assert str(raised.value).startswith(message)

    def test_trailing_newline_is_optional(self):
        seen = []
        jsonl.loads(self.TEXT.rstrip("\n"), "demo", 1, _decode_into(seen))
        assert seen == [("header", 1), ("row", 1)]

    def test_decoder_value_error_is_prefixed(self):
        def reject(record):
            raise ValueError("value out of range")

        with pytest.raises(ValueError, match="^line 2: value out of range$"):
            jsonl.loads(
                self.TEXT, "demo", 1,
                {"header": lambda record: None, "row": reject},
            )
