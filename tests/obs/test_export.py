"""JSONL telemetry export: canonical bytes and header validation."""

import json

import pytest

from repro.obs import (
    TELEMETRY_SCHEMA,
    TELEMETRY_VERSION,
    dumps_telemetry,
    load_telemetry,
    loads_telemetry,
    save_telemetry,
)


class TestRoundTrip:
    def test_loads_inverts_dumps(self, small_log):
        text = dumps_telemetry(small_log)
        assert loads_telemetry(text) == small_log

    def test_dumps_loads_dumps_is_byte_identity(self, small_log):
        text = dumps_telemetry(small_log)
        assert dumps_telemetry(loads_telemetry(text)) == text

    def test_file_round_trip(self, small_log, tmp_path):
        path = save_telemetry(small_log, tmp_path / "telemetry.jsonl")
        assert load_telemetry(path) == small_log

    def test_lines_are_canonical(self, small_log):
        for line in dumps_telemetry(small_log).splitlines():
            record = json.loads(line)
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )


class TestHeader:
    def test_header_first_with_counts(self, small_log):
        header = json.loads(
            dumps_telemetry(small_log).splitlines()[0]
        )
        assert header["kind"] == "header"
        assert header["schema"] == TELEMETRY_SCHEMA
        assert header["version"] == TELEMETRY_VERSION
        assert header["num_spans"] == len(small_log.spans)
        assert header["num_events"] == len(small_log.events)
        assert header["meta"] == {"scenario": "conftest"}

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            loads_telemetry("")

    def test_missing_header_rejected(self, small_log):
        lines = dumps_telemetry(small_log).splitlines()
        with pytest.raises(ValueError, match="header"):
            loads_telemetry("\n".join(lines[1:]))

    def test_wrong_schema_rejected(self, small_log):
        text = dumps_telemetry(small_log).replace(
            TELEMETRY_SCHEMA, "not-telemetry", 1
        )
        with pytest.raises(ValueError, match="schema"):
            loads_telemetry(text)

    def test_wrong_version_rejected(self, small_log):
        lines = dumps_telemetry(small_log).splitlines()
        header = json.loads(lines[0])
        header["version"] = TELEMETRY_VERSION + 1
        lines[0] = json.dumps(header, sort_keys=True)
        with pytest.raises(ValueError, match="version"):
            loads_telemetry("\n".join(lines))

    def test_count_mismatch_rejected(self, small_log):
        lines = dumps_telemetry(small_log).splitlines()
        with pytest.raises(ValueError, match="promised"):
            loads_telemetry("\n".join(lines[:-1]))

    def test_unknown_record_kind_rejected(self, small_log):
        text = dumps_telemetry(small_log) + json.dumps(
            {"kind": "mystery"}
        )
        with pytest.raises(ValueError, match="unknown record kind"):
            loads_telemetry(text)

    def test_non_object_span_event_attrs_rejected(self, small_log):
        lines = dumps_telemetry(small_log).splitlines()
        span = json.loads(lines[1])
        span["events"][0][2] = None
        lines[1] = json.dumps(span, sort_keys=True, separators=(",", ":"))
        with pytest.raises(ValueError, match="^line 2: attrs None is not an object"):
            loads_telemetry("\n".join(lines))
