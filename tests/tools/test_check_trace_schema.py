"""Unit tests for the trace-schema CI gate.

The checker validates committed traffic traces line-by-line without
going through ``repro.serving.traffic`` — these tests pin that it
accepts a freshly serialized trace (including the committed example)
and rejects each class of corruption the schema forbids: wrong
header, non-canonical bytes, out-of-order arrivals, unknown models,
bad client/combo references, broken id sequences.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.serving.traffic import (
    ClientPopulation,
    ModelTrafficCard,
    generate_traffic,
    save_trace,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_trace_schema",
    REPO_ROOT / "tools" / "check_trace_schema.py",
)
checker = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_trace_schema", checker)
_SPEC.loader.exec_module(checker)

EXAMPLE = REPO_ROOT / "examples" / "traces" / "launch_day_small.jsonl"


@pytest.fixture()
def trace_path(tmp_path: Path) -> Path:
    pop = ClientPopulation(
        cards=(
            ModelTrafficCard(
                name="stable_diffusion", base_service_s=1.5, share=0.6
            ),
            ModelTrafficCard(name="muse", base_service_s=0.5, share=0.4),
        ),
        n_clients=8,
        mean_rate_per_client=0.05,
    )
    trace = generate_traffic(pop, duration_s=300.0, seed=3)
    path = tmp_path / "trace.jsonl"
    save_trace(trace, str(path))
    return path


def rewrite(path: Path, line_index: int, mutate) -> Path:
    """Apply ``mutate(record_dict)`` to one line, keep bytes canonical."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[line_index])
    mutate(record)
    lines[line_index] = checker.canonical(record)
    out = path.with_name("mutated.jsonl")
    out.write_text("\n".join(lines) + "\n")
    return out


class TestAccepts:
    def test_fresh_trace_passes(self, trace_path):
        assert checker.check_trace(
            trace_path, known_models=None) == []
        assert checker.main([str(trace_path)]) == 0

    def test_committed_example_passes_with_registry(self):
        assert checker.main([str(EXAMPLE)]) == 0

    def test_empty_stream_trace_passes(self, tmp_path):
        pop = ClientPopulation(
            cards=(ModelTrafficCard(
                name="muse", base_service_s=0.5, share=1.0),),
            n_clients=3,
            mean_rate_per_client=0.0,
        )
        path = tmp_path / "empty.jsonl"
        save_trace(generate_traffic(pop, duration_s=60.0, seed=0),
                   str(path))
        assert checker.check_trace(path, known_models=None) == []


class TestHeader:
    def test_missing_file_reports_error(self, tmp_path):
        errors = checker.check_trace(
            tmp_path / "nope.jsonl", known_models=None)
        assert errors

    def test_wrong_schema_id_fails(self, trace_path):
        bad = rewrite(trace_path, 0,
                      lambda r: r.update(schema="other-schema"))
        assert any("schema" in e for e in
                   checker.check_trace(bad, known_models=None))

    @pytest.mark.parametrize("version", [2, True])
    def test_wrong_version_fails(self, trace_path, version):
        bad = rewrite(trace_path, 0, lambda r: r.update(version=version))
        assert any("version" in e for e in
                   checker.check_trace(bad, known_models=None))

    @pytest.mark.parametrize("field,value", [
        (field, value)
        for field in ("duration_s", "num_clients", "models", "combos")
        for value in (None, "x", -1, 1.5, True, [], {})
        if (field, value) != ("duration_s", 1.5)
    ], ids=repr)
    def test_malformed_header_field_is_an_error_not_a_crash(
        self, trace_path, field, value
    ):
        bad = rewrite(trace_path, 0, lambda r: r.update({field: value}))
        errors = checker.check_trace(bad, known_models=None)
        assert any(e.startswith("line 1:") for e in errors)

    def test_unknown_model_fails_registry_check(self, trace_path):
        errors = checker.check_trace(
            trace_path, known_models=frozenset({"llama"}))
        assert any("registry" in e for e in errors)
        assert checker.check_trace(trace_path, known_models=None) == []

    def test_any_model_flag_skips_registry(self, trace_path):
        bad = rewrite(
            trace_path, 0,
            lambda r: r.update(
                models=["not_a_model", r["models"][1]]),
        )
        # Registry check would fail; --any-model must not consult it,
        # and the request records now reference an unlisted model.
        assert checker.main([str(bad), "--any-model"]) == 1


class TestCanonicalBytes:
    def test_non_canonical_line_fails(self, trace_path):
        lines = trace_path.read_text().splitlines()
        record = json.loads(lines[1])
        lines[1] = json.dumps(record)  # default separators: not canonical
        bad = trace_path.with_name("loose.jsonl")
        bad.write_text("\n".join(lines) + "\n")
        assert any("canonical" in e for e in
                   checker.check_trace(bad, known_models=None))

    def test_missing_trailing_newline_fails(self, trace_path):
        bad = trace_path.with_name("chomped.jsonl")
        bad.write_text(trace_path.read_text().rstrip("\n"))
        assert any("newline" in e for e in
                   checker.check_trace(bad, known_models=None))

    def test_invalid_json_line_fails(self, trace_path):
        bad = trace_path.with_name("broken.jsonl")
        bad.write_text(trace_path.read_text() + "{not json\n")
        assert any("invalid JSON" in e for e in
                   checker.check_trace(bad, known_models=None))


class TestRecords:
    def first_request_line(self, path: Path) -> int:
        for index, line in enumerate(path.read_text().splitlines()):
            if json.loads(line).get("kind") == "request":
                return index
        raise AssertionError("trace has no request records")

    def test_out_of_order_arrival_fails(self, trace_path):
        index = self.first_request_line(trace_path)
        bad = rewrite(trace_path, index + 1,
                      lambda r: r.update(arrival_s=-1.0))
        errors = checker.check_trace(bad, known_models=None)
        assert any("monotone" in e or "outside" in e for e in errors)

    def test_negative_service_fails(self, trace_path):
        index = self.first_request_line(trace_path)
        bad = rewrite(trace_path, index,
                      lambda r: r.update(service_s=0.0))
        assert any("service_s" in e for e in
                   checker.check_trace(bad, known_models=None))

    def test_unknown_request_model_fails(self, trace_path):
        index = self.first_request_line(trace_path)
        bad = rewrite(trace_path, index,
                      lambda r: r.update(model="phantom"))
        assert any("model table" in e for e in
                   checker.check_trace(bad, known_models=None))

    def test_client_out_of_range_fails(self, trace_path):
        index = self.first_request_line(trace_path)
        bad = rewrite(trace_path, index,
                      lambda r: r.update(client=99))
        assert any("client" in e for e in
                   checker.check_trace(bad, known_models=None))

    def test_combo_out_of_range_fails(self, trace_path):
        index = self.first_request_line(trace_path)
        bad = rewrite(trace_path, index,
                      lambda r: r.update(combo=42))
        assert any("combo" in e for e in
                   checker.check_trace(bad, known_models=None))

    @pytest.mark.parametrize("field", ["client", "combo"])
    def test_bool_client_or_combo_fails(self, trace_path, field):
        index = self.first_request_line(trace_path)
        bad = rewrite(trace_path, index, lambda r: r.update({field: True}))
        assert any(field in e for e in
                   checker.check_trace(bad, known_models=None))

    def test_gapped_request_ids_fail(self, trace_path):
        index = self.first_request_line(trace_path)
        bad = rewrite(trace_path, index, lambda r: r.update(id=5))
        assert any("request id" in e for e in
                   checker.check_trace(bad, known_models=None))

    def test_negative_client_rate_fails(self, trace_path):
        bad = rewrite(trace_path, 1, lambda r: r.update(rate=-0.1))
        assert any("rate" in e for e in
                   checker.check_trace(bad, known_models=None))

    def test_unknown_tier_fails(self, trace_path):
        bad = rewrite(trace_path, 1,
                      lambda r: r.update(tier="platinum"))
        assert any("tier" in e for e in
                   checker.check_trace(bad, known_models=None))

    def test_client_count_mismatch_fails(self, trace_path):
        lines = trace_path.read_text().splitlines()
        del lines[1]  # drop client 0
        bad = trace_path.with_name("short.jsonl")
        bad.write_text("\n".join(lines) + "\n")
        errors = checker.check_trace(bad, known_models=None)
        assert any("promised" in e or "client id" in e for e in errors)

    def test_unknown_record_kind_fails(self, trace_path):
        bad_line = checker.canonical({"kind": "mystery"})
        bad = trace_path.with_name("kinds.jsonl")
        bad.write_text(trace_path.read_text() + bad_line + "\n")
        assert any("kind" in e for e in
                   checker.check_trace(bad, known_models=None))


class TestCli:
    def test_multiple_files_fail_if_any_fails(self, trace_path):
        bad = rewrite(trace_path, 0, lambda r: r.update(version=9))
        assert checker.main(
            [str(trace_path), str(bad), "--any-model"]) == 1

    def test_registry_covers_committed_example(self):
        header = json.loads(
            EXAMPLE.read_text().splitlines()[0])
        assert set(header["models"]) <= checker.registry_models()
