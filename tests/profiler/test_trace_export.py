"""Chrome-trace export/parse round-trip tests."""

import json

import pytest

from repro.distributed.partition import TensorParallel
from repro.distributed.registry import machine_from_name
from repro.distributed.timeline import build_timelines
from repro.ir.context import ExecutionContext
from repro.ir.ops import Elementwise, Gemm, OpCategory
from repro.models.registry import build_model
from repro.profiler import profile_sharded
from repro.profiler.trace_export import (
    CATEGORY_LANES,
    category_times_from_records,
    distributed_to_chrome_trace,
    load_chrome_trace,
    parse_chrome_trace,
    save_chrome_trace,
    save_distributed_chrome_trace,
    to_chrome_trace,
)


@pytest.fixture
def trace():
    ctx = ExecutionContext()
    with ctx.named_scope("unet"):
        ctx.emit(Gemm("proj", m=128, n=128, k=128))
        ctx.emit(Elementwise("gelu", numel=4096))
    return ctx.trace


class TestExport:
    def test_event_count(self, trace):
        payload = to_chrome_trace(trace)
        complete = [
            event for event in payload["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert len(complete) == 2

    def test_durations_in_microseconds(self, trace):
        payload = to_chrome_trace(trace)
        event = next(
            event for event in payload["traceEvents"]
            if event.get("ph") == "X"
        )
        source = trace.events[0]
        assert event["dur"] == pytest.approx(source.cost.time_s * 1e6)

    def test_module_annotation_preserved(self, trace):
        payload = to_chrome_trace(trace)
        event = next(
            event for event in payload["traceEvents"]
            if event.get("ph") == "X"
        )
        assert event["args"]["module"] == "unet"

    def test_json_serializable(self, trace):
        json.dumps(to_chrome_trace(trace))

    def test_one_lane_per_category(self, trace):
        payload = to_chrome_trace(trace)
        lanes = {
            event["cat"]: event["tid"]
            for event in payload["traceEvents"]
            if event.get("ph") == "X"
        }
        assert lanes[OpCategory.LINEAR.value] == CATEGORY_LANES[
            OpCategory.LINEAR
        ]
        assert lanes[OpCategory.ELEMENTWISE.value] == CATEGORY_LANES[
            OpCategory.ELEMENTWISE
        ]
        assert lanes[OpCategory.LINEAR.value] != lanes[
            OpCategory.ELEMENTWISE.value
        ]

    def test_process_is_named_by_a_process_name_record(self, trace):
        metadata = [
            event for event in to_chrome_trace(trace)["traceEvents"]
            if event.get("ph") == "M" and "tid" not in event
        ]
        assert metadata == [{
            "name": "process_name", "ph": "M", "pid": 0,
            "args": {"name": "gpu"},
        }]

    def test_lane_metadata_only_for_present_categories(self, trace):
        payload = to_chrome_trace(trace)
        names = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        assert names == {
            OpCategory.LINEAR.value,
            OpCategory.ELEMENTWISE.value,
        }


class TestRoundTrip:
    def test_parse_recovers_records(self, trace):
        records = parse_chrome_trace(to_chrome_trace(trace))
        assert [record["name"] for record in records] == ["proj", "gelu"]

    def test_category_times_match_breakdown(self, trace):
        records = parse_chrome_trace(to_chrome_trace(trace))
        times = category_times_from_records(records)
        direct = trace.time_by_category()
        for category, time_s in direct.items():
            assert times[category] == pytest.approx(time_s, rel=1e-6)

    def test_file_round_trip(self, trace, tmp_path):
        path = save_chrome_trace(trace, tmp_path / "trace.json")
        records = load_chrome_trace(path)
        assert len(records) == 2
        assert records[0]["category"] == OpCategory.LINEAR.value

    def test_metadata_events_ignored(self):
        payload = {"traceEvents": [{"ph": "M", "name": "gpu"}]}
        assert parse_chrome_trace(payload) == []


@pytest.fixture(scope="module")
def dist_trace():
    model = build_model("stable_diffusion@256")
    machine = machine_from_name("dgx-a100-80g")
    source = profile_sharded(
        model, machine=machine, world=1, keep_entries=False
    ).source_trace
    plan = TensorParallel(2).partition(source)
    return build_timelines(plan, machine)


class TestDistributedExport:
    def test_one_lane_per_rank(self, dist_trace):
        payload = distributed_to_chrome_trace(dist_trace)
        slices = [
            event for event in payload["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert {event["tid"] for event in slices} == {0, 1}
        lane_names = {
            event["tid"]: event["args"]["name"]
            for event in payload["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        assert lane_names == {0: "rank 0", 1: "rank 1"}

    def test_slices_cover_compute_and_comm(self, dist_trace):
        payload = distributed_to_chrome_trace(dist_trace)
        cats = {
            event["cat"] for event in payload["traceEvents"]
            if event.get("ph") == "X"
        }
        assert cats == {"compute", "comm"}

    def test_flow_events_link_collectives_across_ranks(self, dist_trace):
        payload = distributed_to_chrome_trace(dist_trace)
        flows = [
            event for event in payload["traceEvents"]
            if event.get("ph") in ("s", "f")
        ]
        assert flows
        by_id = {}
        for event in flows:
            by_id.setdefault(event["id"], []).append(event)
        for group in by_id.values():
            # Exactly one start, on rank 0; finishes on the other ranks.
            starts = [e for e in group if e["ph"] == "s"]
            assert len(starts) == 1
            assert starts[0]["tid"] == 0
            finishes = [e for e in group if e["ph"] == "f"]
            assert len(finishes) == len(group) - 1
            assert all(e["tid"] != 0 for e in finishes)
            # SPMD collectives are synchronized: identical timestamps.
            assert len({e["ts"] for e in group}) == 1
            assert len({e["name"] for e in group}) == 1

    def test_flow_ids_unique_per_collective(self, dist_trace):
        payload = distributed_to_chrome_trace(dist_trace)
        starts = [
            event for event in payload["traceEvents"]
            if event.get("ph") == "s"
        ]
        ids = [event["id"] for event in starts]
        assert len(ids) == len(set(ids))

    def test_file_round_trip(self, dist_trace, tmp_path):
        path = save_distributed_chrome_trace(
            dist_trace, tmp_path / "dist.json"
        )
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
