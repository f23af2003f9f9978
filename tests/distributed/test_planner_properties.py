"""Auto-planner properties: symbolic==brute, determinism, caps, Pareto.

The planner's load-bearing promise is that costing a config from the
cached prefix arrays (:meth:`PlannerBasis.cost_config`) produces the
*identical floats* a full re-partition + re-pricing would
(:func:`bruteforce_cost`) — hypothesis drives that equality across the
whole search space.  The rest of the suite pins the search contract:
determinism across fresh bases, memory caps respected under any margin,
the Pareto frontier exactly the non-dominated set, and the degenerate
tp=1/pp=1 axes reproducing single- and multi-device timeline traces
bit-exactly.  The columnar axis builder and stage splitter are also
checked directly against their retained per-event references.
"""

import dataclasses
import math

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.collectives import CollectiveKind
from repro.distributed import planner
from repro.distributed.partition import TensorParallel, tp_op_table
from repro.distributed.planner import (
    ParallelConfig,
    PlannerBasis,
    _reference_axis,
    _reference_stage_boundaries,
    bruteforce_cost,
    build_axis,
    enumerate_configs,
    pareto_frontier,
    plan_parallelism,
    stage_boundaries,
)
from repro.distributed.registry import machine_from_name
from repro.distributed.timeline import build_timelines
from repro.ir.context import ExecutionContext
from repro.ir.module import Module
from repro.ir.ops import Elementwise, FusedAttention, Gemm, OpCategory

MACHINE = machine_from_name("dgx-a100-80g")
GLOBAL_BATCH = 8


class TinyTransformer(Module):
    """Three-block batch-scaled transformer; profiles in milliseconds.

    Mirrors the suite models' structure (attention anchor flags, leaf
    scopes for the Megatron column/row assignment) at toy dimensions so
    property tests can afford hundreds of planner costings.  Its head is
    a folded loop (fold factor 3) over a scope with three weight layers,
    so the traces carry repeats above 1 and an all-gathered column
    layer as well as all-reduces.
    """

    def __init__(self, blocks: int = 3):
        super().__init__(name="tiny_transformer")
        self.blocks = blocks

    def own_param_count(self) -> int:
        per_block = 256 * 768 + 256 * 256 + 256 * 1024 + 1024 * 256
        head = 256 * 512 + 512 * 256 + 256 * 256
        return self.blocks * per_block + head

    def run_inference(self, ctx: ExecutionContext, batch: int = 1) -> None:
        m = 64 * batch
        for index in range(self.blocks):
            with ctx.named_scope(f"block{index}"):
                with ctx.named_scope("attn"):
                    with ctx.named_scope("qkv"):
                        ctx.emit(Gemm(
                            "qkv", m=m, n=768, k=256, b_is_weight=True,
                            category_override=OpCategory.ATTENTION,
                        ))
                    ctx.emit(
                        FusedAttention(
                            "core", batch=batch, seq_q=64, seq_kv=64,
                            head_dim=32, num_heads=8,
                        ),
                        flags={"attention_anchor"},
                    )
                    with ctx.named_scope("out_proj"):
                        ctx.emit(Gemm(
                            "proj", m=m, n=256, k=256, b_is_weight=True,
                            category_override=OpCategory.ATTENTION,
                        ))
                with ctx.named_scope("mlp"):
                    with ctx.named_scope("fc1"):
                        ctx.emit(Gemm(
                            "fc1", m=m, n=1024, k=256, b_is_weight=True,
                        ))
                    with ctx.named_scope("fc2"):
                        ctx.emit(Gemm(
                            "fc2", m=m, n=256, k=1024, b_is_weight=True,
                        ))
                ctx.emit(Elementwise("residual", numel=m * 256))
        with ctx.named_scope("head"), ctx.repeat_scope(3):
            # Column, row (all-reduce), column: the odd layer out keeps
            # its column split and is all-gathered.
            with ctx.named_scope("fc_a"):
                ctx.emit(Gemm("head_a", m=m, n=512, k=256, b_is_weight=True))
            with ctx.named_scope("fc_b"):
                ctx.emit(Gemm("head_b", m=m, n=256, k=512, b_is_weight=True))
            with ctx.named_scope("fc_c"):
                ctx.emit(Gemm("head_c", m=m, n=256, k=256, b_is_weight=True))
            ctx.emit(Elementwise("head_act", numel=m * 256))


MODEL = TinyTransformer()
BASIS = PlannerBasis(MODEL, MACHINE)
CONFIGS = enumerate_configs(gpu_budget=8, global_batch=GLOBAL_BATCH)


class TestSymbolicEqualsBruteforce:
    @settings(max_examples=66, deadline=None)
    @given(config=st.sampled_from(CONFIGS))
    def test_every_config_prices_identically(self, config):
        # Not approx: the two paths must agree float-for-float, nested
        # schedules and memory estimate included.
        symbolic = BASIS.cost_config(config, global_batch=GLOBAL_BATCH)
        brute = bruteforce_cost(BASIS, config, global_batch=GLOBAL_BATCH)
        assert symbolic == brute

    @settings(max_examples=25, deadline=None)
    @given(
        config=st.sampled_from(CONFIGS),
        global_batch=st.sampled_from((3, 5, 8)),
        backward_ratio=st.sampled_from((1.0, 2.0, 3.5)),
    )
    def test_agreement_survives_uneven_batches_and_ratios(
        self, config, global_batch, backward_ratio
    ):
        symbolic = BASIS.cost_config(
            config, global_batch=global_batch,
            backward_ratio=backward_ratio,
        )
        brute = bruteforce_cost(
            BASIS, config, global_batch=global_batch,
            backward_ratio=backward_ratio,
        )
        assert symbolic == brute


class TestColumnarAxis:
    """The columnar builders equal their per-event references bit for bit."""

    def test_tiny_model_exercises_folds_and_all_gathers(self):
        table = tp_op_table(BASIS.trace(1))
        assert table.repeat.max() == 3
        kinds = {kind for _, _, kind in table.variants}
        assert CollectiveKind.ALL_GATHER in kinds
        assert CollectiveKind.ALL_REDUCE in kinds

    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("tp", [1, 2, 4, 8])
    def test_axis_matches_the_per_event_reference(self, tp, batch):
        trace = BASIS.trace(batch)
        axis = build_axis(trace, tp, MACHINE, batch=batch)
        reference = _reference_axis(trace, tp, MACHINE, batch=batch)
        for name in ("times", "comm", "comm_sp", "acc", "acc_sp",
                     "out_bytes"):
            column = getattr(axis, name)
            assert column.dtype == np.float64
            assert column.tobytes() == getattr(reference, name).tobytes()
        assert axis.act_peak_shard == reference.act_peak_shard
        assert axis.max_comm_payload == reference.max_comm_payload
        # Totals are the builtin sum over Python floats, the per-event
        # planner's total on every Python version.
        assert axis.comm_total_s == sum(reference.comm.tolist())
        assert axis.comm_sp_total_s == sum(reference.comm_sp.tolist())
        assert type(axis.total_s) is float

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stage_boundaries_match_the_scalar_loop(self, data):
        weight = st.one_of(
            st.just(0.0),
            st.sampled_from((0.5, 1.0, 3.0)),  # ties
            st.floats(min_value=0.0, max_value=1e6),
        )
        weights = data.draw(st.lists(weight, min_size=1, max_size=40))
        if data.draw(st.booleans()):
            # Back-loaded: the targets are missed until the end, so the
            # forced close decides every boundary.
            weights = [0.0] * len(weights) + weights[-1:]
        n = len(weights)
        stages = data.draw(st.one_of(
            st.just(n), st.integers(min_value=1, max_value=n)
        ))
        assert stage_boundaries(weights, stages) == (
            _reference_stage_boundaries(weights, stages)
        )

    def test_stage_targets_follow_the_builtin_float_sum(self, monkeypatch):
        # Two stages: the target is half the total.  A plain
        # left-to-right sum drops every 1e-16, so the first event meets
        # it; a compensated sum (the builtin's from Python 3.12 on) keeps
        # them, and the target moves past the first event.
        weights = [1.0, 1.0] + [1e-16] * 10

        def left_to_right(values):
            total = 0.0
            for value in values:
                total += value
            return total

        for total, expected in ((left_to_right, [1]), (math.fsum, [2])):
            monkeypatch.setattr(planner, "sum", total, raising=False)
            assert stage_boundaries(weights, 2) == expected
            assert _reference_stage_boundaries(weights, 2) == expected
            assert stage_boundaries(np.array(weights), 2) == expected


class TestDeterminism:
    def test_fresh_bases_reproduce_identical_plans(self):
        first = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        second = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        assert first.points == second.points
        assert first.frontier == second.frontier
        assert [p.config.label for p in first.points] == [
            p.config.label for p in second.points
        ]

    def test_search_costs_every_enumerated_config_once(self):
        result = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        assert len(result.points) == len(CONFIGS)
        assert result.stats["configs_costed"] == len(CONFIGS)
        # The symbolic basis amortizes: far fewer axis builds than
        # configs, and only as many profiles as distinct microbatch
        # sizes.
        assert result.stats["axis_builds"] < len(CONFIGS)
        assert result.stats["trace_profiles"] <= 4


class TestMemoryCap:
    @settings(max_examples=40, deadline=None)
    @given(
        config=st.sampled_from(CONFIGS),
        margin=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_fits_flag_matches_the_cap(self, config, margin):
        point = BASIS.cost_config(
            config, global_batch=GLOBAL_BATCH, memory_margin=margin,
        )
        capacity = MACHINE.gpu.dram_capacity
        assert point.fits == (point.memory_bytes <= capacity * margin)

    def test_no_feasible_plan_raises(self):
        starved = dataclasses.replace(
            MACHINE,
            gpu=dataclasses.replace(
                MACHINE.gpu, name="starved", dram_capacity=1,
            ),
        )
        result = plan_parallelism(
            MODEL, machine=starved, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        assert result.feasible == []
        assert result.frontier == []
        with pytest.raises(ValueError, match="no feasible plan"):
            result.best_throughput()
        with pytest.raises(ValueError, match="no feasible plan"):
            result.best_latency()

    def test_feasible_set_grows_with_margin(self):
        sets = [
            {
                p.config.label
                for p in plan_parallelism(
                    MODEL, machine=MACHINE, gpu_budget=8,
                    global_batch=GLOBAL_BATCH, memory_margin=margin,
                ).feasible
            }
            for margin in (0.1, 0.5, 0.9)
        ]
        assert sets[0] <= sets[1] <= sets[2]


class TestParetoFrontier:
    def _dominates(self, b, a):
        return (
            b.latency_s <= a.latency_s
            and b.throughput_rps >= a.throughput_rps
            and b.config.world <= a.config.world
            and (
                b.latency_s < a.latency_s
                or b.throughput_rps > a.throughput_rps
                or b.config.world < a.config.world
            )
        )

    def test_frontier_is_exactly_the_non_dominated_feasible_set(self):
        result = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        feasible = result.feasible
        expected = [
            a for a in feasible
            if not any(
                self._dominates(b, a) for b in feasible if b is not a
            )
        ]
        assert result.frontier == expected
        # And it is a fixed point of the filter.
        assert pareto_frontier(result.frontier) == result.frontier

    def test_best_picks_sit_on_the_frontier(self):
        result = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        labels = {p.config.label for p in result.frontier}
        assert result.best_throughput().config.label in labels
        assert result.best_latency().config.label in labels


class TestDegenerateAxes:
    """tp=1 / pp=1 must add zero cost and reproduce traces bit-exactly."""

    def test_tp1_pp1_is_the_single_device_trace(self):
        point = BASIS.cost_config(
            ParallelConfig(), global_batch=GLOBAL_BATCH,
        )
        trace = BASIS.trace(GLOBAL_BATCH)
        assert point.latency_s == trace.total_time_s  # byte-identical
        assert point.tp_comm_s == 0.0
        assert point.p2p_s == 0.0
        assert point.bubble_fraction == 0.0

    @pytest.mark.parametrize("batch", [1, 2, 4])
    def test_degenerate_replica_latency_is_exact(self, batch):
        assert (
            BASIS.replica_latency(ParallelConfig(), batch)
            == BASIS.trace(batch).total_time_s
        )

    def test_tp1_axis_carries_no_collectives(self):
        axis = BASIS.axis(1, 1)
        assert all(c == 0.0 for c in axis.comm)
        assert all(c == 0.0 for c in axis.comm_sp)
        assert axis.max_comm_payload == 0.0
        assert axis.acc[-1] == BASIS.trace(1).total_time_s

    @pytest.mark.parametrize("tp", [2, 4, 8])
    def test_pp1_matches_the_timeline_simulator_bit_exactly(self, tp):
        # The axis contract: rank 0 holds the largest shard of every
        # event, so accumulating its kernel + exposed collective times
        # in trace order reproduces build_timelines' makespan exactly.
        expected = build_timelines(
            TensorParallel(tp).partition(BASIS.trace(1)),
            MACHINE, keep_entries=False,
        ).total_time_s
        assert (
            BASIS.replica_latency(ParallelConfig(tp=tp), 1) == expected
        )

    @pytest.mark.parametrize("tp", [2, 4, 8])
    def test_pp1_has_zero_pipeline_overheads(self, tp):
        point = BASIS.cost_config(
            ParallelConfig(tp=tp), global_batch=GLOBAL_BATCH,
        )
        assert point.p2p_s == 0.0
        assert point.bubble_fraction == 0.0
        assert len(point.stage_times_s) == 1


class TestEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(
        gpu_budget=st.integers(min_value=1, max_value=16),
        global_batch=st.integers(min_value=1, max_value=16),
    )
    def test_configs_are_canonical_unique_and_sorted(
        self, gpu_budget, global_batch
    ):
        configs = enumerate_configs(
            gpu_budget=gpu_budget, global_batch=global_batch,
        )
        assert len(set(configs)) == len(configs)
        keys = [
            (c.tp, c.pp, c.dp, c.microbatches, c.sequence_parallel)
            for c in configs
        ]
        assert keys == sorted(keys)
        for c in configs:
            assert c.world <= gpu_budget
            assert c.dp <= global_batch
            if c.pp == 1:
                assert c.microbatches == 1
            if c.tp == 1:
                assert not c.sequence_parallel

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(tp=0)
        with pytest.raises(ValueError):
            ParallelConfig(microbatches=0)
        with pytest.raises(ValueError):
            ParallelConfig(tp=1, sequence_parallel=True)
        # An empty or invalid option list must not silently drop the
        # tp > 1 or pp > 1 half of the search.
        for kwargs in (
            {"sequence_parallel": ()},
            {"microbatches": ()},
            {"microbatches": (0, -3)},
            {"microbatches": (1, 0)},
        ):
            (name,) = kwargs
            with pytest.raises(ValueError, match=name):
                enumerate_configs(**kwargs)
            with pytest.raises(ValueError, match=name):
                plan_parallelism(MODEL, machine=MACHINE, **kwargs)

    def test_labels_are_compact_and_unique(self):
        labels = [c.label for c in CONFIGS]
        assert len(set(labels)) == len(labels)
        assert ParallelConfig().label == "tp1-pp1-dp1"
        assert ParallelConfig(
            tp=2, pp=2, dp=2, microbatches=4, sequence_parallel=True
        ).label == "tp2-pp2-dp2-mb4-sp"

    def test_stage_boundaries_reject_overdeep_pipelines(self):
        with pytest.raises(ValueError, match="more stages than events"):
            stage_boundaries([1.0, 1.0], 3)
        with pytest.raises(ValueError, match="exceeds the trace"):
            BASIS.cost_config(
                ParallelConfig(pp=32), global_batch=GLOBAL_BATCH,
            )
