"""Parallelism auto-planner: enumerate, cost, and rank distributed configs.

The partitioners in this package can shard a profiled trace any way you
ask — but *which* (tp, pp, dp, microbatch, sequence-parallel) config to
ask for has been hand-picked so far, and the paper's point is that the
answer shifts per model and per machine.  This module searches the
space automatically:

1. :func:`enumerate_configs` walks power-of-two (tp, pp, dp) groupings
   within a GPU budget, microbatch counts, and sequence-parallel
   on/off — canonicalized so degenerate axes appear exactly once.
2. :class:`PlannerBasis` prices configs **symbolically**: one tensor-
   parallel *axis* — per-event critical-rank kernel times, collective
   times, and their running prefix — is built per (tp, microbatch
   size) and then every (pp, dp, m, sp) combination is costed from the
   prefix arrays as a per-config delta: stage sums, point-to-point
   boundary transfers, pipeline wavefronts.  No re-partition, no
   re-pricing.  The axis itself prices each distinct (op, role,
   collective) variant of the trace once and expands it to events with
   numpy gathers.  :func:`bruteforce_cost` is the slow path that
   rebuilds the axis per config with the retained per-event reference
   (a fresh partition, one pricing per event) and the scalar stage
   splitter; the property suite pins both paths to identical floats.
3. Pipeline behaviour comes from :mod:`repro.distributed.schedule`
   (GPipe vs 1F1B with explicit bubble accounting) for training and
   the forward wavefront for serving latency.
4. Plans carry a per-device memory estimate (weight + KV shards plus
   activation residency) and are filtered by the device HBM capacity
   under a safety margin; :func:`pareto_frontier` keeps the
   non-dominated set over (latency, throughput, device count).

The axis contract the symbolic path rests on: with uniform shard
weights, largest-remainder ties break toward rank 0, so rank 0 always
holds the largest shard of every event and therefore the latest clock
between collectives.  Accumulating rank 0's kernel time plus each
exposed collective in trace order reproduces
:func:`repro.distributed.timeline.build_timelines` makespans
**bit-exactly** (the degenerate tp=1, pp=1 config reproduces the
single-device ``trace.total_time_s`` unchanged) — tested, not assumed.

See ``docs/PLANNER.md`` for the model and its divergences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.distributed.collectives import CollectiveCostModel, CollectiveKind
from repro.distributed.partition import TensorParallel, tp_op_table
from repro.distributed.registry import MachineSpec, machine_from_name
from repro.distributed.schedule import (
    ScheduleResult,
    forward_makespan,
    simulate_1f1b,
    simulate_gpipe,
)
from repro.distributed.sharding import ShardRole, even_split, shard_op
from repro.ir.context import AttentionImpl
from repro.ir.module import Module
from repro.ir.trace import Trace
from repro.kernels.base import DEFAULT_TUNING, TuningConstants
from repro.kernels.estimator import CachingCostEstimator


@dataclass(frozen=True)
class ParallelConfig:
    """One point in the parallelism search space.

    ``dp`` replicas each span ``tp * pp`` GPUs; a replica's batch share
    is split into ``microbatches`` pipeline microbatches.
    ``sequence_parallel`` keeps activations sharded ``1/tp`` between
    the tensor-parallel collectives (each all-reduce becomes a
    reduce-scatter + all-gather pair).
    """

    tp: int = 1
    pp: int = 1
    dp: int = 1
    microbatches: int = 1
    sequence_parallel: bool = False

    def __post_init__(self) -> None:
        for name in ("tp", "pp", "dp", "microbatches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.sequence_parallel and self.tp == 1:
            raise ValueError("sequence parallelism requires tp > 1")

    @property
    def world(self) -> int:
        """Total GPUs the config occupies."""
        return self.tp * self.pp * self.dp

    @property
    def replica_world(self) -> int:
        """GPUs inside one data-parallel replica."""
        return self.tp * self.pp

    @property
    def label(self) -> str:
        """Compact deterministic label, e.g. ``"tp2-pp2-dp2-mb4-sp"``."""
        parts = [f"tp{self.tp}", f"pp{self.pp}", f"dp{self.dp}"]
        if self.microbatches > 1:
            parts.append(f"mb{self.microbatches}")
        if self.sequence_parallel:
            parts.append("sp")
        return "-".join(parts)


def _powers_of_two(limit: int) -> list[int]:
    values = []
    v = 1
    while v <= limit:
        values.append(v)
        v *= 2
    return values


def enumerate_configs(
    *,
    gpu_budget: int = 8,
    global_batch: int = 8,
    microbatches: Sequence[int] = (1, 2, 4, 8),
    sequence_parallel: Sequence[bool] = (False, True),
) -> list[ParallelConfig]:
    """All canonical configs within a GPU budget, deterministically ordered.

    Power-of-two (tp, pp, dp) with ``tp * pp * dp <= gpu_budget`` and
    ``dp <= global_batch``.  Canonical means each degenerate axis
    appears once: ``pp == 1`` forces one microbatch, ``tp == 1`` forces
    sequence-parallel off, and microbatch counts never exceed the
    replica's batch share.
    """
    if gpu_budget < 1:
        raise ValueError("gpu_budget must be >= 1")
    if global_batch < 1:
        raise ValueError("global_batch must be >= 1")
    # An empty or invalid option list would silently drop every config
    # on that axis (all tp > 1, or all pp > 1) from the search.
    if not microbatches:
        raise ValueError("microbatches must not be empty")
    if any(m < 1 for m in microbatches):
        raise ValueError("microbatches must all be >= 1")
    if not sequence_parallel:
        raise ValueError("sequence_parallel must not be empty")
    configs: list[ParallelConfig] = []
    for tp in _powers_of_two(gpu_budget):
        for pp in _powers_of_two(gpu_budget // tp):
            for dp in _powers_of_two(gpu_budget // (tp * pp)):
                if dp > global_batch:
                    continue
                replica_batch = even_split(global_batch, dp)[0]
                m_options = (
                    sorted({m for m in microbatches if 1 <= m <= replica_batch})
                    if pp > 1
                    else [1]
                )
                sp_options = (
                    sorted(set(sequence_parallel)) if tp > 1 else [False]
                )
                for m in m_options:
                    for sp in sp_options:
                        configs.append(
                            ParallelConfig(
                                tp=tp, pp=pp, dp=dp,
                                microbatches=m, sequence_parallel=sp,
                            )
                        )
    configs.sort(
        key=lambda c: (c.tp, c.pp, c.dp, c.microbatches, c.sequence_parallel)
    )
    return configs


@dataclass
class TPAxis:
    """Symbolic cost basis of one (tp degree, microbatch size) pair.

    Per-event ``float64`` arrays over the profiled trace, all fold
    factors applied:

    * ``times[i]`` — rank 0's kernel time for event ``i`` (rank 0 holds
      the largest shard, hence the critical path);
    * ``comm[i]`` / ``comm_sp[i]`` — exposed collective time after
      event ``i``, plain and sequence-parallel variants;
    * ``acc`` / ``acc_sp`` — running prefix of ``times + comm`` in
      trace order (``acc[i+1] = acc[i] + times[i] + comm[i]``), so any
      contiguous stage's wall time is one subtraction;
    * ``out_bytes[i]`` — the unsharded activation each event writes
      (pipeline boundary payloads).

    The arrays may be shared between axes and must not be mutated.
    Values read off them are converted with ``float()`` before they
    reach a :class:`PlanPoint`.
    """

    tp: int
    batch: int
    times: np.ndarray
    comm: np.ndarray
    comm_sp: np.ndarray
    acc: np.ndarray
    acc_sp: np.ndarray
    out_bytes: np.ndarray
    act_peak_shard: float
    max_comm_payload: float

    def __len__(self) -> int:
        return len(self.times)

    @property
    def total_s(self) -> float:
        """Whole-trace wall time at this tp degree (pp = 1)."""
        return float(self.acc[-1])

    @cached_property
    def comm_total_s(self) -> float:
        """Collective time summed over the trace (plain variant)."""
        return _float_sum(self.comm)

    @cached_property
    def comm_sp_total_s(self) -> float:
        """Collective time summed over the trace (sequence-parallel)."""
        return _float_sum(self.comm_sp)


def _float_sum(values: np.ndarray) -> float:
    """The builtin ``sum`` over ``values`` as Python floats.

    It equals the builtin sum of the per-event floats on every Python
    version: the builtin adds Python floats with compensated summation
    from 3.12 on (plain left-to-right adds before), while ``np.sum``
    adds pairwise and ``np.cumsum`` never compensates, so either would
    move the last bits on some version.
    """
    return sum(values.tolist())


def _prefix(times: np.ndarray, comm: np.ndarray) -> np.ndarray:
    """``acc[i+1] = acc[i] + times[i] + comm[i]``, added in that order.

    One sequential ``np.cumsum`` over the interleaved
    ``[t0, c0, t1, c1, ...]`` column performs exactly the additions of
    ``run += t; run += c`` — time first, then the collective, the order
    :func:`repro.distributed.timeline.build_timelines` advances the
    clocks in — so the prefix is bit-identical to the scalar loop.
    """
    n = len(times)
    steps = np.empty(2 * n)
    steps[0::2] = times
    steps[1::2] = comm
    acc = np.empty(n + 1)
    acc[0] = 0.0
    acc[1:] = np.cumsum(steps)[1::2]
    return acc


def build_axis(
    trace: Trace,
    tp: int,
    machine: MachineSpec,
    *,
    tuning: TuningConstants = DEFAULT_TUNING,
    batch: int = 1,
) -> TPAxis:
    """Shard + price one tensor-parallel axis over ``trace``.

    This is the only place the planner touches the sharding rules and
    the kernel estimator; everything downstream works on the arrays.
    Each distinct variant of the trace's
    :func:`~repro.distributed.partition.tp_op_table` is sharded and
    priced once — rank 0's kernel time, the plain and sequence-parallel
    collective times, its transient bytes and payload — and expanded to
    events with gathers scaled by the fold factor.  For ``tp == 1`` the
    profiled event costs are taken verbatim — no re-pricing — which is
    what makes the degenerate config reproduce the single-device trace
    byte-identically.
    """
    table = tp_op_table(trace)
    act_peak = 0.0
    max_payload = 0.0
    if tp == 1:
        times = table.time_s
        comm = comm_sp = np.zeros(len(times))
        for op, _, _ in table.variants:
            transient = op.read_bytes() + op.write_bytes()
            if transient > act_peak:
                act_peak = transient
    else:
        count = len(table.variants)
        v_time = np.zeros(count)
        v_comm = np.zeros(count)
        v_comm_sp = np.zeros(count)
        weights = [1] * tp
        estimator = CachingCostEstimator(machine.gpu, tuning)
        comm_model = machine.topology.cost_model(tp)
        # Rank 0's shard per (op, role), as partition() caches shards:
        # variants that differ only in their collective share a pricing
        # (and the kernel-cost lookup count stays per shard).
        shard_memo: dict[tuple[int, ShardRole], tuple[float, float]] = {}
        for index, (op, role, kind) in enumerate(table.variants):
            key = (id(op), role)
            priced = shard_memo.get(key)
            if priced is None:
                op0 = shard_op(op, role, weights)[0]
                if op0 is None:
                    priced = (0.0, 0.0)
                else:
                    priced = (
                        estimator.estimate(op0).time_s,
                        op0.read_bytes() + op0.write_bytes(),
                    )
                shard_memo[key] = priced
            v_time[index], transient = priced
            if transient > act_peak:
                act_peak = transient
            if kind is None:
                continue
            payload = op.write_bytes()
            plain, sp_s = _collective_times(comm_model, kind, payload, tp)
            v_comm[index] = plain
            v_comm_sp[index] = sp_s
            if payload > max_payload:
                max_payload = payload
        variant = table.variant
        repeat = table.repeat
        # x * 1 == x exactly, so one product matches the per-event
        # ``base_s * repeat if repeat != 1 else base_s``.
        times = v_time[variant] * repeat
        comm = v_comm[variant] * repeat
        comm_sp = v_comm_sp[variant] * repeat
    acc = _prefix(times, comm)
    return TPAxis(
        tp=tp,
        batch=batch,
        times=times,
        comm=comm,
        comm_sp=comm_sp,
        acc=acc,
        acc_sp=acc if comm_sp is comm else _prefix(times, comm_sp),
        out_bytes=table.out_bytes,
        act_peak_shard=float(act_peak),
        max_comm_payload=float(max_payload),
    )


def _collective_times(
    comm_model: CollectiveCostModel,
    kind: CollectiveKind,
    payload: float,
    tp: int,
) -> tuple[float, float]:
    """Plain and sequence-parallel time of one collective issue."""
    plain = comm_model.estimate(kind, payload, tp).time_s
    if kind is CollectiveKind.ALL_REDUCE:
        # Sequence parallelism replaces the all-reduce with
        # reduce-scatter + all-gather around the sharded activation
        # region.
        return plain, (
            comm_model.reduce_scatter(payload, tp).time_s
            + comm_model.all_gather(payload, tp).time_s
        )
    return plain, plain


def _reference_axis(
    trace: Trace,
    tp: int,
    machine: MachineSpec,
    *,
    tuning: TuningConstants = DEFAULT_TUNING,
    batch: int = 1,
) -> TPAxis:
    """Per-event reference for :func:`build_axis`.

    Partitions the trace with :meth:`TensorParallel.partition` and
    prices it one event at a time with a scalar running prefix, so
    :func:`bruteforce_cost` checks the columnar path against
    independent code.
    """
    n = len(trace.events)
    times: list[float] = []
    comm: list[float] = []
    comm_sp: list[float] = []
    out_bytes: list[float] = []
    act_peak = 0.0
    max_payload = 0.0
    if tp == 1:
        for event in trace.events:
            times.append(event.cost.time_s)
            comm.append(0.0)
            comm_sp.append(0.0)
            op = event.op
            out_bytes.append(op.write_bytes())
            transient = op.read_bytes() + op.write_bytes()
            if transient > act_peak:
                act_peak = transient
    else:
        plan = TensorParallel(tp).partition(trace)
        estimator = CachingCostEstimator(machine.gpu, tuning)
        comm_model = machine.topology.cost_model(tp)
        op_time: dict[int, float] = {}
        comm_memo: dict[int, tuple[float, float]] = {}
        for event in plan.sharded_events:
            source, _, ops, spec, repeat, _ = event
            op0 = ops[0]
            if op0 is None:
                times.append(0.0)
                transient = 0.0
            else:
                base_s = op_time.get(id(op0))
                if base_s is None:
                    base_s = estimator.estimate(op0).time_s
                    op_time[id(op0)] = base_s
                # Same expression as build_timelines so the floats match.
                times.append(base_s * repeat if repeat != 1 else base_s)
                transient = op0.read_bytes() + op0.write_bytes()
            if transient > act_peak:
                act_peak = transient
            out_bytes.append(source.op.write_bytes())
            if spec is None:
                comm.append(0.0)
                comm_sp.append(0.0)
            else:
                entry = comm_memo.get(id(spec))
                if entry is None:
                    entry = _collective_times(
                        comm_model, spec.kind, spec.payload_bytes, tp
                    )
                    comm_memo[id(spec)] = entry
                comm.append(entry[0] * repeat)
                comm_sp.append(entry[1] * repeat)
                if spec.payload_bytes > max_payload:
                    max_payload = spec.payload_bytes
    acc = [0.0] * (n + 1)
    acc_sp = [0.0] * (n + 1)
    run = run_sp = 0.0
    for i in range(n):
        # Time first, then the collective — the order build_timelines
        # advances the clocks in.
        run += times[i]
        run += comm[i]
        acc[i + 1] = run
        run_sp += times[i]
        run_sp += comm_sp[i]
        acc_sp[i + 1] = run_sp
    return TPAxis(
        tp=tp,
        batch=batch,
        times=np.array(times, dtype=np.float64),
        comm=np.array(comm, dtype=np.float64),
        comm_sp=np.array(comm_sp, dtype=np.float64),
        acc=np.array(acc, dtype=np.float64),
        acc_sp=np.array(acc_sp, dtype=np.float64),
        out_bytes=np.array(out_bytes, dtype=np.float64),
        act_peak_shard=float(act_peak),
        max_comm_payload=float(max_payload),
    )


def stage_boundaries(weights: Sequence[float], stages: int) -> list[int]:
    """End index (exclusive) of each of the first ``stages - 1`` stages.

    Same greedy proportional-share rule as
    :meth:`repro.distributed.partition.PipelineParallel._stage_boundaries`,
    applied to non-negative per-event wall times (callers must ensure
    ``stages <= len(weights)``).  The running sum is one sequential
    ``np.cumsum``, the scalar loop's ``cumulative += w``, so it is
    non-decreasing: each stage closes at the first event whose running
    sum reaches its target (one ``searchsorted``) or at the last index
    that leaves one event per remaining stage, whichever comes first.
    The targets are shares of the builtin ``sum`` of the weights as
    Python floats, as in the scalar loop; from Python 3.12 on that sum
    is compensated and may differ from the running sum's last element.
    An event that crosses several targets closes them all at once,
    leaving empty stages between.  Identical to the scalar
    :func:`_reference_stage_boundaries`.
    """
    values = np.asarray(weights, dtype=np.float64)
    cumulative = np.cumsum(values)
    n = len(cumulative)
    if stages > n:
        raise ValueError("more stages than events")
    total = _float_sum(values)
    boundaries: list[int] = []
    index = 0
    for target in range(1, stages):
        reached = int(
            np.searchsorted(cumulative, total * target / stages, "left")
        )
        # Last index that still leaves one event per remaining stage:
        # close there at the latest (the forced close).
        index = min(max(index, reached), n - 1 - (stages - target))
        boundaries.append(index + 1)
    return boundaries


def _reference_stage_boundaries(
    weights: Sequence[float], stages: int
) -> list[int]:
    """Scalar greedy loop :func:`stage_boundaries` must equal."""
    n = len(weights)
    if stages > n:
        raise ValueError("more stages than events")
    # Python floats, whatever the sequence holds: the builtin sum of
    # numpy scalars never takes the float path that compensates.
    total = sum([float(w) for w in weights])
    boundaries: list[int] = []
    cumulative = 0.0
    target = 1
    for index, w in enumerate(weights):
        cumulative += w
        remaining = n - (index + 1)
        while (
            target < stages
            and remaining >= stages - target
            and (
                cumulative >= total * target / stages
                # Last index that still leaves one event per remaining
                # stage: close now or starve every stage after this one
                # (the same forced close as PipelineParallel).
                or remaining == stages - target
            )
        ):
            boundaries.append(index + 1)
            target += 1
    while len(boundaries) < stages - 1:
        boundaries.append(n)
    return boundaries


def split_stages(
    axis: TPAxis, pp: int, sequence_parallel: bool, machine: MachineSpec
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-stage forward times and boundary p2p times for one axis.

    Stage wall time is one prefix subtraction per stage; the boundary
    activation (the last event's unsharded output, divided by ``tp``
    under sequence parallelism) is priced as an adjacent-rank
    point-to-point transfer.  ``pp == 1`` returns the whole-trace total
    unchanged with a zero p2p — the degenerate-axis contract.
    """
    return _split_stages(
        axis, pp, sequence_parallel, machine, stage_boundaries
    )


def _split_stages(
    axis: TPAxis,
    pp: int,
    sequence_parallel: bool,
    machine: MachineSpec,
    boundaries: Callable[[Sequence[float], int], list[int]],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    acc = axis.acc_sp if sequence_parallel else axis.acc
    if pp == 1:
        return (float(acc[-1]),), (0.0,)
    bounds = boundaries(np.diff(acc), pp)
    starts = [0] + bounds
    ends = bounds + [len(axis)]
    p2p_model = machine.topology.cost_model(2)
    stage_times: list[float] = []
    p2p_times: list[float] = []
    for s in range(pp):
        stage_times.append(float(acc[ends[s]] - acc[starts[s]]))
        if s < pp - 1:
            payload = float(axis.out_bytes[ends[s] - 1])
            if sequence_parallel:
                # The boundary activation stays sharded 1/tp per rank.
                payload = payload / axis.tp
            p2p_times.append(p2p_model.send_recv(payload).time_s)
        else:
            p2p_times.append(0.0)
    return tuple(stage_times), tuple(p2p_times)


@dataclass(frozen=True)
class PlanPoint:
    """One fully-costed configuration.

    Attributes:
        config: the parallelism choice.
        latency_s: one batched forward through the replica (microbatch
            wavefront across pipeline stages).
        throughput_rps: requests/s of the whole ``config.world``-GPU
            deployment at the planner's global batch.
        per_gpu_rps: ``throughput_rps / config.world``.
        stage_times_s: per-stage forward time for one microbatch,
            boundary p2p included.
        tp_comm_s: collective time inside one microbatch's forward.
        p2p_s: pipeline boundary transfer time per microbatch.
        bubble_fraction: forward-wavefront idle share across stages.
        gpipe / one_f1b: training-step schedules (backward modelled as
            ``backward_ratio`` x forward).
        train_step_s: the cheaper schedule's makespan.
        memory_bytes: per-device estimate (weight + KV shards +
            activation residency).
        fits: ``memory_bytes <= capacity * margin``.
        microbatch: requests per microbatch on this config.
    """

    config: ParallelConfig
    latency_s: float
    throughput_rps: float
    per_gpu_rps: float
    stage_times_s: tuple[float, ...]
    tp_comm_s: float
    p2p_s: float
    bubble_fraction: float
    gpipe: ScheduleResult
    one_f1b: ScheduleResult
    train_step_s: float
    memory_bytes: float
    fits: bool
    microbatch: int


def _compose_point(
    axis: TPAxis,
    stage_times: tuple[float, ...],
    p2p_times: tuple[float, ...],
    m_eff: int,
    mb: int,
    config: ParallelConfig,
    *,
    param_bytes: float,
    kv_bytes: float,
    capacity_bytes: float,
    global_batch: int,
    backward_ratio: float,
    memory_margin: float,
) -> PlanPoint:
    """Pure composition of a priced axis into a :class:`PlanPoint`.

    Shared verbatim by the symbolic path and :func:`bruteforce_cost`,
    so any disagreement between the two is confined to the axis arrays
    themselves — exactly what the property suite compares.
    """
    forward = tuple(t + p for t, p in zip(stage_times, p2p_times))
    latency = forward_makespan(forward, m_eff)
    # The slowest (largest-share) replica bounds the round, so the
    # deployment completes `global_batch` requests per `latency`.
    throughput = global_batch / latency if latency > 0 else 0.0
    if config.pp == 1:
        bubble = 0.0
    else:
        work = m_eff * sum(forward)
        bubble = 1.0 - work / (config.pp * latency)
    backward = tuple(t * backward_ratio for t in forward)
    gpipe = simulate_gpipe(forward, backward, m_eff)
    one_f1b = simulate_1f1b(forward, backward, m_eff)
    shard = config.tp * config.pp
    activation = axis.act_peak_shard
    if not config.sequence_parallel:
        # Without sequence parallelism every rank materializes the full
        # activation a collective reconstitutes.
        activation += axis.max_comm_payload
    memory = param_bytes / shard + kv_bytes / shard + activation
    return PlanPoint(
        config=config,
        latency_s=latency,
        throughput_rps=throughput,
        per_gpu_rps=throughput / config.world,
        stage_times_s=forward,
        tp_comm_s=(
            axis.comm_sp_total_s if config.sequence_parallel
            else axis.comm_total_s
        ),
        p2p_s=sum(p2p_times),
        bubble_fraction=bubble,
        gpipe=gpipe,
        one_f1b=one_f1b,
        train_step_s=min(gpipe.makespan_s, one_f1b.makespan_s),
        memory_bytes=memory,
        fits=memory <= capacity_bytes * memory_margin,
        microbatch=mb,
    )


def pareto_frontier(points: Iterable[PlanPoint]) -> list[PlanPoint]:
    """Non-dominated subset over (latency min, throughput max, GPUs min).

    A point is dominated when another is at least as good on all three
    objectives and strictly better on one.  Order is preserved; exact
    duplicates on all three objectives are all kept.
    """
    pts = list(points)
    kept: list[PlanPoint] = []
    for a in pts:
        dominated = False
        for b in pts:
            if b is a:
                continue
            if (
                b.latency_s <= a.latency_s
                and b.throughput_rps >= a.throughput_rps
                and b.config.world <= a.config.world
                and (
                    b.latency_s < a.latency_s
                    or b.throughput_rps > a.throughput_rps
                    or b.config.world < a.config.world
                )
            ):
                dominated = True
                break
        if not dominated:
            kept.append(a)
    return kept


class PlannerBasis:
    """Cached symbolic basis for costing many configs of one workload.

    Holds the profiled traces (one per microbatch size) and the priced
    tensor-parallel axes (one per (tp, microbatch size)); costing a
    config is then array arithmetic.  ``stats`` counts how much work
    the caching avoided: ``configs_costed`` grows with the search,
    ``axis_builds`` and ``trace_profiles`` stay at the handful of
    distinct (tp, batch) pairs.
    """

    def __init__(
        self,
        model: Module,
        machine: MachineSpec | str,
        *,
        attention_impl: AttentionImpl = AttentionImpl.FLASH,
        tuning: TuningConstants = DEFAULT_TUNING,
        kv_bytes: float = 0.0,
    ):
        self.model = model
        self.machine = (
            machine_from_name(machine) if isinstance(machine, str)
            else machine
        )
        self.attention_impl = attention_impl
        self.tuning = tuning
        self.kv_bytes = float(kv_bytes)
        self.param_bytes = float(model.param_bytes())
        self.model_name = getattr(model, "name", type(model).__name__)
        self._traces: dict[int, Trace] = {}
        self._axes: dict[tuple[int, int], TPAxis] = {}
        # (id(axis), pp, sp) -> (stage forward times, p2p times).
        self._stages: dict[
            tuple[int, int, bool],
            tuple[tuple[float, ...], tuple[float, ...]],
        ] = {}
        self.stats: dict[str, int] = {
            "trace_profiles": 0,
            "axis_builds": 0,
            "configs_costed": 0,
        }

    def trace(self, batch: int) -> Trace:
        """Profiled single-device trace at ``batch`` (cached)."""
        trace = self._traces.get(batch)
        if trace is None:
            from repro.profiler.profiler import profile_model

            trace = profile_model(
                self.model,
                gpu=self.machine.gpu,
                attention_impl=self.attention_impl,
                tuning=self.tuning,
                batch=batch,
            ).trace
            self._traces[batch] = trace
            self.stats["trace_profiles"] += 1
        return trace

    def axis(self, tp: int, batch: int) -> TPAxis:
        """Priced tensor-parallel axis at (tp, microbatch size) (cached)."""
        key = (tp, batch)
        axis = self._axes.get(key)
        if axis is None:
            axis = build_axis(
                self.trace(batch), tp, self.machine,
                tuning=self.tuning, batch=batch,
            )
            self._axes[key] = axis
            self.stats["axis_builds"] += 1
        return axis

    def _stage_split(
        self, axis: TPAxis, pp: int, sp: bool
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        key = (id(axis), pp, sp)
        entry = self._stages.get(key)
        if entry is None:
            entry = split_stages(axis, pp, sp, self.machine)
            self._stages[key] = entry
        return entry

    def _forward_parts(
        self, config: ParallelConfig, replica_batch: int
    ) -> tuple[
        TPAxis, tuple[float, ...], tuple[float, ...], int, int
    ]:
        """Axis, stage times, p2p times, microbatch count and size."""
        m_eff = min(config.microbatches, replica_batch)
        mb = even_split(replica_batch, m_eff)[0]
        axis = self.axis(config.tp, mb)
        if config.pp > len(axis):
            raise ValueError(
                f"pp={config.pp} exceeds the trace's {len(axis)} events"
            )
        stage_times, p2p_times = self._stage_split(
            axis, config.pp, config.sequence_parallel
        )
        return axis, stage_times, p2p_times, m_eff, mb

    def replica_latency(
        self, config: ParallelConfig, replica_batch: int
    ) -> float:
        """One replica's batched forward latency at ``replica_batch``.

        This is the batch-latency curve the serving layer consumes
        (:func:`repro.serving.sharded.replica_from_plan`).
        """
        if replica_batch < 1:
            raise ValueError("replica_batch must be >= 1")
        _, stage_times, p2p_times, m_eff, _ = self._forward_parts(
            config, replica_batch
        )
        forward = tuple(t + p for t, p in zip(stage_times, p2p_times))
        return forward_makespan(forward, m_eff)

    def cost_config(
        self,
        config: ParallelConfig,
        *,
        global_batch: int = 8,
        backward_ratio: float = 2.0,
        memory_margin: float = 0.9,
    ) -> PlanPoint:
        """Price one configuration from the cached symbolic basis."""
        self.stats["configs_costed"] += 1
        replica_batch = even_split(global_batch, config.dp)[0]
        axis, stage_times, p2p_times, m_eff, mb = self._forward_parts(
            config, replica_batch
        )
        return _compose_point(
            axis, stage_times, p2p_times, m_eff, mb, config,
            param_bytes=self.param_bytes,
            kv_bytes=self.kv_bytes,
            capacity_bytes=self.machine.gpu.dram_capacity,
            global_batch=global_batch,
            backward_ratio=backward_ratio,
            memory_margin=memory_margin,
        )


def bruteforce_cost(
    basis: PlannerBasis,
    config: ParallelConfig,
    *,
    global_batch: int = 8,
    backward_ratio: float = 2.0,
    memory_margin: float = 0.9,
) -> PlanPoint:
    """Cost one config by fully re-partitioning and re-pricing the trace.

    The reference the symbolic-delta path is validated against: a fresh
    per-event :func:`_reference_axis` per call (re-partition + one
    kernel/collective pricing per event, scalar prefix, no axis or
    stage-split reuse), split by the scalar
    :func:`_reference_stage_boundaries` and composed through the same
    pure :func:`_compose_point`.  The property suite asserts the
    resulting :class:`PlanPoint` floats are *identical* to
    :meth:`PlannerBasis.cost_config`'s.
    """
    replica_batch = even_split(global_batch, config.dp)[0]
    m_eff = min(config.microbatches, replica_batch)
    mb = even_split(replica_batch, m_eff)[0]
    axis = _reference_axis(
        basis.trace(mb), config.tp, basis.machine,
        tuning=basis.tuning, batch=mb,
    )
    if config.pp > len(axis):
        raise ValueError(
            f"pp={config.pp} exceeds the trace's {len(axis)} events"
        )
    stage_times, p2p_times = _split_stages(
        axis, config.pp, config.sequence_parallel, basis.machine,
        _reference_stage_boundaries,
    )
    return _compose_point(
        axis, stage_times, p2p_times, m_eff, mb, config,
        param_bytes=basis.param_bytes,
        kv_bytes=basis.kv_bytes,
        capacity_bytes=basis.machine.gpu.dram_capacity,
        global_batch=global_batch,
        backward_ratio=backward_ratio,
        memory_margin=memory_margin,
    )


@dataclass
class PlannerResult:
    """Outcome of one planner search."""

    model_name: str
    machine: MachineSpec
    gpu_budget: int
    global_batch: int
    points: list[PlanPoint]
    frontier: list[PlanPoint]
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def feasible(self) -> list[PlanPoint]:
        """Points that fit the per-device memory cap."""
        return [p for p in self.points if p.fits]

    def best_throughput(self) -> PlanPoint:
        """Feasible point with the highest deployment throughput."""
        candidates = self.feasible
        if not candidates:
            raise ValueError("no feasible plan under the memory cap")
        return min(
            candidates,
            key=lambda p: (-p.throughput_rps, p.config.world, p.latency_s),
        )

    def best_latency(self) -> PlanPoint:
        """Feasible point with the lowest batched-forward latency."""
        candidates = self.feasible
        if not candidates:
            raise ValueError("no feasible plan under the memory cap")
        return min(
            candidates,
            key=lambda p: (p.latency_s, p.config.world, -p.throughput_rps),
        )


def plan_parallelism(
    model: Module,
    *,
    machine: MachineSpec | str = "dgx-a100-80g",
    gpu_budget: int = 8,
    global_batch: int = 8,
    microbatches: Sequence[int] = (1, 2, 4, 8),
    sequence_parallel: Sequence[bool] = (False, True),
    backward_ratio: float = 2.0,
    memory_margin: float = 0.9,
    kv_bytes: float = 0.0,
    attention_impl: AttentionImpl = AttentionImpl.FLASH,
    tuning: TuningConstants = DEFAULT_TUNING,
    basis: PlannerBasis | None = None,
) -> PlannerResult:
    """Search the parallelism space for one model on one machine.

    Enumerates canonical configs within ``gpu_budget``, costs each from
    the shared symbolic basis, and returns every point plus the Pareto
    frontier of the memory-feasible ones.  Deterministic: same inputs,
    same floats, same ordering — there is no randomness to seed.
    """
    if basis is None:
        basis = PlannerBasis(
            model, machine,
            attention_impl=attention_impl, tuning=tuning, kv_bytes=kv_bytes,
        )
    configs = enumerate_configs(
        gpu_budget=gpu_budget,
        global_batch=global_batch,
        microbatches=microbatches,
        sequence_parallel=sequence_parallel,
    )
    points: list[PlanPoint] = []
    for config in configs:
        points.append(
            basis.cost_config(
                config,
                global_batch=global_batch,
                backward_ratio=backward_ratio,
                memory_margin=memory_margin,
            )
        )
    frontier = pareto_frontier(p for p in points if p.fits)
    return PlannerResult(
        model_name=basis.model_name,
        machine=basis.machine,
        gpu_budget=gpu_budget,
        global_batch=global_batch,
        points=points,
        frontier=frontier,
        stats=dict(basis.stats),
    )
