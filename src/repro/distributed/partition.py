"""Graph partitioners: data, tensor and pipeline parallelism.

Each strategy consumes a single-device :class:`repro.ir.trace.Trace`
(the symbolic operator graph a profiled model emits) and produces a
:class:`DistributedPlan`: per-rank operator shards plus the collectives
the sharding implies.  The plan is hardware-free — pricing against a
machine's GPUs and interconnect happens in
:mod:`repro.distributed.timeline`.

**Tensor parallelism** follows Megatron's placement.  Attention is head
parallel: Q/K/V projections are column-split, the scores/softmax/PV
chain is head-split, and the output projection is row-split, yielding
partial sums that one all-reduce per attention call combines.  Other
parameter-bearing layers alternate column/row in first-use order within
their parent module (an MLP's up projection is column-split, its down
projection row-split with an all-reduce; a ResNet block's two convs
likewise).  A scope with an odd number of such layers leaves its last
layer column-parallel, and its output is all-gathered.  All remaining
activation ops are sequence/element split.

**Data parallelism** slices the batch: each rank runs the full graph on
its batch share (ranks beyond the batch size idle).  Inference DP has
no collectives — there are no gradients to reduce.

**Pipeline parallelism** assigns contiguous trace segments to ranks,
balancing segment execution time, with a send/recv of the boundary
activation between consecutive stages.

Every split preserves total FLOPs exactly (see
:mod:`repro.distributed.sharding`), which the partitioner tests verify
against the unsharded trace.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.distributed.collectives import CollectiveKind
from repro.distributed.sharding import ShardRole, even_split, shard_op
from repro.ir.ops import Op, OpCategory
from repro.ir.trace import Trace, TraceEvent


def event_repeat(event: TraceEvent) -> int:
    """Recover the fold factor of a bucketed trace event.

    ``repeat_scope`` folds loops of identical launches into one event
    with scaled cost; the factor is the ratio between the event's cost
    counters and the op's own formulas.
    """
    op_flops = event.op.flops()
    if op_flops > 0:
        return max(1, round(event.cost.flops / op_flops))
    op_bytes = event.op.total_bytes()
    if op_bytes > 0:
        return max(1, round(event.cost.moved_bytes / op_bytes))
    return 1


# Fold factors per trace, computed once: scaling sweeps partition the
# same profiled trace for every world size, and the per-event FLOP
# formulas behind event_repeat dominate partitioning time if re-derived
# each time.  Keyed weakly so the factors die with the trace.
_REPEAT_CACHE: "weakref.WeakKeyDictionary[Trace, list[int]]" = (
    weakref.WeakKeyDictionary()
)


def trace_repeats(trace: Trace) -> list[int]:
    """Fold factor of every event of ``trace``, cached per trace object."""
    repeats = _REPEAT_CACHE.get(trace)
    if repeats is None or len(repeats) != len(trace.events):
        # The factor is a pure function of (op, cost), and replayed
        # events share both objects: derive it once per distinct pair
        # (identity keys are valid while the trace holds the objects).
        memo: dict[tuple[int, int], int] = {}
        repeats = []
        append = repeats.append
        for event in trace.events:
            key = (id(event.op), id(event.cost))
            repeat = memo.get(key)
            if repeat is None:
                repeat = memo[key] = event_repeat(event)
            append(repeat)
        _REPEAT_CACHE[trace] = repeats
    return repeats


@dataclass(frozen=True)
class CommSpec:
    """One collective the sharded graph requires after an event.

    Attributes:
        kind: which collective.
        payload_bytes: logical tensor size communicated per issue.
        label: short description for timelines (e.g. ``"ar:attn_out"``).
    """

    kind: CollectiveKind
    payload_bytes: float
    label: str


class ShardedEvent(NamedTuple):
    """One source trace event split across the parallel group.

    A NamedTuple rather than a dataclass: plans hold one of these per
    source event (hundreds of thousands per scaling sweep) and tuple
    construction is several times cheaper.

    Attributes:
        source: the single-device event this shards.
        role: how the split was chosen.
        ops: per-rank operator shards (``None`` = rank idle).
        comm: collective required after this event, if any.
        repeat: fold factor inherited from the source event.
        stage: owning pipeline stage (pipeline plans only).
    """

    source: TraceEvent
    role: ShardRole
    ops: tuple[Op | None, ...]
    comm: CommSpec | None
    repeat: int
    stage: int = 0


@dataclass
class DistributedPlan:
    """A sharded operator graph, ready to be priced on a machine."""

    strategy: str
    world: int
    kind: str  # "spmd" (TP/DP) or "pipeline"
    sharded_events: list[ShardedEvent]
    source: Trace

    def flops_per_rank(self) -> list[float]:
        """Total FLOPs each rank executes (folded loops included)."""
        totals = [0.0] * self.world
        for event in self.sharded_events:
            for rank, op in enumerate(event.ops):
                if op is not None:
                    totals[rank] += op.flops() * event.repeat
        return totals

    def total_flops(self) -> float:
        """FLOPs summed over every rank (invariant: == source total)."""
        return sum(self.flops_per_rank())

    def comm_payload_bytes(self) -> float:
        """Logical bytes entering collectives across the whole plan."""
        return sum(
            event.comm.payload_bytes * event.repeat
            for event in self.sharded_events
            if event.comm is not None
        )

    def collective_counts(self) -> dict[CollectiveKind, int]:
        """Number of collective issues by kind (folded loops included)."""
        counts: dict[CollectiveKind, int] = {}
        for event in self.sharded_events:
            if event.comm is not None:
                counts[event.comm.kind] = (
                    counts.get(event.comm.kind, 0) + event.repeat
                )
        return counts


class PartitionStrategy:
    """Base class: a named way of splitting a trace over ``world`` ranks."""

    name = "base"

    def __init__(self, world: int):
        if world < 1:
            raise ValueError("world size must be >= 1")
        self.world = world

    def partition(self, trace: Trace) -> DistributedPlan:
        """Shard ``trace`` into a :class:`DistributedPlan`."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable strategy label, e.g. ``"tp=4"``."""
        return f"{self.name}={self.world}"


def _parent_scope(path: str) -> str:
    return path.rsplit(".", 1)[0] if "." in path else ""


def _output_bytes(op: Op) -> float:
    return op.write_bytes()


class TensorParallel(PartitionStrategy):
    """Megatron-style tensor parallelism over the whole graph."""

    name = "tp"

    def partition(self, trace: Trace) -> DistributedPlan:
        """Shard every event; emit the implied all-reduce/all-gathers."""
        weights = [1] * self.world
        leaf_roles = self._leaf_roles(trace)
        repeats = trace_repeats(trace)
        world_gt1 = self.world > 1
        sharded: list[ShardedEvent] = []
        append = sharded.append
        # Ops are interned by the replay memoizer, so identity keys are
        # both valid (frozen dataclasses) and much cheaper than hashing
        # the nested shape tuples; the trace keeps every op alive.
        shard_cache: dict[tuple[int, ShardRole], tuple[Op | None, ...]] = {}
        has_params: dict[int, bool] = {}
        # Activation ops shard the same way wherever they appear, so one
        # resolution per op object covers the whole trace.  Weight ops
        # need the emitting path (roles are assigned per module leaf),
        # so they memoize per (op, path) instead.
        nonparam_memo: dict[
            int, tuple[ShardRole, tuple[Op | None, ...], CommSpec | None]
        ] = {}
        # Keyed ``id(op) * 32 + role_token``: a single int hash per
        # event instead of a tuple of enums (enum.__hash__ is a Python
        # function and dominates the loop at trace scale).
        param_memo: dict[
            int, tuple[ShardRole, tuple[Op | None, ...], CommSpec | None]
        ] = {}

        def resolve(op: Op, role: ShardRole, comm_kind) -> tuple:
            key = (id(op), role)
            shards = shard_cache.get(key)
            if shards is None:
                shards = tuple(shard_op(op, role, weights))
                shard_cache[key] = shards
            comm = None
            if comm_kind is not None and world_gt1:
                short = (
                    "ar" if comm_kind is CollectiveKind.ALL_REDUCE else "ag"
                )
                comm = CommSpec(
                    kind=comm_kind,
                    payload_bytes=_output_bytes(op),
                    label=f"{short}:{op.name}",
                )
            return (role, shards, comm)

        # tuple.__new__ bypasses the generated NamedTuple constructor
        # (a Python-level wrapper) — at trace scale the constructor is
        # the single largest cost of partitioning.
        tuple_new = tuple.__new__
        event_cls = ShardedEvent
        for event, repeat in zip(trace.events, repeats):
            op = event.op
            op_id = id(op)
            owns = has_params.get(op_id)
            if owns is None:
                owns = op.param_bytes() > 0
                has_params[op_id] = owns
            if owns:
                role, comm_kind, token = leaf_roles[event.module_path]
                memo_key = op_id * 32 + token
                resolved = param_memo.get(memo_key)
                if resolved is None:
                    resolved = resolve(op, role, comm_kind)
                    param_memo[memo_key] = resolved
            else:
                resolved = nonparam_memo.get(op_id)
                if resolved is None:
                    resolved = resolve(op, self.activation_role(op), None)
                    nonparam_memo[op_id] = resolved
            role, shards, comm = resolved
            append(
                tuple_new(
                    event_cls, (event, role, shards, comm, repeat, 0)
                )
            )
        return DistributedPlan(
            strategy=self.describe(),
            world=self.world,
            kind="spmd",
            sharded_events=sharded,
            source=trace,
        )

    @staticmethod
    def activation_role(op: Op) -> ShardRole:
        """Split of a weight-free op: head-parallel attention, else sequence."""
        if op.category is OpCategory.ATTENTION:
            return ShardRole.HEAD
        return ShardRole.SEQUENCE

    # Leaf-role maps per trace: scaling sweeps re-partition one trace
    # for every world size, and the assignment is world-independent.
    _LEAF_ROLES: "weakref.WeakKeyDictionary[Trace, tuple[int, dict]]" = (
        weakref.WeakKeyDictionary()
    )

    # Interned (role, collective) combinations.  The partition loop keys
    # its memo on ``id(op) * 32 + token`` — valid while the number of
    # combinations stays below 32 (it is bounded by
    # ``len(ShardRole) * (len(CollectiveKind) + 1)``).
    _ROLE_TOKENS: dict[
        tuple[ShardRole, CollectiveKind | None], int
    ] = {}

    def _leaf_roles(
        self, trace: Trace
    ) -> dict[str, tuple[ShardRole, CollectiveKind | None, int]]:
        """Cached :meth:`_assign_leaf_roles` with interned role tokens.

        Values are ``(role, collective, token)``; the token stands in
        for the (role, collective) pair in hot memo keys.  Keyed weakly
        per trace.
        """
        entry = self._LEAF_ROLES.get(trace)
        if entry is not None and entry[0] == len(trace.events):
            return entry[1]
        tokens = self._ROLE_TOKENS
        roles = {}
        for path, pair in self._assign_leaf_roles(trace).items():
            token = tokens.get(pair)
            if token is None:
                token = len(tokens)
                if token >= 32:
                    raise AssertionError(
                        "role-token space exhausted; widen the memo key"
                    )
                tokens[pair] = token
            roles[path] = (pair[0], pair[1], token)
        self._LEAF_ROLES[trace] = (len(trace.events), roles)
        return roles

    def _assign_leaf_roles(
        self, trace: Trace
    ) -> dict[str, tuple[ShardRole, CollectiveKind | None]]:
        """Column/row placement per parameter-bearing module path.

        Roles are assigned on first use so a layer keeps the same split
        in every invocation.  Attention projections use the anchor flag
        to tell inputs (column) from the output projection (row); other
        layers alternate within their parent scope.
        """
        roles: dict[str, tuple[ShardRole, CollectiveKind | None]] = {}
        anchor_seen: dict[str, bool] = {}
        next_is_column: dict[str, bool] = {}
        pending_column: dict[str, str] = {}
        param_memo: dict[int, bool] = {}
        for event in trace:
            op = event.op
            if event.is_attention_anchor:
                anchor_seen[event.module_path] = True
            op_id = id(op)
            owns = param_memo.get(op_id)
            if owns is None:
                owns = op.param_bytes() > 0
                param_memo[op_id] = owns
            if not owns:
                continue
            leaf = event.module_path
            if op.category is OpCategory.ATTENTION:
                scope = _parent_scope(leaf)
                if leaf in roles:
                    if roles[leaf][0] is ShardRole.ROW:
                        anchor_seen[scope] = False
                elif anchor_seen.get(scope):
                    roles[leaf] = (ShardRole.ROW, CollectiveKind.ALL_REDUCE)
                    anchor_seen[scope] = False
                else:
                    roles[leaf] = (ShardRole.COLUMN, None)
                continue
            if leaf in roles:
                continue
            scope = _parent_scope(leaf)
            if next_is_column.get(scope, True):
                roles[leaf] = (ShardRole.COLUMN, None)
                next_is_column[scope] = False
                pending_column[scope] = leaf
            else:
                roles[leaf] = (ShardRole.ROW, CollectiveKind.ALL_REDUCE)
                next_is_column[scope] = True
                pending_column.pop(scope, None)
        # A scope with an odd number of weight layers leaves its last
        # column-split layer un-paired: its sharded output must be
        # gathered before the (unsharded) consumers that follow.
        for leaf in pending_column.values():
            roles[leaf] = (ShardRole.COLUMN, CollectiveKind.ALL_GATHER)
        return roles


class TPOpTable(NamedTuple):
    """Tensor-parallel view of one trace: distinct variants, per-event columns.

    A *variant* is one distinct ``(op, role, collective kind)`` triple —
    :meth:`TensorParallel.partition` shards and prices it identically
    wherever it appears, so a consumer can price each variant once and
    expand to events with gathers.  Suite traces hold ~20-35k events but
    only a few hundred to a few thousand variants.

    Attributes:
        variants: distinct triples, in first-appearance order; the kind
            is the collective the event needs after it at ``tp > 1``.
        variant: per-event index into ``variants`` (``intp``).
        repeat: per-event fold factor (``intp``, see :func:`event_repeat`).
        out_bytes: per-event unsharded output bytes (``float64``).
        time_s: per-event profiled ``event.cost.time_s`` (``float64``).

    The columns are read-only so consumers may share them.
    """

    variants: tuple[tuple[Op, ShardRole, CollectiveKind | None], ...]
    variant: np.ndarray
    repeat: np.ndarray
    out_bytes: np.ndarray
    time_s: np.ndarray


# One op table per trace, keyed weakly and guarded on the event count
# like the fold factors: the planner prices one trace at every TP degree.
_OP_TABLE_CACHE: "weakref.WeakKeyDictionary[Trace, TPOpTable]" = (
    weakref.WeakKeyDictionary()
)


def tp_op_table(trace: Trace) -> TPOpTable:
    """The :class:`TPOpTable` of ``trace``, cached per trace object."""
    table = _OP_TABLE_CACHE.get(trace)
    if table is None or len(table.variant) != len(trace.events):
        table = _build_op_table(trace)
        _OP_TABLE_CACHE[trace] = table
    return table


def _build_op_table(trace: Trace) -> TPOpTable:
    """One pass over ``trace``, resolving roles as ``partition()`` does."""
    leaf_roles = TensorParallel(1)._leaf_roles(trace)
    variants: list[tuple[Op, ShardRole, CollectiveKind | None]] = []
    # Same memo keys as partition(): weight ops per (op, leaf token),
    # activation ops per op.
    param_index: dict[int, int] = {}
    activation_index: dict[int, int] = {}
    has_params: dict[int, bool] = {}
    variant: list[int] = []
    for event in trace.events:
        op = event.op
        op_id = id(op)
        owns = has_params.get(op_id)
        if owns is None:
            owns = op.param_bytes() > 0
            has_params[op_id] = owns
        if owns:
            role, kind, token = leaf_roles[event.module_path]
            memo, key = param_index, op_id * 32 + token
        else:
            memo, key = activation_index, op_id
        index = memo.get(key)
        if index is None:
            if not owns:
                role, kind = TensorParallel.activation_role(op), None
            index = len(variants)
            variants.append((op, role, kind))
            memo[key] = index
        variant.append(index)
    n = len(variant)
    variant_col = np.array(variant, dtype=np.intp)
    write = np.array(
        [op.write_bytes() for op, _, _ in variants], dtype=np.float64
    )
    columns = (
        variant_col,
        np.array(trace_repeats(trace), dtype=np.intp),
        write[variant_col],
        np.fromiter(
            (event.cost.time_s for event in trace.events),
            dtype=np.float64, count=n,
        ),
    )
    for column in columns:
        column.flags.writeable = False
    return TPOpTable(tuple(variants), *columns)


class DataParallel(PartitionStrategy):
    """Batch slicing across replicas (inference: no collectives)."""

    name = "dp"

    def __init__(self, world: int, batch: int = 1):
        super().__init__(world)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.batch = batch

    def describe(self) -> str:
        """Label including the global batch, e.g. ``"dp=4(batch=8)"``."""
        return f"{self.name}={self.world}(batch={self.batch})"

    def partition(self, trace: Trace) -> DistributedPlan:
        """Slice every event's batch-linear dimension by rank share."""
        weights = even_split(self.batch, self.world)
        repeats = trace_repeats(trace)
        sharded: list[ShardedEvent] = []
        shard_cache: dict[int, tuple[Op | None, ...]] = {}
        append = sharded.append
        tuple_new = tuple.__new__
        event_cls = ShardedEvent
        batch_role = ShardRole.BATCH
        for event, repeat in zip(trace.events, repeats):
            op = event.op
            shards = shard_cache.get(id(op))
            if shards is None:
                shards = tuple(shard_op(op, batch_role, weights))
                shard_cache[id(op)] = shards
            append(
                tuple_new(
                    event_cls, (event, batch_role, shards, None, repeat, 0)
                )
            )
        return DistributedPlan(
            strategy=self.describe(),
            world=self.world,
            kind="spmd",
            sharded_events=sharded,
            source=trace,
        )


class PipelineParallel(PartitionStrategy):
    """Contiguous stage assignment balanced by execution time."""

    name = "pp"

    def partition(self, trace: Trace) -> DistributedPlan:
        """Split the trace into ``world`` stages; link them with p2p."""
        events = list(trace)
        if not events:
            raise ValueError("cannot partition an empty trace")
        repeats = trace_repeats(trace)
        boundaries = self._stage_boundaries(events)
        sharded: list[ShardedEvent] = []
        stage = 0
        for index, event in enumerate(events):
            while stage < self.world - 1 and index >= boundaries[stage]:
                stage += 1
            ops: list[Op | None] = [None] * self.world
            ops[stage] = event.op
            comm = None
            is_stage_end = (
                stage < self.world - 1
                and index == boundaries[stage] - 1
                # A boundary at len(events) is the fill for stages that
                # own no events (more ranks than events): there is no
                # downstream stage to feed, so no activation crosses it.
                and boundaries[stage] < len(events)
            )
            if is_stage_end:
                comm = CommSpec(
                    kind=CollectiveKind.SEND_RECV,
                    payload_bytes=_output_bytes(event.op),
                    label=f"p2p:{event.op.name}",
                )
            sharded.append(
                ShardedEvent(
                    source=event,
                    role=ShardRole.SEQUENCE,
                    ops=tuple(ops),
                    comm=comm,
                    repeat=repeats[index],
                    stage=stage,
                )
            )
        return DistributedPlan(
            strategy=self.describe(),
            world=self.world,
            kind="pipeline",
            sharded_events=sharded,
            source=trace,
        )

    def _stage_boundaries(self, events: list[TraceEvent]) -> list[int]:
        """End index (exclusive) of each of the first ``world-1`` stages.

        Greedy time balancing: each stage closes once it holds its
        proportional share of total trace time — or at the last index
        that still leaves one event per remaining stage (without the
        forced close, one early stage running under its proportional
        target starves every stage after it: the one-event-per-stage
        guard then blocks all later closes and the whole trace
        collapses into stage 0).
        """
        total = sum(event.cost.time_s for event in events)
        boundaries: list[int] = []
        cumulative = 0.0
        target = 1
        for index, event in enumerate(events):
            cumulative += event.cost.time_s
            remaining = len(events) - (index + 1)
            while (
                target < self.world
                and remaining >= self.world - target
                and (
                    cumulative >= total * target / self.world
                    or remaining == self.world - target
                )
            ):
                boundaries.append(index + 1)
                target += 1
        while len(boundaries) < self.world - 1:
            boundaries.append(len(events))
        return boundaries


def strategy_from_name(
    name: str, world: int, *, batch: int = 1
) -> PartitionStrategy:
    """Build a partition strategy from its short name (tp/dp/pp)."""
    if name == "tp":
        return TensorParallel(world)
    if name == "dp":
        return DataParallel(world, batch=batch)
    if name == "pp":
        return PipelineParallel(world)
    raise ValueError(f"unknown partition strategy {name!r}; known: tp, dp, pp")
