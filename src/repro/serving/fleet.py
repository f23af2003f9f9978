"""Fleet-scale discrete-event serving simulator.

The single-pool FIFO queue answered "how many GPUs for this SLO"; a
production TTI/TTV deployment is messier: heterogeneous pools (mixed
A100/H100 generations from the :mod:`repro.distributed` machine
registry, or multi-GPU sharded replicas acting as one server), a
scheduling policy per pool, servers that crash and straggle, clients
that time out and retry, and an autoscaler reacting to backlog.  This
module simulates all of that with one event heap, deterministically:
the only randomness lives in the workload and fault *inputs* (both
seed-pinned), so a simulation is a pure function of its arguments.

Mechanics:

* Requests are routed at arrival (and at each retry) to the eligible
  pool — one whose latency table knows the request's model — with the
  lowest load per active server.
* Each pool runs a :class:`repro.serving.policies.SchedulingPolicy`;
  batches are single-model, and switching the served model charges the
  pool's ``swap_cost_s`` (weight reload).
* Faults follow :mod:`repro.serving.faults` semantics: crashes abort
  the in-flight batch (requests retry with backoff until attempts run
  out), stragglers multiply the latency of batches launched in their
  window, queue timeouts abandon attempts.
* The optional autoscaler activates standby servers when backlog per
  active server crosses a threshold, and drains idle ones when it
  falls; activation pays a model-load delay.

The output :class:`FleetReport` feeds :mod:`repro.serving.slo`, which
turns raw completions into p50/p95/p99, goodput and availability.

One engine runs every simulation: the columnar struct-of-arrays loop
in :mod:`repro.serving.columnar`, behind :func:`simulate_fleet`.  The
event-at-a-time engine it replaced survives only as the reference the
tests compare it with (:mod:`repro.serving.oracle`; see
``docs/FLEET_CORE.md``).  All times are **seconds** throughout the
serving layer — fields and attributes carry the ``_s`` suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry
    from repro.serving.sharded import ShardedReplica

from repro.distributed.registry import machine_from_name
from repro.hw.spec import GPUSpec
from repro.ir.dtypes import FP16
from repro.serving.batching import BatchLatencyFn
from repro.serving.faults import (
    FAULT_FREE,
    NO_RETRIES,
    FaultSchedule,
    RecoveryPlan,
    RetryPolicy,
)
from repro.serving.policies import FifoPolicy, SchedulingPolicy
from repro.serving.resilience import (
    RESILIENCE_OFF,
    ResilienceConfig,
    ResilienceStats,
    ShedRequest,
)
from repro.serving.workload import Request


def affine_batch_latency(
    base_s: float, *, marginal_fraction: float = 0.3
) -> BatchLatencyFn:
    """Batch-latency curve from a single-request service time.

    Models the measured sub-linear batching curve as a fixed cost plus
    a per-request marginal cost: ``latency(b) = base * ((1 - mf) + mf *
    b)``, so ``latency(1) == base`` and each extra request adds
    ``mf * base``.  Use measured curves
    (:func:`repro.serving.batching.interpolated_batch_latency`) when
    profiles are available; this is the honest fallback for pools
    specified by scalar service times.
    """
    if base_s <= 0:
        raise ValueError("base service time must be positive")
    if not 0.0 < marginal_fraction <= 1.0:
        raise ValueError("marginal fraction must be in (0, 1]")

    def latency(batch: int) -> float:
        if batch <= 0:
            raise ValueError("batch must be positive")
        return base_s * ((1.0 - marginal_fraction)
                         + marginal_fraction * batch)

    return latency


def machine_speed_factor(
    machine: str, *, reference: str = "dgx-a100-80g"
) -> float:
    """Crude serving-speed ratio between two registered machines.

    Geometric mean of the FP16 tensor-peak ratio and the HBM-bandwidth
    ratio — the two roofline axes — between ``machine`` and
    ``reference``.  Good enough to scale a pool's service times across
    hardware generations when re-profiling is not worth it; experiments
    that care (``serve1``) profile on the target GPU instead.
    """
    target: GPUSpec = machine_from_name(machine).gpu
    base: GPUSpec = machine_from_name(reference).gpu
    flops = target.peak_flops_for(FP16) / base.peak_flops_for(FP16)
    bandwidth = target.dram_bandwidth / base.dram_bandwidth
    return (flops * bandwidth) ** 0.5


def pool_from_replicas(
    name: str,
    replicas: Sequence["ShardedReplica"],
    *,
    servers: int,
    **kwargs: object,
) -> "PoolSpec":
    """Build a pool whose servers are multi-GPU sharded replicas.

    Each :class:`repro.serving.sharded.ShardedReplica` contributes its
    measured batch-latency curve for its model; all replicas must live
    on the same registry machine (a pool is homogeneous hardware).
    ``servers`` counts replicas, not GPUs — per-GPU accounting should
    divide by ``replica.gpus``.  Extra keyword arguments pass through
    to :class:`PoolSpec` (``max_batch``, ``policy``, ...).
    """
    if not replicas:
        raise ValueError("need at least one replica")
    machines = {replica.machine_name for replica in replicas}
    if len(machines) > 1:
        raise ValueError(
            f"replicas span machines {sorted(machines)}; one pool is "
            "homogeneous — split them into separate pools"
        )
    models = [replica.model_name for replica in replicas]
    if len(set(models)) != len(models):
        raise ValueError("one replica per model per pool")
    return PoolSpec(
        name=name,
        machine=machines.pop(),
        servers=servers,
        latency_fns={
            replica.model_name: replica.latency_fn
            for replica in replicas
        },
        **kwargs,
    )


@dataclass(frozen=True)
class PoolSpec:
    """One homogeneous server pool inside the fleet.

    Attributes:
        name: pool label (appears in reports and routing).
        machine: :mod:`repro.distributed.registry` machine name the
            servers run on (validated at simulation start).
        servers: initially active server count.
        latency_fns: model name -> batch-latency function on this
            hardware; its key set defines which models the pool can
            serve (routing eligibility).  Each function must be pure:
            the engine calls it once per batch size (and brownout
            rung) and reuses the result for every later launch.
        max_batch: dynamic-batching cap per launch.
        policy: scheduling policy instance (default FIFO).
        swap_cost_s: added to the first batch after the served model
            changes (weight reload from host memory).
        min_servers: autoscaler floor.
        max_servers: autoscaler ceiling (standby servers exist between
            ``servers`` and this); defaults to ``servers`` (no
            headroom).
        zone: failure-domain zone id the pool's servers share
            (consumed by :func:`repro.serving.domains.topology_for_pools`;
            ``None`` falls back to the pool's declaration index).  The
            engine never reads this — it only feeds topology
            construction, so setting it cannot perturb a simulation.
    """

    name: str
    machine: str
    servers: int
    latency_fns: Mapping[str, BatchLatencyFn]
    max_batch: int = 8
    policy: SchedulingPolicy = field(default_factory=FifoPolicy)
    swap_cost_s: float = 0.0
    min_servers: int = 1
    max_servers: int | None = None
    zone: int | None = None

    def __post_init__(self) -> None:
        if self.servers <= 0 or self.max_batch <= 0:
            raise ValueError("servers and max_batch must be positive")
        if not self.latency_fns:
            raise ValueError("pool must serve at least one model")
        if self.swap_cost_s < 0:
            raise ValueError("swap cost must be non-negative")
        if not 1 <= self.min_servers <= self.servers:
            raise ValueError("need 1 <= min_servers <= servers")
        if self.max_servers is not None and self.max_servers < self.servers:
            raise ValueError("max_servers must be >= servers")
        if self.zone is not None and self.zone < 0:
            raise ValueError("zone must be non-negative")

    @property
    def standby_servers(self) -> int:
        """Servers the autoscaler may add beyond the initial count."""
        if self.max_servers is None:
            return 0
        return self.max_servers - self.servers


@dataclass(frozen=True)
class AutoscalerConfig:
    """Reactive backlog-threshold autoscaling.

    Attributes:
        check_interval_s: seconds between scaling decisions.
        scale_up_backlog: queued requests per active server above which
            a standby server is activated.
        scale_down_backlog: backlog per active server below which an
            idle server is drained (never under the pool floor).
        startup_s: activation delay (boot + weight load) before a
            scaled-up server takes traffic.
        cooldown_s: minimum time between scaling actions per pool.
    """

    check_interval_s: float = 30.0
    scale_up_backlog: float = 4.0
    scale_down_backlog: float = 0.5
    startup_s: float = 30.0
    cooldown_s: float = 60.0

    def __post_init__(self) -> None:
        if self.check_interval_s <= 0 or self.startup_s < 0:
            raise ValueError("invalid autoscaler timing")
        if self.cooldown_s < 0:
            raise ValueError("cooldown must be non-negative")
        if not 0 <= self.scale_down_backlog < self.scale_up_backlog:
            raise ValueError(
                "need 0 <= scale_down_backlog < scale_up_backlog"
            )


@dataclass(frozen=True)
class FleetCompletion:
    """One successfully served request with its fleet timeline.

    ``hedged`` marks requests that had a duplicate copy in flight;
    ``rung``/``quality`` record the brownout rung the winning batch
    was served at (0 / 1.0 = nominal quality).
    """

    request: Request
    pool: str
    server: int
    queued_since_s: float
    start_s: float
    finish_s: float
    attempts: int
    hedged: bool = False
    rung: int = 0
    quality: float = 1.0

    @property
    def latency_s(self) -> float:
        """Client-observed latency including retries and backoff."""
        return self.finish_s - self.request.arrival_s

    @property
    def service_s(self) -> float:
        """Time on the GPU for the final (successful) attempt."""
        return self.finish_s - self.start_s

    @property
    def queueing_s(self) -> float:
        """Everything that is not final-attempt service time."""
        return self.latency_s - self.service_s

    @property
    def retried(self) -> bool:
        """True when the request needed more than one attempt."""
        return self.attempts > 1


@dataclass(frozen=True)
class FailedRequest:
    """A request that exhausted its attempts."""

    request: Request
    pool: str
    attempts: int
    reason: str
    failed_at_s: float


@dataclass(frozen=True)
class PoolStats:
    """Aggregate accounting for one pool over the run."""

    name: str
    machine: str
    servers: int
    peak_servers: int
    completed: int
    busy_s: float
    wasted_s: float
    down_s: float
    capacity_s: float
    swaps: int
    shed: int = 0

    @property
    def utilization(self) -> float:
        """Useful busy time over available server-seconds."""
        if self.capacity_s <= 0.0:
            return 0.0
        return min(1.0, self.busy_s / self.capacity_s)


# Terminal-state reason codes, interned once; reports store the small
# ints and materialize the strings on demand.
REASON_LABELS = (
    "unroutable", "crash", "timeout",
    "shed-rate", "shed-depth", "shed-wait",
)


def _report_key(report) -> tuple:
    """Everything report equality covers, in record form."""
    return (
        report.completed, report.failed, report.shed, report.pools,
        report.makespan_s, report.offered, report.resilience,
    )


@dataclass(frozen=True, eq=False)
class FleetReport:
    """Everything a fleet simulation produced, as aligned numpy columns.

    Every offered request reaches exactly one terminal state:
    ``offered == len(completed) + len(failed) + len(shed)``.
    Completions / failures / sheds are parallel arrays sorted by
    finish / failure / shed time (stable tie-break in the order the
    engine reached each terminal state).  :attr:`completed`,
    :attr:`failed` and :attr:`shed` materialize them as record tuples
    on first access; :func:`repro.serving.slo.slo_report` reads the
    columns directly, so million-request runs never build the records
    just to compute SLOs.  Two reports are equal when their records,
    pool stats, makespan, offered count and resilience counters are.

    All times are seconds.  ``comp_req``/``fail_req``/``shed_req``
    index the request table columns (``req_*``); ``*_pool`` columns
    hold indices into ``pool_names`` (−1 encodes the ``""`` pool of
    unroutable failures and rate-limit sheds); ``fail_reason`` /
    ``shed_reason`` hold indices into :data:`REASON_LABELS`.
    """

    models: tuple[str, ...]
    pool_names: tuple[str, ...]
    req_arrival_s: np.ndarray
    req_service_s: np.ndarray
    req_model_ids: np.ndarray
    req_request_ids: np.ndarray
    comp_req: np.ndarray
    comp_pool: np.ndarray
    comp_server: np.ndarray
    comp_queued_since_s: np.ndarray
    comp_start_s: np.ndarray
    comp_finish_s: np.ndarray
    comp_attempts: np.ndarray
    comp_hedged: np.ndarray
    comp_rung: np.ndarray
    comp_quality: np.ndarray
    fail_req: np.ndarray
    fail_pool: np.ndarray
    fail_attempts: np.ndarray
    fail_reason: np.ndarray
    fail_at_s: np.ndarray
    shed_req: np.ndarray
    shed_pool: np.ndarray
    shed_attempts: np.ndarray
    shed_reason: np.ndarray
    shed_at_s: np.ndarray
    pools: tuple[PoolStats, ...]
    makespan_s: float
    offered: int
    resilience: ResilienceStats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FleetReport):
            return NotImplemented
        return _report_key(self) == _report_key(other)

    @property
    def completed_count(self) -> int:
        """Number of successfully served requests."""
        return int(len(self.comp_req))

    @property
    def completion_rate(self) -> float:
        """Fraction of offered requests that eventually completed."""
        if self.offered == 0:
            return 0.0
        return len(self.comp_req) / self.offered

    @property
    def retried_count(self) -> int:
        """Completed requests that needed more than one attempt."""
        return int(np.count_nonzero(self.comp_attempts > 1))

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests rejected by admission."""
        if self.offered == 0:
            return 0.0
        return len(self.shed_req) / self.offered

    @property
    def latency_s(self) -> np.ndarray:
        """Client-observed latency per completion (finish − arrival)."""
        return self.comp_finish_s - self.req_arrival_s[self.comp_req]

    @property
    def service_s(self) -> np.ndarray:
        """Final-attempt GPU time per completion (finish − start)."""
        return self.comp_finish_s - self.comp_start_s

    @property
    def queueing_s(self) -> np.ndarray:
        """Per-completion non-service latency (latency − service)."""
        return self.latency_s - self.service_s

    def _request(self, index: int) -> Request:
        return Request(
            request_id=int(self.req_request_ids[index]),
            arrival_s=float(self.req_arrival_s[index]),
            model=self.models[int(self.req_model_ids[index])],
            service_s=float(self.req_service_s[index]),
        )

    @cached_property
    def completed(self) -> tuple[FleetCompletion, ...]:
        """Completions as records, in finish-time order."""
        pool_of = self.pool_names
        return tuple(
            FleetCompletion(
                request=self._request(req),
                pool=pool_of[pool],
                server=server,
                queued_since_s=queued,
                start_s=start,
                finish_s=finish,
                attempts=attempts,
                hedged=hedged,
                rung=rung,
                quality=quality,
            )
            for req, pool, server, queued, start, finish, attempts,
            hedged, rung, quality in zip(
                self.comp_req.tolist(), self.comp_pool.tolist(),
                self.comp_server.tolist(),
                self.comp_queued_since_s.tolist(),
                self.comp_start_s.tolist(), self.comp_finish_s.tolist(),
                self.comp_attempts.tolist(), self.comp_hedged.tolist(),
                self.comp_rung.tolist(), self.comp_quality.tolist(),
            )
        )

    @cached_property
    def failed(self) -> tuple[FailedRequest, ...]:
        """Requests that exhausted their attempts, in failure order."""
        pool_of = self.pool_names
        return tuple(
            FailedRequest(
                request=self._request(req),
                pool=pool_of[pool] if pool >= 0 else "",
                attempts=attempts,
                reason=REASON_LABELS[reason],
                failed_at_s=at,
            )
            for req, pool, attempts, reason, at in zip(
                self.fail_req.tolist(), self.fail_pool.tolist(),
                self.fail_attempts.tolist(), self.fail_reason.tolist(),
                self.fail_at_s.tolist(),
            )
        )

    @cached_property
    def shed(self) -> tuple[ShedRequest, ...]:
        """Requests rejected by admission control, in shed order."""
        pool_of = self.pool_names
        return tuple(
            ShedRequest(
                request=self._request(req),
                pool=pool_of[pool] if pool >= 0 else "",
                attempts=attempts,
                reason=REASON_LABELS[reason],
                shed_at_s=at,
            )
            for req, pool, attempts, reason, at in zip(
                self.shed_req.tolist(), self.shed_pool.tolist(),
                self.shed_attempts.tolist(), self.shed_reason.tolist(),
                self.shed_at_s.tolist(),
            )
        )

    @cached_property
    def _pools_by_name(self) -> Mapping[str, PoolStats]:
        return {stats.name: stats for stats in self.pools}

    def pool_stats(self, name: str) -> PoolStats:
        """Stats for one pool by name (error lists the valid names)."""
        try:
            return self._pools_by_name[name]
        except KeyError:
            known = ", ".join(stats.name for stats in self.pools)
            raise ValueError(
                f"unknown pool {name!r}; known pools: {known}"
            ) from None


def _validate_pools(pools: Sequence[PoolSpec]) -> None:
    """Pool validation shared with the reference engine."""
    if not pools:
        raise ValueError("need at least one pool")
    names = [spec.name for spec in pools]
    if len(set(names)) != len(names):
        raise ValueError("pool names must be unique")
    for spec in pools:
        machine_from_name(spec.machine)  # validate early


def simulate_fleet(
    requests: Sequence[Request],
    pools: Sequence[PoolSpec],
    *,
    retry: RetryPolicy = NO_RETRIES,
    faults: FaultSchedule = FAULT_FREE,
    autoscaler: AutoscalerConfig | None = None,
    resilience: ResilienceConfig = RESILIENCE_OFF,
    telemetry: "Telemetry | None" = None,
    plan: RecoveryPlan | None = None,
) -> FleetReport:
    """Run the fleet discrete-event simulation to completion.

    Server ids are assigned pool-by-pool in declaration order — active
    servers first, then the pool's standby (autoscaling) servers — so a
    :class:`~repro.serving.faults.FaultSchedule` can target "server 2
    of the first pool" stably.  The simulation is deterministic: same
    requests, pools, retry policy, fault schedule, autoscaler and
    resilience config produce an equal :class:`FleetReport`; with
    :data:`~repro.serving.resilience.RESILIENCE_OFF` (the default) the
    event sequence is identical to the pre-resilience simulator.

    ``requests`` is a ``Sequence[Request]``, a columnar
    :class:`repro.serving.workload.RequestBatch`, or a replayable
    :class:`repro.serving.traffic.TrafficTrace` (its ``batch`` is
    simulated).  The engine is the columnar loop in
    :mod:`repro.serving.columnar`; it memoizes each pool's batch-latency
    functions, so they must be pure (see :attr:`PoolSpec.latency_fns`).

    ``telemetry`` takes a fresh :class:`repro.obs.Telemetry`
    collector; the run emits request spans, fleet events and metric
    samples into it (read ``telemetry.log()`` afterwards).  Telemetry
    is purely observational — passing a collector never changes the
    simulation outcome, and ``None`` (the default) costs nothing.

    ``plan`` takes a :class:`~repro.serving.faults.RecoveryPlan` of
    scheduled orchestration actions (cordon/uncordon, domain-transition
    markers) — typically compiled by
    :func:`repro.serving.domains.compile_campaign` alongside the fault
    schedule.  ``None`` (the default) schedules nothing and reproduces
    the plan-free simulator byte-identically.
    """
    from repro.serving.columnar import _ColumnarState, _request_columns

    _validate_pools(pools)
    state = _ColumnarState(
        pools, retry, faults, autoscaler, resilience,
        _request_columns(requests), telemetry=telemetry, plan=plan,
    )
    return state.run()
