"""The event-at-a-time reference engine for the fleet simulator.

:func:`repro.serving.fleet.simulate_fleet` runs the columnar engine
(:mod:`repro.serving.columnar`).  This module keeps the engine it
replaced — one Python object per queued request, one heap entry per
event — as the legible semantic definition the tests compare it with:
the equivalence and telemetry property suites, the
``python -m repro.serving.chaos`` smoke and the ``serve4`` experiment
require :func:`same_report` between the two.  It also holds the
record-at-a-time references for :func:`repro.serving.slo.slo_report`
(:func:`oracle_slo_report`) and
:func:`repro.serving.slo.tier_slo_report`
(:func:`oracle_tier_slo_report`).  No production module imports it.
All times are seconds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry

from repro.serving.batching import BatchLatencyFn
from repro.serving.faults import (
    FAULT_FREE,
    NO_RETRIES,
    DomainMarker,
    FaultSchedule,
    RecoveryPlan,
    RetryPolicy,
)
from repro.serving.fleet import (
    AutoscalerConfig,
    FailedRequest,
    FleetCompletion,
    FleetReport,
    PoolSpec,
    PoolStats,
    _report_key,
    _validate_pools,
)
from repro.serving.resilience import (
    RESILIENCE_OFF,
    ResilienceConfig,
    ResilienceStats,
    ShedRequest,
)
from repro.serving.slo import (
    ModelSlo,
    SloReport,
    TierSlo,
    TierSloReport,
    _availability,
    _deadline_for,
    percentile,
)
from repro.serving.workload import Request, RequestBatch


@dataclass(frozen=True)
class OracleReport:
    """Everything an oracle run produced, as tuples of records.

    Every offered request reaches exactly one terminal state:
    ``offered == len(completed) + len(failed) + len(shed)``.
    """

    completed: tuple[FleetCompletion, ...]
    failed: tuple[FailedRequest, ...]
    pools: tuple[PoolStats, ...]
    makespan_s: float
    offered: int
    shed: tuple[ShedRequest, ...] = ()
    resilience: ResilienceStats = ResilienceStats()

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


def simulate_oracle(
    requests: Sequence[Request],
    pools: Sequence[PoolSpec],
    *,
    retry: RetryPolicy = NO_RETRIES,
    faults: FaultSchedule = FAULT_FREE,
    autoscaler: AutoscalerConfig | None = None,
    resilience: ResilienceConfig = RESILIENCE_OFF,
    telemetry: "Telemetry | None" = None,
    plan: RecoveryPlan | None = None,
) -> OracleReport:
    """Run the reference engine; same arguments as ``simulate_fleet``.

    ``requests`` may be a ``Sequence[Request]``, a
    :class:`~repro.serving.workload.RequestBatch` or a
    :class:`~repro.serving.traffic.TrafficTrace`.
    """
    from repro.serving.traffic import TrafficTrace

    if isinstance(requests, TrafficTrace):
        requests = requests.batch
    _validate_pools(pools)
    if isinstance(requests, RequestBatch):
        requests = requests.to_requests()
    state = _FleetState(
        pools, retry, faults, autoscaler, resilience,
        telemetry=telemetry, plan=plan,
    )
    return state.run(requests)


def same_report(report: FleetReport, reference: OracleReport) -> bool:
    """Is a production report bit-identical to the oracle's?

    Compares every record (each float exactly), the pool stats, the
    makespan, the offered count and the resilience counters.
    """
    return _report_key(report) == _report_key(reference)


def oracle_slo_report(
    report: OracleReport,
    deadlines: Mapping[str, float] | float,
) -> SloReport:
    """Record-at-a-time SLO accounting over an oracle report.

    The reference for :func:`repro.serving.slo.slo_report`, which must
    return an equal :class:`SloReport` for a bit-identical run.
    """
    models = sorted(
        {record.request.model for record in report.completed}
        | {record.request.model for record in report.failed}
        | {record.request.model for record in report.shed}
    )

    def deadline_for(model: str) -> float:
        return _deadline_for(deadlines, model)

    per_model = []
    for model in models:
        deadline = deadline_for(model)
        completions = [
            record for record in report.completed
            if record.request.model == model
        ]
        failures = sum(
            1 for record in report.failed
            if record.request.model == model
        )
        sheds = sum(
            1 for record in report.shed
            if record.request.model == model
        )
        latencies = [record.latency_s for record in completions]
        count = len(completions)
        per_model.append(
            ModelSlo(
                model=model,
                deadline_s=deadline,
                completed=count,
                failed=failures,
                p50_s=percentile(latencies, 50.0),
                p95_s=percentile(latencies, 95.0),
                p99_s=percentile(latencies, 99.0),
                mean_queueing_s=(
                    sum(r.queueing_s for r in completions) / count
                    if count else 0.0
                ),
                mean_service_s=(
                    sum(r.service_s for r in completions) / count
                    if count else 0.0
                ),
                within_deadline=sum(
                    1 for value in latencies if value <= deadline
                ),
                violation_s=sum(
                    max(0.0, value - deadline) for value in latencies
                ),
                shed=sheds,
                hedged=sum(1 for r in completions if r.hedged),
                degraded=sum(1 for r in completions if r.rung > 0),
                quality_debt=sum(
                    1.0 - r.quality for r in completions if r.rung > 0
                ),
            )
        )
    return SloReport(
        per_model=tuple(per_model),
        availability=_availability(report.pools),
        makespan_s=report.makespan_s,
    )


def oracle_tier_slo_report(
    report: OracleReport,
    trace,
    deadlines: Mapping[str, float] | float,
) -> TierSloReport:
    """Record-at-a-time per-client-tier breakdown of an oracle report.

    The reference for :func:`repro.serving.slo.tier_slo_report`, which
    must return an equal :class:`TierSloReport` for a bit-identical run
    of the same :class:`~repro.serving.traffic.TrafficTrace`.
    """
    from repro.serving.traffic import TIER_NAMES

    client_ids = trace.client_ids.tolist()
    client_tiers = trace.client_tiers.tolist()

    def tier_of(record) -> int:
        return client_tiers[client_ids[record.request.request_id]]

    per_tier = []
    for tier, name in enumerate(TIER_NAMES):
        completions = [r for r in report.completed if tier_of(r) == tier]
        latencies = [r.latency_s for r in completions]
        per_tier.append(
            TierSlo(
                tier=name,
                clients=client_tiers.count(tier),
                completed=len(completions),
                failed=sum(1 for r in report.failed if tier_of(r) == tier),
                shed=sum(1 for r in report.shed if tier_of(r) == tier),
                p50_s=percentile(latencies, 50.0),
                p95_s=percentile(latencies, 95.0),
                p99_s=percentile(latencies, 99.0),
                within_deadline=sum(
                    1 for r in completions
                    if r.latency_s
                    <= _deadline_for(deadlines, r.request.model)
                ),
            )
        )
    return TierSloReport(per_tier=tuple(per_tier))


class _Queued:
    """Mutable queue entry: one copy of one request.

    ``token`` increments on every enqueue so timeout events scheduled
    for an earlier attempt cannot abandon a later one.  Hedging links
    the two copies of a request through ``twin``: ``done`` marks the
    terminal copy (completed/failed/shed), ``cancelled`` the losing
    copy, which is skipped everywhere it still appears.
    """

    __slots__ = (
        "request", "attempts", "queued_since_s", "in_queue", "token",
        "pool", "twin", "is_hedge", "cancelled", "done",
    )

    def __init__(
        self, request: Request, attempts: int, queued_since_s: float
    ):
        self.request = request
        self.attempts = attempts
        self.queued_since_s = queued_since_s
        self.in_queue = False
        self.token = 0
        self.pool: "_Pool | None" = None
        self.twin: "_Queued | None" = None
        self.is_hedge = False
        self.cancelled = False
        self.done = False


class _Breaker:
    """Mutable per-server circuit-breaker state machine."""

    __slots__ = (
        "state", "failures", "opened_at", "probe_in_flight", "opens",
        "open_s",
    )

    def __init__(self) -> None:
        self.state = "closed"
        self.failures: list[float] = []
        self.opened_at = 0.0
        self.probe_in_flight = False
        self.opens = 0
        self.open_s = 0.0

    def allows(self) -> bool:
        """May the server take a batch under this breaker state?"""
        if self.state == "closed":
            return True
        if self.state == "half_open":
            return not self.probe_in_flight
        return False


class _Server:
    """Mutable per-server simulation state."""

    __slots__ = (
        "sid", "pool", "alive", "active", "activated_at", "active_s",
        "down_since", "down_s", "busy_s", "wasted_s", "last_model",
        "generation", "batch", "batch_start", "batch_model", "swaps",
        "breaker", "batch_nominal", "batch_rung",
    )

    def __init__(self, sid: int, pool: "_Pool", active: bool):
        self.sid = sid
        self.pool = pool
        self.alive = True
        self.active = active
        self.activated_at = 0.0 if active else None
        self.active_s = 0.0
        self.down_since: float | None = None
        self.down_s = 0.0
        self.busy_s = 0.0
        self.wasted_s = 0.0
        self.last_model: str | None = None
        self.generation = 0
        self.batch: list[_Queued] | None = None
        self.batch_start = 0.0
        self.batch_model = ""
        self.swaps = 0
        self.breaker: _Breaker | None = None
        self.batch_nominal = 0.0
        self.batch_rung = 0

    @property
    def free(self) -> bool:
        """Can this server take a batch right now?"""
        return (
            self.alive and self.active and self.batch is None
            and (self.breaker is None or self.breaker.allows())
        )


class _Pool:
    """Mutable per-pool simulation state."""

    __slots__ = (
        "spec", "queue", "servers", "last_scale_at", "peak_servers",
        "pending_activations", "rung", "last_rung_change",
    )

    def __init__(self, spec: PoolSpec):
        self.spec = spec
        self.queue: list[_Queued] = []
        self.servers: list[_Server] = []
        self.last_scale_at = float("-inf")
        self.peak_servers = spec.servers
        self.pending_activations = 0
        self.rung = 0
        self.last_rung_change = float("-inf")

    @property
    def active_count(self) -> int:
        """Servers currently taking traffic."""
        return sum(1 for server in self.servers if server.active)

    @property
    def busy_count(self) -> int:
        """Servers currently running a batch."""
        return sum(
            1 for server in self.servers if server.batch is not None
        )

    def load(self) -> float:
        """Backlog plus in-flight work per active server (routing)."""
        active = max(1, self.active_count)
        return (len(self.queue) + self.busy_count) / active



class _FleetState:
    """The event loop and bookkeeping behind :func:`simulate_oracle`."""

    def __init__(
        self,
        pools: Sequence[PoolSpec],
        retry: RetryPolicy,
        faults: FaultSchedule,
        autoscaler: AutoscalerConfig | None,
        resilience: ResilienceConfig = RESILIENCE_OFF,
        telemetry: "Telemetry | None" = None,
        plan: RecoveryPlan | None = None,
    ):
        self.tel = telemetry
        self.retry = retry
        self.autoscaler = autoscaler
        self.res = resilience
        self.plan = plan
        self.pools = [_Pool(spec) for spec in pools]
        self.servers: list[_Server] = []
        for pool in self.pools:
            for index in range(
                pool.spec.servers + pool.spec.standby_servers
            ):
                server = _Server(
                    len(self.servers), pool,
                    active=index < pool.spec.servers,
                )
                if resilience.breaker is not None:
                    server.breaker = _Breaker()
                pool.servers.append(server)
                self.servers.append(server)
        self.faults = faults
        # Chaos-off fast path: skip the per-dispatch straggler scan
        # entirely when no windows exist (1.0 * nominal is bit-exact).
        self.has_stragglers = bool(faults.stragglers)
        self.heap: list[tuple[float, int, str, object]] = []
        self.seq = 0
        self.completed: list[FleetCompletion] = []
        self.failed: list[FailedRequest] = []
        self.shed: list[ShedRequest] = []
        self.last_arrival = 0.0
        # Admission token bucket (arrivals only).
        admission = resilience.admission
        self.bucket_tokens = (
            admission.burst if admission is not None else 0.0
        )
        self.bucket_last = 0.0
        # Hedging: latency samples per model feed the running quantile.
        self.latency_samples: dict[str, list[float]] = {}
        self.hedges_launched = 0
        self.hedge_wins = 0
        self.hedge_wasted_s = 0.0
        # Brownout: completions per rung (index 0 = nominal).
        ladder = resilience.brownout
        self.rung_completions = [0] * (
            1 + (len(ladder.rungs) if ladder is not None else 0)
        )
        self.rung_changes = 0

    def push(self, time: float, kind: str, payload: object) -> None:
        """Schedule one event (stable FIFO order at equal times)."""
        self.seq += 1
        heapq.heappush(self.heap, (time, self.seq, kind, payload))

    def run(self, requests: Sequence[Request]) -> OracleReport:
        """Drain arrivals, faults and scaling events; build the report."""
        offered = len(requests)
        for request in requests:
            self.push(request.arrival_s, "arrival", request)
            self.last_arrival = max(self.last_arrival, request.arrival_s)
        for crash in self.faults.crashes:
            if crash.server < len(self.servers):
                self.push(crash.at_s, "crash", crash)
        # Plan events go after crashes, before the autoscaler tick; the
        # columnar engine replicates this exact (time, seq) order.
        if self.plan is not None:
            for action in self.plan.actions:
                if action.server < len(self.servers):
                    self.push(
                        action.at_s, action.kind,
                        self.servers[action.server],
                    )
            for marker in self.plan.markers:
                self.push(marker.at_s, "marker", marker)
        if self.autoscaler is not None:
            self.push(self.autoscaler.check_interval_s, "tick", None)
        if self.res.brownout is not None:
            self.push(
                self.res.brownout.check_interval_s, "brownout", None
            )
        tel = self.tel
        if tel is not None:
            pool_index = {
                id(pool): index
                for index, pool in enumerate(self.pools)
            }
            tel.begin(
                [pool.spec.name for pool in self.pools],
                [
                    pool_index[id(server.pool)]
                    for server in self.servers
                ],
                self._sample_gauges,
            )
        while self.heap:
            now, _, kind, payload = heapq.heappop(self.heap)
            if tel is not None:
                tel.advance(now)
            getattr(self, f"_on_{kind}")(now, payload)
        makespan = max(
            [record.finish_s for record in self.completed]
            + [record.failed_at_s for record in self.failed]
            + [record.shed_at_s for record in self.shed]
            + [self.last_arrival],
            default=0.0,
        )
        if tel is not None:
            tel.finish(makespan)
        breaker_open_s = 0.0
        breaker_opens = 0
        for server in self.servers:
            if server.breaker is None:
                continue
            breaker_opens += server.breaker.opens
            breaker_open_s += server.breaker.open_s
            if server.breaker.state == "open":
                breaker_open_s += max(
                    0.0, makespan - server.breaker.opened_at
                )
        stats = ResilienceStats(
            shed=len(self.shed),
            hedges_launched=self.hedges_launched,
            hedge_wins=self.hedge_wins,
            hedge_wasted_s=self.hedge_wasted_s,
            breaker_opens=breaker_opens,
            breaker_open_s=breaker_open_s,
            rung_completions=tuple(self.rung_completions),
            rung_changes=self.rung_changes,
        )
        return OracleReport(
            completed=tuple(
                sorted(self.completed, key=lambda c: c.finish_s)
            ),
            failed=tuple(
                sorted(self.failed, key=lambda f: f.failed_at_s)
            ),
            pools=tuple(
                self._pool_stats(pool, makespan) for pool in self.pools
            ),
            makespan_s=makespan,
            offered=offered,
            shed=tuple(sorted(self.shed, key=lambda s: s.shed_at_s)),
            resilience=stats,
        )

    def _sample_gauges(self) -> list[tuple]:
        """One gauge tuple per pool, in ``POOL_GAUGES`` order."""
        return [
            (
                len(pool.queue),
                pool.busy_count,
                pool.active_count,
                pool.rung,
                sum(
                    1 for server in pool.servers
                    if server.breaker is not None
                    and server.breaker.state == "open"
                ),
            )
            for pool in self.pools
        ]

    # -- event handlers ------------------------------------------------

    def _on_arrival(self, now: float, request: Request) -> None:
        if self.tel is not None:
            self.tel.record_submit(
                request.request_id, request.model, now
            )
        entry = _Queued(request, attempts=1, queued_since_s=now)
        self._enqueue(now, entry)
        if (
            self.res.hedge is not None
            and not entry.done  # admitted, not shed/unroutable
        ):
            delay = self._hedge_delay(request.model)
            if delay is not None:
                self.push(now + delay, "hedge", entry)

    def _on_retry(self, now: float, entry: _Queued) -> None:
        if entry.cancelled or entry.done:
            return  # the other copy already settled this request
        entry.queued_since_s = now
        self._enqueue(now, entry)

    def _on_free(self, now: float, payload: object) -> None:
        server, generation = payload  # type: ignore[misc]
        if server.generation != generation or server.batch is None:
            return  # aborted by a crash
        duration = now - server.batch_start
        server.busy_s += duration
        for entry in server.batch:
            if entry.cancelled:
                # The losing hedge copy: its share of the batch was
                # wasted work, not a completion.
                self.hedge_wasted_s += duration / len(server.batch)
                continue
            entry.done = True
            rung = server.batch_rung
            self.rung_completions[rung] += 1
            if entry.twin is not None and entry.is_hedge:
                self.hedge_wins += 1
            if self.tel is not None:
                self.tel.record_complete(
                    entry.request.request_id, now,
                    server.pool.spec.name, server.sid,
                    entry.attempts, rung,
                    hedged=entry.twin is not None,
                    win=entry.is_hedge,
                )
            self.completed.append(
                FleetCompletion(
                    request=entry.request,
                    pool=server.pool.spec.name,
                    server=server.sid,
                    queued_since_s=entry.queued_since_s,
                    start_s=server.batch_start,
                    finish_s=now,
                    attempts=entry.attempts,
                    hedged=entry.twin is not None,
                    rung=rung,
                    quality=(
                        1.0 if rung == 0
                        else self.res.brownout.rungs[rung - 1].quality
                    ),
                )
            )
            if entry.twin is not None:
                self._cancel(entry.twin, now)
            if self.res.hedge is not None:
                self.latency_samples.setdefault(
                    entry.request.model, []
                ).append(now - entry.request.arrival_s)
        if server.breaker is not None:
            self._observe_batch(server, now, duration)
        server.last_model = server.batch_model
        server.batch = None
        self._dispatch(server.pool, now)

    def _on_crash(self, now: float, crash) -> None:
        server = self.servers[crash.server]
        if not server.alive or not server.active:
            return  # already down, or a cold standby — nothing to kill
        server.alive = False
        server.down_since = now
        server.generation += 1
        if self.tel is not None:
            self.tel.record_server(
                now, "server_crash", server.sid,
                server.pool.spec.name,
            )
        if server.batch is not None:
            server.wasted_s += now - server.batch_start
            for entry in server.batch:
                if entry.cancelled:
                    continue  # the losing hedge copy dies quietly
                self._retry_or_fail(
                    now, entry, reason="crash",
                    pool=server.pool.spec.name,
                )
            server.batch = None
        if server.breaker is not None:
            self._breaker_failure(server, now)
        self.push(crash.recover_s, "recover", server)

    def _on_recover(self, now: float, server: _Server) -> None:
        if server.alive:
            return
        server.alive = True
        if self.tel is not None:
            self.tel.record_server(
                now, "server_recover", server.sid,
                server.pool.spec.name,
            )
        if server.down_since is not None:
            server.down_s += now - server.down_since
            server.down_since = None
        self._dispatch(server.pool, now)

    def _on_timeout(self, now: float, payload: object) -> None:
        entry, pool, token = payload  # type: ignore[misc]
        if not entry.in_queue or entry.token != token:
            return  # served, abandoned, or retried in the meantime
        pool.queue.remove(entry)
        entry.in_queue = False
        self._retry_or_fail(
            now, entry, reason="timeout", pool=pool.spec.name
        )

    def _on_activate(self, now: float, server: _Server) -> None:
        server.active = True
        server.activated_at = now
        if self.tel is not None:
            self.tel.record_scale(
                now, "server_activate", server.pool.spec.name,
                server.sid,
            )
        server.pool.pending_activations -= 1
        server.pool.peak_servers = max(
            server.pool.peak_servers, server.pool.active_count
        )
        self._dispatch(server.pool, now)

    def _on_tick(self, now: float, _payload: object) -> None:
        assert self.autoscaler is not None
        config = self.autoscaler
        for pool in self.pools:
            if now - pool.last_scale_at < config.cooldown_s:
                continue
            backlog = len(pool.queue) / max(1, pool.active_count)
            scalable = pool.active_count + pool.pending_activations
            if (
                backlog >= config.scale_up_backlog
                and scalable < len(pool.servers)
            ):
                standby = next(
                    server for server in pool.servers
                    if not server.active
                )
                pool.pending_activations += 1
                pool.last_scale_at = now
                if self.tel is not None:
                    self.tel.record_scale(
                        now, "scale_up", pool.spec.name, standby.sid
                    )
                self.push(now + config.startup_s, "activate", standby)
            elif (
                backlog <= config.scale_down_backlog
                and pool.active_count > pool.spec.min_servers
            ):
                idle = next(
                    (
                        server for server in reversed(pool.servers)
                        if server.free
                    ),
                    None,
                )
                if idle is not None:
                    idle.active = False
                    if self.tel is not None:
                        self.tel.record_scale(
                            now, "scale_down", pool.spec.name,
                            idle.sid,
                        )
                    if idle.activated_at is not None:
                        idle.active_s += now - idle.activated_at
                        idle.activated_at = None
                    pool.last_scale_at = now
        pending = (
            any(pool.queue for pool in self.pools)
            or any(server.batch is not None for server in self.servers)
            or any(pool.pending_activations for pool in self.pools)
            or now < self.last_arrival
        )
        if pending:
            self.push(now + config.check_interval_s, "tick", None)

    def _on_cordon(self, now: float, server: _Server) -> None:
        if not server.active:
            return  # already cordoned / never promoted
        server.active = False
        if self.tel is not None:
            self.tel.record_server(
                now, "server_cordon", server.sid,
                server.pool.spec.name,
            )
        if server.activated_at is not None:
            server.active_s += now - server.activated_at
            server.activated_at = None

    def _on_uncordon(self, now: float, server: _Server) -> None:
        if server.active:
            return  # promotion raced an autoscaler activate
        server.active = True
        server.activated_at = now
        if self.tel is not None:
            self.tel.record_server(
                now, "server_uncordon", server.sid,
                server.pool.spec.name,
            )
        server.pool.peak_servers = max(
            server.pool.peak_servers, server.pool.active_count
        )
        self._dispatch(server.pool, now)

    def _on_marker(self, now: float, marker: DomainMarker) -> None:
        # Observational only — state is never read or written here.
        if self.tel is not None:
            self.tel.record_domain(
                now, marker.kind, marker.domain, marker.event
            )

    def _on_hedge(self, now: float, entry: _Queued) -> None:
        if entry.done or entry.cancelled or entry.twin is not None:
            return  # already finished, or already hedged
        pool = self._route_hedge(entry)
        if pool is None:
            return
        copy = _Queued(
            entry.request, attempts=entry.attempts, queued_since_s=now
        )
        copy.is_hedge = True
        copy.twin = entry
        entry.twin = copy
        self.hedges_launched += 1
        if self.tel is not None:
            self.tel.record_hedge(
                entry.request.request_id, now, pool.spec.name
            )
        self._place(now, copy, pool)

    def _on_probe(self, now: float, server: _Server) -> None:
        breaker = server.breaker
        assert breaker is not None
        # A stale probe event from an earlier open cycle fires before
        # the current cooldown has elapsed; the current cycle pushed
        # its own probe event, so ignore this one.
        if breaker.state != "open":
            return
        if now < breaker.opened_at + self.res.breaker.cooldown_s - 1e-12:
            return
        breaker.state = "half_open"
        breaker.probe_in_flight = False
        breaker.open_s += now - breaker.opened_at
        if self.tel is not None:
            self.tel.record_breaker(
                now, server.sid, server.pool.spec.name, "half_open"
            )
        self._dispatch(server.pool, now)

    def _on_brownout(self, now: float, _payload: object) -> None:
        config = self.res.brownout
        assert config is not None
        for pool in self.pools:
            backlog = len(pool.queue) / max(1, pool.active_count)
            if now - pool.last_rung_change < config.dwell_s:
                continue
            if (
                backlog >= config.step_down_backlog
                and pool.rung < len(config.rungs)
            ):
                pool.rung += 1
                pool.last_rung_change = now
                self.rung_changes += 1
                if self.tel is not None:
                    self.tel.record_rung(
                        now, pool.spec.name, pool.rung, +1
                    )
            elif backlog <= config.step_up_backlog and pool.rung > 0:
                pool.rung -= 1
                pool.last_rung_change = now
                self.rung_changes += 1
                if self.tel is not None:
                    self.tel.record_rung(
                        now, pool.spec.name, pool.rung, -1
                    )
        pending = (
            any(pool.queue for pool in self.pools)
            or any(server.batch is not None for server in self.servers)
            or any(pool.rung > 0 for pool in self.pools)
            or now < self.last_arrival
        )
        if pending:
            self.push(now + config.check_interval_s, "brownout", None)

    # -- mechanics -----------------------------------------------------

    def _route(self, request: Request) -> _Pool | None:
        eligible = [
            pool for pool in self.pools
            if request.model in pool.spec.latency_fns
        ]
        if not eligible:
            return None
        return min(eligible, key=lambda pool: pool.load())

    def _enqueue(self, now: float, entry: _Queued) -> None:
        admission = self.res.admission
        if (
            admission is not None
            and admission.rate_per_s is not None
            and entry.attempts == 1
            and not self._bucket_admits(now)
        ):
            self._shed(now, entry, reason="shed-rate", pool="")
            return
        pool = self._route(entry.request)
        if pool is None:
            self.failed.append(
                FailedRequest(
                    request=entry.request, pool="", attempts=entry.attempts,
                    reason="unroutable", failed_at_s=now,
                )
            )
            entry.done = True
            if self.tel is not None:
                self.tel.record_fail(
                    entry.request.request_id, now, "", "unroutable",
                    entry.attempts,
                )
            return
        if admission is not None:
            name = pool.spec.name
            if (
                admission.max_queue_depth is not None
                and len(pool.queue) >= admission.max_queue_depth
            ):
                self._shed(now, entry, reason="shed-depth", pool=name)
                return
            budget = admission.budget_for(entry.request.model)
            if budget is not None:
                estimate = pool.load() * self._latency_fn(
                    pool, entry.request.model
                )(1)
                if estimate > budget:
                    self._shed(now, entry, reason="shed-wait", pool=name)
                    return
        self._place(now, entry, pool)

    def _place(self, now: float, entry: _Queued, pool: _Pool) -> None:
        entry.in_queue = True
        entry.token += 1
        entry.pool = pool
        pool.queue.append(entry)
        if self.tel is not None:
            self.tel.record_admit(
                entry.request.request_id, now, pool.spec.name,
                entry.attempts, entry.is_hedge,
            )
        if self.retry.timeout_s is not None:
            self.push(
                now + self.retry.timeout_s, "timeout",
                (entry, pool, entry.token),
            )
        self._dispatch(pool, now)

    def _bucket_admits(self, now: float) -> bool:
        admission = self.res.admission
        assert admission is not None and admission.rate_per_s is not None
        self.bucket_tokens = min(
            admission.burst,
            self.bucket_tokens
            + (now - self.bucket_last) * admission.rate_per_s,
        )
        self.bucket_last = now
        if self.bucket_tokens < 1.0:
            return False
        self.bucket_tokens -= 1.0
        return True

    def _shed(
        self, now: float, entry: _Queued, *, reason: str, pool: str
    ) -> None:
        if self._twin_alive(entry):
            entry.cancelled = True  # the hedge copy carries on
            if self.tel is not None:
                self.tel.record_cancel(entry.request.request_id, now)
            return
        entry.done = True
        self.shed.append(
            ShedRequest(
                request=entry.request, pool=pool,
                attempts=entry.attempts, reason=reason, shed_at_s=now,
            )
        )
        if self.tel is not None:
            self.tel.record_shed(
                entry.request.request_id, now, pool, reason
            )

    def _twin_alive(self, entry: _Queued) -> bool:
        twin = entry.twin
        return (
            twin is not None and not twin.done and not twin.cancelled
        )

    def _cancel(self, entry: _Queued, now: float) -> None:
        entry.cancelled = True
        if entry.in_queue:
            entry.in_queue = False
            if entry.pool is not None:
                entry.pool.queue.remove(entry)
        if self.tel is not None:
            self.tel.record_cancel(entry.request.request_id, now)

    def _hedge_delay(self, model: str) -> float | None:
        config = self.res.hedge
        assert config is not None
        if config.delay_s is not None:
            return config.delay_s
        samples = self.latency_samples.get(model, ())
        if len(samples) < config.min_samples:
            return None
        ordered = sorted(samples)
        index = max(
            0,
            min(
                len(ordered) - 1,
                round(config.quantile / 100.0 * len(ordered)) - 1,
            ),
        )
        return ordered[index]

    def _route_hedge(self, entry: _Queued) -> _Pool | None:
        """The hedge target: a different pool when one is eligible."""
        eligible = [
            pool for pool in self.pools
            if entry.request.model in pool.spec.latency_fns
        ]
        others = [pool for pool in eligible if pool is not entry.pool]
        candidates = others or eligible
        if not candidates:
            return None
        return min(candidates, key=lambda pool: pool.load())

    def _latency_fn(self, pool: _Pool, model: str) -> BatchLatencyFn:
        """The latency curve at the pool's current brownout rung."""
        if self.res.brownout is not None and pool.rung > 0:
            fn = self.res.brownout.rungs[pool.rung - 1].latency_fns.get(
                model
            )
            if fn is not None:
                return fn
        return pool.spec.latency_fns[model]

    def _rung_for(self, pool: _Pool, model: str) -> int:
        """The rung a launch of ``model`` is actually degraded to."""
        if self.res.brownout is not None and pool.rung > 0:
            rungs = self.res.brownout.rungs
            if model in rungs[pool.rung - 1].latency_fns:
                return pool.rung
        return 0

    def _observe_batch(
        self, server: _Server, now: float, duration: float
    ) -> None:
        """Feed a completed batch's outcome to the server's breaker."""
        breaker = server.breaker
        config = self.res.breaker
        assert breaker is not None and config is not None
        slow = (
            config.slow_factor is not None
            and server.batch_nominal > 0.0
            and duration > config.slow_factor * server.batch_nominal
        )
        if slow:
            self._breaker_failure(server, now)
        elif breaker.state == "half_open":
            # The probe came back clean: close and forget history.
            breaker.state = "closed"
            breaker.probe_in_flight = False
            breaker.failures.clear()
            if self.tel is not None:
                self.tel.record_breaker(
                    now, server.sid, server.pool.spec.name, "closed"
                )

    def _breaker_failure(self, server: _Server, now: float) -> None:
        breaker = server.breaker
        config = self.res.breaker
        assert breaker is not None and config is not None
        breaker.failures = [
            at for at in breaker.failures if at > now - config.window_s
        ]
        breaker.failures.append(now)
        tripped = (
            breaker.state == "half_open"
            or (
                breaker.state == "closed"
                and len(breaker.failures) >= config.failure_threshold
            )
        )
        if tripped:
            breaker.state = "open"
            breaker.opened_at = now
            breaker.opens += 1
            breaker.probe_in_flight = False
            if self.tel is not None:
                self.tel.record_breaker(
                    now, server.sid, server.pool.spec.name, "open"
                )
            self.push(now + config.cooldown_s, "probe", server)

    def _retry_or_fail(
        self, now: float, entry: _Queued, *, reason: str, pool: str
    ) -> None:
        if entry.cancelled or entry.done:
            return
        if entry.attempts >= self.retry.max_attempts:
            if self._twin_alive(entry):
                entry.cancelled = True  # the other copy is still trying
                if self.tel is not None:
                    self.tel.record_cancel(
                        entry.request.request_id, now
                    )
                return
            entry.done = True
            self.failed.append(
                FailedRequest(
                    request=entry.request, pool=pool,
                    attempts=entry.attempts, reason=reason,
                    failed_at_s=now,
                )
            )
            if self.tel is not None:
                self.tel.record_fail(
                    entry.request.request_id, now, pool, reason,
                    entry.attempts,
                )
            return
        backoff = self.retry.backoff_for(
            entry.attempts, entry.request.request_id
        )
        entry.attempts += 1
        if self.tel is not None:
            self.tel.record_retry(
                entry.request.request_id, now, reason, backoff,
                entry.attempts,
            )
        self.push(now + backoff, "retry", entry)

    def _dispatch(self, pool: _Pool, now: float) -> None:
        while pool.queue:
            server = next(
                (server for server in pool.servers if server.free), None
            )
            if server is None:
                return
            indices = pool.spec.policy.select(
                pool.queue, now=now, max_batch=pool.spec.max_batch,
                last_model=server.last_model,
            )
            if not indices:
                return
            batch = [pool.queue[index] for index in indices]
            model = batch[0].request.model
            if any(
                entry.request.model != model for entry in batch
            ) or len(batch) > pool.spec.max_batch:
                raise ValueError(
                    f"policy {pool.spec.policy.name!r} returned an "
                    "invalid batch"
                )
            for index in sorted(indices, reverse=True):
                pool.queue.pop(index)
            for entry in batch:
                entry.in_queue = False
            nominal = self._latency_fn(pool, model)(len(batch))
            factor = (
                self._straggler_factor(server, now)
                if self.has_stragglers else 1.0
            )
            latency = nominal * factor
            if (
                server.last_model is not None
                and server.last_model != model
            ):
                latency += pool.spec.swap_cost_s
                nominal += pool.spec.swap_cost_s
                server.swaps += 1
            server.batch = batch
            server.batch_start = now
            server.batch_model = model
            server.batch_nominal = nominal
            server.batch_rung = self._rung_for(pool, model)
            if self.tel is not None:
                for entry in batch:
                    self.tel.record_dispatch(
                        entry.request.request_id, now,
                        pool.spec.name, server.sid, len(batch),
                        server.batch_rung, entry.is_hedge,
                    )
            if (
                server.breaker is not None
                and server.breaker.state == "half_open"
            ):
                server.breaker.probe_in_flight = True
            self.push(
                now + latency, "free", (server, server.generation)
            )

    def _straggler_factor(self, server: _Server, now: float) -> float:
        for window in self.faults.stragglers:
            if (
                window.server == server.sid
                and window.at_s <= now < window.until_s
            ):
                return window.slowdown
        return 1.0

    def _pool_stats(self, pool: _Pool, makespan: float) -> PoolStats:
        busy = sum(server.busy_s for server in pool.servers)
        wasted = sum(server.wasted_s for server in pool.servers)
        down = 0.0
        capacity = 0.0
        swaps = sum(server.swaps for server in pool.servers)
        completed = sum(
            1 for record in self.completed
            if record.pool == pool.spec.name
        )
        shed = sum(
            1 for record in self.shed if record.pool == pool.spec.name
        )
        for server in pool.servers:
            server_down = server.down_s
            if server.down_since is not None:
                server_down += max(0.0, makespan - server.down_since)
            down += server_down
            active = server.active_s
            if server.activated_at is not None:
                active += max(0.0, makespan - server.activated_at)
            capacity += max(0.0, active - server_down)
        return PoolStats(
            name=pool.spec.name,
            machine=pool.spec.machine,
            servers=pool.spec.servers,
            peak_servers=pool.peak_servers,
            completed=completed,
            busy_s=busy,
            wasted_s=wasted,
            down_s=down,
            capacity_s=capacity,
            swaps=swaps,
            shed=shed,
        )
