"""The fleet simulator's engine: a columnar (struct-of-arrays) event loop.

:func:`repro.serving.fleet.simulate_fleet` runs every simulation here.
The event-at-a-time engine it replaced — one Python object per queued
request, one heap entry per arrival, a linear scan over servers per
dispatch — took ~45 s per million requests, which made the paper's
fleet-scale questions (a million-user day, ServeGen-style trace
replay) painful.  It survives as the test reference,
:mod:`repro.serving.oracle`, and this module is the same simulation
re-laid-out for speed:

* **Struct-of-arrays state.**  Requests live as four aligned columns
  (:class:`repro.serving.workload.RequestBatch`); queue entries,
  servers and breakers are parallel Python lists / bytearrays indexed
  by integer id, not heap-allocated objects.  numpy handles ingestion
  (stable argsort of arrivals, model interning) and report assembly
  (stable sorts, bincounts); the decision loop itself runs on scalar
  list indexing, which beats numpy scalar access for this access
  pattern.
* **No heap traffic for arrivals.**  Arrivals are a pre-sorted column
  merged against the (much smaller) runtime event heap, removing the
  dominant ``heappush``/``heappop`` cost of the oracle.
* **Epoch-free exactness.**  Control decisions (admission control,
  circuit breakers, brownout, autoscaler ticks) fire at exactly the
  same simulated instants as in the oracle — the merge preserves the
  oracle's global ``(time, seq)`` event order, so "epoch chunking" here
  means *batched bookkeeping between decision points*, never deferred
  decisions (see ``docs/FLEET_CORE.md``).
* **Memoized latency curves, indexed free-server heaps, maintained
  sorted hedge samples** — pure-speed replacements for the oracle's
  per-event recomputation, each preserving float-op order bit-exactly.

The contract (pinned by ``tests/serving/test_engine_equivalence.py``):
the :class:`repro.serving.fleet.FleetReport` built here holds records
bit-identical to the oracle's for the same inputs
(:func:`repro.serving.oracle.same_report`).  One assumption the oracle
does not make: batch-latency functions must be *pure* (the engine
caches ``fn(batch_size)`` per pool/model/rung).  All times are
**seconds** of simulation time.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry

from repro.serving.faults import (
    FaultSchedule,
    RecoveryPlan,
    RetryPolicy,
)
from repro.serving.fleet import (
    REASON_LABELS,
    AutoscalerConfig,
    FleetReport,
    PoolSpec,
    PoolStats,
)
from repro.serving.policies import (
    FifoPolicy,
    ModelAffinityPolicy,
    ShortestJobFirst,
)
from repro.serving.resilience import ResilienceConfig, ResilienceStats
from repro.serving.slo import nearest_rank_index
from repro.serving.workload import Request, RequestBatch

# Indices into :data:`repro.serving.fleet.REASON_LABELS`.
_R_UNROUTABLE, _R_CRASH, _R_TIMEOUT = 0, 1, 2
_R_SHED_RATE, _R_SHED_DEPTH, _R_SHED_WAIT = 3, 4, 5

# Event kinds (arrivals never enter the heap — they are a pre-sorted
# column merged against it).
_RETRY, _FREE, _CRASH, _RECOVER, _TIMEOUT = 0, 1, 2, 3, 4
_ACTIVATE, _TICK, _HEDGE, _PROBE, _BROWNOUT = 5, 6, 7, 8, 9
_CORDON, _UNCORDON, _MARKER = 10, 11, 12


def _request_columns(
    requests: Sequence[Request] | RequestBatch,
) -> RequestBatch:
    """Normalize any request representation to columns.

    Accepts a ``Sequence[Request]``, a :class:`RequestBatch`, or a
    :class:`repro.serving.traffic.TrafficTrace` (whose ``batch`` is
    already columnar — a zero-copy handoff).
    """
    from repro.serving.traffic import TrafficTrace

    if isinstance(requests, TrafficTrace):
        return requests.batch
    if isinstance(requests, RequestBatch):
        return requests
    return RequestBatch.from_requests(requests)


class _QueueProxy:
    """Read-only ``QueueView`` adapter for third-party policies.

    Built only on the generic-policy path; the built-in policies run
    on dedicated index loops and never materialize these.
    """

    __slots__ = ("request", "queued_since_s")

    def __init__(self, request: Request, queued_since_s: float):
        self.request = request
        self.queued_since_s = queued_since_s


class _ColPool:
    """Mutable per-pool engine state (columnar counterpart of _Pool)."""

    __slots__ = (
        "spec", "index", "queue", "sid0", "nserv", "last_scale_at",
        "peak_servers", "pending_activations", "rung",
        "last_rung_change", "active_count", "busy_count", "free_heap",
        "policy_mode", "spec_fns", "rung_fns", "max_batch",
    )

    def __init__(self, spec: PoolSpec, index: int, sid0: int):
        self.spec = spec
        self.index = index
        self.queue: list[int] = []
        self.sid0 = sid0
        self.nserv = spec.servers + spec.standby_servers
        self.last_scale_at = float("-inf")
        self.peak_servers = spec.servers
        self.pending_activations = 0
        self.rung = 0
        self.last_rung_change = float("-inf")
        self.active_count = spec.servers
        self.busy_count = 0
        self.free_heap: list[int] = []
        policy = spec.policy
        if type(policy) is FifoPolicy:
            self.policy_mode = 0
        elif type(policy) is ShortestJobFirst:
            self.policy_mode = 1
        elif type(policy) is ModelAffinityPolicy:
            self.policy_mode = 2
        else:
            self.policy_mode = 3
        self.spec_fns: dict[int, object] = {}
        self.rung_fns: list[dict[int, object]] = []
        self.max_batch = spec.max_batch


class _ColumnarState:
    """The merged arrival/event loop behind :func:`simulate_fleet`.

    Mirrors :class:`repro.serving.oracle._FleetState` handler for
    handler; every divergence is a data-structure substitution with a
    proof obligation of bit-exactness (catalogued in
    ``docs/FLEET_CORE.md``).
    """

    def __init__(
        self,
        pools: Sequence[PoolSpec],
        retry: RetryPolicy,
        faults: FaultSchedule,
        autoscaler: AutoscalerConfig | None,
        resilience: ResilienceConfig,
        batch: RequestBatch,
        telemetry: "Telemetry | None" = None,
        plan: RecoveryPlan | None = None,
    ):
        self.tel = telemetry
        self.retry = retry
        self.autoscaler = autoscaler
        self.res = resilience
        self.faults = faults
        self.plan = plan
        self.batch = batch
        self.models = batch.models
        # Request table as plain lists: the hot loop reads scalars.
        self.r_arrival = batch.arrival_s.tolist()
        self.r_service = batch.service_s.tolist()
        self.r_model = batch.model_ids.tolist()
        self.r_rid = batch.request_ids.tolist()

        model_index = {name: mid for mid, name in enumerate(self.models)}
        self.pools: list[_ColPool] = []
        self.pool_names = tuple(spec.name for spec in pools)
        nserv_total = sum(
            spec.servers + spec.standby_servers for spec in pools
        )
        # Server SoA (indexed by fleet-wide sid, pools contiguous).
        self.s_pool = [0] * nserv_total
        self.s_alive = bytearray([1]) * nserv_total
        self.s_active = bytearray(nserv_total)
        self.s_activated_at: list[float | None] = [None] * nserv_total
        self.s_active_s = [0.0] * nserv_total
        self.s_down_since: list[float | None] = [None] * nserv_total
        self.s_down_s = [0.0] * nserv_total
        self.s_busy_s = [0.0] * nserv_total
        self.s_wasted_s = [0.0] * nserv_total
        self.s_last_model = [-1] * nserv_total
        self.s_generation = [0] * nserv_total
        self.s_batch: list[list[int] | None] = [None] * nserv_total
        self.s_batch_start = [0.0] * nserv_total
        self.s_batch_model = [-1] * nserv_total
        self.s_swaps = [0] * nserv_total
        self.s_batch_nominal = [0.0] * nserv_total
        self.s_batch_rung = [0] * nserv_total
        use_breaker = resilience.breaker is not None
        self.use_breaker = use_breaker
        self.b_state = bytearray(nserv_total)  # 0 closed 1 open 2 half
        self.b_failures: list[list[float]] = [
            [] for _ in range(nserv_total)
        ] if use_breaker else []
        self.b_opened_at = [0.0] * nserv_total
        self.b_probe = bytearray(nserv_total)
        self.b_opens = [0] * nserv_total
        self.b_open_s = [0.0] * nserv_total

        sid = 0
        for pidx, spec in enumerate(pools):
            pool = _ColPool(spec, pidx, sid)
            for model, fn in spec.latency_fns.items():
                mid = model_index.get(model)
                if mid is not None:
                    pool.spec_fns[mid] = fn
            if resilience.brownout is not None:
                for rung in resilience.brownout.rungs:
                    pool.rung_fns.append({
                        model_index[model]: fn
                        for model, fn in rung.latency_fns.items()
                        if model in model_index
                    })
            for local in range(pool.nserv):
                self.s_pool[sid] = pidx
                if local < spec.servers:
                    self.s_active[sid] = 1
                    self.s_activated_at[sid] = 0.0
                    pool.free_heap.append(sid)
                sid += 1
            heapq.heapify(pool.free_heap)
            self.pools.append(pool)
        self.nserv_total = nserv_total

        # Routing: eligible pools per model id, pool-declaration order.
        self.route_pools: list[list[_ColPool]] = [
            [
                pool for pool in self.pools
                if mid in pool.spec_fns
            ]
            for mid in range(len(self.models))
        ]

        # Stragglers split per sid, preserving global schedule order so
        # "first matching window" scans agree with the oracle.
        self.straggler_by_sid: dict[int, list[tuple[float, float, float]]]
        self.straggler_by_sid = {}
        for window in faults.stragglers:
            self.straggler_by_sid.setdefault(window.server, []).append(
                (window.at_s, window.until_s, window.slowdown)
            )
        # Chaos-off fast path: skip the per-dispatch window lookup.
        self.has_stragglers = bool(self.straggler_by_sid)

        self.heap: list[tuple[float, int, int, object]] = []
        self.seq = 0
        self.latency_memo: dict[tuple[int, int, int, int], float] = {}
        self.timeout_s = retry.timeout_s

        # Entry SoA (grows; hedge copies append like arrivals).
        self.e_req: list[int] = []
        self.e_attempts: list[int] = []
        self.e_queued_since: list[float] = []
        self.e_in_queue = bytearray()
        self.e_token: list[int] = []
        self.e_pool: list[int] = []
        self.e_twin: list[int] = []
        self.e_is_hedge = bytearray()
        self.e_cancelled = bytearray()
        self.e_done = bytearray()

        # Terminal-record buffers (append order == oracle append order).
        self.c_req: list[int] = []
        self.c_pool: list[int] = []
        self.c_server: list[int] = []
        self.c_queued_since: list[float] = []
        self.c_start: list[float] = []
        self.c_finish: list[float] = []
        self.c_attempts: list[int] = []
        self.c_hedged = bytearray()
        self.c_rung: list[int] = []
        self.f_req: list[int] = []
        self.f_pool: list[int] = []
        self.f_attempts: list[int] = []
        self.f_reason: list[int] = []
        self.f_at: list[float] = []
        self.sh_req: list[int] = []
        self.sh_pool: list[int] = []
        self.sh_attempts: list[int] = []
        self.sh_reason: list[int] = []
        self.sh_at: list[float] = []

        self.last_arrival = 0.0
        admission = resilience.admission
        self.bucket_tokens = (
            admission.burst if admission is not None else 0.0
        )
        self.bucket_last = 0.0
        # Hedging: per-model latency samples kept *sorted* (insort) so
        # the running quantile never re-sorts a growing list.
        self.samples_sorted: list[list[float]] = [
            [] for _ in self.models
        ]
        self.hedges_launched = 0
        self.hedge_wins = 0
        self.hedge_wasted_s = 0.0
        ladder = resilience.brownout
        self.rung_completions = [0] * (
            1 + (len(ladder.rungs) if ladder is not None else 0)
        )
        self.rung_quality = (1.0,) + tuple(
            rung.quality for rung in ladder.rungs
        ) if ladder is not None else (1.0,)
        self.rung_changes = 0

    # -- plumbing ------------------------------------------------------

    def _push(self, time: float, kind: int, payload: object) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (time, self.seq, kind, payload))

    def _new_entry(
        self, ridx: int, attempts: int, queued_since: float
    ) -> int:
        eid = len(self.e_req)
        self.e_req.append(ridx)
        self.e_attempts.append(attempts)
        self.e_queued_since.append(queued_since)
        self.e_in_queue.append(0)
        self.e_token.append(0)
        self.e_pool.append(-1)
        self.e_twin.append(-1)
        self.e_is_hedge.append(0)
        self.e_cancelled.append(0)
        self.e_done.append(0)
        return eid

    def _sid_free(self, sid: int) -> bool:
        if not (
            self.s_alive[sid] and self.s_active[sid]
            and self.s_batch[sid] is None
        ):
            return False
        if not self.use_breaker:
            return True
        state = self.b_state[sid]
        if state == 0:
            return True
        if state == 2:
            return not self.b_probe[sid]
        return False

    def _pop_free(self, pool: _ColPool) -> int | None:
        heap = pool.free_heap
        while heap:
            sid = heapq.heappop(heap)
            if self._sid_free(sid):
                return sid
        return None

    def _mark_maybe_free(self, sid: int) -> None:
        heapq.heappush(self.pools[self.s_pool[sid]].free_heap, sid)

    # -- run loop ------------------------------------------------------

    def run(self) -> FleetReport:
        """Merge the arrival column with the event heap to completion."""
        n = len(self.r_arrival)
        offered = n
        if n:
            order = np.argsort(
                self.batch.arrival_s, kind="stable"
            )
            arr_times = self.batch.arrival_s[order].tolist()
            order_list = order.tolist()
            self.last_arrival = arr_times[-1]
        else:
            arr_times = []
            order_list = []
        # The oracle pushes every arrival first, consuming seqs 1..n in
        # input order; replicate the counter without the pushes.
        self.seq = n
        for crash in self.faults.crashes:
            if crash.server < self.nserv_total:
                self._push(
                    crash.at_s, _CRASH, (crash.server, crash.recover_s)
                )
        # Plan events consume seqs at the oracle's exact positions:
        # after crashes, before the autoscaler/brownout ticks.
        if self.plan is not None:
            for action in self.plan.actions:
                if action.server < self.nserv_total:
                    self._push(
                        action.at_s,
                        _CORDON if action.kind == "cordon"
                        else _UNCORDON,
                        action.server,
                    )
            for marker in self.plan.markers:
                self._push(marker.at_s, _MARKER, marker)
        if self.autoscaler is not None:
            self._push(self.autoscaler.check_interval_s, _TICK, None)
        if self.res.brownout is not None:
            self._push(
                self.res.brownout.check_interval_s, _BROWNOUT, None
            )
        tel = self.tel
        if tel is not None:
            tel.begin(
                self.pool_names, self.s_pool, self._sample_gauges
            )

        heap = self.heap
        handle = self._handle
        ai = 0
        pop = heapq.heappop
        while True:
            if ai < n:
                at = arr_times[ai]
                if heap:
                    head = heap[0]
                    ht = head[0]
                    if ht < at or (
                        ht == at and head[1] < order_list[ai] + 1
                    ):
                        now, _, kind, payload = pop(heap)
                        if tel is not None:
                            tel.advance(now)
                        handle(kind, now, payload)
                        continue
                ridx = order_list[ai]
                ai += 1
                if tel is not None:
                    tel.advance(at)
                self._on_arrival(at, ridx)
            elif heap:
                now, _, kind, payload = pop(heap)
                if tel is not None:
                    tel.advance(now)
                handle(kind, now, payload)
            else:
                break
        return self._build_report(offered)

    def _sample_gauges(self) -> list[tuple]:
        """One gauge tuple per pool, in ``POOL_GAUGES`` order."""
        rows = []
        for pool in self.pools:
            open_breakers = 0
            if self.use_breaker:
                b_state = self.b_state
                open_breakers = sum(
                    1 for sid in range(
                        pool.sid0, pool.sid0 + pool.nserv
                    )
                    if b_state[sid] == 1
                )
            rows.append((
                len(pool.queue),
                pool.busy_count,
                pool.active_count,
                pool.rung,
                open_breakers,
            ))
        return rows

    def _handle(self, kind: int, now: float, payload: object) -> None:
        if kind == _FREE:
            self._on_free(now, payload)
        elif kind == _TIMEOUT:
            self._on_timeout(now, payload)
        elif kind == _RETRY:
            self._on_retry(now, payload)
        elif kind == _HEDGE:
            self._on_hedge(now, payload)
        elif kind == _CRASH:
            self._on_crash(now, payload)
        elif kind == _RECOVER:
            self._on_recover(now, payload)
        elif kind == _TICK:
            self._on_tick(now)
        elif kind == _BROWNOUT:
            self._on_brownout(now)
        elif kind == _ACTIVATE:
            self._on_activate(now, payload)
        elif kind == _PROBE:
            self._on_probe(now, payload)
        elif kind == _CORDON:
            self._on_cordon(now, payload)
        elif kind == _UNCORDON:
            self._on_uncordon(now, payload)
        else:
            self._on_marker(now, payload)

    # -- event handlers (oracle handlers, SoA state) -------------------

    def _on_arrival(self, now: float, ridx: int) -> None:
        if self.tel is not None:
            self.tel.record_submit(
                self.r_rid[ridx], self.models[self.r_model[ridx]],
                now,
            )
        eid = self._new_entry(ridx, attempts=1, queued_since=now)
        self._enqueue(now, eid)
        if self.res.hedge is not None and not self.e_done[eid]:
            delay = self._hedge_delay(self.r_model[ridx])
            if delay is not None:
                self._push(now + delay, _HEDGE, eid)

    def _on_retry(self, now: float, eid: int) -> None:
        if self.e_cancelled[eid] or self.e_done[eid]:
            return
        self.e_queued_since[eid] = now
        self._enqueue(now, eid)

    def _on_free(self, now: float, payload) -> None:
        sid, generation = payload
        if (
            self.s_generation[sid] != generation
            or self.s_batch[sid] is None
        ):
            return  # aborted by a crash
        batch = self.s_batch[sid]
        start = self.s_batch_start[sid]
        duration = now - start
        self.s_busy_s[sid] += duration
        rung = self.s_batch_rung[sid]
        pool = self.pools[self.s_pool[sid]]
        hedging = self.res.hedge is not None
        for eid in batch:
            if self.e_cancelled[eid]:
                self.hedge_wasted_s += duration / len(batch)
                continue
            self.e_done[eid] = 1
            self.rung_completions[rung] += 1
            twin = self.e_twin[eid]
            if twin != -1 and self.e_is_hedge[eid]:
                self.hedge_wins += 1
            ridx = self.e_req[eid]
            if self.tel is not None:
                self.tel.record_complete(
                    self.r_rid[ridx], now, pool.spec.name, sid,
                    self.e_attempts[eid], rung,
                    hedged=twin != -1,
                    win=self.e_is_hedge[eid],
                )
            self.c_req.append(ridx)
            self.c_pool.append(pool.index)
            self.c_server.append(sid)
            self.c_queued_since.append(self.e_queued_since[eid])
            self.c_start.append(start)
            self.c_finish.append(now)
            self.c_attempts.append(self.e_attempts[eid])
            self.c_hedged.append(1 if twin != -1 else 0)
            self.c_rung.append(rung)
            if twin != -1:
                self._cancel(twin, now)
            if hedging:
                insort(
                    self.samples_sorted[self.r_model[ridx]],
                    now - self.r_arrival[ridx],
                )
        if self.use_breaker:
            self._observe_batch(sid, now, duration)
        self.s_last_model[sid] = self.s_batch_model[sid]
        self.s_batch[sid] = None
        pool.busy_count -= 1
        heapq.heappush(pool.free_heap, sid)
        self._dispatch(pool, now)

    def _on_crash(self, now: float, payload) -> None:
        sid, recover_s = payload
        if not self.s_alive[sid] or not self.s_active[sid]:
            return
        self.s_alive[sid] = 0
        self.s_down_since[sid] = now
        self.s_generation[sid] += 1
        batch = self.s_batch[sid]
        pool = self.pools[self.s_pool[sid]]
        if self.tel is not None:
            self.tel.record_server(
                now, "server_crash", sid, pool.spec.name
            )
        if batch is not None:
            self.s_wasted_s[sid] += now - self.s_batch_start[sid]
            for eid in batch:
                if self.e_cancelled[eid]:
                    continue
                self._retry_or_fail(
                    now, eid, reason=_R_CRASH, pool=pool.index
                )
            self.s_batch[sid] = None
            pool.busy_count -= 1
        if self.use_breaker:
            self._breaker_failure(sid, now)
        self._push(recover_s, _RECOVER, sid)

    def _on_recover(self, now: float, sid: int) -> None:
        if self.s_alive[sid]:
            return
        self.s_alive[sid] = 1
        if self.tel is not None:
            self.tel.record_server(
                now, "server_recover", sid,
                self.pool_names[self.s_pool[sid]],
            )
        if self.s_down_since[sid] is not None:
            self.s_down_s[sid] += now - self.s_down_since[sid]
            self.s_down_since[sid] = None
        self._mark_maybe_free(sid)
        self._dispatch(self.pools[self.s_pool[sid]], now)

    def _on_timeout(self, now: float, payload) -> None:
        eid, pidx, token = payload
        if not self.e_in_queue[eid] or self.e_token[eid] != token:
            return
        self.pools[pidx].queue.remove(eid)
        self.e_in_queue[eid] = 0
        self._retry_or_fail(now, eid, reason=_R_TIMEOUT, pool=pidx)

    def _on_activate(self, now: float, sid: int) -> None:
        self.s_active[sid] = 1
        self.s_activated_at[sid] = now
        pool = self.pools[self.s_pool[sid]]
        if self.tel is not None:
            self.tel.record_scale(
                now, "server_activate", pool.spec.name, sid
            )
        pool.pending_activations -= 1
        pool.active_count += 1
        if pool.active_count > pool.peak_servers:
            pool.peak_servers = pool.active_count
        self._mark_maybe_free(sid)
        self._dispatch(pool, now)

    def _on_tick(self, now: float) -> None:
        config = self.autoscaler
        for pool in self.pools:
            if now - pool.last_scale_at < config.cooldown_s:
                continue
            backlog = len(pool.queue) / max(1, pool.active_count)
            scalable = pool.active_count + pool.pending_activations
            if (
                backlog >= config.scale_up_backlog
                and scalable < pool.nserv
            ):
                standby = next(
                    sid for sid in range(
                        pool.sid0, pool.sid0 + pool.nserv
                    )
                    if not self.s_active[sid]
                )
                pool.pending_activations += 1
                pool.last_scale_at = now
                if self.tel is not None:
                    self.tel.record_scale(
                        now, "scale_up", pool.spec.name, standby
                    )
                self._push(now + config.startup_s, _ACTIVATE, standby)
            elif (
                backlog <= config.scale_down_backlog
                and pool.active_count > pool.spec.min_servers
            ):
                idle = next(
                    (
                        sid for sid in range(
                            pool.sid0 + pool.nserv - 1,
                            pool.sid0 - 1, -1,
                        )
                        if self._sid_free(sid)
                    ),
                    None,
                )
                if idle is not None:
                    self.s_active[idle] = 0
                    pool.active_count -= 1
                    if self.tel is not None:
                        self.tel.record_scale(
                            now, "scale_down", pool.spec.name, idle
                        )
                    if self.s_activated_at[idle] is not None:
                        self.s_active_s[idle] += (
                            now - self.s_activated_at[idle]
                        )
                        self.s_activated_at[idle] = None
                    pool.last_scale_at = now
        pending = (
            any(pool.queue for pool in self.pools)
            or any(pool.busy_count for pool in self.pools)
            or any(pool.pending_activations for pool in self.pools)
            or now < self.last_arrival
        )
        if pending:
            self._push(now + config.check_interval_s, _TICK, None)

    def _on_cordon(self, now: float, sid: int) -> None:
        if not self.s_active[sid]:
            return  # already cordoned / never promoted
        self.s_active[sid] = 0
        pool = self.pools[self.s_pool[sid]]
        pool.active_count -= 1
        if self.tel is not None:
            self.tel.record_server(
                now, "server_cordon", sid, pool.spec.name
            )
        if self.s_activated_at[sid] is not None:
            self.s_active_s[sid] += now - self.s_activated_at[sid]
            self.s_activated_at[sid] = None

    def _on_uncordon(self, now: float, sid: int) -> None:
        if self.s_active[sid]:
            return  # promotion raced an autoscaler activate
        self.s_active[sid] = 1
        self.s_activated_at[sid] = now
        pool = self.pools[self.s_pool[sid]]
        pool.active_count += 1
        if self.tel is not None:
            self.tel.record_server(
                now, "server_uncordon", sid, pool.spec.name
            )
        if pool.active_count > pool.peak_servers:
            pool.peak_servers = pool.active_count
        self._mark_maybe_free(sid)
        self._dispatch(pool, now)

    def _on_marker(self, now: float, marker) -> None:
        # Observational only — state is never read or written here.
        if self.tel is not None:
            self.tel.record_domain(
                now, marker.kind, marker.domain, marker.event
            )

    def _on_hedge(self, now: float, eid: int) -> None:
        if (
            self.e_done[eid] or self.e_cancelled[eid]
            or self.e_twin[eid] != -1
        ):
            return
        pool = self._route_hedge(eid)
        if pool is None:
            return
        copy = self._new_entry(
            self.e_req[eid], attempts=self.e_attempts[eid],
            queued_since=now,
        )
        self.e_is_hedge[copy] = 1
        self.e_twin[copy] = eid
        self.e_twin[eid] = copy
        self.hedges_launched += 1
        if self.tel is not None:
            self.tel.record_hedge(
                self.r_rid[self.e_req[eid]], now, pool.spec.name
            )
        self._place(now, copy, pool)

    def _on_probe(self, now: float, sid: int) -> None:
        if self.b_state[sid] != 1:
            return
        if now < (
            self.b_opened_at[sid] + self.res.breaker.cooldown_s - 1e-12
        ):
            return
        self.b_state[sid] = 2
        self.b_probe[sid] = 0
        self.b_open_s[sid] += now - self.b_opened_at[sid]
        if self.tel is not None:
            self.tel.record_breaker(
                now, sid, self.pool_names[self.s_pool[sid]],
                "half_open",
            )
        self._mark_maybe_free(sid)
        self._dispatch(self.pools[self.s_pool[sid]], now)

    def _on_brownout(self, now: float) -> None:
        config = self.res.brownout
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
            or any(pool.busy_count for pool in self.pools)
            or any(pool.rung > 0 for pool in self.pools)
            or now < self.last_arrival
        )
        if pending:
            self._push(now + config.check_interval_s, _BROWNOUT, None)

    # -- mechanics -----------------------------------------------------

    def _load(self, pool: _ColPool) -> float:
        return (
            (len(pool.queue) + pool.busy_count)
            / max(1, pool.active_count)
        )

    def _route(self, mid: int) -> _ColPool | None:
        eligible = self.route_pools[mid]
        if not eligible:
            return None
        best = eligible[0]
        if len(eligible) == 1:
            return best
        best_load = self._load(best)
        for pool in eligible[1:]:
            load = self._load(pool)
            if load < best_load:
                best = pool
                best_load = load
        return best

    def _enqueue(self, now: float, eid: int) -> None:
        admission = self.res.admission
        ridx = self.e_req[eid]
        if (
            admission is not None
            and admission.rate_per_s is not None
            and self.e_attempts[eid] == 1
            and not self._bucket_admits(now)
        ):
            self._shed(now, eid, reason=_R_SHED_RATE, pool=-1)
            return
        mid = self.r_model[ridx]
        pool = self._route(mid)
        if pool is None:
            self.f_req.append(ridx)
            self.f_pool.append(-1)
            self.f_attempts.append(self.e_attempts[eid])
            self.f_reason.append(_R_UNROUTABLE)
            self.f_at.append(now)
            self.e_done[eid] = 1
            if self.tel is not None:
                self.tel.record_fail(
                    self.r_rid[ridx], now, "", "unroutable",
                    self.e_attempts[eid],
                )
            return
        if admission is not None:
            if (
                admission.max_queue_depth is not None
                and len(pool.queue) >= admission.max_queue_depth
            ):
                self._shed(
                    now, eid, reason=_R_SHED_DEPTH, pool=pool.index
                )
                return
            budget = admission.budget_for(self.models[mid])
            if budget is not None:
                estimate = self._load(pool) * self._latency(pool, mid, 1)
                if estimate > budget:
                    self._shed(
                        now, eid, reason=_R_SHED_WAIT, pool=pool.index
                    )
                    return
        self._place(now, eid, pool)

    def _place(self, now: float, eid: int, pool: _ColPool) -> None:
        self.e_in_queue[eid] = 1
        self.e_token[eid] += 1
        self.e_pool[eid] = pool.index
        pool.queue.append(eid)
        if self.tel is not None:
            self.tel.record_admit(
                self.r_rid[self.e_req[eid]], now, pool.spec.name,
                self.e_attempts[eid], self.e_is_hedge[eid],
            )
        if self.timeout_s is not None:
            self._push(
                now + self.timeout_s, _TIMEOUT,
                (eid, pool.index, self.e_token[eid]),
            )
        self._dispatch(pool, now)

    def _bucket_admits(self, now: float) -> bool:
        admission = self.res.admission
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
        self, now: float, eid: int, *, reason: int, pool: int
    ) -> None:
        if self._twin_alive(eid):
            self.e_cancelled[eid] = 1
            if self.tel is not None:
                self.tel.record_cancel(
                    self.r_rid[self.e_req[eid]], now
                )
            return
        self.e_done[eid] = 1
        self.sh_req.append(self.e_req[eid])
        self.sh_pool.append(pool)
        self.sh_attempts.append(self.e_attempts[eid])
        self.sh_reason.append(reason)
        self.sh_at.append(now)
        if self.tel is not None:
            self.tel.record_shed(
                self.r_rid[self.e_req[eid]], now,
                self.pool_names[pool] if pool >= 0 else "",
                REASON_LABELS[reason],
            )

    def _twin_alive(self, eid: int) -> bool:
        twin = self.e_twin[eid]
        return (
            twin != -1
            and not self.e_done[twin]
            and not self.e_cancelled[twin]
        )

    def _cancel(self, eid: int, now: float) -> None:
        self.e_cancelled[eid] = 1
        if self.e_in_queue[eid]:
            self.e_in_queue[eid] = 0
            pidx = self.e_pool[eid]
            if pidx != -1:
                self.pools[pidx].queue.remove(eid)
        if self.tel is not None:
            self.tel.record_cancel(self.r_rid[self.e_req[eid]], now)

    def _hedge_delay(self, mid: int) -> float | None:
        config = self.res.hedge
        if config.delay_s is not None:
            return config.delay_s
        ordered = self.samples_sorted[mid]
        if len(ordered) < config.min_samples:
            return None
        return ordered[nearest_rank_index(len(ordered), config.quantile)]

    def _route_hedge(self, eid: int) -> _ColPool | None:
        eligible = self.route_pools[self.r_model[self.e_req[eid]]]
        home = self.e_pool[eid]
        others = [pool for pool in eligible if pool.index != home]
        candidates = others or eligible
        if not candidates:
            return None
        best = candidates[0]
        best_load = self._load(best)
        for pool in candidates[1:]:
            load = self._load(pool)
            if load < best_load:
                best = pool
                best_load = load
        return best

    def _rung_for(self, pool: _ColPool, mid: int) -> int:
        if pool.rung > 0 and mid in pool.rung_fns[pool.rung - 1]:
            return pool.rung
        return 0

    def _latency(self, pool: _ColPool, mid: int, size: int) -> float:
        rung = self._rung_for(pool, mid)
        key = (pool.index, mid, rung, size)
        value = self.latency_memo.get(key)
        if value is None:
            fn = (
                pool.rung_fns[rung - 1][mid] if rung > 0
                else pool.spec_fns[mid]
            )
            value = fn(size)
            self.latency_memo[key] = value
        return value

    def _observe_batch(
        self, sid: int, now: float, duration: float
    ) -> None:
        config = self.res.breaker
        nominal = self.s_batch_nominal[sid]
        slow = (
            config.slow_factor is not None
            and nominal > 0.0
            and duration > config.slow_factor * nominal
        )
        if slow:
            self._breaker_failure(sid, now)
        elif self.b_state[sid] == 2:
            self.b_state[sid] = 0
            self.b_probe[sid] = 0
            self.b_failures[sid].clear()
            if self.tel is not None:
                self.tel.record_breaker(
                    now, sid, self.pool_names[self.s_pool[sid]],
                    "closed",
                )

    def _breaker_failure(self, sid: int, now: float) -> None:
        config = self.res.breaker
        cutoff = now - config.window_s
        failures = [
            at for at in self.b_failures[sid] if at > cutoff
        ]
        failures.append(now)
        self.b_failures[sid] = failures
        state = self.b_state[sid]
        tripped = state == 2 or (
            state == 0 and len(failures) >= config.failure_threshold
        )
        if tripped:
            self.b_state[sid] = 1
            self.b_opened_at[sid] = now
            self.b_opens[sid] += 1
            self.b_probe[sid] = 0
            if self.tel is not None:
                self.tel.record_breaker(
                    now, sid, self.pool_names[self.s_pool[sid]],
                    "open",
                )
            self._push(now + config.cooldown_s, _PROBE, sid)

    def _retry_or_fail(
        self, now: float, eid: int, *, reason: int, pool: int
    ) -> None:
        if self.e_cancelled[eid] or self.e_done[eid]:
            return
        attempts = self.e_attempts[eid]
        if attempts >= self.retry.max_attempts:
            if self._twin_alive(eid):
                self.e_cancelled[eid] = 1
                if self.tel is not None:
                    self.tel.record_cancel(
                        self.r_rid[self.e_req[eid]], now
                    )
                return
            self.e_done[eid] = 1
            self.f_req.append(self.e_req[eid])
            self.f_pool.append(pool)
            self.f_attempts.append(attempts)
            self.f_reason.append(reason)
            self.f_at.append(now)
            if self.tel is not None:
                self.tel.record_fail(
                    self.r_rid[self.e_req[eid]], now,
                    self.pool_names[pool] if pool >= 0 else "",
                    REASON_LABELS[reason], attempts,
                )
            return
        backoff = self.retry.backoff_for(
            attempts, self.r_rid[self.e_req[eid]]
        )
        self.e_attempts[eid] = attempts + 1
        if self.tel is not None:
            self.tel.record_retry(
                self.r_rid[self.e_req[eid]], now,
                REASON_LABELS[reason], backoff, attempts + 1,
            )
        self._push(now + backoff, _RETRY, eid)

    def _select_indices(
        self, pool: _ColPool, sid: int, now: float
    ) -> tuple[list[int], int]:
        """Pick batch queue positions; returns ``(positions, model)``.

        Built-in policies run as index loops over entry ids (no object
        churn); any other policy gets the oracle's object protocol via
        :class:`_QueueProxy` views.
        """
        queue = pool.queue
        mode = pool.policy_mode
        r_model = self.r_model
        e_req = self.e_req
        if mode == 2:
            last = self.s_last_model[sid]
            if last != -1:
                picked = self._same_model(pool, last)
                if picked:
                    return picked, last
            mode = 0
        if mode == 0:
            mid = r_model[e_req[queue[0]]]
            return self._same_model(pool, mid), mid
        if mode == 1:
            r_service = self.r_service
            queued_since = self.e_queued_since
            best = 0
            ridx = e_req[queue[0]]
            best_key = (r_service[ridx], queued_since[queue[0]])
            for pos in range(1, len(queue)):
                eid = queue[pos]
                key = (r_service[e_req[eid]], queued_since[eid])
                if key < best_key:
                    best = pos
                    best_key = key
            mid = r_model[e_req[queue[best]]]
            return self._same_model(pool, mid), mid
        # Generic policy: oracle protocol over materialized views.
        views = [
            _QueueProxy(
                self.batch.request(e_req[eid]),
                self.e_queued_since[eid],
            )
            for eid in queue
        ]
        indices = pool.spec.policy.select(
            views, now=now, max_batch=pool.max_batch,
            last_model=(
                self.models[self.s_last_model[sid]]
                if self.s_last_model[sid] != -1 else None
            ),
        )
        if not indices:
            return [], -1
        mid = r_model[e_req[queue[indices[0]]]]
        if any(
            r_model[e_req[queue[i]]] != mid for i in indices
        ) or len(indices) > pool.max_batch:
            raise ValueError(
                f"policy {pool.spec.policy.name!r} returned an "
                "invalid batch"
            )
        return indices, mid

    def _same_model(self, pool: _ColPool, mid: int) -> list[int]:
        """FIFO same-model pick, one slot per request id (hedge dedup)."""
        picked: list[int] = []
        seen: set[int] = set()
        max_batch = pool.max_batch
        r_model = self.r_model
        r_rid = self.r_rid
        e_req = self.e_req
        for pos, eid in enumerate(pool.queue):
            if len(picked) == max_batch:
                break
            ridx = e_req[eid]
            if r_model[ridx] != mid:
                continue
            rid = r_rid[ridx]
            if rid in seen:
                continue
            seen.add(rid)
            picked.append(pos)
        return picked

    def _dispatch(self, pool: _ColPool, now: float) -> None:
        queue = pool.queue
        while queue:
            sid = self._pop_free(pool)
            if sid is None:
                return
            indices, mid = self._select_indices(pool, sid, now)
            if not indices:
                heapq.heappush(pool.free_heap, sid)
                return
            batch = [queue[pos] for pos in indices]
            for pos in sorted(indices, reverse=True):
                queue.pop(pos)
            in_queue = self.e_in_queue
            for eid in batch:
                in_queue[eid] = 0
            nominal = self._latency(pool, mid, len(batch))
            factor = 1.0
            if self.has_stragglers:
                windows = self.straggler_by_sid.get(sid)
                if windows is not None:
                    for at, until, slowdown in windows:
                        if at <= now < until:
                            factor = slowdown
                            break
            latency = nominal * factor
            last = self.s_last_model[sid]
            if last != -1 and last != mid:
                latency += pool.spec.swap_cost_s
                nominal += pool.spec.swap_cost_s
                self.s_swaps[sid] += 1
            self.s_batch[sid] = batch
            self.s_batch_start[sid] = now
            self.s_batch_model[sid] = mid
            self.s_batch_nominal[sid] = nominal
            self.s_batch_rung[sid] = self._rung_for(pool, mid)
            if self.tel is not None:
                for eid in batch:
                    self.tel.record_dispatch(
                        self.r_rid[self.e_req[eid]], now,
                        pool.spec.name, sid, len(batch),
                        self.s_batch_rung[sid],
                        self.e_is_hedge[eid],
                    )
            pool.busy_count += 1
            if self.use_breaker and self.b_state[sid] == 2:
                self.b_probe[sid] = 1
            self._push(
                now + latency, _FREE, (sid, self.s_generation[sid])
            )

    # -- report assembly ----------------------------------------------

    def _build_report(self, offered: int) -> FleetReport:
        candidates = [self.last_arrival]
        if self.c_finish:
            candidates.append(max(self.c_finish))
        if self.f_at:
            candidates.append(max(self.f_at))
        if self.sh_at:
            candidates.append(max(self.sh_at))
        makespan = max(candidates)
        if self.tel is not None:
            self.tel.finish(makespan)

        breaker_open_s = 0.0
        breaker_opens = 0
        if self.use_breaker:
            for sid in range(self.nserv_total):
                breaker_opens += self.b_opens[sid]
                breaker_open_s += self.b_open_s[sid]
                if self.b_state[sid] == 1:
                    breaker_open_s += max(
                        0.0, makespan - self.b_opened_at[sid]
                    )
        stats = ResilienceStats(
            shed=len(self.sh_req),
            hedges_launched=self.hedges_launched,
            hedge_wins=self.hedge_wins,
            hedge_wasted_s=self.hedge_wasted_s,
            breaker_opens=breaker_opens,
            breaker_open_s=breaker_open_s,
            rung_completions=tuple(self.rung_completions),
            rung_changes=self.rung_changes,
        )

        c_finish = np.asarray(self.c_finish, dtype=np.float64)
        c_order = np.argsort(c_finish, kind="stable")
        c_pool = np.asarray(self.c_pool, dtype=np.int64)
        c_rung = np.asarray(self.c_rung, dtype=np.int64)
        f_at = np.asarray(self.f_at, dtype=np.float64)
        f_order = np.argsort(f_at, kind="stable")
        sh_at = np.asarray(self.sh_at, dtype=np.float64)
        sh_order = np.argsort(sh_at, kind="stable")
        sh_pool = np.asarray(self.sh_pool, dtype=np.int64)

        npools = len(self.pools)
        comp_per_pool = np.bincount(c_pool, minlength=npools)
        shed_per_pool = np.bincount(
            sh_pool + 1, minlength=npools + 1
        )[1:]
        pool_stats = tuple(
            self._pool_stats(
                pool, makespan,
                int(comp_per_pool[pool.index]),
                int(shed_per_pool[pool.index]),
            )
            for pool in self.pools
        )
        rung_quality = np.asarray(self.rung_quality, dtype=np.float64)
        return FleetReport(
            models=self.models,
            pool_names=self.pool_names,
            req_arrival_s=self.batch.arrival_s,
            req_service_s=self.batch.service_s,
            req_model_ids=self.batch.model_ids,
            req_request_ids=self.batch.request_ids,
            comp_req=np.asarray(self.c_req, dtype=np.int64)[c_order],
            comp_pool=c_pool[c_order],
            comp_server=np.asarray(
                self.c_server, dtype=np.int64
            )[c_order],
            comp_queued_since_s=np.asarray(
                self.c_queued_since, dtype=np.float64
            )[c_order],
            comp_start_s=np.asarray(
                self.c_start, dtype=np.float64
            )[c_order],
            comp_finish_s=c_finish[c_order],
            comp_attempts=np.asarray(
                self.c_attempts, dtype=np.int64
            )[c_order],
            comp_hedged=np.frombuffer(
                bytes(self.c_hedged), dtype=np.uint8
            ).astype(bool)[c_order],
            comp_rung=c_rung[c_order],
            comp_quality=rung_quality[c_rung][c_order],
            fail_req=np.asarray(self.f_req, dtype=np.int64)[f_order],
            fail_pool=np.asarray(self.f_pool, dtype=np.int64)[f_order],
            fail_attempts=np.asarray(
                self.f_attempts, dtype=np.int64
            )[f_order],
            fail_reason=np.asarray(
                self.f_reason, dtype=np.int64
            )[f_order],
            fail_at_s=f_at[f_order],
            shed_req=np.asarray(self.sh_req, dtype=np.int64)[sh_order],
            shed_pool=sh_pool[sh_order],
            shed_attempts=np.asarray(
                self.sh_attempts, dtype=np.int64
            )[sh_order],
            shed_reason=np.asarray(
                self.sh_reason, dtype=np.int64
            )[sh_order],
            shed_at_s=sh_at[sh_order],
            pools=pool_stats,
            makespan_s=makespan,
            offered=offered,
            resilience=stats,
        )

    def _pool_stats(
        self, pool: _ColPool, makespan: float, completed: int, shed: int
    ) -> PoolStats:
        sids = range(pool.sid0, pool.sid0 + pool.nserv)
        busy = sum(self.s_busy_s[sid] for sid in sids)
        wasted = sum(self.s_wasted_s[sid] for sid in sids)
        swaps = sum(self.s_swaps[sid] for sid in sids)
        down = 0.0
        capacity = 0.0
        for sid in sids:
            server_down = self.s_down_s[sid]
            if self.s_down_since[sid] is not None:
                server_down += max(
                    0.0, makespan - self.s_down_since[sid]
                )
            down += server_down
            active = self.s_active_s[sid]
            if self.s_activated_at[sid] is not None:
                active += max(0.0, makespan - self.s_activated_at[sid])
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

