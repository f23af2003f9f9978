"""SLO accounting over fleet simulation output.

Turns a :class:`repro.serving.fleet.FleetReport` into the numbers an
on-call serving team is paged on.  Formulas (documented here and in
``docs/SERVING.md`` — tests pin them):

* **pN latency** — nearest-rank percentile over client-observed
  latencies (arrival to final completion, retries and backoff
  included).  A model with no completions reports ``None`` (rendered
  ``—``), never a fake 0.00 s.
* **Queueing vs service** — per completion, ``service`` is the final
  attempt's GPU time and ``queueing`` is everything else (queue waits,
  lost attempts, backoff); means are reported per model.
* **Goodput** — fraction of *offered* requests (per model: completed +
  failed + shed) that completed within their deadline.  Failures and
  admission sheds therefore count against goodput even though they
  have no latency sample.
* **Violation seconds** — ``sum(max(0, latency - deadline))`` over
  completions: total excess latency experienced by clients, the
  integral an error-budget burn is computed from.
* **Error-budget burn rate** — ``(1 - goodput) / (1 - objective)``:
  how many times faster than sustainable the SLO budget is being
  spent (1.0 = exactly on budget).
* **Degradation accounting** — ``shed``/``hedged``/``degraded`` counts
  per model, plus **quality debt**: ``sum(1 - rung quality)`` over
  degraded completions — the quality a brownout traded for its
  latency.
* **Availability** — ``1 - down / (capacity + down)`` over all pools:
  the fraction of scheduled server-seconds servers were actually up.

:func:`slo_report` runs a vectorized accumulator over the report's
columns.  Its reference is the record-at-a-time
:func:`repro.serving.oracle.oracle_slo_report`; the two return
**equal** :class:`SloReport` values (same nearest-rank indices via
:func:`nearest_rank_index`, same left-to-right float summation order,
same ``None``/``—`` rendering via :func:`fmt_missing`).  All times are
seconds.

When the workload came from a replayable
:class:`repro.serving.traffic.TrafficTrace`, :func:`tier_slo_report`
additionally breaks the same accounting down by client tier
(heavy/medium/light) — the view that shows whose requests a policy
sacrifices under overload.  Tiers with no traffic (zero-request
clients, empty scenarios) report ``None`` percentiles, rendered ``—``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.reporting.table import render_table
from repro.serving.fleet import FleetReport


def nearest_rank_index(count: int, p: float) -> int:
    """Index of the p-th nearest-rank percentile in a sorted sample.

    The single definition every percentile here, the oracle's SLO
    accounting and the engine's hedge delay index with: for a
    sorted sample of ``count`` values, the percentile is element
    ``max(0, min(count - 1, round(p / 100 * count) - 1))`` (banker's
    ``round``, matching the recorded golden traces).
    """
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    if count <= 0:
        raise ValueError("need a non-empty sample")
    return max(0, min(count - 1, round(p / 100.0 * count) - 1))


def percentile(values: list[float], p: float) -> float | None:
    """Nearest-rank percentile; ``None`` for an empty sample.

    ``None`` (not 0.0) distinguishes "no completions to measure" from
    a true zero-latency sample — an all-failed model must not report
    a perfect p99.
    """
    if not values:
        nearest_rank_index(1, p)  # still validate p
        return None
    ordered = sorted(values)
    return ordered[nearest_rank_index(len(ordered), p)]


def fmt_missing(value: float | None, spec: str = ".2f") -> str:
    """Render a possibly-missing sample; ``—`` means "no data".

    The one place the ``None`` -> ``—`` convention is implemented:
    every accounting path produces ``None`` for empty samples, and
    every renderer formats it here.
    """
    return "—" if value is None else format(value, spec)


_fmt = fmt_missing


@dataclass(frozen=True)
class ModelSlo:
    """SLO accounting for one model's traffic."""

    model: str
    deadline_s: float
    completed: int
    failed: int
    p50_s: float | None
    p95_s: float | None
    p99_s: float | None
    mean_queueing_s: float
    mean_service_s: float
    within_deadline: int
    violation_s: float
    shed: int = 0
    hedged: int = 0
    degraded: int = 0
    quality_debt: float = 0.0

    @property
    def offered(self) -> int:
        """Requests that reached a terminal state for this model."""
        return self.completed + self.failed + self.shed

    @property
    def goodput(self) -> float:
        """Fraction of offered requests served within deadline."""
        if self.offered == 0:
            return 0.0
        return self.within_deadline / self.offered

    def burn_rate(self, objective: float = 0.999) -> float:
        """Error-budget burn relative to a goodput objective."""
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        return (1.0 - self.goodput) / (1.0 - objective)


@dataclass(frozen=True)
class SloReport:
    """Fleet-wide SLO summary plus the per-model breakdown."""

    per_model: tuple[ModelSlo, ...]
    availability: float
    makespan_s: float

    @property
    def goodput(self) -> float:
        """Offered-weighted goodput across every model."""
        offered = sum(model.offered for model in self.per_model)
        if offered == 0:
            return 0.0
        within = sum(model.within_deadline for model in self.per_model)
        return within / offered

    @property
    def violation_s(self) -> float:
        """Total excess latency beyond deadlines, fleet-wide."""
        return sum(model.violation_s for model in self.per_model)

    @property
    def failed(self) -> int:
        """Requests that exhausted their attempts, fleet-wide."""
        return sum(model.failed for model in self.per_model)

    @property
    def shed(self) -> int:
        """Requests rejected by admission control, fleet-wide."""
        return sum(model.shed for model in self.per_model)

    @property
    def degraded(self) -> int:
        """Completions served below nominal quality, fleet-wide."""
        return sum(model.degraded for model in self.per_model)

    @property
    def quality_debt(self) -> float:
        """Total ``1 - quality`` over degraded completions."""
        return sum(model.quality_debt for model in self.per_model)

    def burn_rate(self, objective: float = 0.999) -> float:
        """Fleet-wide error-budget burn against a goodput objective.

        1.0 means the fleet spends its error budget exactly as fast
        as the objective allows; 10.0 means the budget is gone in a
        tenth of the window.
        """
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        return (1.0 - self.goodput) / (1.0 - objective)

    def model(self, name: str) -> ModelSlo:
        """Per-model accounting by model name."""
        for entry in self.per_model:
            if entry.model == name:
                return entry
        raise ValueError(f"no traffic for model {name!r}")

    def render(
        self, *, title: str = "SLO accounting", alerts=None
    ) -> str:
        """Text table of the per-model SLO numbers.

        ``alerts`` optionally takes burn-rate alert firings
        (:func:`repro.obs.evaluate_alerts` output); they are rendered
        below the table via :func:`render_alerts`.
        """
        rows = [
            [
                entry.model,
                entry.offered,
                _fmt(entry.p50_s),
                _fmt(entry.p95_s),
                _fmt(entry.p99_s),
                f"{entry.mean_queueing_s:.2f}",
                f"{entry.mean_service_s:.2f}",
                f"{entry.goodput * 100:.1f}%",
                f"{entry.violation_s:.1f}",
                entry.shed,
                entry.degraded,
                f"{entry.quality_debt:.1f}",
            ]
            for entry in self.per_model
        ]
        table = render_table(
            [
                "model", "offered", "p50 s", "p95 s", "p99 s",
                "queue s", "service s", "goodput", "violation s",
                "shed", "degraded", "debt",
            ],
            rows,
            title=(
                f"{title} (goodput {self.goodput * 100:.1f}%, "
                f"availability {self.availability * 100:.2f}%)"
            ),
        )
        if alerts is None:
            return table
        return table + "\n" + render_alerts(alerts)


def render_alerts(firings) -> str:
    """Render burn-rate alert firings as report lines.

    Takes the :class:`repro.obs.AlertFiring` tuple produced by
    :func:`repro.obs.evaluate_alerts`; an empty tuple renders as a
    single all-clear line.  Kept here (not in :mod:`repro.obs`) so SLO
    reports and alert evaluation share one textual surface.
    """
    if not firings:
        return "alerts: none fired"
    lines = ["alerts:"]
    lines.extend(
        f"  {firing.rule} [{firing.severity}] fired "
        f"{firing.start_s:.1f}s..{firing.end_s:.1f}s "
        f"(peak burn {firing.peak_burn:.1f}x)"
        for firing in firings
    )
    return "\n".join(lines)


def _deadline_for(
    deadlines: Mapping[str, float] | float, model: str
) -> float:
    """Resolve one model's deadline (shared with the oracle's path)."""
    if isinstance(deadlines, Mapping):
        try:
            value = deadlines[model]
        except KeyError:
            raise ValueError(
                f"no deadline for model {model!r}"
            ) from None
    else:
        value = deadlines
    if value <= 0:
        raise ValueError("deadlines must be positive")
    return value


def _availability(pools) -> float:
    """``1 - down / scheduled`` over the pool stats (shared tail)."""
    down = sum(stats.down_s for stats in pools)
    scheduled = sum(stats.capacity_s + stats.down_s for stats in pools)
    return 1.0 - down / scheduled if scheduled > 0 else 1.0


def slo_report(
    report: FleetReport,
    deadlines: Mapping[str, float] | float,
) -> SloReport:
    """Compute SLO accounting from a fleet run.

    ``deadlines`` maps model name to its latency deadline in seconds;
    a scalar applies one deadline to every model.  Reads the report's
    columns and never materializes per-request records.

    Per-element arithmetic runs on numpy (bitwise-identical IEEE
    elementwise ops); *reductions* that the record-at-a-time reference
    performs with Python's left-to-right ``sum`` are reduced the same
    way here (via ``sum(arr.tolist())``, never ``np.sum``, whose
    pairwise summation differs in the last ulps) — that is what makes
    the two return equal, not merely close, reports.
    """
    comp_mid = report.req_model_ids[report.comp_req]
    fail_mid = report.req_model_ids[report.fail_req]
    shed_mid = report.req_model_ids[report.shed_req]
    present = sorted(
        {report.models[mid] for mid in comp_mid.tolist()}
        | {report.models[mid] for mid in fail_mid.tolist()}
        | {report.models[mid] for mid in shed_mid.tolist()}
    )
    latency = report.latency_s
    service = report.service_s
    queueing = latency - service
    per_model = []
    for model in present:
        mid = report.models.index(model)
        deadline = _deadline_for(deadlines, model)
        mask = comp_mid == mid
        lat_m = latency[mask]
        count = int(lat_m.size)
        ordered = np.sort(lat_m)
        degraded_mask = report.comp_rung[mask] > 0
        per_model.append(
            ModelSlo(
                model=model,
                deadline_s=deadline,
                completed=count,
                failed=int((fail_mid == mid).sum()),
                p50_s=(
                    float(ordered[nearest_rank_index(count, 50.0)])
                    if count else None
                ),
                p95_s=(
                    float(ordered[nearest_rank_index(count, 95.0)])
                    if count else None
                ),
                p99_s=(
                    float(ordered[nearest_rank_index(count, 99.0)])
                    if count else None
                ),
                mean_queueing_s=(
                    sum(queueing[mask].tolist()) / count
                    if count else 0.0
                ),
                mean_service_s=(
                    sum(service[mask].tolist()) / count
                    if count else 0.0
                ),
                within_deadline=int((lat_m <= deadline).sum()),
                violation_s=sum(
                    np.maximum(0.0, lat_m - deadline).tolist()
                ),
                shed=int((shed_mid == mid).sum()),
                hedged=int(report.comp_hedged[mask].sum()),
                degraded=int(degraded_mask.sum()),
                quality_debt=sum(
                    (1.0 - report.comp_quality[mask][degraded_mask])
                    .tolist()
                ),
            )
        )
    return SloReport(
        per_model=tuple(per_model),
        availability=_availability(report.pools),
        makespan_s=report.makespan_s,
    )


@dataclass(frozen=True)
class TierSlo:
    """SLO accounting for one client tier's traffic."""

    tier: str
    clients: int
    completed: int
    failed: int
    shed: int
    p50_s: float | None
    p95_s: float | None
    p99_s: float | None
    within_deadline: int

    @property
    def offered(self) -> int:
        """Requests from this tier that reached a terminal state."""
        return self.completed + self.failed + self.shed

    @property
    def goodput(self) -> float | None:
        """Within-deadline fraction; ``None`` when the tier is idle."""
        if self.offered == 0:
            return None
        return self.within_deadline / self.offered


@dataclass(frozen=True)
class TierSloReport:
    """Per-client-tier SLO breakdown of one fleet run.

    Always contains one row per tier in
    :data:`repro.serving.traffic.TIER_NAMES` order, including tiers
    with zero clients or zero requests (their percentiles are ``None``
    and render ``—``).
    """

    per_tier: tuple[TierSlo, ...]

    def tier(self, name: str) -> TierSlo:
        """Tier accounting by tier name."""
        for entry in self.per_tier:
            if entry.tier == name:
                return entry
        raise ValueError(f"unknown tier {name!r}")

    def render(self, *, title: str = "Per-tier SLO") -> str:
        """Text table of the per-tier numbers (``—`` = no data)."""
        rows = [
            [
                entry.tier,
                entry.clients,
                entry.offered,
                _fmt(entry.p50_s),
                _fmt(entry.p95_s),
                _fmt(entry.p99_s),
                _fmt(
                    None if entry.goodput is None
                    else entry.goodput * 100,
                    ".1f",
                ),
                entry.shed,
                entry.failed,
            ]
            for entry in self.per_tier
        ]
        return render_table(
            [
                "tier", "clients", "offered", "p50 s", "p95 s",
                "p99 s", "goodput %", "shed", "failed",
            ],
            rows,
            title=title,
        )


def tier_slo_report(
    report: FleetReport,
    trace,
    deadlines: Mapping[str, float] | float,
) -> TierSloReport:
    """Break a fleet run's SLO numbers down by client tier.

    ``trace`` is the :class:`repro.serving.traffic.TrafficTrace` the
    run replayed — its request ids are row indices carrying the
    request -> client -> tier join.  ``deadlines`` is per model, as in
    :func:`slo_report`.  Its reference is the record-at-a-time
    :func:`repro.serving.oracle.oracle_tier_slo_report`.  Tiers with no
    clients or no traffic are still reported, with ``None``
    percentiles and goodput — the empty-scenario path is a first-class
    output, not an error.
    """
    from repro.serving.traffic import TIER_NAMES, TrafficTrace

    if not isinstance(trace, TrafficTrace):
        raise TypeError("tier breakdown needs a TrafficTrace")
    n = len(trace)
    if len(trace.client_tiers):
        request_tiers = trace.client_tiers[trace.client_ids]
    else:
        request_tiers = np.zeros(n, dtype=np.int64)
    comp_ids = report.req_request_ids[report.comp_req].tolist()
    comp_models = [
        report.models[mid]
        for mid in report.req_model_ids[report.comp_req].tolist()
    ]
    comp_latency = report.latency_s.tolist()
    fail_ids = report.req_request_ids[report.fail_req].tolist()
    shed_ids = report.req_request_ids[report.shed_req].tolist()

    def tier_of(request_id: int) -> int:
        if not 0 <= request_id < n:
            raise ValueError(
                f"request id {request_id} is not in the trace "
                f"(0..{n - 1})"
            )
        return int(request_tiers[request_id])

    tier_count = len(TIER_NAMES)
    latencies: list[list[float]] = [[] for _ in range(tier_count)]
    within = [0] * tier_count
    failed = [0] * tier_count
    shed = [0] * tier_count
    for rid, model, latency in zip(comp_ids, comp_models, comp_latency):
        tier = tier_of(rid)
        latencies[tier].append(latency)
        if latency <= _deadline_for(deadlines, model):
            within[tier] += 1
    for rid in fail_ids:
        failed[tier_of(rid)] += 1
    for rid in shed_ids:
        shed[tier_of(rid)] += 1
    clients = [0] * tier_count
    for tier in trace.client_tiers.tolist():
        clients[tier] += 1
    per_tier = tuple(
        TierSlo(
            tier=TIER_NAMES[tier],
            clients=clients[tier],
            completed=len(latencies[tier]),
            failed=failed[tier],
            shed=shed[tier],
            p50_s=percentile(latencies[tier], 50.0),
            p95_s=percentile(latencies[tier], 95.0),
            p99_s=percentile(latencies[tier], 99.0),
            within_deadline=within[tier],
        )
        for tier in range(tier_count)
    )
    return TierSloReport(per_tier=per_tier)


@dataclass(frozen=True)
class DomainSlo:
    """Availability accounting for one failure domain.

    Attributes:
        domain: domain label (``"zone:0"`` / ``"rack:1"``).
        servers: servers the domain contains.
        events: compiled campaign events that targeted it.
        down_server_s: summed per-server downtime inside the run.
        availability: ``1 - down_server_s / (servers * makespan)``.
        mttd_s: mean time to detect over the domain's detected
            events; ``None`` when nothing was detected
            (unorchestrated runs, gray failures).
        mttr_s: mean time from onset to full restoration over the
            domain's events; ``None`` when nothing happened.
    """

    domain: str
    servers: int
    events: int
    down_server_s: float
    availability: float
    mttd_s: float | None
    mttr_s: float | None


@dataclass(frozen=True)
class DomainSloReport:
    """Per-failure-domain availability breakdown of one fleet run.

    Always contains one row per zone (healthy zones report 100%
    availability and ``None`` MTTD/MTTR) plus one row per rack a
    campaign event targeted.
    """

    per_domain: tuple[DomainSlo, ...]
    makespan_s: float

    def domain(self, label: str) -> DomainSlo:
        """Domain accounting by label (``"zone:0"``)."""
        for entry in self.per_domain:
            if entry.domain == label:
                return entry
        raise ValueError(f"unknown domain {label!r}")

    def render(self, *, title: str = "Per-domain SLO") -> str:
        """Text table of the per-domain numbers (``—`` = no data)."""
        rows = [
            [
                entry.domain,
                entry.servers,
                entry.events,
                f"{entry.down_server_s:.1f}",
                f"{entry.availability * 100:.2f}",
                _fmt(entry.mttd_s, ".1f"),
                _fmt(entry.mttr_s, ".1f"),
            ]
            for entry in self.per_domain
        ]
        return render_table(
            [
                "domain", "servers", "events", "down srv-s",
                "avail %", "MTTD s", "MTTR s",
            ],
            rows,
            title=title,
        )


def domain_slo_report(
    report: FleetReport,
    compiled,
) -> DomainSloReport:
    """Per-domain availability, MTTD, and MTTR for one fleet run.

    ``compiled`` is the :class:`repro.serving.domains.CompiledCampaign`
    the run replayed — its crash windows (clipped to the run's
    makespan) give each domain's down server-seconds, and its compiled
    events carry detection/restoration times.  Only the report's
    ``makespan_s`` is read.
    """
    from repro.serving.domains import domain_downtime

    makespan = report.makespan_s
    downtime = domain_downtime(compiled, makespan)
    topology = compiled.topology
    labels = [
        f"zone:{zone}" for zone in sorted(set(topology.zone_of))
    ]
    labels.extend(sorted(
        {
            event.label for event in compiled.events
            if event.label.startswith("rack:")
        },
        key=lambda label: int(label.split(":", 1)[1]),
    ))
    per_domain = []
    for label in labels:
        scope, index = label.split(":", 1)
        servers = topology.servers_in(scope, int(index))
        matching = [
            event for event in compiled.events
            if event.label == label
        ]
        detections = [
            event.mttd_s for event in matching
            if event.mttd_s is not None
        ]
        repairs = [event.mttr_s for event in matching]
        down = downtime.get(label, 0.0)
        capacity = len(servers) * makespan
        availability = (
            1.0 - down / capacity if capacity > 0.0 else 1.0
        )
        per_domain.append(DomainSlo(
            domain=label,
            servers=len(servers),
            events=len(matching),
            down_server_s=down,
            availability=availability,
            mttd_s=(
                sum(detections) / len(detections)
                if detections else None
            ),
            mttr_s=(
                sum(repairs) / len(repairs) if repairs else None
            ),
        ))
    return DomainSloReport(
        per_domain=tuple(per_domain), makespan_s=makespan
    )
