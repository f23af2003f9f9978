"""Chaos campaigns: seeded fault generation, invariants, shrinking.

A *campaign* is a reproducible set of correlated fault events over a
failure-domain topology (:mod:`repro.serving.domains`).  This module
provides the harness around them:

* :func:`generate_campaign` — a seeded generator drawing randomized
  zone/rack outages, partitions, and degraded-link windows from
  per-domain Poisson processes (one ``random.Random(seed)``, fixed
  draw order, so campaigns are bit-reproducible);
* a **versioned byte-deterministic JSONL serialization**
  (:func:`dumps_campaign` / :func:`loads_campaign`) mirroring the
  traffic-trace schema so campaigns can be committed, diffed, and
  validated in CI (``tools/check_campaign_schema.py``);
* :func:`check_invariants` — structural correctness checks every
  fleet report must satisfy regardless of what chaos did: each
  submitted request reaches exactly one terminal state, clocks are
  monotone per request, nothing terminates after the makespan,
  shed + completed + failed conserve the offered count, and quality
  debt stays bounded by the brownout ladder;
* :func:`shrink_campaign` — greedy ddmin-style minimization of a
  failing campaign, so an invariant violation found under a 40-event
  campaign comes back as the two events that actually trigger it.

Run ``python -m repro.serving.chaos`` for a self-contained smoke
campaign (generate, compile, run the engine and its reference
:mod:`repro.serving.oracle`, assert bit-equality and invariants) — the
CI chaos gate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from repro import jsonl
from repro.serving.columnar import _request_columns
from repro.serving.domains import (
    CampaignEvent,
    CompiledCampaign,
    DegradedLink,
    DomainTopology,
    NetworkPartition,
    OrchestrationConfig,
    RackOutage,
    ZoneOutage,
    compile_campaign,
    event_domain,
)
from repro.serving.resilience import BrownoutConfig

CAMPAIGN_SCHEMA = "repro-chaos-campaign"
"""Schema identifier stamped into every campaign file header."""

CAMPAIGN_VERSION = 1
"""Current campaign schema version."""


@dataclass(frozen=True)
class ChaosCampaign:
    """A reproducible correlated-fault scenario.

    Attributes:
        topology: the failure-domain tree the events live in.
        events: correlated fault events, sorted by onset time.
        duration_s: the traffic window the campaign was generated
            for (events start inside it; recovery may run past it).
        seed: generator seed (0 for hand-written campaigns).
    """

    topology: DomainTopology
    events: tuple[CampaignEvent, ...]
    duration_s: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        last = 0.0
        for event in self.events:
            if event.at_s < last:
                raise ValueError("events must be time-ordered")
            last = event.at_s

    def compile(
        self,
        *,
        pools=None,
        orchestration: OrchestrationConfig | None = None,
    ) -> CompiledCampaign:
        """Lower to engine inputs (see :func:`compile_campaign`).

        The compile seed is the campaign seed, so jitter is pinned by
        the campaign file itself.
        """
        return compile_campaign(
            self.topology, self.events, pools=pools,
            seed=self.seed, orchestration=orchestration,
        )


@dataclass(frozen=True)
class ChaosConfig:
    """Event-rate knobs for :func:`generate_campaign`.

    Rates are events per second per domain (a zone-outage rate of
    ``1/3600`` gives each zone one outage per simulated hour on
    average).  Zone outages draw over zones; rack outages, partitions,
    and degraded links draw over racks.

    Attributes:
        zone_outage_rate: zone power-loss rate per zone.
        rack_outage_rate: rack-switch-death rate per rack.
        partition_rate: rack partition rate per rack.
        degraded_rate: degraded-link-window rate per rack.
        mean_duration_s: mean event duration; each event draws
            uniformly from ``[0.5, 1.5] * mean``.
        stagger_s: outage crash-jitter spread (clamped below the
            drawn duration).
        bandwidth_factor: remaining bandwidth during degraded links.
        comm_fraction: exposed-collective share for degraded links.
    """

    zone_outage_rate: float = 0.0
    rack_outage_rate: float = 0.0
    partition_rate: float = 0.0
    degraded_rate: float = 0.0
    mean_duration_s: float = 60.0
    stagger_s: float = 0.0
    bandwidth_factor: float = 0.25
    comm_fraction: float = 0.3

    def __post_init__(self) -> None:
        rates = (
            self.zone_outage_rate, self.rack_outage_rate,
            self.partition_rate, self.degraded_rate,
        )
        if any(rate < 0 for rate in rates):
            raise ValueError("rates must be non-negative")
        if self.mean_duration_s <= 0 or self.stagger_s < 0:
            raise ValueError("invalid duration/stagger")
        if not 0.0 < self.bandwidth_factor < 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1)")
        if not 0.0 <= self.comm_fraction <= 1.0:
            raise ValueError("comm_fraction must be in [0, 1]")


def generate_campaign(
    topology: DomainTopology,
    config: ChaosConfig,
    *,
    duration_s: float,
    seed: int = 0,
) -> ChaosCampaign:
    """Draw a randomized correlated-fault campaign over the tree.

    Draw order (the determinism contract): one ``random.Random(seed)``
    consumed as a Poisson process per ``(event kind, domain)`` pair —
    zone outages over zones ascending, then rack outages, partitions,
    and degraded links over racks ascending.  Each arrival draws an
    exponential gap then a uniform duration.  Within one ``(kind,
    domain)`` stream events never overlap (the clock advances past
    each event's end); across kinds overlap is possible and the
    compiler tolerates it.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = random.Random(seed)
    events: list[CampaignEvent] = []

    def _windows(rate: float):
        """Poisson arrivals with non-overlapping durations."""
        if rate <= 0.0:
            return
        t = rng.expovariate(rate)
        while t < duration_s:
            span = config.mean_duration_s * (0.5 + rng.random())
            yield t, span
            t = t + span + rng.expovariate(rate)

    zone_ids = sorted(set(topology.zone_of))
    rack_ids = sorted(set(topology.rack_of))
    for zone in zone_ids:
        for at, span in _windows(config.zone_outage_rate):
            stagger = min(config.stagger_s, 0.5 * span)
            events.append(ZoneOutage(
                zone=zone, at_s=at, duration_s=span,
                stagger_s=stagger,
            ))
    for rack in rack_ids:
        for at, span in _windows(config.rack_outage_rate):
            stagger = min(config.stagger_s, 0.5 * span)
            events.append(RackOutage(
                rack=rack, at_s=at, duration_s=span,
                stagger_s=stagger,
            ))
    for rack in rack_ids:
        for at, span in _windows(config.partition_rate):
            events.append(NetworkPartition(
                scope="rack", index=rack, at_s=at, duration_s=span,
            ))
    for rack in rack_ids:
        for at, span in _windows(config.degraded_rate):
            events.append(DegradedLink(
                scope="rack", index=rack, at_s=at, duration_s=span,
                bandwidth_factor=config.bandwidth_factor,
                comm_fraction=config.comm_fraction,
            ))
    events.sort(key=lambda event: (event.at_s,) + event_domain(event))
    return ChaosCampaign(
        topology=topology, events=tuple(events),
        duration_s=duration_s, seed=seed,
    )


# -- serialization ----------------------------------------------------


_WINDOW = {"at_s": float, "duration_s": float}
_EVENTS = {
    "zone_outage": (ZoneOutage, {"zone": int, **_WINDOW, "stagger_s": float}),
    "rack_outage": (RackOutage, {"rack": int, **_WINDOW, "stagger_s": float}),
    "partition": (NetworkPartition, {"scope": str, "index": int, **_WINDOW}),
    "degraded_link": (DegradedLink, {
        "scope": str, "index": int, **_WINDOW,
        "bandwidth_factor": float, "comm_fraction": float,
    }),
}
"""On-wire event name -> (event class, field -> decoder), schema v1."""

_EVENT_NAMES = {cls: name for name, (cls, _) in _EVENTS.items()}


def _event_record(event: CampaignEvent) -> dict:
    name = _EVENT_NAMES[type(event)]
    return {"kind": "event", "event": name, **{
        field: getattr(event, field) for field in _EVENTS[name][1]
    }}


def _event_from_record(record: dict) -> CampaignEvent:
    spec = _EVENTS.get(record["event"])
    if spec is None:
        raise ValueError(f"unknown event {record['event']!r}")
    cls, fields = spec
    return cls(**{
        field: decode(record[field]) for field, decode in fields.items()
    })


def dumps_campaign(campaign: ChaosCampaign) -> str:
    """Serialize to the versioned campaign JSONL schema (v1).

    Line 1 is the header (schema id, version, seed, duration, server
    count); line 2 the topology columns; then one ``event`` record per
    event in campaign order.  Every line is canonical JSON
    (:mod:`repro.jsonl`), so equal campaigns serialize to identical
    bytes and save -> load -> save is the identity (pinned by tests
    and the CI schema gate).
    """
    topology = campaign.topology
    header = {
        "seed": int(campaign.seed),
        "duration_s": float(campaign.duration_s),
        "servers": topology.servers,
    }
    columns = {
        "kind": "topology",
        "host_of": list(topology.host_of),
        "rack_of": list(topology.rack_of),
        "zone_of": list(topology.zone_of),
    }
    return jsonl.dumps(
        CAMPAIGN_SCHEMA, CAMPAIGN_VERSION, header,
        itertools.chain([columns], map(_event_record, campaign.events)),
    )


def loads_campaign(text: str) -> ChaosCampaign:
    """Parse campaign JSONL produced by :func:`dumps_campaign`.

    Malformed input raises a ``ValueError`` naming the line (see
    :func:`repro.jsonl.loads`).
    """
    head: dict = {}
    events: list[CampaignEvent] = []

    def header(record: dict) -> None:
        duration = float(record["duration_s"])
        if not duration > 0.0:
            raise ValueError(f"duration_s {duration!r} is not positive")
        head.update(
            duration_s=duration, seed=int(record["seed"]),
            servers=record["servers"],
        )

    def topology(record: dict) -> None:
        if "topology" in head:
            raise ValueError("second topology record")
        columns = DomainTopology(
            host_of=tuple(int(v) for v in record["host_of"]),
            rack_of=tuple(int(v) for v in record["rack_of"]),
            zone_of=tuple(int(v) for v in record["zone_of"]),
        )
        if columns.servers != head["servers"]:
            raise ValueError(
                f"topology describes {columns.servers} servers, "
                f"header promised {head['servers']!r}"
            )
        head["topology"] = columns

    def event(record: dict) -> None:
        if "topology" not in head:
            raise ValueError("event before the topology record")
        parsed = _event_from_record(record)
        if events and parsed.at_s < events[-1].at_s:
            raise ValueError("events must be time-ordered")
        events.append(parsed)

    jsonl.loads(text, CAMPAIGN_SCHEMA, CAMPAIGN_VERSION, {
        "header": header, "topology": topology, "event": event,
    })
    if "topology" not in head:
        raise ValueError("line 2: campaign needs a topology record")
    return ChaosCampaign(
        topology=head["topology"], events=tuple(events),
        duration_s=head["duration_s"], seed=head["seed"],
    )


def save_campaign(campaign: ChaosCampaign, path: str | Path) -> None:
    """Write a campaign to ``path`` as canonical JSONL."""
    Path(path).write_text(dumps_campaign(campaign))


def load_campaign(path: str | Path) -> ChaosCampaign:
    """Read a campaign written by :func:`save_campaign`."""
    return loads_campaign(Path(path).read_text())


# -- invariant checking -----------------------------------------------

INVARIANTS = (
    "terminal_exactly_once",
    "conservation",
    "clock_monotone",
    "no_post_makespan_events",
    "quality_debt_bounded",
    "pool_accounting",
)
"""Names of the structural invariants, in check order."""


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of :func:`check_invariants`.

    Attributes:
        checked: invariant names that ran (:data:`INVARIANTS`).
        violations: human-readable violation descriptions; empty
            means the report is structurally sound.
    """

    checked: tuple[str, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def render(self) -> str:
        """Multi-line summary (for CLI/experiment output)."""
        if self.ok:
            return (
                f"invariants ok ({len(self.checked)} checked)"
            )
        lines = [
            f"INVARIANT VIOLATIONS ({len(self.violations)}):"
        ]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


def check_invariants(
    requests,
    report,
    *,
    brownout: BrownoutConfig | None = None,
) -> InvariantReport:
    """Verify the structural invariants every fleet run must satisfy.

    These hold for *any* faults, campaign, resilience config, or
    recovery plan — chaos may degrade service arbitrarily but must
    never corrupt the accounting:

    1. **terminal_exactly_once** — every submitted request id appears
       in exactly one terminal record (completed, failed, or shed),
       and no unknown ids appear.
    2. **conservation** — ``offered == completed + failed + shed``
       and matches the submitted count; ``resilience.shed`` matches.
    3. **clock_monotone** — per completion
       ``arrival <= queued_since <= start <= finish``; failures and
       sheds terminate at or after arrival.
    4. **no_post_makespan_events** — no terminal timestamp exceeds
       ``makespan_s``.
    5. **quality_debt_bounded** — brownout rungs stay inside the
       ladder, per-completion quality matches its rung's quality,
       and ``rung_completions`` sums to the completion count.
    6. **pool_accounting** — pool completion counts sum to the
       completion total, utilization stays in ``[0, 1]``, and pool
       shed counts never exceed the shed total.

    Takes the submitted requests in any form
    :func:`~repro.serving.fleet.simulate_fleet` accepts (a ``Request``
    sequence, a ``RequestBatch`` or a ``TrafficTrace``) and the run's
    report; only the report's record tuples, counts and pool stats are
    read.
    """
    violations: list[str] = []
    submitted = _request_columns(requests).request_ids.tolist()

    terminal: dict[int, int] = {}
    for record in report.completed:
        rid = record.request.request_id
        terminal[rid] = terminal.get(rid, 0) + 1
    for record in report.failed:
        rid = record.request.request_id
        terminal[rid] = terminal.get(rid, 0) + 1
    for record in report.shed:
        rid = record.request.request_id
        terminal[rid] = terminal.get(rid, 0) + 1
    submitted_set = set(submitted)
    multi = sorted(
        rid for rid, count in terminal.items() if count != 1
    )
    missing = sorted(submitted_set - set(terminal))
    unknown = sorted(set(terminal) - submitted_set)
    if multi:
        violations.append(
            f"terminal_exactly_once: ids with multiple terminal "
            f"states: {multi[:5]}"
        )
    if missing:
        violations.append(
            f"terminal_exactly_once: submitted ids with no terminal "
            f"state: {missing[:5]}"
        )
    if unknown:
        violations.append(
            f"terminal_exactly_once: terminal ids never submitted: "
            f"{unknown[:5]}"
        )

    total = (
        len(report.completed) + len(report.failed) + len(report.shed)
    )
    if report.offered != total:
        violations.append(
            f"conservation: offered={report.offered} but "
            f"completed+failed+shed={total}"
        )
    if report.offered != len(submitted):
        violations.append(
            f"conservation: offered={report.offered} but "
            f"{len(submitted)} requests submitted"
        )
    if report.resilience.shed != len(report.shed):
        violations.append(
            f"conservation: resilience.shed="
            f"{report.resilience.shed} but {len(report.shed)} shed "
            f"records"
        )

    for record in report.completed:
        arrival = record.request.arrival_s
        if not (
            arrival
            <= record.queued_since_s
            <= record.start_s
            <= record.finish_s
        ):
            violations.append(
                f"clock_monotone: request {record.request.request_id}"
                f" arrival={arrival} queued={record.queued_since_s} "
                f"start={record.start_s} finish={record.finish_s}"
            )
    for record in report.failed:
        if record.failed_at_s < record.request.arrival_s:
            violations.append(
                f"clock_monotone: request "
                f"{record.request.request_id} failed at "
                f"{record.failed_at_s} before arrival "
                f"{record.request.arrival_s}"
            )
    for record in report.shed:
        if record.shed_at_s < record.request.arrival_s:
            violations.append(
                f"clock_monotone: request "
                f"{record.request.request_id} shed at "
                f"{record.shed_at_s} before arrival "
                f"{record.request.arrival_s}"
            )

    makespan = report.makespan_s
    for record in report.completed:
        if record.finish_s > makespan:
            violations.append(
                f"no_post_makespan_events: completion of "
                f"{record.request.request_id} at {record.finish_s} "
                f"> makespan {makespan}"
            )
    for record in report.failed:
        if record.failed_at_s > makespan:
            violations.append(
                f"no_post_makespan_events: failure of "
                f"{record.request.request_id} at "
                f"{record.failed_at_s} > makespan {makespan}"
            )
    for record in report.shed:
        if record.shed_at_s > makespan:
            violations.append(
                f"no_post_makespan_events: shed of "
                f"{record.request.request_id} at {record.shed_at_s} "
                f"> makespan {makespan}"
            )

    ladder = brownout.rungs if brownout is not None else ()
    for record in report.completed:
        if record.rung < 0 or record.rung > len(ladder):
            violations.append(
                f"quality_debt_bounded: request "
                f"{record.request.request_id} served at rung "
                f"{record.rung} outside ladder of {len(ladder)}"
            )
            continue
        expected = (
            1.0 if record.rung == 0
            else ladder[record.rung - 1].quality
        )
        if record.quality != expected:
            violations.append(
                f"quality_debt_bounded: request "
                f"{record.request.request_id} quality "
                f"{record.quality} != rung-{record.rung} quality "
                f"{expected}"
            )
    rung_counts = report.resilience.rung_completions
    if sum(rung_counts) != len(report.completed):
        violations.append(
            f"quality_debt_bounded: rung_completions sum to "
            f"{sum(rung_counts)} but {len(report.completed)} "
            f"completions"
        )
    if len(rung_counts) > len(ladder) + 1 and any(
        count for count in rung_counts[len(ladder) + 1:]
    ):
        violations.append(
            "quality_debt_bounded: completions recorded beyond the "
            "ladder's deepest rung"
        )

    pool_completed = sum(stats.completed for stats in report.pools)
    if pool_completed != len(report.completed):
        violations.append(
            f"pool_accounting: pool completed counts sum to "
            f"{pool_completed} but {len(report.completed)} "
            f"completions"
        )
    for stats in report.pools:
        if not 0.0 <= stats.utilization <= 1.0:
            violations.append(
                f"pool_accounting: pool {stats.name} utilization "
                f"{stats.utilization} outside [0, 1]"
            )
    pool_shed = sum(stats.shed for stats in report.pools)
    if pool_shed > len(report.shed):
        violations.append(
            f"pool_accounting: pool shed counts sum to {pool_shed} "
            f"> {len(report.shed)} shed records"
        )

    return InvariantReport(
        checked=INVARIANTS, violations=tuple(violations)
    )


# -- shrinking --------------------------------------------------------


def shrink_campaign(
    campaign: ChaosCampaign,
    predicate: Callable[[ChaosCampaign], bool],
) -> ChaosCampaign:
    """Greedily minimize a failing campaign.

    ``predicate(campaign)`` must return ``True`` (the failure
    reproduces) on the input campaign; shrinking removes event chunks
    — halves first, then ever-smaller slices down to single events —
    keeping any removal that still reproduces.  Deterministic: chunk
    order is fixed, so the same failing campaign always shrinks to
    the same minimal one.  The result is 1-minimal per chunk size:
    removing any single remaining event stops the failure.
    """
    if not predicate(campaign):
        raise ValueError(
            "predicate does not fail on the input campaign"
        )
    events = list(campaign.events)
    chunk = max(1, len(events) // 2)
    while chunk >= 1:
        start = 0
        while start < len(events):
            trial = events[:start] + events[start + chunk:]
            candidate = replace(campaign, events=tuple(trial))
            if predicate(candidate):
                events = trial
            else:
                start += chunk
        chunk //= 2
    return replace(campaign, events=tuple(events))


# -- CLI smoke --------------------------------------------------------


def _smoke(seed: int, duration_s: float) -> int:
    """Generate a campaign, run engine and oracle, check everything."""
    from repro.serving.domains import topology_for_pools
    from repro.serving.faults import RetryPolicy
    from repro.serving.fleet import (
        PoolSpec,
        affine_batch_latency,
        simulate_fleet,
    )
    from repro.serving.oracle import same_report, simulate_oracle
    from repro.serving.workload import WorkloadMix, generate_requests

    fns = {"sd": affine_batch_latency(2.0, marginal_fraction=0.6)}
    pools = [
        PoolSpec(
            name=f"zone{z}", machine="dgx-a100-80g", servers=4,
            latency_fns=fns, max_servers=5, zone=z,
        )
        for z in range(3)
    ]
    topology = topology_for_pools(pools)
    config = ChaosConfig(
        zone_outage_rate=1.0 / 300.0,
        partition_rate=1.0 / 400.0,
        degraded_rate=1.0 / 400.0,
        mean_duration_s=45.0,
        stagger_s=4.0,
    )
    campaign = generate_campaign(
        topology, config, duration_s=duration_s, seed=seed
    )
    round_trip = loads_campaign(dumps_campaign(campaign))
    if dumps_campaign(round_trip) != dumps_campaign(campaign):
        print("FAIL: campaign serialization is not a round trip")
        return 1
    mix = WorkloadMix(shares={"sd": 1.0}, service_s={"sd": 2.0})
    requests = generate_requests(
        mix, arrival_rate=3.0, duration_s=duration_s, seed=seed
    )
    retry = RetryPolicy(max_retries=3, backoff_s=0.5, timeout_s=30.0)
    status = 0
    for arm, orchestration in (
        ("unorchestrated", None),
        ("orchestrated", OrchestrationConfig()),
    ):
        compiled = campaign.compile(
            pools=pools, orchestration=orchestration
        )
        kwargs = dict(
            faults=compiled.faults, retry=retry, plan=compiled.plan
        )
        report = simulate_fleet(requests, pools, **kwargs)
        oracle = simulate_oracle(requests, pools, **kwargs)
        if not same_report(report, oracle):
            print(f"FAIL [{arm}]: engines diverged")
            status = 1
        for engine, rep in (("oracle", oracle), ("columnar", report)):
            verdict = check_invariants(requests, rep)
            if not verdict.ok:
                print(f"FAIL [{arm}/{engine}]: {verdict.render()}")
                status = 1
        print(
            f"[{arm}] events={len(campaign.events)} "
            f"completed={len(report.completed)} "
            f"failed={len(report.failed)} "
            f"makespan={report.makespan_s:.1f}s "
            f"engines=bit-identical invariants=ok"
        )
    return status


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry: ``python -m repro.serving.chaos [--seed N]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description=(
            "chaos smoke: seeded campaign, engine vs oracle, "
            "bit-equality + invariants"
        )
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--duration", type=float, default=600.0,
        help="traffic/campaign window in seconds",
    )
    options = parser.parse_args(argv)
    return _smoke(options.seed, options.duration)


if __name__ == "__main__":
    raise SystemExit(main())
