"""Engine/oracle equivalence (the fleet engine's contract).

The fleet engine (``repro.serving.columnar``, run by
``simulate_fleet``) promises *bit-exact* agreement with the
event-at-a-time reference in ``repro.serving.oracle`` — not
statistical closeness: every record of the engine's ``FleetReport``
must compare equal to the oracle's (every float identical), and the
vectorized ``slo_report`` must return an ``SloReport`` equal to the
oracle's record-at-a-time accounting.  Hypothesis searches random small
fleets — mixed pools, every built-in policy, faults on/off, each
resilience mechanism independently toggled, autoscaler on/off — because
the engines share no code in their hot loops: any divergence in event
ordering, float-op order, or terminal-state bookkeeping shows up here
as a first mismatching record.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.faults import (
    FAULT_FREE,
    NO_RETRIES,
    RetryPolicy,
    generate_faults,
)
from repro.serving.fleet import (
    AutoscalerConfig,
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.oracle import (
    oracle_slo_report,
    oracle_tier_slo_report,
    same_report,
    simulate_oracle,
)
from repro.serving.policies import policy_from_name
from repro.serving.resilience import (
    RESILIENCE_OFF,
    AdmissionConfig,
    BrownoutConfig,
    CircuitBreakerConfig,
    DegradedRung,
    HedgeConfig,
    ResilienceConfig,
)
from repro.serving.slo import slo_report, tier_slo_report
from repro.serving.traffic import (
    BurstModel,
    ClientPopulation,
    cards_from_mix,
    dumps_trace,
    generate_traffic,
    loads_trace,
    poissonized,
    steps_spec,
)
from repro.serving.workload import WorkloadMix, generate_requests

MODELS = ("sd", "muse", "video")
SERVICE_S = {"sd": 2.0, "muse": 0.5, "video": 6.0}
DEADLINES = {"sd": 8.0, "muse": 3.0, "video": 20.0}
MACHINES = ("dgx-a100-80g", "dgx-h100")


def _mix(model_count: int) -> WorkloadMix:
    names = MODELS[:model_count]
    share = 1.0 / len(names)
    return WorkloadMix(
        shares={name: share for name in names},
        service_s={name: SERVICE_S[name] for name in names},
    )


def _latency_fns(names, scale=1.0):
    return {
        name: affine_batch_latency(
            SERVICE_S[name] * scale, marginal_fraction=0.6
        )
        for name in names
    }


@st.composite
def fleet_scenarios(draw):
    """One random small fleet: requests, pools, faults, resilience."""
    model_count = draw(st.integers(min_value=1, max_value=3))
    names = MODELS[:model_count]
    mix = _mix(model_count)
    requests = generate_requests(
        mix,
        arrival_rate=draw(st.floats(min_value=0.5, max_value=8.0)),
        duration_s=draw(st.floats(min_value=20.0, max_value=90.0)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    pool_count = draw(st.integers(min_value=1, max_value=2))
    pools = []
    total_servers = 0
    for index in range(pool_count):
        servers = draw(st.integers(min_value=1, max_value=4))
        standby = draw(st.integers(min_value=0, max_value=2))
        # Pool 0 serves everything (keeps most runs routable); later
        # pools may drop models, exercising routing and unroutable.
        served = (
            names if index == 0
            else names[draw(st.integers(0, model_count - 1)):]
        )
        pools.append(
            PoolSpec(
                name=f"pool{index}",
                machine=MACHINES[index % len(MACHINES)],
                servers=servers,
                latency_fns=_latency_fns(served),
                max_batch=draw(st.integers(min_value=1, max_value=4)),
                policy=policy_from_name(
                    draw(st.sampled_from(("fifo", "sjf", "affinity")))
                ),
                swap_cost_s=draw(st.sampled_from((0.0, 0.4))),
                max_servers=servers + standby,
            )
        )
        total_servers += servers + standby
    if draw(st.booleans()):
        retry = RetryPolicy(
            max_retries=draw(st.integers(min_value=0, max_value=2)),
            backoff_s=draw(st.sampled_from((0.0, 0.5, 1.0))),
            timeout_s=draw(st.sampled_from((None, 5.0, 15.0))),
            multiplier=draw(st.sampled_from((1.0, 2.0))),
            jitter=draw(st.sampled_from((0.0, 0.5))),
        )
    else:
        retry = NO_RETRIES
    if draw(st.booleans()):
        faults = generate_faults(
            servers=total_servers,
            duration_s=120.0,
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            crash_rate_per_hour=draw(st.sampled_from((0.0, 60.0))),
            mean_downtime_s=10.0,
            straggler_rate_per_hour=draw(st.sampled_from((0.0, 120.0))),
            mean_straggler_s=15.0,
            slowdown=3.0,
        )
    else:
        faults = FAULT_FREE
    admission = draw(st.sampled_from((
        None,
        AdmissionConfig(max_queue_depth=4),
        AdmissionConfig(wait_budget_s=6.0),
        AdmissionConfig(rate_per_s=2.0, burst=4.0),
    )))
    breaker = draw(st.sampled_from((
        None,
        CircuitBreakerConfig(
            failure_threshold=2, window_s=60.0, cooldown_s=10.0,
            slow_factor=2.0,
        ),
    )))
    hedge = draw(st.sampled_from((
        None,
        HedgeConfig(delay_s=4.0),
        HedgeConfig(quantile=90.0, min_samples=5),
    )))
    brownout = draw(st.sampled_from((
        None,
        BrownoutConfig(
            rungs=(
                DegradedRung(
                    label="fast",
                    latency_fns=_latency_fns(names, scale=0.5),
                    quality=0.8,
                ),
            ),
            step_down_backlog=2.0,
            step_up_backlog=0.5,
            check_interval_s=5.0,
            dwell_s=5.0,
        ),
    )))
    resilience = ResilienceConfig(
        admission=admission, breaker=breaker,
        hedge=hedge, brownout=brownout,
    )
    autoscaler = draw(st.sampled_from((
        None,
        AutoscalerConfig(
            check_interval_s=10.0, scale_up_backlog=2.0,
            scale_down_backlog=0.5, startup_s=5.0, cooldown_s=10.0,
        ),
    )))
    return requests, pools, retry, faults, autoscaler, resilience


def assert_engines_agree(
    requests, pools, retry, faults, autoscaler, resilience
):
    """Run engine and oracle; assert bit-exact report + SLO equality."""
    oracle = simulate_oracle(
        requests, pools, retry=retry, faults=faults,
        autoscaler=autoscaler, resilience=resilience,
    )
    report = simulate_fleet(
        requests, pools, retry=retry, faults=faults,
        autoscaler=autoscaler, resilience=resilience,
    )
    assert report.offered == oracle.offered
    assert report.completed == oracle.completed
    assert report.failed == oracle.failed
    assert report.shed == oracle.shed
    assert report.pools == oracle.pools
    assert report.makespan_s == oracle.makespan_s
    assert report.resilience == oracle.resilience
    assert same_report(report, oracle)
    assert slo_report(report, DEADLINES) == oracle_slo_report(
        oracle, DEADLINES
    )


@settings(max_examples=60, deadline=None)
@given(scenario=fleet_scenarios())
def test_random_fleets_bit_exact(scenario):
    assert_engines_agree(*scenario)


@st.composite
def traffic_traces(draw):
    """A random client-structured trace, replayed through the JSONL
    round trip so the engines consume exactly what a trace file
    carries — not an in-memory shortcut."""
    model_count = draw(st.integers(min_value=1, max_value=3))
    names = MODELS[:model_count]
    mix = _mix(model_count)
    if draw(st.booleans()):
        mean_on = draw(st.sampled_from((20.0, 60.0)))
        mean_off = draw(st.sampled_from((120.0, 300.0)))
        cap = (mean_on + mean_off) / mean_on  # 1 / p_on
        burst = BurstModel(
            mean_on_s=mean_on,
            mean_off_s=mean_off,
            on_factor=min(draw(st.sampled_from((2.0, 5.0))), 0.99 * cap),
        )
    else:
        burst = None
    population = ClientPopulation(
        cards=cards_from_mix(
            mix, {names[0]: (steps_spec(),)}
        ),
        n_clients=draw(st.integers(min_value=1, max_value=30)),
        mean_rate_per_client=draw(
            st.floats(min_value=0.01, max_value=0.3)
        ),
        tail_alpha=draw(st.floats(min_value=1.3, max_value=2.5)),
        burst=burst,
        model_loyalty=draw(st.floats(min_value=0.0, max_value=1.0)),
        property_spread=draw(st.floats(min_value=0.0, max_value=1.5)),
    )
    trace = generate_traffic(
        population,
        duration_s=draw(st.floats(min_value=30.0, max_value=120.0)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    if draw(st.booleans()):
        trace = poissonized(
            trace, seed=draw(st.integers(min_value=0, max_value=2**16))
        )
    return loads_trace(dumps_trace(trace))


@settings(max_examples=40, deadline=None)
@given(
    trace=traffic_traces(),
    servers=st.integers(min_value=1, max_value=4),
    max_batch=st.integers(min_value=1, max_value=4),
    policy=st.sampled_from(("fifo", "sjf", "affinity")),
)
def test_replayed_traces_bit_exact(trace, servers, max_batch, policy):
    """Client-structured workloads through engine and oracle:
    bit-identical reports, SLO accounting, and per-tier breakdowns."""
    pool = PoolSpec(
        name="pool0",
        machine="dgx-a100-80g",
        servers=servers,
        latency_fns=_latency_fns(trace.models),
        max_batch=max_batch,
        policy=policy_from_name(policy),
    )
    oracle = simulate_oracle(trace, [pool])
    report = simulate_fleet(trace, [pool])
    assert same_report(report, oracle)
    assert slo_report(report, DEADLINES) == oracle_slo_report(
        oracle, DEADLINES
    )
    assert tier_slo_report(
        report, trace, DEADLINES
    ) == oracle_tier_slo_report(oracle, trace, DEADLINES)


class TestPlannerPoolEquivalence:
    """Cross-layer contract: auto-planner plans wired into fleet pools
    must replay a client-structured trace bit-identically on both
    engines — the planner's symbolic latency curves feed the same
    batch-latency interface as every hand-built pool."""

    def test_planned_pools_replay_traces_bit_exact(self):
        from repro.distributed.planner import ParallelConfig
        from repro.models.registry import build_model
        from repro.serving.fleet import pool_from_replicas
        from repro.serving.sharded import planned_pool, replica_from_plan

        model = build_model("stable_diffusion")
        auto_pool, point = planned_pool(
            "auto", model, machine="dgx-a100-80g",
            gpu_budget=4, global_batch=4, batches=(1, 2, 4),
        )
        assert point.fits
        # A second, hand-configured pool so routing across pools with
        # different latency curves is exercised too.
        hand = replica_from_plan(
            model, ParallelConfig(tp=2), machine="dgx-h100",
            batches=(1, 2, 4),
        )
        hand_pool = pool_from_replicas("hand-tp2", [hand], servers=2)
        population = ClientPopulation(
            cards=cards_from_mix(
                WorkloadMix(
                    shares={"stable_diffusion": 1.0},
                    service_s={"stable_diffusion": hand.latency(1)},
                )
            ),
            n_clients=12,
            mean_rate_per_client=0.2,
            tail_alpha=1.6,
        )
        trace = loads_trace(dumps_trace(generate_traffic(
            population, duration_s=120.0, seed=31
        )))
        pools = [auto_pool, hand_pool]
        oracle = simulate_oracle(trace, pools)
        report = simulate_fleet(trace, pools)
        assert same_report(report, oracle)
        deadline = {"stable_diffusion": 4.0 * point.latency_s}
        assert slo_report(report, deadline) == oracle_slo_report(
            oracle, deadline
        )
        assert tier_slo_report(
            report, trace, deadline
        ) == oracle_tier_slo_report(oracle, trace, deadline)
        # The planner's curve really reached the engines: every
        # completion on the auto pool took at least one batch-1 service
        # time from the symbolic basis.
        auto_served = [
            record for record in oracle.completed
            if record.pool == "auto"
        ]
        assert auto_served
        min_service = min(record.service_s for record in auto_served)
        assert min_service >= point.latency_s * 0.9


class TestTargetedScenarios:
    """Deterministic scenarios pinning each mechanism's hardest path
    (kept out of hypothesis so a failure names its mechanism)."""

    def _requests(self, rate=4.0, duration=120.0, seed=11, models=3):
        return generate_requests(
            _mix(models), arrival_rate=rate, duration_s=duration,
            seed=seed,
        )

    def _pools(self, **kwargs):
        base = dict(
            name="pool0", machine="dgx-a100-80g", servers=3,
            latency_fns=_latency_fns(MODELS), max_batch=4,
        )
        base.update(kwargs)
        return [PoolSpec(**base)]

    def test_crashes_with_retries_and_timeouts(self):
        faults = generate_faults(
            servers=3, duration_s=120.0, seed=5,
            crash_rate_per_hour=120.0, mean_downtime_s=8.0,
        )
        assert_engines_agree(
            self._requests(), self._pools(),
            RetryPolicy(max_retries=2, backoff_s=0.5, timeout_s=10.0),
            faults, None, RESILIENCE_OFF,
        )

    def test_breaker_open_probe_close_cycle(self):
        faults = generate_faults(
            servers=3, duration_s=120.0, seed=5,
            crash_rate_per_hour=180.0, mean_downtime_s=5.0,
            straggler_rate_per_hour=240.0, mean_straggler_s=20.0,
        )
        resilience = ResilienceConfig(
            breaker=CircuitBreakerConfig(
                failure_threshold=1, window_s=30.0, cooldown_s=5.0,
                slow_factor=1.5,
            )
        )
        assert_engines_agree(
            self._requests(), self._pools(),
            RetryPolicy(max_retries=3, backoff_s=0.5, timeout_s=None),
            faults, None, resilience,
        )

    def test_hedging_quantile_with_two_pools(self):
        pools = self._pools() + [
            PoolSpec(
                name="pool1", machine="dgx-h100", servers=2,
                latency_fns=_latency_fns(MODELS), max_batch=2,
            )
        ]
        resilience = ResilienceConfig(
            hedge=HedgeConfig(quantile=75.0, min_samples=5)
        )
        assert_engines_agree(
            self._requests(rate=6.0), pools,
            NO_RETRIES, FAULT_FREE, None, resilience,
        )

    def test_brownout_ladder_steps_down_and_up(self):
        resilience = ResilienceConfig(
            brownout=BrownoutConfig(
                rungs=(
                    DegradedRung(
                        label="r1",
                        latency_fns=_latency_fns(MODELS, scale=0.6),
                        quality=0.9,
                    ),
                    DegradedRung(
                        label="r2",
                        latency_fns=_latency_fns(MODELS, scale=0.3),
                        quality=0.7,
                    ),
                ),
                step_down_backlog=1.5,
                step_up_backlog=0.5,
                check_interval_s=5.0,
                dwell_s=5.0,
            )
        )
        assert_engines_agree(
            self._requests(rate=8.0, duration=60.0),
            self._pools(servers=2),
            NO_RETRIES, FAULT_FREE, None, resilience,
        )

    def test_autoscaler_up_and_down(self):
        assert_engines_agree(
            self._requests(rate=8.0, duration=60.0),
            self._pools(servers=1, max_servers=4),
            NO_RETRIES, FAULT_FREE,
            AutoscalerConfig(
                check_interval_s=5.0, scale_up_backlog=2.0,
                scale_down_backlog=0.5, startup_s=3.0, cooldown_s=5.0,
            ),
            RESILIENCE_OFF,
        )

    def test_bursty_trace_under_admission_control(self):
        # The serve3 mechanism in miniature: an overdispersed
        # client-structured trace against a token-bucket front door.
        population = ClientPopulation(
            cards=cards_from_mix(_mix(2)),
            n_clients=25,
            mean_rate_per_client=0.15,
            tail_alpha=1.5,
            burst=BurstModel(
                mean_on_s=20.0, mean_off_s=100.0, on_factor=5.0
            ),
        )
        trace = loads_trace(dumps_trace(generate_traffic(
            population, duration_s=150.0, seed=17
        )))
        resilience = ResilienceConfig(
            admission=AdmissionConfig(
                max_queue_depth=12, wait_budget_s=15.0,
                rate_per_s=1.05 * trace.offered_rate, burst=6.0,
            )
        )
        assert_engines_agree(
            trace, self._pools(servers=2),
            NO_RETRIES, FAULT_FREE, None, resilience,
        )

    def test_full_stack_everything_on(self):
        pools = [
            PoolSpec(
                name="pool0", machine="dgx-a100-80g", servers=3,
                latency_fns=_latency_fns(MODELS), max_batch=4,
                swap_cost_s=0.3, max_servers=5,
                policy=policy_from_name("affinity"),
            ),
            PoolSpec(
                name="pool1", machine="dgx-h100", servers=2,
                latency_fns=_latency_fns(MODELS[:2]), max_batch=2,
                policy=policy_from_name("sjf"),
            ),
        ]
        faults = generate_faults(
            servers=7, duration_s=180.0, seed=23,
            crash_rate_per_hour=90.0, mean_downtime_s=8.0,
            straggler_rate_per_hour=90.0, mean_straggler_s=15.0,
        )
        resilience = ResilienceConfig(
            admission=AdmissionConfig(
                max_queue_depth=16, wait_budget_s=20.0,
                rate_per_s=6.0, burst=10.0,
            ),
            breaker=CircuitBreakerConfig(
                failure_threshold=2, window_s=60.0, cooldown_s=8.0,
                slow_factor=2.0,
            ),
            hedge=HedgeConfig(quantile=90.0, min_samples=8),
            brownout=BrownoutConfig(
                rungs=(
                    DegradedRung(
                        label="fast",
                        latency_fns=_latency_fns(MODELS, scale=0.5),
                        quality=0.8,
                    ),
                ),
                step_down_backlog=2.0,
            ),
        )
        assert_engines_agree(
            self._requests(rate=6.0, duration=180.0, seed=29), pools,
            RetryPolicy(
                max_retries=2, backoff_s=0.5, timeout_s=12.0,
                multiplier=2.0, jitter=0.5,
            ),
            faults,
            AutoscalerConfig(
                check_interval_s=10.0, scale_up_backlog=2.0,
                scale_down_backlog=0.5, startup_s=5.0, cooldown_s=10.0,
            ),
            resilience,
        )


@st.composite
def campaign_scenarios(draw):
    """A pool-per-zone fleet plus a random correlated-fault campaign,
    optionally orchestrated (cordon/uncordon control actions, standby
    promotion, staggered re-admission)."""
    from repro.serving.chaos import ChaosConfig, generate_campaign
    from repro.serving.domains import (
        OrchestrationConfig,
        topology_for_pools,
    )

    model_count = draw(st.integers(min_value=1, max_value=2))
    names = MODELS[:model_count]
    requests = generate_requests(
        _mix(model_count),
        arrival_rate=draw(st.floats(min_value=1.0, max_value=5.0)),
        duration_s=150.0,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    zones = draw(st.integers(min_value=2, max_value=3))
    pools = [
        PoolSpec(
            name=f"zone{zone}",
            machine=MACHINES[zone % len(MACHINES)],
            servers=draw(st.integers(min_value=2, max_value=3)),
            latency_fns=_latency_fns(names),
            max_batch=draw(st.integers(min_value=1, max_value=4)),
            max_servers=draw(st.integers(min_value=3, max_value=5)),
            zone=zone,
        )
        for zone in range(zones)
    ]
    topology = topology_for_pools(pools)
    config = ChaosConfig(
        zone_outage_rate=draw(st.sampled_from((0.0, 1 / 200.0))),
        rack_outage_rate=draw(st.sampled_from((0.0, 1 / 300.0))),
        partition_rate=draw(st.sampled_from((0.0, 1 / 300.0))),
        degraded_rate=draw(st.sampled_from((0.0, 1 / 300.0))),
        mean_duration_s=30.0,
        stagger_s=draw(st.sampled_from((0.0, 4.0))),
    )
    campaign = generate_campaign(
        topology, config, duration_s=150.0,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    orchestration = draw(st.sampled_from((
        None,
        OrchestrationConfig(
            detection_delay_s=5.0, readmission_stagger_s=3.0,
            promote_stagger_s=2.0,
        ),
        OrchestrationConfig(
            detection_delay_s=15.0, readmission_stagger_s=0.0,
            max_promotions=1,
        ),
    )))
    compiled = campaign.compile(
        pools=pools, orchestration=orchestration
    )
    retry = draw(st.sampled_from((
        NO_RETRIES,
        RetryPolicy(max_retries=2, backoff_s=0.5, timeout_s=15.0),
    )))
    return requests, pools, retry, compiled


@settings(max_examples=30, deadline=None)
@given(scenario=campaign_scenarios())
def test_correlated_campaigns_bit_exact(scenario):
    """Compiled chaos campaigns — correlated crashes, partitions,
    degraded links, recovery plans — replay bit-identically on both
    engines.  The extension of the engine contract this PR adds."""
    requests, pools, retry, compiled = scenario
    oracle = simulate_oracle(
        requests, pools, retry=retry, faults=compiled.faults,
        plan=compiled.plan,
    )
    report = simulate_fleet(
        requests, pools, retry=retry, faults=compiled.faults,
        plan=compiled.plan,
    )
    assert same_report(report, oracle)
    assert slo_report(report, DEADLINES) == oracle_slo_report(
        oracle, DEADLINES
    )
