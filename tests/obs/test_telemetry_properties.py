"""Telemetry must observe without perturbing (property contract).

The collector's two load-bearing promises, searched with Hypothesis
over random small fleets with every mechanism toggled: (1) attaching a
:class:`~repro.obs.Telemetry` changes *nothing* — the engine and its oracle
return reports equal to their telemetry-free runs — and (2) the two
emit *byte-identical* telemetry for the same scenario, with every span
passing the state-machine validator.  Any heap push, float reorder or
string-formatting divergence introduced by an instrumentation hook
shows up here as a first mismatching byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry, dumps_telemetry, validate_span
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
from repro.serving.oracle import same_report, simulate_oracle
from repro.serving.resilience import (
    AdmissionConfig,
    BrownoutConfig,
    CircuitBreakerConfig,
    DegradedRung,
    HedgeConfig,
    ResilienceConfig,
)
from repro.serving.workload import WorkloadMix, generate_requests

MODELS = ("sd", "muse")
SERVICE_S = {"sd": 2.0, "muse": 0.5}


def _latency_fns(names, scale=1.0):
    return {
        name: affine_batch_latency(
            SERVICE_S[name] * scale, marginal_fraction=0.6
        )
        for name in names
    }


@st.composite
def telemetry_scenarios(draw):
    """A random small fleet with every resilience mechanism in play."""
    model_count = draw(st.integers(min_value=1, max_value=2))
    names = MODELS[:model_count]
    share = 1.0 / len(names)
    mix = WorkloadMix(
        shares={name: share for name in names},
        service_s={name: SERVICE_S[name] for name in names},
    )
    requests = generate_requests(
        mix,
        arrival_rate=draw(st.floats(min_value=0.5, max_value=6.0)),
        duration_s=draw(st.floats(min_value=20.0, max_value=60.0)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    pool_count = draw(st.integers(min_value=1, max_value=2))
    pools = []
    total_servers = 0
    for index in range(pool_count):
        servers = draw(st.integers(min_value=1, max_value=3))
        standby = draw(st.integers(min_value=0, max_value=1))
        served = (
            names if index == 0
            else names[draw(st.integers(0, model_count - 1)):]
        )
        pools.append(
            PoolSpec(
                name=f"pool{index}",
                machine="dgx-a100-80g",
                servers=servers,
                latency_fns=_latency_fns(served),
                max_batch=draw(st.integers(min_value=1, max_value=3)),
                max_servers=servers + standby,
            )
        )
        total_servers += servers + standby
    if draw(st.booleans()):
        retry = RetryPolicy(
            max_retries=draw(st.integers(min_value=0, max_value=2)),
            backoff_s=draw(st.sampled_from((0.0, 0.5))),
            timeout_s=draw(st.sampled_from((None, 5.0))),
        )
    else:
        retry = NO_RETRIES
    if draw(st.booleans()):
        faults = generate_faults(
            servers=total_servers,
            duration_s=80.0,
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            crash_rate_per_hour=draw(st.sampled_from((0.0, 90.0))),
            mean_downtime_s=10.0,
            straggler_rate_per_hour=draw(st.sampled_from((0.0, 120.0))),
            mean_straggler_s=15.0,
            slowdown=3.0,
        )
    else:
        faults = FAULT_FREE
    resilience = ResilienceConfig(
        admission=draw(st.sampled_from((
            None,
            AdmissionConfig(max_queue_depth=4),
            AdmissionConfig(rate_per_s=2.0, burst=4.0),
        ))),
        breaker=draw(st.sampled_from((
            None,
            CircuitBreakerConfig(
                failure_threshold=1, window_s=30.0, cooldown_s=8.0,
                slow_factor=1.5,
            ),
        ))),
        hedge=draw(st.sampled_from((None, HedgeConfig(delay_s=4.0)))),
        brownout=draw(st.sampled_from((
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
        ))),
    )
    autoscaler = draw(st.sampled_from((
        None,
        AutoscalerConfig(
            check_interval_s=10.0, scale_up_backlog=2.0,
            scale_down_backlog=0.5, startup_s=5.0, cooldown_s=10.0,
        ),
    )))
    return requests, pools, retry, faults, autoscaler, resilience


@settings(max_examples=40, deadline=None)
@given(scenario=telemetry_scenarios())
def test_telemetry_is_inert_on_both_engines(scenario):
    requests, pools, retry, faults, autoscaler, resilience = scenario
    kwargs = dict(
        retry=retry, faults=faults,
        autoscaler=autoscaler, resilience=resilience,
    )
    blind = simulate_oracle(requests, pools, **kwargs)
    observed = simulate_oracle(
        requests, pools, telemetry=Telemetry(sample_interval_s=7.0),
        **kwargs,
    )
    assert observed == blind
    col_blind = simulate_fleet(requests, pools, **kwargs)
    col_observed = simulate_fleet(
        requests, pools, telemetry=Telemetry(sample_interval_s=7.0),
        **kwargs,
    )
    assert col_observed == col_blind
    assert same_report(col_blind, blind)


@settings(max_examples=40, deadline=None)
@given(scenario=telemetry_scenarios())
def test_engines_emit_identical_telemetry(scenario):
    requests, pools, retry, faults, autoscaler, resilience = scenario
    kwargs = dict(
        retry=retry, faults=faults,
        autoscaler=autoscaler, resilience=resilience,
    )
    oracle_tel = Telemetry(sample_interval_s=7.0)
    simulate_oracle(requests, pools, telemetry=oracle_tel, **kwargs)
    columnar_tel = Telemetry(sample_interval_s=7.0)
    simulate_fleet(requests, pools, telemetry=columnar_tel, **kwargs)
    oracle_log = oracle_tel.log()
    assert dumps_telemetry(oracle_log) == dumps_telemetry(
        columnar_tel.log()
    )
    for span in oracle_log.spans:
        assert validate_span(span) == []
