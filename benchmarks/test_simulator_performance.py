"""Micro-benchmarks of the simulator itself.

These measure the *framework's* throughput (cost evaluations per
second, trace generation speed, cache-simulation speed) — the numbers a
downstream user cares about when sweeping large design spaces.

The medians recorded here gate CI: ``tools/check_bench_regression.py``
compares a fresh ``--benchmark-json`` run against the committed
``benchmarks/BENCH_baseline.json`` and fails on a >30% slowdown,
normalized by :func:`test_calibration_reference` so the comparison
survives a change of runner hardware.  Refresh the baseline after an
intentional performance change with::

    python -m pytest benchmarks -q --benchmark-json=/tmp/bench.json
    python tools/check_bench_regression.py /tmp/bench.json --update
"""

import pytest

from repro.hw.spec import A100_80GB
from repro.ir.context import ExecutionContext
from repro.ir.ops import Gemm
from repro.ir.tensor import TensorSpec
from repro.kernels.estimator import CostEstimator
from repro.layers.unet import UNet
from repro.models.registry import suite_names
from repro.models.stable_diffusion import StableDiffusionConfig


def test_calibration_reference(benchmark):
    """Fixed pure-Python workload: the regression checker's yardstick.

    Its median moves with interpreter/hardware speed but never with the
    simulator, so dividing every benchmark's ratio by this one's ratio
    cancels machine differences out of the CI gate.
    """

    def spin():
        total = 0
        for value in range(2_000_000):
            total += value * value
        return total

    assert benchmark(spin) > 0


def test_gemm_cost_evaluation_throughput(benchmark):
    estimator = CostEstimator(A100_80GB)
    op = Gemm("g", m=4096, n=4096, k=4096)
    benchmark(estimator.estimate, op)


def test_unet_trace_generation(benchmark):
    unet = UNet(StableDiffusionConfig().unet)
    latent = TensorSpec((2, 4, 64, 64))

    def one_denoising_step():
        ctx = ExecutionContext()
        unet(ctx, latent)
        return len(ctx.trace)

    events = benchmark(one_denoising_step)
    assert events > 500


def test_llama_prefill_trace_generation(benchmark):
    from repro.models.llama import Llama, LlamaConfig

    model = Llama(LlamaConfig(prompt_tokens=2048, decode_tokens=1,
                              decode_bucket=1))

    def prefill():
        ctx = ExecutionContext()
        model.prefill(ctx)
        return ctx.trace.total_time_s

    assert benchmark(prefill) > 0


def test_cache_simulation_speed(benchmark):
    from repro.experiments.fig12_cache import attention_configs
    from repro.kernels.attention import simulate_attention_cache

    spatial_info, _ = attention_configs()
    report = benchmark.pedantic(
        simulate_attention_cache, args=(spatial_info,), rounds=2,
        iterations=1,
    )
    assert report.gemm.l1_hit_rate > 0.0


def test_full_sd_profile(benchmark):
    """End-to-end profiling cost of the heaviest single-model config."""
    from repro.models.stable_diffusion import StableDiffusion
    from repro.profiler.profiler import profile_model

    model = StableDiffusion()
    result = benchmark.pedantic(
        profile_model, args=(model,), rounds=1, iterations=1
    )
    assert result.total_time_s > 0


@pytest.mark.parametrize("name", suite_names())
def test_profile_model_card(benchmark, name):
    """profile() cost per suite model, fresh instance every round.

    A fresh model defeats the per-model profile memo, so this measures
    the real trace-construction path (module walk, replay segments,
    kernel-cost lookups), the dominant cost of every sweep's first
    visit to a configuration.
    """
    from repro.models.registry import build_model
    from repro.profiler.profiler import profile_model

    def cold_profile():
        return profile_model(build_model(name)).total_time_s

    assert benchmark.pedantic(cold_profile, rounds=2, iterations=1) > 0


def test_strong_scaling_sweep(benchmark):
    """The dist1 hot loop: partition + price SD across 1/2/4/8 GPUs."""
    from repro.distributed.scaling import strong_scaling
    from repro.experiments.suite_cache import model_instance

    model = model_instance("stable_diffusion")
    strong_scaling(model, "dgx-a100-80g", (1, 2))  # warm the profile

    points = benchmark.pedantic(
        strong_scaling,
        args=(model, "dgx-a100-80g", (1, 2, 4, 8)),
        rounds=2,
        iterations=1,
    )
    assert len(points) == 4 and points[0].world == 1


def test_planner_full_sweep(benchmark):
    """The dist2 hot loop: symbolic search of the whole config space.

    Enumerates and costs every canonical (tp, pp, dp, microbatch,
    sequence-parallel) config for Stable Diffusion in an 8-GPU budget
    from one warmed :class:`PlannerBasis` — the amortized path the
    planner's value proposition rests on (66 configs from ~13 axis
    builds).  Profiling is warmed outside the measured span so the gate
    covers the search itself: partition, pricing, prefix algebra,
    schedule simulation and Pareto filtering.
    """
    from repro.distributed.planner import PlannerBasis, plan_parallelism
    from repro.experiments.suite_cache import model_instance

    model = model_instance("stable_diffusion")
    machine = "dgx-a100-80g"
    # Warm the profile memo and the basis' axis caches once.
    plan_parallelism(model, machine=machine, gpu_budget=8)

    def sweep():
        basis = PlannerBasis(model, machine)
        return plan_parallelism(
            model, machine=machine, gpu_budget=8, basis=basis
        )

    result = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert len(result.points) == 66
    assert result.frontier
    benchmark.extra_info["configs"] = len(result.points)
    benchmark.extra_info["axis_builds"] = result.stats["axis_builds"]


# A 10k-request day takes ~0.1 s on the columnar engine; five rounds
# keep one slow round from moving the gated median.
FLEET_10K_ROUNDS = 5


def test_fleet_10k_requests(benchmark):
    """Discrete-event fleet throughput on a >=10k-request day.

    Fixed service times (no profiling in the loop) so the benchmark
    isolates the simulator: queueing, batching, retries and the event
    heap.
    """
    from repro.serving.faults import RetryPolicy
    from repro.serving.fleet import (
        PoolSpec,
        affine_batch_latency,
        simulate_fleet,
    )
    from repro.serving.workload import WorkloadMix, generate_requests

    mix = WorkloadMix(
        shares={"sd": 0.7, "muse": 0.3},
        service_s={"sd": 2.0, "muse": 0.5},
    )
    requests = generate_requests(
        mix, arrival_rate=20.0, duration_s=600.0, seed=7
    )
    assert len(requests) >= 10_000
    pools = [
        PoolSpec(
            name="a100",
            machine="dgx-a100-80g",
            servers=32,
            latency_fns={
                model: affine_batch_latency(
                    time, marginal_fraction=0.7
                )
                for model, time in mix.service_s.items()
            },
            max_batch=8,
        )
    ]
    retry = RetryPolicy(max_retries=2, backoff_s=1.0, timeout_s=None)

    report = benchmark.pedantic(
        simulate_fleet,
        args=(requests, pools),
        kwargs={"retry": retry},
        rounds=FLEET_10K_ROUNDS,
        iterations=1,
    )
    assert report.offered >= 10_000
    assert report.completion_rate > 0.99


def test_fleet_10k_requests_telemetry(benchmark):
    """The same >=10k-request day with the flight recorder on.

    Gates the overhead of the telemetry hot-path hooks (span event
    appends, boundary sampling, counter bumps) relative to
    ``test_fleet_10k_requests`` — the flight recorder's pitch is
    observability at a small constant factor, not for free.
    """
    from repro.obs import Telemetry
    from repro.serving.faults import RetryPolicy
    from repro.serving.fleet import (
        PoolSpec,
        affine_batch_latency,
        simulate_fleet,
    )
    from repro.serving.workload import WorkloadMix, generate_requests

    mix = WorkloadMix(
        shares={"sd": 0.7, "muse": 0.3},
        service_s={"sd": 2.0, "muse": 0.5},
    )
    requests = generate_requests(
        mix, arrival_rate=20.0, duration_s=600.0, seed=7
    )
    assert len(requests) >= 10_000
    pools = [
        PoolSpec(
            name="a100",
            machine="dgx-a100-80g",
            servers=32,
            latency_fns={
                model: affine_batch_latency(
                    time, marginal_fraction=0.7
                )
                for model, time in mix.service_s.items()
            },
            max_batch=8,
        )
    ]
    retry = RetryPolicy(max_retries=2, backoff_s=1.0, timeout_s=None)
    collectors = []

    def fresh_collector():
        # A collector is single-use; each round needs its own.
        collectors.append(Telemetry(sample_interval_s=5.0))
        return (requests, pools), {
            "retry": retry, "telemetry": collectors[-1],
        }

    report = benchmark.pedantic(
        simulate_fleet,
        setup=fresh_collector,
        rounds=FLEET_10K_ROUNDS,
        iterations=1,
    )
    assert report.offered >= 10_000
    assert report.completion_rate > 0.99
    log = collectors[-1].log()
    assert len(log.spans) == report.offered
    benchmark.extra_info["span_events"] = sum(
        len(span.events) for span in log.spans
    )


def test_fleet_1m_requests_columnar(benchmark):
    """A million-user day through the columnar engine (bench-1m).

    The tentpole number: ~1M Poisson arrivals over 24 simulated hours
    on one batched A100 pool at ~70% utilisation, generated as a
    :class:`RequestBatch` (columnar stream, no per-request objects)
    and simulated by ``simulate_fleet``.  Gated like every other
    entry by ``tools/check_bench_regression.py``; the acceptance bar
    is interactive speed — well under a minute wall-clock.  Reports
    ``requests_per_s`` in the bench artifact's ``extra_info``.
    """
    from repro.serving.fleet import (
        PoolSpec,
        affine_batch_latency,
        simulate_fleet,
    )
    from repro.serving.workload import (
        WorkloadMix,
        generate_requests_batch,
    )

    mix = WorkloadMix(
        shares={"sd": 0.7, "muse": 0.3},
        service_s={"sd": 2.0, "muse": 0.5},
    )
    requests = generate_requests_batch(
        mix, arrival_rate=12.0, duration_s=86_400.0, seed=7
    )
    assert len(requests) >= 1_000_000
    pools = [
        PoolSpec(
            name="a100",
            machine="dgx-a100-80g",
            servers=20,
            latency_fns={
                model: affine_batch_latency(
                    time, marginal_fraction=0.7
                )
                for model, time in mix.service_s.items()
            },
            max_batch=8,
        )
    ]

    report = benchmark.pedantic(
        simulate_fleet,
        args=(requests, pools),
        rounds=1,
        iterations=1,
    )
    assert report.offered >= 1_000_000
    assert report.completion_rate > 0.99
    benchmark.extra_info["requests"] = report.offered
    benchmark.extra_info["requests_per_s"] = round(
        report.offered / benchmark.stats.stats.median
    )


def test_fleet_1m_requests_client_structured(benchmark):
    """A million-request client-structured day, generated AND simulated.

    The traffic-layer counterpart of ``test_fleet_1m_requests_columnar``:
    2000 Pareto-rated clients with on/off bursts over 24 simulated
    hours yield ~1M arrivals which feed the columnar engine directly
    (the trace's ``RequestBatch`` is consumed zero-copy).  Unlike the
    Poisson bench, the measured span includes generation itself — the
    gate covers the per-client burst/thinning loops, not just the
    simulator.  Reports ``requests_per_s`` like its Poisson twin.
    """
    from repro.serving.fleet import (
        PoolSpec,
        affine_batch_latency,
        simulate_fleet,
    )
    from repro.serving.traffic import (
        BurstModel,
        ClientPopulation,
        cards_from_mix,
        generate_traffic,
    )
    from repro.serving.workload import WorkloadMix

    mix = WorkloadMix(
        shares={"sd": 0.7, "muse": 0.3},
        service_s={"sd": 2.0, "muse": 0.5},
    )
    population = ClientPopulation(
        cards=cards_from_mix(mix),
        n_clients=2000,
        mean_rate_per_client=0.0061,
        tail_alpha=1.8,
        burst=BurstModel(
            mean_on_s=600.0, mean_off_s=1200.0, on_factor=2.0
        ),
        model_loyalty=0.3,
    )
    pools = [
        PoolSpec(
            name="a100",
            machine="dgx-a100-80g",
            servers=20,
            latency_fns={
                model: affine_batch_latency(
                    time, marginal_fraction=0.7
                )
                for model, time in mix.service_s.items()
            },
            max_batch=8,
        )
    ]

    def generate_and_simulate():
        trace = generate_traffic(
            population, duration_s=86_400.0, seed=7
        )
        assert len(trace) >= 1_000_000
        return simulate_fleet(trace, pools)

    report = benchmark.pedantic(
        generate_and_simulate, rounds=1, iterations=1
    )
    assert report.offered >= 1_000_000
    assert report.completion_rate > 0.99
    benchmark.extra_info["requests"] = report.offered
    benchmark.extra_info["requests_per_s"] = round(
        report.offered / benchmark.stats.stats.median
    )


def test_fleet_10k_requests_resilient(benchmark):
    """The same >=10k-request day with every protection mechanism on.

    Gates the overhead of the resilience layer's hot-path hooks
    (admission checks, breaker bookkeeping, hedge events, brownout
    ticks) relative to ``test_fleet_10k_requests``.
    """
    from repro.serving.faults import RetryPolicy, generate_faults
    from repro.serving.fleet import (
        PoolSpec,
        affine_batch_latency,
        simulate_fleet,
    )
    from repro.serving.resilience import (
        AdmissionConfig,
        BrownoutConfig,
        CircuitBreakerConfig,
        DegradedRung,
        HedgeConfig,
        ResilienceConfig,
    )
    from repro.serving.workload import WorkloadMix, generate_requests

    mix = WorkloadMix(
        shares={"sd": 0.7, "muse": 0.3},
        service_s={"sd": 2.0, "muse": 0.5},
    )
    requests = generate_requests(
        mix, arrival_rate=20.0, duration_s=600.0, seed=7
    )
    assert len(requests) >= 10_000
    pools = [
        PoolSpec(
            name="a100",
            machine="dgx-a100-80g",
            servers=32,
            latency_fns={
                model: affine_batch_latency(
                    time, marginal_fraction=0.7
                )
                for model, time in mix.service_s.items()
            },
            max_batch=8,
        )
    ]
    retry = RetryPolicy(
        max_retries=2, backoff_s=1.0, multiplier=2.0, jitter=0.5
    )
    faults = generate_faults(
        servers=32, duration_s=600.0, seed=13,
        crash_rate_per_hour=3.0, straggler_rate_per_hour=3.0,
    )
    resilience = ResilienceConfig(
        admission=AdmissionConfig(max_queue_depth=256),
        breaker=CircuitBreakerConfig(
            failure_threshold=3, window_s=60.0, cooldown_s=30.0,
            slow_factor=2.5,
        ),
        hedge=HedgeConfig(quantile=95.0, min_samples=50),
        brownout=BrownoutConfig(
            rungs=(
                DegradedRung(
                    label="fast",
                    latency_fns={
                        model: affine_batch_latency(
                            0.6 * time, marginal_fraction=0.7
                        )
                        for model, time in mix.service_s.items()
                    },
                    quality=0.8,
                ),
            ),
            step_down_backlog=4.0,
            step_up_backlog=1.0,
            check_interval_s=5.0,
        ),
    )

    report = benchmark.pedantic(
        simulate_fleet,
        args=(requests, pools),
        kwargs={
            "retry": retry, "faults": faults, "resilience": resilience,
        },
        rounds=FLEET_10K_ROUNDS,
        iterations=1,
    )
    assert report.offered >= 10_000
    assert report.offered == (
        len(report.completed) + len(report.failed) + len(report.shed)
    )


def test_fleet_10k_requests_chaos_campaign(benchmark):
    """The same >=10k-request day under a compiled chaos campaign.

    The 32 servers are spread over four zone pools; the campaign
    takes one zone down mid-day (staggered crashes) and degrades a
    rack link late, with recovery orchestration compiling cordon/
    uncordon plans and staggered re-admission.  Gates the cost of the
    domain-fault machinery end to end — campaign compilation plus the
    extra crash/straggler/control events through the event heap —
    relative to the fault-free ``test_fleet_10k_requests``.
    """
    from repro.serving.chaos import ChaosCampaign
    from repro.serving.domains import (
        DegradedLink,
        OrchestrationConfig,
        ZoneOutage,
        topology_for_pools,
    )
    from repro.serving.faults import RetryPolicy
    from repro.serving.fleet import (
        PoolSpec,
        affine_batch_latency,
        simulate_fleet,
    )
    from repro.serving.workload import WorkloadMix, generate_requests

    mix = WorkloadMix(
        shares={"sd": 0.7, "muse": 0.3},
        service_s={"sd": 2.0, "muse": 0.5},
    )
    requests = generate_requests(
        mix, arrival_rate=20.0, duration_s=600.0, seed=7
    )
    assert len(requests) >= 10_000
    pools = [
        PoolSpec(
            name=f"zone{zone}",
            machine="dgx-a100-80g",
            servers=8,
            latency_fns={
                model: affine_batch_latency(
                    time, marginal_fraction=0.7
                )
                for model, time in mix.service_s.items()
            },
            max_batch=8,
            zone=zone,
        )
        for zone in range(4)
    ]
    campaign = ChaosCampaign(
        topology=topology_for_pools(pools),
        events=(
            ZoneOutage(zone=1, at_s=150.0, duration_s=120.0,
                       stagger_s=6.0),
            DegradedLink(scope="rack", index=2, at_s=380.0,
                         duration_s=90.0, bandwidth_factor=0.25,
                         comm_fraction=0.3),
        ),
        duration_s=600.0,
        seed=7,
    )
    compiled = campaign.compile(
        pools=pools,
        orchestration=OrchestrationConfig(
            detection_delay_s=10.0, readmission_stagger_s=8.0
        ),
    )
    retry = RetryPolicy(max_retries=2, backoff_s=1.0, timeout_s=None)

    report = benchmark.pedantic(
        simulate_fleet,
        args=(requests, pools),
        kwargs={
            "retry": retry, "faults": compiled.faults,
            "plan": compiled.plan,
        },
        rounds=FLEET_10K_ROUNDS,
        iterations=1,
    )
    assert report.offered >= 10_000
    assert report.offered == (
        len(report.completed) + len(report.failed) + len(report.shed)
    )
