"""The four benchmark workloads, each split into set-up and a measured phase.

A workload is three functions:

* ``setup(seed)`` - imports done, builds everything the measured phase
  needs that a user would build once (pools, populations, generated
  inputs).  Its time is ``setup_s``.
* ``measure(state, rec)`` - the timed calls into the simulator, each
  inside ``rec.span(...)``.  Returns the outputs and the layer counts.
* ``check(state, out)`` - untimed output checks.  Returns the digest
  compared with ``reference.json`` and the list of failed checks.

Only public names of the simulator's packages are used.  profile-suite
and plan-sweep have no randomness: they ignore the seed.  The two fleet
workloads draw their traffic, chaos campaign and retry jitter from it.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import numpy as np

from repro.distributed import PlannerBasis, ParallelConfig, plan_parallelism
from repro.distributed import strong_scaling
from repro.experiments.fig12_cache import attention_configs
from repro.ir.context import AttentionImpl
from repro.kernels import simulate_attention_cache
from repro.kernels.cache import cost_cache_stats
from repro.models.registry import build_model, suite_names, variant_names
from repro.obs import (
    Telemetry,
    dumps_telemetry,
    evaluate_alerts,
    loads_telemetry,
    telemetry_to_chrome_trace,
)
from repro.profiler import (
    batch_sweep,
    profile_model,
    step_sweep,
    suite_kv_cache_bytes,
)
from repro.serving import (
    AdmissionConfig,
    BrownoutConfig,
    BurstModel,
    ChaosCampaign,
    CircuitBreakerConfig,
    ClientPopulation,
    DegradedLink,
    DegradedRung,
    HedgeConfig,
    OrchestrationConfig,
    PoolSpec,
    ResilienceConfig,
    RetryPolicy,
    WorkloadMix,
    ZoneOutage,
    affine_batch_latency,
    apply_scenario,
    cards_from_mix,
    ScaleRates,
    check_invariants,
    domain_slo_report,
    dumps_trace,
    generate_traffic,
    launch_day_spike,
    loads_trace,
    simulate_fleet,
    slo_report,
    topology_for_pools,
)


def sha(text: str | bytes) -> str:
    """Hex sha256 of a string or bytes."""
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def cache_counters() -> dict[str, int]:
    """Kernel-cost cache counters, read at span boundaries."""
    stats = cost_cache_stats()
    return {
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_entries": stats.entries,
    }


def _cache_counts(before: dict[str, int]) -> dict[str, float]:
    after = cache_counters()
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    lookups = hits + misses
    return {
        "kernels.cache_lookups": lookups,
        "kernels.cache_hits": hits,
        "kernels.cache_misses": misses,
        "kernels.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "kernels.cache_entries": (
            after["cache_entries"] - before["cache_entries"]
        ),
    }


# -- profile-suite ----------------------------------------------------------

ATTENTION_IMPLS = (AttentionImpl.BASELINE, AttentionImpl.FLASH)
BATCHES = (1, 4)
STEPS = (10, 25, 50)
# Registry models with a denoising loop for step_sweep to scale.
DIFFUSION = frozenset({
    "imagen", "stable_diffusion", "prod_image", "make_a_video",
    "stable_diffusion@256", "stable_diffusion@768",
})


def profile_suite_setup(seed: int) -> dict:
    # Every model is built inside the measured phase: users pay for
    # model construction and cold profiling on every CLI run.
    return {"names": suite_names() + variant_names()}


def profile_suite_measure(state: dict, rec) -> tuple[dict, dict]:
    before = cache_counters()
    totals: dict[str, list[float]] = {}
    steps: dict[str, list[float]] = {}
    profiles = events = 0
    for name in state["names"]:
        with rec.span("models.build"):
            model = build_model(name)
        for impl in ATTENTION_IMPLS:
            for batch in BATCHES:
                with rec.span("profiler.profile"):
                    result = profile_model(
                        model, attention_impl=impl, batch=batch
                    )
                profiles += 1
                events += len(result.trace)
            # The profiles above are memoized, so the sweep itself only
            # evaluates them.
            with rec.span("profiler.sweep"):
                sweep = batch_sweep(model, BATCHES, attention_impl=impl)
            for index, batch in enumerate(BATCHES):
                totals[f"{name}/{impl.name}/b{batch}"] = [
                    float(sweep.time_s[index]),
                    float(sweep.flops[index]),
                    float(sweep.moved_bytes[index]),
                ]
        if name in DIFFUSION:
            with rec.span("profiler.sweep"):
                swept = step_sweep(profile_model(model), STEPS)
            steps[name] = [float(value) for value in swept.time_s]
    spatial, temporal = attention_configs()
    cache_sim = []
    for info in (spatial, temporal):
        with rec.span("hw.cache_sim"):
            cache_sim.append(repr(simulate_attention_cache(info)))
    counts = {
        "profiler.profiles": profiles,
        "ir.trace_events": events,
        **_cache_counts(before),
    }
    out = {"totals": totals, "steps": steps, "cache_sim": cache_sim}
    return out, counts


def profile_suite_check(state: dict, out: dict) -> tuple[dict, list[str]]:
    failures = []
    expected = len(state["names"]) * len(ATTENTION_IMPLS) * len(BATCHES)
    if len(out["totals"]) != expected:
        failures.append(f"profiled {len(out['totals'])} of {expected}")
    if any(value <= 0 for row in out["totals"].values() for value in row):
        failures.append("non-positive profile total")
    digest = {
        "totals": out["totals"],
        "steps": out["steps"],
        "cache_sim": sha("\n".join(out["cache_sim"])),
    }
    return digest, failures


# -- plan-sweep -------------------------------------------------------------

PLAN_MODELS = ("stable_diffusion", "muse", "make_a_video")
PLAN_MACHINES = ("dgx-a100-80g", "dgx-h100")
GPU_BUDGET = 8
GLOBAL_BATCH = 8
MICROBATCHES = (1, 2, 4, 8)
CONFIGS_PER_SEARCH = 66
BASELINE = ParallelConfig(tp=8)
SCALING_WORLDS = (1, 2, 4, 8)


def plan_sweep_setup(seed: int) -> dict:
    return {}


def plan_sweep_measure(state: dict, rec) -> tuple[dict, dict]:
    before = cache_counters()
    searches = {}
    stats = {"trace_profiles": 0, "axis_builds": 0, "configs_costed": 0}
    events = 0
    models = {}
    for name in PLAN_MODELS:
        with rec.span("models.build"):
            models[name] = model = build_model(name)
        kv_bytes = suite_kv_cache_bytes(name, model)
        for machine in PLAN_MACHINES:
            basis = PlannerBasis(model, machine, kv_bytes=kv_bytes)
            # The planner's own profiling, done through the basis so
            # the search below finds the traces cached.
            for batch in MICROBATCHES:
                with rec.span("profiler.profile"):
                    events += len(basis.trace(batch))
            with rec.span("distributed.plan"):
                result = plan_parallelism(
                    model, machine=machine, gpu_budget=GPU_BUDGET,
                    global_batch=GLOBAL_BATCH, basis=basis,
                )
            with rec.span("distributed.cost_config"):
                baseline = basis.cost_config(
                    BASELINE, global_batch=GLOBAL_BATCH
                )
            searches[f"{name}/{machine}"] = (result, baseline)
            for key in stats:
                stats[key] += basis.stats[key]
    with rec.span("distributed.strong_scaling"):
        scaling = strong_scaling(
            models["stable_diffusion"], "dgx-a100-80g", SCALING_WORLDS
        )
    counts = {
        "ir.trace_events": events,
        "profiler.profiles": stats["trace_profiles"],
        "distributed.trace_profiles": stats["trace_profiles"],
        "distributed.axis_builds": stats["axis_builds"],
        "distributed.configs_costed": stats["configs_costed"],
        **_cache_counts(before),
    }
    return {"searches": searches, "scaling": scaling}, counts


def plan_sweep_check(state: dict, out: dict) -> tuple[dict, list[str]]:
    failures = []
    digest = {}
    for key, (result, baseline) in out["searches"].items():
        if len(result.points) != CONFIGS_PER_SEARCH:
            failures.append(
                f"{key}: {len(result.points)} configs, "
                f"expected {CONFIGS_PER_SEARCH}"
            )
        if not result.frontier:
            failures.append(f"{key}: empty frontier")
            continue
        digest[key] = {
            "frontier": sha(repr(result.frontier)),
            "best_throughput": repr(result.best_throughput().config),
            "best_throughput_rps": result.best_throughput().throughput_rps,
            "best_latency": repr(result.best_latency().config),
            "best_latency_s": result.best_latency().latency_s,
            "tp8_rps": baseline.throughput_rps,
        }
    digest["strong_scaling"] = [point.time_s for point in out["scaling"]]
    return digest, failures


# -- shared fleet pieces ----------------------------------------------------

MIX = WorkloadMix(
    shares={"sd": 0.7, "muse": 0.3},
    service_s={"sd": 2.0, "muse": 0.5},
)
DEADLINES = {model: 3.0 * time for model, time in MIX.service_s.items()}
# Pareto client rates with a finite-variance tail.  Even with each day
# scaled to a fixed expected size (see sized()), the bursts of a few
# heavy clients move the size of an alpha = 1.8 day by ~3% between
# seeds, and the host time with it; alpha = 3 keeps it near 1%.
TAIL_ALPHA = 3.0


def _latency_fns(scale: float = 1.0) -> dict:
    return {
        model: affine_batch_latency(scale * time, marginal_fraction=0.7)
        for model, time in MIX.service_s.items()
    }


def sized(population, *, duration_s: float, probe_s: float, seed: int,
          target: int):
    """``population`` with rates scaled so its traffic at ``seed`` has
    about ``target`` requests over ``duration_s``.

    A probe of ``probe_s`` draws the same per-client rates (they are the
    generator's first draw), so the scaled day keeps the seed's clients
    and only the burst and arrival noise moves its size - the day's size,
    and the host time to simulate it, barely depend on the seed.
    """
    probe = len(generate_traffic(population, duration_s=probe_s, seed=seed))
    factor = target * probe_s / (max(probe, 1) * duration_s)
    return apply_scenario(population, (ScaleRates(factor),))


def terminal_counts(report) -> dict[str, int]:
    """Terminal-state counts of either fleet report representation."""
    if hasattr(report, "comp_req"):  # columnar struct of arrays
        completed = len(report.comp_req)
        failed = len(report.fail_req)
        shed = len(report.shed_req)
        retried = int(np.count_nonzero(report.comp_attempts > 1))
    else:
        completed = len(report.completed)
        failed = len(report.failed)
        shed = len(report.shed)
        retried = report.retried_count
    return {
        "offered": report.offered,
        "completed": completed,
        "failed": failed,
        "shed": shed,
        "retried": retried,
    }


def _fleet_counts(report, requests: int) -> dict[str, float]:
    terminal = terminal_counts(report)
    launched = report.resilience.hedges_launched
    wins = report.resilience.hedge_wins
    return {
        "traffic.requests": requests,
        "fleet.completed": terminal["completed"],
        "fleet.failed": terminal["failed"],
        "fleet.shed": terminal["shed"],
        "fleet.retried": terminal["retried"],
        "fleet.hedges_launched": launched,
        "fleet.hedge_wins": wins,
        "fleet.hedge_win_ratio": wins / launched if launched else 0.0,
    }


def _fleet_digest(report, slo) -> tuple[dict, list[str]]:
    terminal = terminal_counts(report)
    failures = []
    if terminal["offered"] != (
        terminal["completed"] + terminal["failed"] + terminal["shed"]
    ):
        failures.append(f"offered != completed + failed + shed: {terminal}")
    digest = {
        "terminal": terminal,
        "resilience": repr(report.resilience),
        "makespan_s": report.makespan_s,
        "slo": sha(repr(slo)),
    }
    return digest, failures


# -- fleet-day --------------------------------------------------------------

DAY_S = 86_400.0
DAY_REQUESTS = 1_000_000


def fleet_day_setup(seed: int) -> dict:
    population = sized(
        ClientPopulation(
            cards=cards_from_mix(MIX),
            n_clients=2000,
            mean_rate_per_client=0.0061,
            tail_alpha=TAIL_ALPHA,
            burst=BurstModel(
                mean_on_s=600.0, mean_off_s=1200.0, on_factor=2.0
            ),
            model_loyalty=0.3,
        ),
        duration_s=DAY_S, probe_s=DAY_S / 4, seed=seed, target=DAY_REQUESTS,
    )
    pools = [
        PoolSpec(
            name="a100", machine="dgx-a100-80g", servers=20,
            latency_fns=_latency_fns(), max_batch=8,
        )
    ]
    kwargs = {}
    # The hot loop this workload targets is the columnar engine's; pass
    # the selector only while simulate_fleet still has one.
    if "engine" in inspect.signature(simulate_fleet).parameters:
        kwargs["engine"] = "columnar"
    return {
        "seed": seed, "population": population, "pools": pools,
        "kwargs": kwargs,
    }


def fleet_day_measure(state: dict, rec) -> tuple[dict, dict]:
    with rec.span("traffic.generate"):
        trace = generate_traffic(
            state["population"], duration_s=DAY_S, seed=state["seed"]
        )
    with rec.span("fleet.simulate"):
        report = simulate_fleet(trace, state["pools"], **state["kwargs"])
    with rec.span("slo.report"):
        slo = slo_report(report, DEADLINES)
    counts = _fleet_counts(report, len(trace))
    return {"trace": trace, "report": report, "slo": slo}, counts


def fleet_day_check(state: dict, out: dict) -> tuple[dict, list[str]]:
    digest, failures = _fleet_digest(out["report"], out["slo"])
    if out["report"].offered != len(out["trace"]):
        failures.append("fleet offered != generated requests")
    return digest, failures


# -- fleet-resilient --------------------------------------------------------

SPIKE_S = 1200.0
SPIKE_REQUESTS = 20_000
ZONES = 4
SERVERS_PER_ZONE = 8


def fleet_resilient_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    population = sized(
        apply_scenario(
            ClientPopulation(
                cards=cards_from_mix(MIX),
                n_clients=2000,
                mean_rate_per_client=0.006,
                tail_alpha=TAIL_ALPHA,
                burst=BurstModel(
                    mean_on_s=20.0, mean_off_s=60.0, on_factor=3.0
                ),
                model_loyalty=0.5,
            ),
            launch_day_spike(SPIKE_S),
        ),
        duration_s=SPIKE_S, probe_s=SPIKE_S, seed=seed,
        target=SPIKE_REQUESTS,
    )
    trace = generate_traffic(population, duration_s=SPIKE_S, seed=seed)
    pools = [
        PoolSpec(
            name=f"zone{zone}", machine="dgx-a100-80g",
            servers=SERVERS_PER_ZONE, latency_fns=_latency_fns(),
            max_batch=8, max_servers=SERVERS_PER_ZONE + 2, zone=zone,
        )
        for zone in range(ZONES)
    ]
    # The seed places the outage and the degraded link.
    campaign = ChaosCampaign(
        topology=topology_for_pools(pools),
        events=(
            ZoneOutage(
                zone=int(rng.integers(ZONES)),
                at_s=float(rng.uniform(0.15, 0.35)) * SPIKE_S,
                duration_s=0.1 * SPIKE_S, stagger_s=6.0,
            ),
            DegradedLink(
                scope="rack", index=int(rng.integers(ZONES)),
                at_s=float(rng.uniform(0.6, 0.75)) * SPIKE_S,
                duration_s=0.08 * SPIKE_S, bandwidth_factor=0.25,
                comm_fraction=0.3,
            ),
        ),
        duration_s=SPIKE_S,
        seed=seed,
    )
    retry = RetryPolicy(
        max_retries=3, backoff_s=0.5, multiplier=2.0, max_backoff_s=4.0,
        jitter=float(rng.uniform(0.25, 0.75)), timeout_s=30.0,
    )
    brownout = BrownoutConfig(
        rungs=(
            DegradedRung(
                label="fast", latency_fns=_latency_fns(0.6), quality=0.8
            ),
        ),
        step_down_backlog=4.0,
        step_up_backlog=1.0,
        check_interval_s=5.0,
        dwell_s=10.0,
    )
    resilience = ResilienceConfig(
        admission=AdmissionConfig(
            max_queue_depth=64,
            wait_budget_s={
                model: 2.0 * deadline for model, deadline in DEADLINES.items()
            },
        ),
        breaker=CircuitBreakerConfig(
            failure_threshold=3, window_s=60.0, cooldown_s=30.0,
            slow_factor=2.5,
        ),
        hedge=HedgeConfig(quantile=95.0, min_samples=30),
        brownout=brownout,
    )
    return {
        "trace": trace, "pools": pools, "campaign": campaign,
        "retry": retry, "resilience": resilience,
    }


ORCHESTRATION = OrchestrationConfig(
    detection_delay_s=10.0, readmission_stagger_s=8.0, promote_stagger_s=2.0
)


def fleet_resilient_measure(state: dict, rec) -> tuple[dict, dict]:
    with rec.span("traffic.dumps"):
        trace_text = dumps_trace(state["trace"])
    with rec.span("traffic.loads"):
        trace = loads_trace(trace_text)
    with rec.span("chaos.compile"):
        compiled = state["campaign"].compile(
            pools=state["pools"], orchestration=ORCHESTRATION
        )
    telemetry = Telemetry(sample_interval_s=5.0)
    with rec.span("fleet.simulate"):
        report = simulate_fleet(
            trace, state["pools"], retry=state["retry"],
            faults=compiled.faults, plan=compiled.plan,
            resilience=state["resilience"], telemetry=telemetry,
        )
    with rec.span("slo.report"):
        slo = slo_report(report, DEADLINES)
    with rec.span("slo.domain"):
        domains = domain_slo_report(report, compiled)
    with rec.span("chaos.invariants"):
        # check_invariants takes requests or a RequestBatch, not a trace.
        invariants = check_invariants(
            trace.batch, report, brownout=state["resilience"].brownout
        )
    with rec.span("obs.log"):
        log = telemetry.log()
    with rec.span("obs.dumps"):
        telemetry_text = dumps_telemetry(log)
    with rec.span("obs.loads"):
        loaded = loads_telemetry(telemetry_text)
    with rec.span("obs.perfetto"):
        chrome = telemetry_to_chrome_trace(loaded)
    with rec.span("obs.alerts"):
        alerts = evaluate_alerts(loaded, DEADLINES)
    counts = {
        **_fleet_counts(report, len(trace)),
        "traffic.bytes": len(trace_text.encode()),
        "obs.spans": len(log.spans),
        "obs.bytes": len(telemetry_text.encode()),
    }
    out = {
        "trace": trace, "trace_text": trace_text, "report": report,
        "slo": slo, "domains": domains, "invariants": invariants,
        "telemetry_text": telemetry_text, "loaded": loaded,
        "chrome": chrome, "alerts": alerts,
    }
    return out, counts


def fleet_resilient_check(state: dict, out: dict) -> tuple[dict, list[str]]:
    digest, failures = _fleet_digest(out["report"], out["slo"])
    if not out["invariants"].ok:
        failures.append(f"invariants violated: {out['invariants']!r}")
    if dumps_trace(out["trace"]) != out["trace_text"]:
        failures.append("trace dumps(loads(x)) != x")
    if dumps_telemetry(out["loaded"]) != out["telemetry_text"]:
        failures.append("telemetry dumps(loads(x)) != x")
    if len(out["loaded"].spans) != out["report"].offered:
        failures.append("telemetry spans != offered requests")
    if not out["chrome"].get("traceEvents"):
        failures.append("empty Perfetto export")
    digest.update({
        "trace_sha256": sha(out["trace_text"]),
        "telemetry_sha256": sha(out["telemetry_text"]),
        "domains": sha(repr(out["domains"])),
        "alerts": sha(repr(out["alerts"])),
        "perfetto": sha(json.dumps(out["chrome"], sort_keys=True)),
    })
    return digest, failures


WORKLOADS = {
    "profile-suite": (
        profile_suite_setup, profile_suite_measure, profile_suite_check
    ),
    "plan-sweep": (plan_sweep_setup, plan_sweep_measure, plan_sweep_check),
    "fleet-day": (fleet_day_setup, fleet_day_measure, fleet_day_check),
    "fleet-resilient": (
        fleet_resilient_setup, fleet_resilient_measure, fleet_resilient_check
    ),
}

#: Workloads whose inputs do not depend on the seed.
SEEDLESS = ("profile-suite", "plan-sweep")

#: The work unit behind ``work_per_s``, per workload.
WORK_UNITS = {
    "profile-suite": "ir.trace_events",
    "plan-sweep": "distributed.configs_costed",
    "fleet-day": "traffic.requests",
    "fleet-resilient": "traffic.requests",
}
