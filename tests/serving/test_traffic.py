"""Unit tests for the client-structured traffic layer.

Covers the population model (cards, properties, bursts), the scenario
library, tier assignment, trace generation invariants, the versioned
JSONL round trip, the poissonized twin, and the per-tier SLO breakdown
— including every empty-stream edge (zero clients, zero rate, idle
tiers) as first-class outputs rather than errors.
"""

import math

import numpy as np
import pytest

from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.oracle import oracle_tier_slo_report, simulate_oracle
from repro.serving.slo import tier_slo_report
from repro.serving.traffic import (
    HEAVY_TIER_FRACTION,
    MEDIUM_TIER_FRACTION,
    SCENARIOS,
    TIER_NAMES,
    AddMixWindow,
    AddRateWindow,
    BurstModel,
    ClientPopulation,
    MixWindow,
    ModelTrafficCard,
    PropertySpec,
    RateWindow,
    ScaleClients,
    ScaleRates,
    SetRamp,
    apply_scenario,
    assign_tiers,
    cards_from_mix,
    combos_for_card,
    dumps_trace,
    generate_traffic,
    image_size_spec,
    launch_day_spike,
    load_trace,
    loads_trace,
    million_user_ramp,
    poissonized,
    region_failover,
    save_trace,
    steps_spec,
    video_length_spec,
    viral_video_hour,
)
from repro.serving.workload import WorkloadMix

CARDS = (
    ModelTrafficCard(
        name="sd", base_service_s=1.5, share=0.6,
        properties=(steps_spec(),),
    ),
    ModelTrafficCard(name="muse", base_service_s=0.5, share=0.4),
)


def population(**overrides) -> ClientPopulation:
    base = dict(
        cards=CARDS, n_clients=20, mean_rate_per_client=0.05
    )
    base.update(overrides)
    return ClientPopulation(**base)


def pool(servers=4, max_batch=4) -> PoolSpec:
    return PoolSpec(
        name="p0",
        machine="dgx-a100-80g",
        servers=servers,
        latency_fns={
            "sd": affine_batch_latency(1.5),
            "muse": affine_batch_latency(0.5),
        },
        max_batch=max_batch,
    )


class TestPropertySpec:
    def test_factories_scale_from_cheapest(self):
        image = image_size_spec()
        assert image.scales[0] == pytest.approx(1.0)
        assert image.scales[2] == pytest.approx((1024 / 512) ** 2)
        assert steps_spec().scales == pytest.approx((1.0, 1.5, 2.5))
        assert video_length_spec().scales == pytest.approx(
            (1.0, 2.0, 4.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PropertySpec("x", (1.0,), (0.5,), (1.0, 2.0))
        with pytest.raises(ValueError):
            PropertySpec("x", (1.0, 2.0), (0.5, 0.4), (1.0, 2.0))
        with pytest.raises(ValueError):
            PropertySpec("x", (1.0,), (1.0,), (0.0,))
        with pytest.raises(ValueError):
            PropertySpec("", (1.0,), (1.0,), (1.0,))


class TestCombos:
    def test_card_without_properties_has_identity_combo(self):
        (combo,) = combos_for_card(CARDS[1])
        assert combo.props == ()
        assert combo.scale == 1.0
        assert combo.weight == 1.0

    def test_cartesian_product_sorted_cheapest_first(self):
        card = ModelTrafficCard(
            name="sd", base_service_s=1.0, share=1.0,
            properties=(image_size_spec(), steps_spec()),
        )
        combos = combos_for_card(card)
        assert len(combos) == 9
        scales = [combo.scale for combo in combos]
        assert scales == sorted(scales)
        assert sum(c.weight for c in combos) == pytest.approx(1.0)

    def test_props_canonically_sorted_by_name(self):
        card = ModelTrafficCard(
            name="v", base_service_s=1.0, share=1.0,
            properties=(video_length_spec(), image_size_spec()),
        )
        for combo in combos_for_card(card):
            names = [name for name, _ in combo.props]
            assert names == sorted(names)


class TestBurstModel:
    def test_stationary_mean_multiplier_is_unity(self):
        burst = BurstModel(
            mean_on_s=60.0, mean_off_s=540.0, on_factor=6.0
        )
        mean = (
            burst.p_on * burst.on_factor
            + (1.0 - burst.p_on) * burst.off_factor
        )
        assert mean == pytest.approx(1.0)

    def test_on_factor_capped_by_stationary_share(self):
        # p_on = 0.5 allows on_factor up to 2.
        BurstModel(mean_on_s=10.0, mean_off_s=10.0, on_factor=2.0)
        with pytest.raises(ValueError):
            BurstModel(mean_on_s=10.0, mean_off_s=10.0, on_factor=2.5)
        with pytest.raises(ValueError):
            BurstModel(mean_on_s=0.0, mean_off_s=10.0, on_factor=1.5)
        with pytest.raises(ValueError):
            BurstModel(mean_on_s=10.0, mean_off_s=10.0, on_factor=0.5)


class TestPopulation:
    def test_validation(self):
        with pytest.raises(ValueError):
            population(cards=())
        with pytest.raises(ValueError):
            population(cards=(CARDS[0], CARDS[0]))
        bad_shares = (
            ModelTrafficCard("sd", 1.0, 0.6),
            ModelTrafficCard("muse", 1.0, 0.6),
        )
        with pytest.raises(ValueError):
            population(cards=bad_shares)
        with pytest.raises(ValueError):
            population(n_clients=-1)
        with pytest.raises(ValueError):
            population(mean_rate_per_client=-0.1)
        with pytest.raises(ValueError):
            population(tail_alpha=1.0)
        with pytest.raises(ValueError):
            population(model_loyalty=1.5)
        with pytest.raises(ValueError):
            population(service_jitter=1.0)
        with pytest.raises(ValueError):
            population(mix_windows=(
                MixWindow(0.0, 10.0, model="phantom", boost=2.0),
            ))

    def test_mean_service_weights_shares_and_combos(self):
        # sd: 1.5 s * (0.5*1 + 0.4*1.5 + 0.1*2.5) = 1.5 * 1.35
        # muse: 0.5 s.  Population mean: 0.6*2.025 + 0.4*0.5.
        assert population().mean_service_s() == pytest.approx(
            0.6 * 1.5 * 1.35 + 0.4 * 0.5
        )

    def test_cards_from_mix_preserves_order_and_shapes(self):
        mix = WorkloadMix(
            shares={"sd": 0.7, "muse": 0.3},
            service_s={"sd": 2.0, "muse": 0.5},
        )
        cards = cards_from_mix(mix, {"sd": (steps_spec(),)})
        assert tuple(card.name for card in cards) == ("sd", "muse")
        assert cards[0].properties == (steps_spec(),)
        assert cards[1].properties == ()
        assert cards[0].base_service_s == 2.0


class TestScenarios:
    def test_edits_validate_their_parameters(self):
        with pytest.raises(ValueError):
            ScaleRates(-1.0)
        with pytest.raises(ValueError):
            ScaleClients(-0.5)
        with pytest.raises(ValueError):
            SetRamp(-1.0)
        with pytest.raises(ValueError):
            AddRateWindow(RateWindow(0.0, 10.0, multiplier=-1.0))
        with pytest.raises(ValueError):
            AddMixWindow(MixWindow(0.0, 0.0, model="sd", boost=1.0))

    def test_apply_scenario_folds_left_to_right(self):
        pop = apply_scenario(
            population(), (ScaleRates(2.0), ScaleRates(3.0))
        )
        assert pop.mean_rate_per_client == pytest.approx(0.3)

    def test_library_factories_produce_valid_edits(self):
        pop = population()
        for name, factory in SCENARIOS.items():
            edits = (
                factory(600.0, "sd") if name == "viral_video_hour"
                else factory(600.0)
            )
            edited = apply_scenario(pop, edits)
            trace = generate_traffic(edited, duration_s=60.0, seed=1)
            assert trace.duration_s == 60.0

    def test_launch_day_spike_shape(self):
        (edit,) = launch_day_spike(1000.0)
        assert edit.window.start_s == pytest.approx(400.0)
        assert edit.window.duration_s == pytest.approx(200.0)
        assert edit.window.multiplier == pytest.approx(3.0)

    def test_region_failover_steps_up_second_half(self):
        (edit,) = region_failover(1000.0)
        assert edit.window.start_s == pytest.approx(500.0)
        assert edit.window.multiplier == pytest.approx(1.8)

    def test_viral_video_hour_boosts_mix_and_rate(self):
        mix_edit, rate_edit = viral_video_hour(1000.0, "muse")
        assert mix_edit.window.model == "muse"
        assert mix_edit.window.boost == pytest.approx(4.0)
        assert rate_edit.window.multiplier == pytest.approx(1.5)

    def test_million_user_ramp_grows_and_ramps(self):
        pop = apply_scenario(
            population(), million_user_ramp(1000.0, growth=4.0)
        )
        assert pop.n_clients == 80
        assert pop.ramp_s == pytest.approx(800.0)


class TestTiers:
    def test_rank_cut_sizes(self):
        rates = np.linspace(1.0, 0.1, 100)
        tiers = assign_tiers(rates)
        heavy = int((tiers == TIER_NAMES.index("heavy")).sum())
        medium = int((tiers == TIER_NAMES.index("medium")).sum())
        assert heavy == math.ceil(HEAVY_TIER_FRACTION * 100)
        assert medium == math.ceil(MEDIUM_TIER_FRACTION * 100)
        # Highest-rate client is heavy; lowest is light.
        assert tiers[0] == TIER_NAMES.index("heavy")
        assert tiers[-1] == TIER_NAMES.index("light")

    def test_ties_break_by_client_id(self):
        tiers = assign_tiers(np.ones(10))
        assert tiers[0] == TIER_NAMES.index("heavy")
        assert (
            tiers.tolist().count(TIER_NAMES.index("heavy")) == 1
        )

    def test_empty_population(self):
        assert assign_tiers(np.array([])).tolist() == []


class TestGenerate:
    def test_stream_invariants(self):
        trace = generate_traffic(
            population(n_clients=50, mean_rate_per_client=0.1),
            duration_s=300.0,
            seed=2,
        )
        arrivals = trace.batch.arrival_s
        assert (np.diff(arrivals) >= 0).all()
        assert arrivals.min() >= 0.0 and arrivals.max() <= 300.0
        assert trace.batch.request_ids.tolist() == list(
            range(len(trace))
        )
        assert trace.client_ids.min() >= 0
        assert trace.client_ids.max() < trace.n_clients
        assert (trace.batch.service_s > 0).all()

    def test_service_times_match_combo_scales_within_jitter(self):
        trace = generate_traffic(
            population(service_jitter=0.1), duration_s=600.0, seed=3
        )
        for i in range(len(trace)):
            model_id = int(trace.batch.model_ids[i])
            combo = trace.combos[model_id][int(trace.combo_ids[i])]
            base = CARDS[model_id].base_service_s * combo.scale
            service = float(trace.batch.service_s[i])
            assert base * 0.9 - 1e-9 <= service <= base * 1.1 + 1e-9

    def test_ramp_delays_late_clients(self):
        pop = population(
            n_clients=10, mean_rate_per_client=1.0, ramp_s=500.0
        )
        trace = generate_traffic(pop, duration_s=600.0, seed=4)
        for i in range(len(trace)):
            client = int(trace.client_ids[i])
            activation = 500.0 * client / 10
            assert trace.batch.arrival_s[i] >= activation - 1e-9

    def test_blackout_window_silences_traffic(self):
        pop = population(
            n_clients=30,
            mean_rate_per_client=0.5,
            rate_windows=(RateWindow(100.0, 100.0, multiplier=0.0),),
        )
        trace = generate_traffic(pop, duration_s=300.0, seed=5)
        arrivals = trace.batch.arrival_s
        assert len(trace) > 0
        assert not ((arrivals > 100.0) & (arrivals < 200.0)).any()

    def test_empty_streams_are_valid(self):
        zero_rate = generate_traffic(
            population(mean_rate_per_client=0.0),
            duration_s=100.0, seed=0,
        )
        assert len(zero_rate) == 0
        assert zero_rate.n_clients == 20
        no_clients = generate_traffic(
            population(n_clients=0), duration_s=100.0, seed=0
        )
        assert len(no_clients) == 0
        assert no_clients.n_clients == 0
        assert no_clients.offered_rate == 0.0

    def test_full_loyalty_single_model_population(self):
        cards = (ModelTrafficCard("sd", 1.0, 1.0),)
        trace = generate_traffic(
            population(cards=cards, model_loyalty=1.0),
            duration_s=300.0, seed=6,
        )
        assert set(trace.batch.model_ids.tolist()) <= {0}


class TestRoundTrip:
    def roundtrip(self, trace):
        text = dumps_trace(trace)
        again = loads_trace(text)
        assert dumps_trace(again) == text
        return again

    def test_lossless_and_byte_stable(self):
        trace = generate_traffic(
            population(burst=BurstModel(30.0, 120.0, 4.0)),
            duration_s=300.0, seed=7,
        )
        again = self.roundtrip(trace)
        assert again.models == trace.models
        assert again.combos == trace.combos
        np.testing.assert_array_equal(
            again.batch.arrival_s, trace.batch.arrival_s
        )
        np.testing.assert_array_equal(
            again.batch.service_s, trace.batch.service_s
        )
        np.testing.assert_array_equal(
            again.client_ids, trace.client_ids
        )
        np.testing.assert_array_equal(
            again.combo_ids, trace.combo_ids
        )
        np.testing.assert_array_equal(
            again.client_rates, trace.client_rates
        )
        np.testing.assert_array_equal(
            again.client_tiers, trace.client_tiers
        )
        assert again.meta == trace.meta

    def test_empty_trace_roundtrips(self):
        trace = generate_traffic(
            population(n_clients=0), duration_s=50.0, seed=0
        )
        assert len(self.roundtrip(trace)) == 0

    def test_file_roundtrip(self, tmp_path):
        trace = generate_traffic(population(), duration_s=120.0, seed=8)
        path = tmp_path / "t.jsonl"
        save_trace(trace, str(path))
        save_trace(load_trace(str(path)), str(tmp_path / "t2.jsonl"))
        assert path.read_bytes() == (tmp_path / "t2.jsonl").read_bytes()

    def test_parser_rejects_malformed_traces(self):
        trace = generate_traffic(population(), duration_s=60.0, seed=9)
        text = dumps_trace(trace)
        with pytest.raises(ValueError):
            loads_trace("")
        with pytest.raises(ValueError):
            loads_trace(text.replace(
                '"repro-traffic-trace"', '"other"'
            ))
        with pytest.raises(ValueError):
            loads_trace(text.replace('"version":1', '"version":99'))
        lines = text.splitlines()
        with pytest.raises(ValueError):
            loads_trace("\n".join(lines[1:]) + "\n")  # header gone
        with pytest.raises(ValueError):
            loads_trace("\n".join(lines[:1] + lines[2:]) + "\n")
        with pytest.raises(ValueError):
            loads_trace(
                text + '{"kind":"mystery"}\n'
            )


class TestPoissonized:
    def test_same_request_multiset_different_arrivals(self):
        trace = generate_traffic(
            population(burst=BurstModel(30.0, 120.0, 4.0)),
            duration_s=300.0, seed=10,
        )
        twin = poissonized(trace, seed=11)
        assert len(twin) == len(trace)
        key = lambda t: sorted(zip(  # noqa: E731
            t.batch.model_ids.tolist(),
            t.batch.service_s.tolist(),
        ))
        assert key(twin) == key(trace)
        assert (np.diff(twin.batch.arrival_s) >= 0).all()
        assert twin.batch.arrival_s.max() <= trace.duration_s
        assert twin.n_clients == 1

    def test_deterministic_in_seed(self):
        trace = generate_traffic(population(), duration_s=300.0, seed=1)
        assert dumps_trace(poissonized(trace, seed=5)) == dumps_trace(
            poissonized(trace, seed=5)
        )
        assert dumps_trace(poissonized(trace, seed=5)) != dumps_trace(
            poissonized(trace, seed=6)
        )


class TestTierSloReport:
    def run_trace(self, trace):
        deadlines = {"sd": 6.0, "muse": 2.0}
        report = simulate_fleet(trace, [pool()])
        return tier_slo_report(report, trace, deadlines)

    def test_rows_partition_offered_requests(self):
        trace = generate_traffic(
            population(n_clients=40, mean_rate_per_client=0.1),
            duration_s=300.0, seed=12,
        )
        tiers = self.run_trace(trace)
        assert tuple(e.tier for e in tiers.per_tier) == TIER_NAMES
        assert sum(e.offered for e in tiers.per_tier) == len(trace)
        assert sum(e.clients for e in tiers.per_tier) == 40

    def test_engines_agree_on_tier_breakdown(self):
        trace = generate_traffic(
            population(burst=BurstModel(30.0, 120.0, 4.0)),
            duration_s=300.0, seed=13,
        )
        deadlines = {"sd": 6.0, "muse": 2.0}
        production = tier_slo_report(
            simulate_fleet(trace, [pool()]), trace, deadlines
        )
        oracle = simulate_oracle(trace, [pool()])
        assert production == oracle_tier_slo_report(
            oracle, trace, deadlines
        )
        assert sum(e.offered for e in production.per_tier) == len(trace)

    def test_empty_trace_renders_all_dashes(self):
        trace = generate_traffic(
            population(n_clients=0), duration_s=60.0, seed=0
        )
        tiers = self.run_trace(trace)
        for entry in tiers.per_tier:
            assert entry.offered == 0
            assert entry.p50_s is None
            assert entry.goodput is None
        rendered = tiers.render()
        assert "—" in rendered
        assert "heavy" in rendered and "light" in rendered

    def test_idle_tier_reported_not_skipped(self):
        # 2 clients: one heavy, one medium, zero light — the light row
        # must still exist with None percentiles.
        trace = generate_traffic(
            population(n_clients=2, mean_rate_per_client=0.2),
            duration_s=200.0, seed=14,
        )
        tiers = self.run_trace(trace)
        assert tiers.tier("light").clients == 0
        assert tiers.tier("light").p95_s is None

    def test_requires_a_trace_and_valid_ids(self):
        trace = generate_traffic(population(), duration_s=60.0, seed=15)
        report = simulate_fleet(trace, [pool()])
        with pytest.raises(TypeError):
            tier_slo_report(report, object(), 5.0)
        with pytest.raises(ValueError):
            tiers = tier_slo_report(report, trace, 5.0)
            tiers.tier("platinum")
