"""SLO accounting tests: percentiles, goodput, decomposition."""

import pytest

from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.slo import percentile, slo_report
from repro.serving.workload import Request


def burst(count, spacing, service=1.0, model="sd"):
    return [
        Request(
            request_id=index, arrival_s=index * spacing, model=model,
            service_s=service,
        )
        for index in range(count)
    ]


def pool(servers=2, models=("sd",), service=1.0, **kwargs):
    return PoolSpec(
        name="p", machine="dgx-a100-80g", servers=servers,
        latency_fns={
            model: affine_batch_latency(service) for model in models
        },
        **kwargs,
    )


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 100.0) == 100.0

    def test_empty_is_none(self):
        # "No samples" must be distinguishable from a true 0.0 — an
        # all-failed model must not report a perfect p99 of 0.00 s.
        assert percentile([], 95.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestSloReport:
    def test_underloaded_all_good(self):
        report = simulate_fleet(burst(10, 5.0), [pool()])
        slo = slo_report(report, 2.0)
        assert slo.goodput == pytest.approx(1.0)
        assert slo.violation_s == 0.0
        assert slo.availability == pytest.approx(1.0)
        model = slo.model("sd")
        assert model.p50_s == pytest.approx(1.0)
        assert model.mean_service_s == pytest.approx(1.0)
        assert model.mean_queueing_s == pytest.approx(0.0)

    def test_queueing_service_decomposition_sums(self):
        report = simulate_fleet(
            burst(30, 0.3), [pool(servers=1, max_batch=1)]
        )
        slo = slo_report(report, 100.0)
        model = slo.model("sd")
        mean_latency = sum(
            record.latency_s for record in report.completed
        ) / len(report.completed)
        assert model.mean_queueing_s + model.mean_service_s == (
            pytest.approx(mean_latency)
        )
        assert model.mean_queueing_s > 0.0

    def test_tight_deadline_counts_violations(self):
        report = simulate_fleet(
            burst(30, 0.3), [pool(servers=1, max_batch=1)]
        )
        generous = slo_report(report, 1000.0)
        tight = slo_report(report, 1.5)
        assert generous.goodput == pytest.approx(1.0)
        assert tight.goodput < 1.0
        assert tight.violation_s > 0.0
        # Violation seconds are the summed excess beyond the deadline.
        excess = sum(
            max(0.0, record.latency_s - 1.5)
            for record in report.completed
        )
        assert tight.violation_s == pytest.approx(excess)

    def test_per_model_deadlines(self):
        requests = burst(5, 5.0, model="image") + [
            Request(
                request_id=10 + index, arrival_s=index * 5.0,
                model="video", service_s=4.0,
            )
            for index in range(5)
        ]
        report = simulate_fleet(
            requests,
            [pool(models=("image", "video"))],
        )
        slo = slo_report(report, {"image": 2.0, "video": 6.0})
        assert slo.model("image").deadline_s == 2.0
        assert slo.model("video").deadline_s == 6.0
        assert slo.goodput == pytest.approx(1.0)

    def test_missing_deadline_rejected(self):
        report = simulate_fleet(burst(3, 5.0), [pool()])
        with pytest.raises(ValueError):
            slo_report(report, {"other-model": 1.0})
        with pytest.raises(ValueError):
            slo_report(report, 0.0)

    def test_unknown_model_lookup(self):
        report = simulate_fleet(burst(3, 5.0), [pool()])
        slo = slo_report(report, 10.0)
        with pytest.raises(ValueError):
            slo.model("nope")

    def test_render_contains_key_columns(self):
        report = simulate_fleet(burst(10, 1.0), [pool()])
        text = slo_report(report, 3.0).render()
        for token in ("p95", "goodput", "availability", "sd"):
            assert token in text

    def test_empty_report(self):
        report = simulate_fleet([], [pool()])
        slo = slo_report(report, 1.0)
        assert slo.per_model == ()
        assert slo.goodput == 0.0
        assert slo.availability == pytest.approx(1.0)


class TestNoSampleModels:
    def test_all_failed_model_has_no_percentiles(self):
        # Requests for a model no pool serves fail without a single
        # completion; their percentiles are missing, not 0.00 s.
        requests = burst(5, 1.0, model="sd") + [
            Request(
                request_id=100 + index, arrival_s=index * 1.0,
                model="unserved", service_s=1.0,
            )
            for index in range(3)
        ]
        report = simulate_fleet(requests, [pool(models=("sd",))])
        slo = slo_report(report, 5.0)
        dead = slo.model("unserved")
        assert dead.completed == 0 and dead.failed == 3
        assert dead.p50_s is None
        assert dead.p99_s is None
        assert dead.goodput == 0.0
        rendered = slo.render()
        assert "—" in rendered

    def test_served_model_unaffected(self):
        report = simulate_fleet(burst(5, 5.0), [pool()])
        entry = slo_report(report, 5.0).model("sd")
        assert entry.p50_s == pytest.approx(1.0)


class TestBurnRate:
    def test_on_budget_is_unity(self):
        report = simulate_fleet(burst(10, 5.0), [pool()])
        slo = slo_report(report, 10.0)
        assert slo.goodput == pytest.approx(1.0)
        assert slo.burn_rate(0.999) == pytest.approx(0.0)

    def test_burn_scales_with_objective(self):
        report = simulate_fleet(
            burst(30, 0.3), [pool(servers=1, max_batch=1)]
        )
        slo = slo_report(report, 1.5)
        assert slo.goodput < 1.0
        loose = slo.burn_rate(0.9)
        strict = slo.burn_rate(0.999)
        assert strict == pytest.approx(loose * (0.1 / 0.001))
        assert slo.model("sd").burn_rate(0.999) == pytest.approx(strict)

    def test_objective_validated(self):
        report = simulate_fleet(burst(3, 5.0), [pool()])
        slo = slo_report(report, 10.0)
        with pytest.raises(ValueError):
            slo.burn_rate(1.0)
        with pytest.raises(ValueError):
            slo.burn_rate(0.0)


class TestDomainSlo:
    def _scenario(self, orchestration=None):
        from repro.serving.domains import (
            ZoneOutage,
            compile_campaign,
            topology_for_pools,
        )

        pools = [
            PoolSpec(
                name=f"zone{z}", machine="dgx-a100-80g", servers=2,
                latency_fns={"sd": affine_batch_latency(1.0)},
                zone=z,
            )
            for z in range(2)
        ]
        topology = topology_for_pools(pools)
        compiled = compile_campaign(
            topology,
            [ZoneOutage(zone=0, at_s=10.0, duration_s=20.0)],
            pools=pools,
            orchestration=orchestration,
        )
        report = simulate_fleet(
            burst(40, 2.0), pools, faults=compiled.faults,
            plan=compiled.plan,
        )
        return report, compiled

    def test_rows_and_availability(self):
        from repro.serving.slo import domain_slo_report

        report, compiled = self._scenario()
        domains = domain_slo_report(report, compiled)
        assert [d.domain for d in domains.per_domain] == [
            "zone:0", "zone:1"
        ]
        hit = domains.domain("zone:0")
        healthy = domains.domain("zone:1")
        assert hit.events == 1 and healthy.events == 0
        assert hit.down_server_s == pytest.approx(40.0)
        assert hit.availability < 1.0
        assert healthy.availability == pytest.approx(1.0)
        assert healthy.mttd_s is None and healthy.mttr_s is None
        assert "zone:0" in domains.render()

    def test_mttd_mttr_under_orchestration(self):
        from repro.serving.domains import OrchestrationConfig
        from repro.serving.slo import domain_slo_report

        report, compiled = self._scenario(
            OrchestrationConfig(
                detection_delay_s=4.0, readmission_stagger_s=5.0
            )
        )
        hit = domain_slo_report(report, compiled).domain("zone:0")
        assert hit.mttd_s == pytest.approx(4.0)
        # Full restoration waits for the second server's staggered
        # rejoin, one stagger after the outage window ends.
        assert hit.mttr_s == pytest.approx(20.0 + 5.0)

    def test_both_engines_agree(self):
        from repro.serving.domains import (
            ZoneOutage,
            compile_campaign,
            topology_for_pools,
        )
        from repro.serving.oracle import (
            oracle_slo_report,
            simulate_oracle,
        )
        from repro.serving.slo import domain_slo_report

        pools = [
            PoolSpec(
                name=f"zone{z}", machine="dgx-a100-80g", servers=2,
                latency_fns={"sd": affine_batch_latency(1.0)},
                zone=z,
            )
            for z in range(2)
        ]
        compiled = compile_campaign(
            topology_for_pools(pools),
            [ZoneOutage(zone=1, at_s=5.0, duration_s=10.0)],
            pools=pools,
        )
        requests = burst(30, 2.0)
        oracle = simulate_oracle(
            requests, pools, faults=compiled.faults
        )
        report = simulate_fleet(
            requests, pools, faults=compiled.faults
        )
        assert domain_slo_report(oracle, compiled) == \
            domain_slo_report(report, compiled)
        assert slo_report(report, 3.0) == oracle_slo_report(oracle, 3.0)
