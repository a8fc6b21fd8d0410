"""Traffic simulator: determinism, tenant isolation of draws, instrumentation."""

from __future__ import annotations

import copy

import pytest

from repro.core.errors import InvalidParameterError
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table, mixed_type_table
from repro.obs.metrics import MetricsRegistry, use_default_metrics
from repro.serve.server import EstimatorServer
from repro.traffic import DEFAULT_TENANTS, TenantProfile, TrafficSimulator


@pytest.fixture(scope="module")
def table():
    return gaussian_mixture_table(rows=4000, dimensions=2, components=3, seed=17)


@pytest.fixture(scope="module")
def base_model(table):
    return StreamingADE(max_kernels=64).fit(table)


def make_server(base_model, metrics=None):
    with use_default_metrics(metrics):
        return EstimatorServer(copy.deepcopy(base_model), cache_size=16)


TENANTS = (
    TenantProfile(name="reader", rate=120.0, plan_pool=8, zipf_s=1.1, burstiness=2.0),
    TenantProfile(
        name="writer", query_weight=0.3, ingest_weight=1.0, rate=15.0,
        plan_pool=4, ingest_rows=64,
    ),
)


class TestProfiles:
    def test_weights_normalise(self) -> None:
        q, i, p = TenantProfile(name="t", query_weight=3, ingest_weight=1).op_weights
        assert (q, i, p) == (0.75, 0.25, 0.0)

    def test_describe_is_jsonable(self) -> None:
        desc = DEFAULT_TENANTS[0].describe()
        assert desc["name"] == "dashboard"
        assert isinstance(desc["rate"], float)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "t", "query_weight": 0, "ingest_weight": 0, "publish_weight": 0},
            {"name": "t", "rate": 0},
            {"name": "t", "burstiness": 0.5},
            {"name": "t", "burst_fraction": 1.0},
            {"name": "t", "plan_pool": 0},
            {"name": "t", "volume_fraction": 0.0},
            {"name": "t", "ingest_rows": 0},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs) -> None:
        with pytest.raises(InvalidParameterError):
            TenantProfile(**kwargs)


class TestSchedule:
    def test_same_seed_same_schedule(self, base_model, table) -> None:
        sim_a = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5)
        sim_b = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5)
        assert sim_a.schedule(0.5) == sim_b.schedule(0.5)

    def test_schedule_is_repeatable_on_one_simulator(self, base_model, table) -> None:
        sim = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5)
        assert sim.schedule(0.5) == sim.schedule(0.5)

    def test_different_seeds_differ(self, base_model, table) -> None:
        sim_a = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5)
        sim_b = TrafficSimulator(make_server(base_model), table, TENANTS, seed=6)
        assert sim_a.schedule(0.5) != sim_b.schedule(0.5)

    def test_tenant_schedule_independent_of_other_tenants(
        self, base_model, table
    ) -> None:
        """Tenant draws hang off (seed, index): adding a tenant after the
        victim leaves the victim's schedule untouched — the property the
        isolation benchmark's baseline/storm comparison rests on."""
        solo = TrafficSimulator(make_server(base_model), table, TENANTS[:1], seed=9)
        both = TrafficSimulator(make_server(base_model), table, TENANTS, seed=9)
        solo_events = [e for e in solo.schedule(0.5) if e.tenant == "reader"]
        both_events = [e for e in both.schedule(0.5) if e.tenant == "reader"]
        assert solo_events == both_events

    def test_time_ordered(self, base_model, table) -> None:
        events = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5).schedule(0.5)
        assert events == sorted(events, key=lambda e: (e.time, e.tenant))

    def test_duration_validated(self, base_model, table) -> None:
        with pytest.raises(InvalidParameterError):
            TrafficSimulator(make_server(base_model), table, TENANTS, seed=5).schedule(0.0)

    def test_duplicate_tenant_names_rejected(self, base_model, table) -> None:
        dup = (TENANTS[0], TENANTS[0])
        with pytest.raises(InvalidParameterError):
            TrafficSimulator(make_server(base_model), table, dup, seed=5)

    def test_empty_tenants_rejected(self, base_model, table) -> None:
        with pytest.raises(InvalidParameterError):
            TrafficSimulator(make_server(base_model), table, (), seed=5)


class TestRun:
    def test_same_seed_same_checksum(self, base_model, table) -> None:
        r1 = TrafficSimulator(make_server(base_model), table, TENANTS, seed=3).run(0.4)
        r2 = TrafficSimulator(make_server(base_model), table, TENANTS, seed=3).run(0.4)
        assert r1.events == r2.events
        assert r1.checksum == pytest.approx(r2.checksum)

    def test_per_tenant_histograms_populated(self, base_model, table) -> None:
        sim = TrafficSimulator(make_server(base_model), table, TENANTS, seed=3)
        assert sim.metrics.enabled  # own registry over an uninstrumented server
        report = sim.run(0.4)
        reader = report.tenants["reader"]
        assert reader["ops"]["query"]["count"] > 0
        assert 0 < reader["p50"] <= reader["p99"]
        hist = sim.metrics.histogram("traffic.op_seconds", tenant="reader", op="query")
        assert hist.count == reader["ops"]["query"]["count"]

    def test_ingest_bumps_generation_and_rows(self, base_model, table) -> None:
        server = make_server(base_model)
        report = TrafficSimulator(server, table, TENANTS, seed=3).run(0.4)
        writes = report.tenants["writer"]["ops"].get("ingest", {}).get("count", 0)
        assert writes > 0
        assert report.server["generation"] == 1 + writes
        assert report.server["rows_modelled"] > base_model.row_count

    def test_uses_server_registry_when_enabled(self, base_model, table) -> None:
        metrics = MetricsRegistry()
        server = make_server(base_model, metrics=metrics)
        sim = TrafficSimulator(server, table, TENANTS, seed=3)
        assert sim.metrics is metrics
        sim.run(0.3)
        # server-side per-tenant request series share the same registry
        assert metrics.histogram("serve.request_seconds", tenant="reader").count > 0

    def test_typed_tenant_runs_on_schema_table(self) -> None:
        typed_table = mixed_type_table(rows=2000, seed=23)
        model = StreamingADE(max_kernels=32).fit(typed_table)
        server = EstimatorServer(model, cache_size=8)
        tenants = (
            TenantProfile(name="typed", rate=60.0, plan_pool=4, typed=True),
        )
        report = TrafficSimulator(server, typed_table, tenants, seed=2).run(0.3)
        assert report.tenants["typed"]["ops"]["query"]["count"] > 0


class TestReportExport:
    def test_round_trips_through_every_exporter(self, base_model, table, tmp_path) -> None:
        sim = TrafficSimulator(make_server(base_model), table, TENANTS, seed=3)
        report = sim.run(0.3)
        for suffix in (".json", ".jsonl", ".csv"):
            path = report.export(tmp_path / f"run{suffix}", metrics=sim.metrics)
            from repro.obs.export import exporter_for_path

            loaded = exporter_for_path(path).load(path)
            assert loaded["checksum"] == pytest.approx(report.checksum)
            assert loaded["histograms"]  # registry snapshot rode along


class TestClosedLoop:
    """Collector ticking and admission gating inside the simulated run."""

    def make_gated(self, base_model, *, slo=1e-9, floor=0.4):
        from repro.obs.collector import TelemetryCollector
        from repro.serve import AdmissionController, TenantQuota

        metrics = MetricsRegistry()
        collector = TelemetryCollector(metrics, interval=0.1)
        with use_default_metrics(metrics):
            controller = AdmissionController(
                [TenantQuota("reader", slo_p99=slo)],
                window=0.5,
                floor=floor,
                initial_allowance=floor,
            ).bind(collector)
            server = EstimatorServer(
                copy.deepcopy(base_model), cache_size=16, admission=controller
            )
        return server, collector, controller, metrics

    def test_collector_ticks_on_virtual_time(self, base_model, table) -> None:
        from repro.obs.collector import TelemetryCollector

        metrics = MetricsRegistry()
        collector = TelemetryCollector(metrics, interval=0.1)
        sim = TrafficSimulator(
            make_server(base_model, metrics=metrics), table, TENANTS,
            seed=3, collector=collector,
        )
        sim.run(0.45)
        assert collector.last_tick == 0.45  # final partial-interval tick
        times = {p.time for p in collector.store}
        assert {0.1, 0.2, 0.3, 0.4} <= times
        assert any(
            key.startswith("traffic.ops") for key in collector.store.keys()
        )

    def test_impossible_slo_sheds_writer_ops(self, base_model, table) -> None:
        server, collector, controller, metrics = self.make_gated(base_model)
        sim = TrafficSimulator(server, table, TENANTS, seed=3, collector=collector)
        report = sim.run(0.5)
        writer = report.tenants["writer"]
        assert writer["rejected"] and sum(writer["rejected"].values()) > 0
        assert 0.0 < writer["goodput"] < 1.0
        assert report.tenants["reader"]["goodput"] == 1.0  # protected, untouched
        assert controller.write_allowance == pytest.approx(0.4)  # pinned at floor
        shed = sum(
            entry["value"]
            for key, entry in metrics.snapshot()["counters"].items()
            if key.startswith("traffic.rejected")
        )
        assert shed == sum(writer["rejected"].values())
        assert report.admission["slo"]["reader"]["breach"] is True
        assert report.to_payload()["admission"]["write_allowance"] == pytest.approx(0.4)

    def test_shed_runs_are_deterministic(self, base_model, table) -> None:
        def run():
            server, collector, _, _ = self.make_gated(base_model)
            sim = TrafficSimulator(server, table, TENANTS, seed=3, collector=collector)
            report = sim.run(0.5)
            return report.checksum, report.tenants["writer"]["rejected"]

        first, second = run(), run()
        assert first[0] == pytest.approx(second[0])
        assert first[1] == second[1]

    def test_ungated_report_has_full_goodput(self, base_model, table) -> None:
        report = TrafficSimulator(
            make_server(base_model), table, TENANTS, seed=3
        ).run(0.3)
        assert report.tenants["writer"]["goodput"] == 1.0
        assert "rejected" not in report.tenants["writer"]
        assert report.admission == {}
