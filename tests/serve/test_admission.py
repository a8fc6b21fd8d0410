"""AdmissionController: token buckets, tail-driven shedding, server wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import AdmissionRejected, InvalidParameterError
from repro.core.streaming import StreamingADE
from repro.engine.table import Table
from repro.obs.collector import TelemetryCollector
from repro.obs.metrics import MetricsRegistry, use_default_metrics
from repro.serve import AdmissionController, EstimatorServer, TenantQuota
from repro.workload.queries import RangeQuery


class TestTenantQuota:
    def test_validation(self) -> None:
        with pytest.raises(InvalidParameterError, match="rate"):
            TenantQuota("t", rate=0.0)
        with pytest.raises(InvalidParameterError, match="burst"):
            TenantQuota("t", rate=1.0, burst=0.5)
        with pytest.raises(InvalidParameterError, match="slo_p99"):
            TenantQuota("t", slo_p99=-1.0)

    def test_capacity_defaults_to_twice_rate(self) -> None:
        assert TenantQuota("t", rate=5.0).capacity == 10.0
        assert TenantQuota("t", rate=5.0, burst=3.0).capacity == 3.0
        assert TenantQuota("t").capacity == 1.0


class TestControllerValidation:
    def test_parameter_ranges(self) -> None:
        for kwargs in (
            dict(floor=0.0),
            dict(floor=1.5),
            dict(backoff=1.0),
            dict(recovery=1.0),
            dict(window=0.0),
            dict(quantum=0),
            dict(initial_allowance=0.0),
        ):
            with pytest.raises(InvalidParameterError):
                AdmissionController(**kwargs)

    def test_duplicate_quota_rejected(self) -> None:
        with pytest.raises(InvalidParameterError, match="duplicate"):
            AdmissionController([TenantQuota("t"), TenantQuota("t")])


class TestTokenBucket:
    def test_burst_then_refusal(self) -> None:
        controller = AdmissionController([TenantQuota("t", rate=1.0, burst=2.0)])
        controller.admit("t", now=0.0)
        controller.admit("t", now=0.0)
        with pytest.raises(AdmissionRejected) as err:
            controller.admit("t", now=0.0)
        assert (err.value.tenant, err.value.op, err.value.reason) == ("t", "query", "tokens")

    def test_refill_at_rate(self) -> None:
        controller = AdmissionController([TenantQuota("t", rate=2.0, burst=1.0)])
        controller.admit("t", now=0.0)
        with pytest.raises(AdmissionRejected):
            controller.admit("t", now=0.1)
        controller.admit("t", now=0.6)  # 0.5s at 2/s refills the one token

    def test_unquoted_tenant_unthrottled(self) -> None:
        controller = AdmissionController([TenantQuota("t", rate=1.0)])
        for _ in range(100):
            controller.admit("other", now=0.0)


def breach_collector(latency: float) -> TelemetryCollector:
    """A collector whose store shows tenant 'v' at a trailing p99 ≈ latency."""
    registry = MetricsRegistry()
    collector = TelemetryCollector(registry)
    collector.tick(now=0.0)
    for i in range(1, 4):
        registry.histogram("serve.request_seconds", tenant="v").record(latency)
        collector.tick(now=float(i))
    return collector


class TestShedding:
    def make(self, slo=1e-3, **kwargs) -> AdmissionController:
        return AdmissionController([TenantQuota("v", slo_p99=slo)], **kwargs)

    def test_update_backs_off_under_breach_and_recovers(self) -> None:
        controller = self.make(slo=1e-3, floor=0.1, backoff=0.5, recovery=2.0)
        controller.attach_store(breach_collector(10e-3).store)
        assert controller.update() == pytest.approx(0.5)
        assert controller.update() == pytest.approx(0.25)
        for _ in range(10):
            controller.update()
        assert controller.write_allowance == pytest.approx(0.1)  # clamped at floor
        controller.attach_store(breach_collector(1e-5).store)  # healthy tails
        assert controller.update() == pytest.approx(0.2)
        for _ in range(10):
            controller.update()
        assert controller.write_allowance == 1.0  # clamped at 1

    def test_slo_status_reports_breach(self) -> None:
        controller = self.make(slo=1e-3)
        controller.attach_store(breach_collector(10e-3).store)
        status = controller.slo_status()
        assert status["v"]["breach"] is True
        assert status["v"]["trailing_p99"] > status["v"]["target_p99"]

    def test_sheds_only_writes_of_unprotected_tenants(self) -> None:
        controller = self.make(floor=0.5, initial_allowance=0.5)
        # Queries are never shed; protected-tenant writes are never shed.
        for _ in range(10):
            controller.admit("bulk", "query", now=0.0)
            controller.admit("v", "ingest", now=0.0)
        with pytest.raises(AdmissionRejected) as err:
            controller.admit("bulk", "ingest", now=0.0)
        assert err.value.reason == "shed"

    def test_even_spread_at_quantum_one(self) -> None:
        controller = self.make(floor=0.5, initial_allowance=0.5, quantum=1)
        admitted = []
        for i in range(10):
            try:
                controller.admit("bulk", "publish", now=0.0)
                admitted.append(i)
            except AdmissionRejected:
                pass
        assert admitted == [1, 3, 5, 7, 9]  # every other write

    def test_quantum_clusters_admits_into_bursts(self) -> None:
        controller = self.make(floor=0.5, initial_allowance=0.5, quantum=4)
        pattern = []
        for _ in range(40):
            try:
                controller.admit("bulk", "publish", now=0.0)
                pattern.append(True)
            except AdmissionRejected:
                pattern.append(False)
        # Same long-run fraction as quantum=1, arriving as bursts: runs of
        # consecutive admits at least quantum long.
        assert 0.3 <= sum(pattern) / len(pattern) <= 0.6
        runs = []
        length = 0
        for admitted in pattern + [False]:
            if admitted:
                length += 1
            elif length:
                runs.append(length)
                length = 0
        assert runs and max(runs) >= 4

    def test_determinism(self) -> None:
        def pattern():
            controller = self.make(floor=0.4, initial_allowance=0.4, quantum=3)
            out = []
            for _ in range(30):
                try:
                    controller.admit("bulk", "ingest", now=0.0)
                    out.append(1)
                except AdmissionRejected:
                    out.append(0)
            return out

        assert pattern() == pattern()

    def test_full_allowance_admits_everything(self) -> None:
        controller = self.make()  # initial allowance 1.0, no store → no breach
        for _ in range(50):
            controller.admit("bulk", "ingest", now=0.0)

    def test_bind_updates_on_tick(self) -> None:
        registry = MetricsRegistry()
        collector = TelemetryCollector(registry)
        controller = self.make(slo=1e-3, backoff=0.5).bind(collector)
        collector.tick(now=0.0)
        registry.histogram("serve.request_seconds", tenant="v").record(0.1)
        collector.tick(now=1.0)
        assert controller.write_allowance == pytest.approx(0.5)

    def test_decisions_counted(self) -> None:
        registry = MetricsRegistry()
        with use_default_metrics(registry):
            controller = AdmissionController([TenantQuota("t", rate=1.0, burst=1.0)])
        controller.admit("t", now=0.0)
        with pytest.raises(AdmissionRejected):
            controller.admit("t", now=0.0)
        snap = registry.snapshot()
        assert snap["counters"]["admission.allowed{op=query,tenant=t}"]["value"] == 1
        key = "admission.rejected{op=query,reason=tokens,tenant=t}"
        assert snap["counters"][key]["value"] == 1
        assert snap["gauges"]["admission.write_allowance"]["value"] == 1.0

    def test_describe(self) -> None:
        controller = self.make(quantum=3)
        described = controller.describe()
        assert described["quotas"]["v"]["slo_p99"] == 1e-3
        assert described["quantum"] == 3
        assert described["write_allowance"] == 1.0


class TestServerWiring:
    @pytest.fixture()
    def served(self):
        rng = np.random.default_rng(11)
        table = Table.from_array("t", rng.normal(size=(500, 2)), column_names=["x", "y"])
        model = StreamingADE(max_kernels=32).fit(table)
        queries = [RangeQuery({"x": (-1.0, 1.0), "y": (-1.0, 1.0)})]
        return model, queries

    def test_no_admission_is_default_noop(self, served) -> None:
        model, queries = served
        server = EstimatorServer(model)
        assert server.admission is None
        server.estimate_batch(queries, tenant="anyone")

    def test_admission_gates_queries(self, served) -> None:
        model, queries = served
        controller = AdmissionController([TenantQuota("t", rate=1.0, burst=1.0)])
        server = EstimatorServer(model, admission=controller)
        server.estimate_batch(queries, tenant="t", now=0.0)
        with pytest.raises(AdmissionRejected):
            server.estimate_batch(queries, tenant="t", now=0.0)
        server.estimate_batch(queries, tenant="t", now=5.0)


class TestClockSkew:
    """The ``admission.clock`` fault hook: skewed time degrades refill but
    never corrupts the buckets."""

    def test_backwards_clock_is_a_noop_refill(self) -> None:
        from repro.fault.plan import FaultPlan, use_fault_plan

        controller = AdmissionController([TenantQuota("t", rate=1.0, burst=2.0)])
        controller.admit("t", now=10.0)  # bucket created at t=10, one token left

        plan = FaultPlan()
        plan.arm("admission.clock", action="skew", skew=-100.0)
        with use_fault_plan(plan):
            # Skewed to t=-90: no refill (time never goes backwards for the
            # bucket), but the remaining token is still spendable.
            controller.admit("t", now=10.0)
        with pytest.raises(AdmissionRejected):
            controller.admit("t", now=10.0)
        # Honest time resumes: refill proceeds from the last-seen timestamp.
        controller.admit("t", now=12.0)

    def test_forward_skew_refills_early(self) -> None:
        from repro.fault.plan import FaultPlan, use_fault_plan

        controller = AdmissionController([TenantQuota("t", rate=1.0, burst=1.0)])
        controller.admit("t", now=0.0)
        plan = FaultPlan()
        plan.arm("admission.clock", action="skew", skew=50.0)
        with use_fault_plan(plan):
            controller.admit("t", now=0.0)  # skewed far forward: bucket full
