"""Circuit breaker: state machine and the server's degraded serving path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    CircuitOpenError,
    InvalidParameterError,
    NotFittedError,
)
from repro.core.kde import KDESelectivityEstimator
from repro.data.generators import gaussian_mixture_table
from repro.fault.plan import FaultPlan, use_fault_plan
from repro.obs.metrics import MetricsRegistry, use_default_metrics
from repro.serve.breaker import CircuitBreaker
from repro.serve.server import EstimatorServer
from repro.workload.generators import UniformWorkload

TABLE = gaussian_mixture_table(rows=1500, dimensions=2, seed=21, name="breaker")


def _queries(count: int, seed: int = 3):
    return UniformWorkload(TABLE, volume_fraction=0.2, seed=seed).generate(count)


class TestStateMachine:
    def test_trips_after_consecutive_failures(self) -> None:
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0)
        for _ in range(2):
            breaker.record_failure(now=0.0)
        assert breaker.state == "closed"
        breaker.record_failure(now=0.0)
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self) -> None:
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(now=0.0)
        breaker.record_success(now=0.0)
        breaker.record_failure(now=0.0)
        assert breaker.state == "closed"  # never two in a row

    def test_open_sheds_until_timeout_then_half_opens(self) -> None:
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure(now=0.0)
        assert breaker.before_call(now=1.0) == "shed"
        assert breaker.before_call(now=4.9) == "shed"
        assert breaker.before_call(now=5.0) == "attempt"
        assert breaker.state == "half_open"

    def test_probe_successes_close(self) -> None:
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=1.0, probe_successes=2
        )
        breaker.record_failure(now=0.0)
        assert breaker.before_call(now=2.0) == "attempt"
        breaker.record_success(now=2.0)
        assert breaker.state == "half_open"  # one probe is not enough
        breaker.record_success(now=2.1)
        assert breaker.state == "closed"

    def test_probe_failure_reopens(self) -> None:
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(now=0.0)
        assert breaker.before_call(now=2.0) == "attempt"
        breaker.record_failure(now=2.0)
        assert breaker.state == "open"
        assert breaker.trips == 2
        # The open window restarts from the probe failure.
        assert breaker.before_call(now=2.5) == "shed"
        assert breaker.before_call(now=3.0) == "attempt"

    def test_straggler_failure_extends_open_window(self) -> None:
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=0.9)  # in-flight call failing while open
        assert breaker.trips == 1
        assert breaker.before_call(now=1.5) == "shed"
        assert breaker.before_call(now=2.0) == "attempt"

    def test_reset_closes_but_keeps_trips(self) -> None:
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(now=0.0)
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.trips == 1

    def test_describe_and_state_code(self) -> None:
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        assert breaker.state_code == 0
        breaker.record_failure(now=0.0)
        assert breaker.state_code == 1
        described = breaker.describe()
        assert described["state"] == "open"
        assert described["trips"] == 1

    def test_parameter_validation(self) -> None:
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(reset_timeout=-1.0)
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(probe_successes=0)


class TestServerIntegration:
    def _server(self, cache_size: int = 0, with_fallback: bool = True):
        model = KDESelectivityEstimator(sample_size=150).fit(TABLE)
        fallback = (
            KDESelectivityEstimator(sample_size=60, seed=9).fit(TABLE)
            if with_fallback
            else None
        )
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=1.0, probe_successes=1
        )
        with use_default_metrics(metrics):
            server = EstimatorServer(
                model, cache_size=cache_size, breaker=breaker, fallback=fallback
            )
        return server, model, breaker, metrics

    def test_fallback_requires_breaker(self) -> None:
        model = KDESelectivityEstimator(sample_size=60).fit(TABLE)
        with pytest.raises(InvalidParameterError):
            EstimatorServer(model, fallback=model)

    def test_fallback_must_be_fitted_and_column_compatible(self) -> None:
        model = KDESelectivityEstimator(sample_size=60).fit(TABLE)
        breaker = CircuitBreaker()
        with pytest.raises(NotFittedError):
            EstimatorServer(
                model, breaker=breaker, fallback=KDESelectivityEstimator()
            )
        other = KDESelectivityEstimator(sample_size=60).fit(
            TABLE, columns=[TABLE.column_names[0]]
        )
        with pytest.raises(InvalidParameterError):
            EstimatorServer(model, breaker=breaker, fallback=other)

    def test_stale_results_served_while_open(self) -> None:
        server, model, breaker, metrics = self._server()
        queries = _queries(5)
        healthy = server.estimate_batch(queries, now=0.0)

        plan = FaultPlan(seed=4)
        plan.arm("serve.estimate", action="raise")
        with use_fault_plan(plan):
            degraded = server.estimate_batch(queries, now=0.1)
        np.testing.assert_array_equal(degraded, healthy)
        assert metrics.counter("serve.stale_served").value == 1
        assert metrics.counter("serve.model_faults").value == 1

    def test_fallback_served_for_uncached_plans_while_open(self) -> None:
        server, model, breaker, metrics = self._server()
        plan = FaultPlan(seed=4)
        plan.arm("serve.estimate", action="raise")
        fresh = _queries(5, seed=77)  # never served healthily: no last-good
        with use_fault_plan(plan):
            result = server.estimate_batch(fresh, now=0.0)
        np.testing.assert_array_equal(
            result, server.fallback.estimate_batch(fresh)
        )
        assert metrics.counter("serve.fallback_served").value == 1

    def test_shed_without_fallback_raises_circuit_open(self) -> None:
        server, model, breaker, metrics = self._server(with_fallback=False)
        fresh = _queries(4, seed=78)
        plan = FaultPlan(seed=4)
        plan.arm("serve.estimate", action="raise")
        with use_fault_plan(plan):
            with pytest.raises(CircuitOpenError):
                server.estimate_batch(fresh, now=0.0)
            with pytest.raises(CircuitOpenError):
                server.estimate_batch(fresh, now=0.1)
            assert breaker.state == "open"  # threshold=2 consecutive faults
            # While open the model is not called at all: shed immediately.
            with pytest.raises(CircuitOpenError):
                server.estimate_batch(fresh, now=0.2)
        assert metrics.counter("serve.requests_shed").value == 3

    def test_breaker_recovers_through_probes(self) -> None:
        server, model, breaker, metrics = self._server()
        queries = _queries(5)
        healthy = server.estimate_batch(queries, now=0.0)

        plan = FaultPlan(seed=4)
        plan.arm("serve.estimate", action="raise", limit=2)
        with use_fault_plan(plan):
            server.estimate_batch(queries, now=0.1)
            server.estimate_batch(queries, now=0.2)  # second fault: trips
            assert breaker.state == "open"
            # Before the timeout: still shed (stale answer, model untouched).
            server.estimate_batch(queries, now=0.5)
            # Past the timeout: the probe goes through, fault budget is
            # exhausted, one success closes (probe_successes=1).
            recovered = server.estimate_batch(queries, now=1.5)
        assert breaker.state == "closed"
        np.testing.assert_array_equal(recovered, healthy)

    def test_publish_resets_the_breaker(self) -> None:
        server, model, breaker, metrics = self._server()
        plan = FaultPlan(seed=4)
        plan.arm("serve.estimate", action="raise")
        with use_fault_plan(plan):
            server.estimate_batch(_queries(3), now=0.0)
            server.estimate_batch(_queries(3), now=0.1)
        assert breaker.state == "open"
        replacement = KDESelectivityEstimator(sample_size=80).fit(TABLE)
        server.publish(replacement)
        assert breaker.state == "closed"
        assert breaker.trips == 1  # monitoring history survives the reset

    def test_breaker_gauges_exported(self) -> None:
        server, model, breaker, metrics = self._server()
        gauges = metrics.snapshot()["gauges"]
        assert gauges["serve.breaker_state"]["value"] == 0.0
        assert "serve.breaker_trips" in gauges

    def test_stats_include_breaker(self) -> None:
        server, model, breaker, metrics = self._server()
        assert server.stats()["breaker"]["state"] == "closed"

    def test_cached_hits_bypass_the_breaker(self) -> None:
        """Plan-cache hits never touch the model, so they are served even
        with the model hard-down and the breaker open."""
        server, model, breaker, metrics = self._server(cache_size=32)
        queries = _queries(5)
        healthy = server.estimate_batch(queries, now=0.0)  # miss: fills cache
        plan = FaultPlan(seed=4)
        plan.arm("serve.estimate", action="raise")
        with use_fault_plan(plan):
            hit = server.estimate_batch(queries, now=0.1)
        np.testing.assert_array_equal(hit, healthy)
        assert breaker.state == "closed"  # the model was never called
        assert metrics.counter("serve.model_faults").value == 0
