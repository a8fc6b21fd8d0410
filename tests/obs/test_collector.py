"""TelemetryCollector sampling, TimeSeriesStore rollups, payload round-trips.

Includes the property-based invariants of the sampling pipeline: counter
deltas are never negative under monotone updates, tick batching does not
change counter delta totals, and the ring buffer keeps exactly the newest
``capacity`` points per series.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.obs.collector import (
    SeriesPoint,
    TelemetryCollector,
    TimeSeriesStore,
    series_payload,
    store_from_payload,
)
from repro.obs.metrics import MetricsRegistry


def make_collector(**kwargs) -> tuple[MetricsRegistry, TelemetryCollector]:
    registry = MetricsRegistry()
    return registry, TelemetryCollector(registry, **kwargs)


class TestTickDiffing:
    def test_first_tick_is_baseline(self) -> None:
        registry, collector = make_collector()
        registry.counter("c").inc(5)
        assert collector.tick(now=0.0) == []
        assert len(collector.store) == 0
        assert collector.last_tick == 0.0

    def test_counter_delta_and_rate(self) -> None:
        registry, collector = make_collector()
        counter = registry.counter("c", tenant="a")
        counter.inc(5)
        collector.tick(now=0.0)
        counter.inc(3)
        (point,) = collector.tick(now=2.0)
        assert point.kind == "counter"
        assert point.key == "c{tenant=a}"
        assert point.value == 8
        assert point.delta == 3
        assert point.rate == pytest.approx(1.5)

    def test_counter_restart_clamps_delta(self) -> None:
        registry, collector = make_collector()
        registry.counter("c").inc(10)
        collector.tick(now=0.0)
        registry.reset()
        registry.counter("c").inc(2)
        (point,) = collector.tick(now=1.0)
        assert point.delta == 2  # not -8

    def test_gauge_sampled_as_level(self) -> None:
        registry, collector = make_collector()
        registry.gauge("g").set(4.0)
        collector.tick(now=0.0)
        registry.gauge("g").set(7.5)
        (point,) = collector.tick(now=1.0)
        assert point.kind == "gauge"
        assert point.value == 7.5
        assert point.delta == 0.0 and point.rate == 0.0

    def test_histogram_interval_quantiles(self) -> None:
        registry, collector = make_collector()
        hist = registry.histogram("h")
        hist.record(1e-3)
        collector.tick(now=0.0)
        for value in (1e-3, 2e-3, 50e-3):
            hist.record(value)
        (point,) = collector.tick(now=1.0)
        assert point.kind == "histogram"
        assert point.delta == 3  # interval observations, not cumulative
        assert point.p50 == pytest.approx(2e-3, rel=0.25)
        assert point.p99 == pytest.approx(50e-3, rel=0.25)
        assert point.buckets and all(v > 0 for v in point.buckets.values())

    def test_quiet_histogram_interval_has_no_quantiles(self) -> None:
        registry, collector = make_collector()
        registry.histogram("h").record(1e-3)
        collector.tick(now=0.0)
        (point,) = collector.tick(now=1.0)
        assert point.delta == 0
        assert point.p50 is None and point.p99 is None and point.mean is None

    def test_time_must_strictly_advance(self) -> None:
        _, collector = make_collector()
        collector.tick(now=1.0)
        with pytest.raises(InvalidParameterError, match="advance"):
            collector.tick(now=1.0)

    def test_subscriber_called_every_tick(self) -> None:
        registry, collector = make_collector()
        seen = []
        collector.subscribe(lambda c, now: seen.append((c is collector, now)))
        collector.tick(now=0.0)
        collector.tick(now=1.0)
        assert seen == [(True, 0.0), (True, 1.0)]

    def test_background_thread_collects(self) -> None:
        registry, collector = make_collector(interval=0.01)
        counter = registry.counter("c")
        with collector:
            deadline = time.monotonic() + 2.0
            while len(collector.store) == 0 and time.monotonic() < deadline:
                counter.inc()
                time.sleep(0.002)
        assert len(collector.store) > 0
        assert collector.store.latest("c").kind == "counter"


class TestStoreAndRollups:
    def fill(self, deltas, times=None) -> TimeSeriesStore:
        store = TimeSeriesStore()
        times = times or [float(i) for i in range(1, len(deltas) + 1)]
        for t, d in zip(times, deltas):
            store.append(
                SeriesPoint(
                    time=t, metric="c", labels=(), kind="counter",
                    value=sum(deltas[: deltas.index(d) + 1]), delta=d, rate=d,
                )
            )
        return store

    def test_rollup_rate(self) -> None:
        store = self.fill([10.0, 20.0, 30.0])
        roll = store.rollup("c", window=None)
        assert roll.points == 3
        assert roll.delta == 60.0
        assert roll.rate == pytest.approx(60.0 / 3.0)

    def test_gauge_rollup_quantiles_over_values(self) -> None:
        store = self.gauge_and_histogram_store()
        roll = store.rollup("g", window=None)
        assert roll.mean == pytest.approx(3.0)
        assert roll.p50 == 3.0
        assert roll.p99 == 5.0

    def gauge_and_histogram_store(self) -> TimeSeriesStore:
        store = TimeSeriesStore()
        for i, value in enumerate([5.0, 1.0, 3.0]):
            store.append(
                SeriesPoint(
                    time=float(i), metric="g", labels=(), kind="gauge",
                    value=value, delta=0.0, rate=0.0,
                )
            )
            store.append(
                SeriesPoint(
                    time=float(i), metric="h", labels=(), kind="histogram",
                    value=float(i + 1), delta=1.0, rate=1.0, total=1e-3,
                    buckets={"80": 1},
                )
            )
            store.append(
                SeriesPoint(
                    time=float(i), metric="quiet", labels=(), kind="histogram",
                    value=0.0, delta=0.0, rate=0.0, total=0.0, buckets={},
                )
            )
        return store

    def test_gauge_window_quantile_matches_rollup(self) -> None:
        store = self.gauge_and_histogram_store()
        roll = store.rollup("g", window=None)
        assert store.window_quantile("g", 0.5) == roll.p50 == 3.0
        assert store.window_quantile("g", 0.99) == roll.p99 == 5.0
        assert store.window_quantile("g", 0.0) == 1.0
        assert store.window_quantile("g", 1.0) == 5.0

    @pytest.mark.parametrize("key", ["g", "h", "quiet", "missing"])
    @pytest.mark.parametrize("q", [-0.1, 1.5])
    def test_window_quantile_rejects_q_outside_unit_interval(self, key, q) -> None:
        store = self.gauge_and_histogram_store()
        with pytest.raises(InvalidParameterError, match="quantile"):
            store.window_quantile(key, q)

    def test_window_restricts_points(self) -> None:
        store = self.fill([10.0, 20.0, 30.0])
        roll = store.rollup("c", window=1.5)
        assert roll.points == 2
        assert roll.delta == 50.0

    def test_unknown_series_rollup_is_none(self) -> None:
        store = TimeSeriesStore()
        assert store.rollup("missing", window=None) is None
        assert store.window_quantile("missing", 0.99, None) is None

    def test_payload_round_trip_exact(self) -> None:
        registry, collector = make_collector()
        registry.counter("c", tenant="a").inc(2)
        registry.histogram("h").record(1e-3)
        collector.tick(now=0.0)
        registry.counter("c", tenant="a").inc(1)
        registry.histogram("h").record(2e-3)
        collector.tick(now=1.0)
        payload = collector.series_payload(run="test")
        rebuilt = store_from_payload(payload)
        assert sorted(rebuilt.keys()) == sorted(collector.store.keys())
        for key in rebuilt.keys():
            assert rebuilt.points(key) == collector.store.points(key)
        assert payload["run"] == "test"
        assert payload == series_payload(
            collector.store, interval=collector.interval, run="test"
        )


# -- property-based invariants ------------------------------------------------

increments = st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=30)


class TestProperties:
    @given(increments)
    @settings(max_examples=50, deadline=None)
    def test_counter_deltas_never_negative(self, incs) -> None:
        registry, collector = make_collector()
        counter = registry.counter("c")
        collector.tick(now=0.0)
        for i, inc in enumerate(incs):
            counter.inc(inc)
            for point in collector.tick(now=float(i + 1)):
                assert point.delta >= 0
                assert point.rate >= 0

    @given(increments)
    @settings(max_examples=50, deadline=None)
    def test_tick_batching_preserves_counter_totals(self, incs) -> None:
        # One tick after all increments vs. a tick per increment: the summed
        # deltas must agree — sampling cadence never loses or invents events.
        reg_a, coarse = make_collector()
        reg_b, fine = make_collector()
        coarse.tick(now=0.0)
        fine.tick(now=0.0)
        for i, inc in enumerate(incs):
            reg_a.counter("c").inc(inc)
            reg_b.counter("c").inc(inc)
            fine.tick(now=float(i + 1))
        coarse.tick(now=float(len(incs)))
        fine_total = sum(p.delta for p in fine.store.points("c"))
        (coarse_point,) = coarse.store.points("c")
        assert coarse_point.delta == fine_total == sum(incs)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_ring_buffer_keeps_newest_capacity_points(self, capacity, n) -> None:
        store = TimeSeriesStore(capacity=capacity)
        for i in range(n):
            store.append(
                SeriesPoint(
                    time=float(i), metric="c", labels=(), kind="counter",
                    value=float(i), delta=1.0, rate=1.0,
                )
            )
        points = store.points("c")
        assert len(points) == min(capacity, n)
        assert [p.time for p in points] == [float(i) for i in range(max(0, n - capacity), n)]
