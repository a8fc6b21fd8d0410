"""Equivalence of the query fast path and the dense reference path.

The support-culling fast path (:mod:`repro.core.fastpath`) must be
observationally equivalent to the dense path within the documented
:data:`~repro.core.fastpath.DEFAULT_ATOL` — for **every** registered
estimator (non-kernel synopses route both "paths" through identical code, so
for them the sweep pins exactness), on hypothesis-generated random boxes plus
the adversarial specials: degenerate point boxes, one-sided and full-domain
(±inf) boxes, and boxes entirely outside the data domain.

Staleness: the index is invalidated by a maintenance epoch, not per-tuple
updates — insert → estimate → flush → compress → estimate must stay
equivalent at every step, and the cached index must actually be reused
between estimates that did not mutate the synopsis.

Composition: per-shard indexes under :class:`~repro.shard.sharded.ShardedEstimator`
and index survival across the serving layer's copy-on-write
``checkout``/``publish`` cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastpath
from repro.core.estimator import (
    SelectivityEstimator,
    available_estimators,
    create_estimator,
)
from repro.core.fastpath import DEFAULT_ATOL, fastpath_disabled
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.engine.table import Table
from repro.obs.metrics import MetricsRegistry
from repro.serve import EstimatorServer
from repro.shard.sharded import ShardedEstimator
from repro.workload.queries import CompiledQueries

ALL_ESTIMATORS = sorted(available_estimators())

#: Constructor overrides keeping per-test fit cost small.
_FAST_KWARGS: dict[str, dict] = {
    "kde": {"sample_size": 400},
    "adaptive_kde": {"sample_size": 400},
    "sampling": {"sample_size": 200},
    "reservoir_sampling": {"sample_size": 200},
    "streaming_ade": {"max_kernels": 64},
    "grid": {"cells_per_dim": 8},
    "st_histogram": {"cells_per_dim": 6},
    "wavelet": {"resolution": 64, "coefficients": 16},
}

_TABLE: Table | None = None
_FITTED: dict[str, SelectivityEstimator] = {}


def _table() -> Table:
    global _TABLE
    if _TABLE is None:
        _TABLE = gaussian_mixture_table(
            rows=4000, dimensions=2, components=3, separation=4.0, seed=11
        )
    return _TABLE


def _fitted(name: str) -> SelectivityEstimator:
    # Module-level cache instead of pytest fixtures: hypothesis re-runs the
    # test body many times and must not re-fit the synopsis each time.
    if name not in _FITTED:
        _FITTED[name] = create_estimator(name, **_FAST_KWARGS.get(name, {})).fit(_table())
    return _FITTED[name]


def _special_boxes(dims: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Degenerate, one-sided, full-domain and out-of-domain boxes."""
    inf = np.inf
    return [
        (np.full(dims, 0.0), np.full(dims, 0.0)),  # point box
        (np.full(dims, -inf), np.full(dims, inf)),  # full domain
        (np.full(dims, -inf), np.full(dims, 0.5)),  # one-sided
        (np.full(dims, 1e6), np.full(dims, 2e6)),  # far outside the data
    ]


def _plan(
    estimator: SelectivityEstimator, boxes: list[tuple[np.ndarray, np.ndarray]]
) -> CompiledQueries:
    dims = len(estimator.columns)
    boxes = boxes + _special_boxes(dims)
    lows = np.stack([np.broadcast_to(np.asarray(b[0], dtype=float), dims) for b in boxes])
    highs = np.stack([np.broadcast_to(np.asarray(b[1], dtype=float), dims) for b in boxes])
    return CompiledQueries(estimator.columns, lows, highs)


def _assert_fast_matches_dense(estimator, plan, atol: float = DEFAULT_ATOL) -> None:
    fast = estimator.estimate_batch(plan)
    with fastpath_disabled():
        dense = estimator.estimate_batch(plan)
    np.testing.assert_allclose(fast, dense, rtol=0.0, atol=atol)


_coord = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)
_interval = st.tuples(_coord, _coord).map(sorted)
_box = st.tuples(_interval, _interval).map(
    lambda ivs: (
        np.array([ivs[0][0], ivs[1][0]]),
        np.array([ivs[0][1], ivs[1][1]]),
    )
)
_boxes = st.lists(_box, min_size=1, max_size=8)


def _random_boxes(count: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-6, 6, size=(count, 2))
    return [(c - 0.4, c + 0.4) for c in centers]


def _probe_boxes() -> list[tuple[np.ndarray, np.ndarray]]:
    """A fixed selective workload used by the staleness/composition tests."""
    return _random_boxes(40, seed=5)


@contextmanager
def _route_registry() -> Iterator[MetricsRegistry]:
    registry = MetricsRegistry()
    fastpath.set_route_metrics(registry)
    try:
        yield registry
    finally:
        fastpath.set_route_metrics(None)


def _route_total(registry: MetricsRegistry) -> float:
    return (
        registry.counter("fastpath.culled_queries").value
        + registry.counter("fastpath.dense_queries").value
    )


@pytest.mark.parametrize("name", ALL_ESTIMATORS)
@given(boxes=_boxes)
@settings(max_examples=15, deadline=None)
def test_fast_matches_dense_on_random_boxes(name: str, boxes) -> None:
    estimator = _fitted(name)
    _assert_fast_matches_dense(estimator, _plan(estimator, boxes))


class TestDenseReferenceReachable:
    """`fastpath_disabled()` pins the dense path: no index, no route counts."""

    @pytest.mark.parametrize("name", ["kde", "adaptive_kde", "streaming_ade"])
    def test_disabled_builds_no_index_and_counts_no_route(
        self, name: str, monkeypatch
    ) -> None:
        builds: list[int] = []
        build_index = fastpath.KernelSupportIndex.__init__

        def counting_build(index, *args, **kwargs):
            builds.append(1)
            build_index(index, *args, **kwargs)

        monkeypatch.setattr(fastpath.KernelSupportIndex, "__init__", counting_build)
        estimator = create_estimator(name, **_FAST_KWARGS[name]).fit(_table())
        small = _plan(estimator, _probe_boxes())
        large = _plan(estimator, _random_boxes(4000, seed=13))
        with _route_registry() as routes:
            with fastpath_disabled():
                dense = [estimator.estimate_batch(p) for p in (small, large)]
            assert builds == []
            assert _route_total(routes) == 0
            # Outside the block the same estimator builds its index and
            # counts every query, and agrees with the dense answers.
            fast = [estimator.estimate_batch(p) for p in (small, large)]
            assert builds == [1]
            assert _route_total(routes) == len(small) + len(large)
        for f, d in zip(fast, dense):
            np.testing.assert_allclose(f, d, rtol=0.0, atol=DEFAULT_ATOL)

    def test_switch_restored_after_block(self) -> None:
        estimator = _fitted("kde")
        plan = _plan(estimator, _probe_boxes())
        with _route_registry() as routes:
            with fastpath_disabled():
                with fastpath_disabled():
                    pass
                estimator.estimate_batch(plan)  # the outer block still holds
            assert _route_total(routes) == 0
            estimator.estimate_batch(plan)
            assert _route_total(routes) == len(plan)

    def test_switch_restored_when_block_raises(self) -> None:
        estimator = _fitted("kde")
        plan = _plan(estimator, _probe_boxes())
        with pytest.raises(RuntimeError):
            with fastpath_disabled():
                raise RuntimeError("boom")
        with _route_registry() as routes:
            estimator.estimate_batch(plan)
            assert _route_total(routes) == len(plan)


class TestStaleness:
    """insert → estimate → flush → compress all rebuild the index lazily."""

    def test_streaming_maintenance_keeps_equivalence(self) -> None:
        rng = np.random.default_rng(17)
        estimator = StreamingADE(max_kernels=64, chunk_size=32)
        estimator.start(["x0", "x1"])
        plan = _plan(estimator, _probe_boxes())

        estimator.insert(rng.normal(size=(200, 2)))
        _assert_fast_matches_dense(estimator, plan)  # flushes + builds index
        cached = estimator._support_cache
        assert cached is not None

        # No mutation between estimates: the cached index must be reused.
        estimator.estimate_batch(plan)
        assert estimator._support_cache is cached

        # A partial insert leaves rows buffered; the estimate-side flush must
        # fold them in and invalidate the index (epoch moved).
        estimator.insert(rng.normal(size=(7, 2)) + 3.0)
        _assert_fast_matches_dense(estimator, plan)
        assert estimator._support_cache is not cached

        estimator.insert(rng.normal(size=(500, 2)) - 2.0)
        estimator.flush()
        _assert_fast_matches_dense(estimator, plan)

        estimator.compress(16)
        assert estimator.kernel_count <= 16
        _assert_fast_matches_dense(estimator, plan)

    def test_kde_set_bandwidths_invalidates(self) -> None:
        estimator = KDESelectivityEstimator(sample_size=400).fit(_table())
        plan = _plan(estimator, _probe_boxes())
        _assert_fast_matches_dense(estimator, plan)
        cached = estimator._support_cache
        assert cached is not None
        estimator.set_bandwidths(estimator.bandwidths * 2.5)
        assert estimator._support_cache is None
        _assert_fast_matches_dense(estimator, plan)

    def test_snapshot_restore_invalidates(self) -> None:
        estimator = StreamingADE(max_kernels=64).fit(_table())
        plan = _plan(estimator, _probe_boxes())
        _assert_fast_matches_dense(estimator, plan)
        restored = StreamingADE(max_kernels=64)
        restored.load_state(estimator.state_dict())
        assert restored._support_cache is None
        _assert_fast_matches_dense(restored, plan)
        np.testing.assert_array_equal(
            restored.estimate_batch(plan), estimator.estimate_batch(plan)
        )


class TestComposition:
    """Per-shard indexes and index survival across serving swaps."""

    def test_sharded_shards_keep_private_indexes(self) -> None:
        sharded = ShardedEstimator(
            StreamingADE(max_kernels=64), shards=2, partitioner="hash"
        ).fit(_table())
        plan = _plan(sharded, _probe_boxes())
        _assert_fast_matches_dense(sharded, plan)
        caches = [shard._support_cache for shard in sharded.shard_estimators]
        assert all(cache is not None for cache in caches)
        # Read the slot, not the lazy builder: each shard holds its own warm index.
        indexes = [cache._index for cache in caches]
        assert all(index is not None for index in indexes)
        assert indexes[0] is not indexes[1]  # one index per shard
        # A routed insert only touches the receiving shards' synopses; the
        # estimate afterwards stays equivalent to the dense path.
        rng = np.random.default_rng(23)
        sharded.insert(rng.normal(size=(300, 2)))
        sharded.flush()
        _assert_fast_matches_dense(sharded, plan)

    def test_index_survives_checkout_publish(self) -> None:
        model = StreamingADE(max_kernels=64).fit(_table())
        server = EstimatorServer(model, cache_size=8)
        plan = _plan(model, _probe_boxes())
        served_before = server.estimate_batch(plan)
        assert server.model._support_cache is not None
        assert server.model._support_cache._index is not None

        writer = server.checkout()
        # The copy-on-write checkout carries the warm index along ...
        assert writer._support_cache is not None
        assert writer._support_cache._index is not None
        assert writer._support_cache._index is not server.model._support_cache._index
        rng = np.random.default_rng(29)
        writer.insert(rng.normal(size=(400, 2)) + 1.5)
        writer.flush()
        server.publish(writer)

        served_after = server.estimate_batch(plan)
        with fastpath_disabled():
            dense_after = server.model.estimate_batch(plan)
        np.testing.assert_allclose(served_after, dense_after, rtol=0.0, atol=DEFAULT_ATOL)
        assert not np.array_equal(served_before, served_after)
