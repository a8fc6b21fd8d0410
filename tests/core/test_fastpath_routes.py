"""The fast path's two culled routes: small-plan pairs and large-plan groups.

Plans with ``queries × kernels ≤ _BUFFER_ELEMENTS`` mask every (box, kernel)
pair against all kernels; larger plans narrow each spatial group with
``box_candidates`` first and mask inside the group.  Both sum a selective
box over exactly the kernels whose support overlaps it, in ascending kernel
order, so a box's estimate must not depend on the plan it arrives in.  Both
must stay within :data:`~repro.core.fastpath.DEFAULT_ATOL` of the dense
path and below it (culling only ever drops mass), on either side of the
route boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fastpath
from repro.core.estimator import create_estimator
from repro.core.fastpath import DEFAULT_ATOL, fastpath_disabled
from repro.core.kde import KDESelectivityEstimator
from repro.data.generators import gaussian_mixture_table
from repro.obs.metrics import MetricsRegistry
from repro.workload.queries import CompiledQueries

#: Summation-order rounding allowed above the dense answer: the pair route
#: adds terms in kernel order, the dense path in BLAS dot-product order.
_ROUNDING = 1e-14

#: Fine explicit bandwidths: most small boxes are selective for the KDEs too.
_KWARGS = {
    "kde": {"sample_size": 400, "bandwidths": [0.2, 0.2]},
    "adaptive_kde": {"sample_size": 400, "bandwidths": [0.2, 0.2]},
    "streaming_ade": {"max_kernels": 64},
}


@pytest.fixture(scope="module")
def table():
    return gaussian_mixture_table(rows=4000, dimensions=2, components=3, separation=4.0, seed=11)


@pytest.fixture(scope="module")
def fitted(table):
    return {name: create_estimator(name, **kwargs).fit(table) for name, kwargs in _KWARGS.items()}


def _index(estimator) -> fastpath.KernelSupportIndex:
    return estimator._support().index()


def _kernel_count(estimator) -> int:
    return _index(estimator).kernel_count


def _selective_plan(estimator, table, count: int, seed: int, width: float = 0.05):
    """``count`` boxes of ``width`` of the domain span per axis, inside the domain."""
    domain = table.domain(estimator.columns)
    low = np.array([domain[c][0] for c in estimator.columns])
    high = np.array([domain[c][1] for c in estimator.columns])
    span = high - low
    rng = np.random.default_rng(seed)
    centers = low + rng.random((count, low.size)) * span
    return CompiledQueries(
        estimator.columns, centers - 0.5 * width * span, centers + 0.5 * width * span
    )


def _straddling_plan(estimator, table, count: int, seed: int):
    """Boxes that cross a domain bound on some axis (reflection territory)."""
    domain = table.domain(estimator.columns)
    low = np.array([domain[c][0] for c in estimator.columns])
    high = np.array([domain[c][1] for c in estimator.columns])
    span = high - low
    rng = np.random.default_rng(seed)
    edge = np.where(rng.random((count, low.size)) < 0.5, low, high)
    centers = low + rng.random((count, low.size)) * span
    # One axis sits on a domain bound, the others anywhere inside.
    axis = rng.integers(0, low.size, size=count)
    centers[np.arange(count), axis] = edge[np.arange(count), axis]
    half = 0.05 * span
    return CompiledQueries(estimator.columns, centers - half, centers + half)


def _subplan(plan: CompiledQueries, rows) -> CompiledQueries:
    return CompiledQueries(plan.columns, plan.lows[rows], plan.highs[rows])


def _assert_culled_within_atol(estimator, plan) -> None:
    fast = estimator.estimate_batch(plan)
    with fastpath_disabled():
        dense = estimator.estimate_batch(plan)
    np.testing.assert_allclose(fast, dense, rtol=0.0, atol=DEFAULT_ATOL)
    assert np.all(fast <= dense + _ROUNDING), float(np.max(fast - dense))


@pytest.fixture()
def routes():
    registry = MetricsRegistry()
    fastpath.set_route_metrics(registry)
    try:
        yield registry
    finally:
        fastpath.set_route_metrics(None)


def _route_counts(registry) -> tuple[float, float]:
    return (
        registry.counter("fastpath.culled_queries").value,
        registry.counter("fastpath.dense_queries").value,
    )


@pytest.mark.parametrize("name", sorted(_KWARGS))
def test_box_estimate_independent_of_plan(name: str, table, fitted, routes) -> None:
    estimator = fitted[name]
    index = _index(estimator)
    large = fastpath._BUFFER_ELEMENTS // index.kernel_count + 40  # group route
    plan = _selective_plan(estimator, table, 4 * large, seed=3)
    # Keep boxes a large plan culls (wide ones take the dense kernel there).
    tightest = index.candidate_counts(plan.lows, plan.highs).min(axis=1)
    selective = np.flatnonzero(tightest < index.kernel_count * fastpath._DENSE_FRACTION)
    assert selective.size >= large
    plan = _subplan(plan, selective[:large])
    in_large = estimator.estimate_batch(plan)
    assert _route_counts(routes) == (large, 0)  # every box culled, none dense
    in_small = estimator.estimate_batch(_subplan(plan, slice(0, 8)))  # pair route
    np.testing.assert_array_equal(in_small, in_large[:8])
    for row in range(0, large, max(large // 12, 1)):
        alone = estimator.estimate_batch(_subplan(plan, [row]))
        assert alone[0] == in_large[row], (row, float(alone[0] - in_large[row]))


@pytest.mark.parametrize("name", sorted(_KWARGS))
@pytest.mark.parametrize("offset", [-1, 1], ids=["below", "above"])
def test_fast_below_dense_at_route_boundary(name: str, offset: int, table, fitted) -> None:
    estimator = fitted[name]
    kernels = _kernel_count(estimator)
    count = fastpath._BUFFER_ELEMENTS // kernels + (1 if offset > 0 else 0)
    assert (count * kernels > fastpath._BUFFER_ELEMENTS) == (offset > 0)
    _assert_culled_within_atol(estimator, _selective_plan(estimator, table, count, seed=5))


@pytest.mark.parametrize("offset", [-1, 1], ids=["below", "above"])
def test_epanechnikov_straddling_domain_bounds(offset: int, table) -> None:
    estimator = KDESelectivityEstimator(sample_size=400, kernel="epanechnikov").fit(table)
    kernels = _kernel_count(estimator)
    count = fastpath._BUFFER_ELEMENTS // kernels + (1 if offset > 0 else 0)
    _assert_culled_within_atol(estimator, _straddling_plan(estimator, table, count, seed=7))


class TestSmallPlanRoute:
    def test_counts_every_query_as_culled(self, table, fitted, routes, monkeypatch) -> None:
        estimator = fitted["kde"]

        def unused(*_args, **_kwargs):
            raise AssertionError("small plans must not probe candidates")

        monkeypatch.setattr(fastpath.KernelSupportIndex, "candidate_counts", unused)
        monkeypatch.setattr(fastpath.KernelSupportIndex, "box_candidates", unused)
        monkeypatch.setattr(fastpath, "_spatial_groups", unused)
        # Wide boxes too: a small plan never routes to the dense kernel.
        plan = _selective_plan(estimator, table, 8, seed=9, width=0.9)
        estimator.estimate_batch(plan)
        estimator.estimate_batch(_selective_plan(estimator, table, 5, seed=9))
        assert _route_counts(routes) == (13, 0)

    def test_tiny_synopsis_counts_dense(self, table, routes) -> None:
        estimator = KDESelectivityEstimator(sample_size=fastpath._MIN_KERNELS - 1).fit(table)
        estimator.estimate_batch(_selective_plan(estimator, table, 6, seed=11))
        assert _route_counts(routes) == (0, 6)

    def test_boxes_missing_every_kernel_are_zero(self, fitted) -> None:
        estimator = fitted["streaming_ade"]
        far = np.full((3, 2), 1e6)
        plan = CompiledQueries(estimator.columns, far, far + 1.0)
        np.testing.assert_array_equal(estimator.estimate_batch(plan), 0.0)
