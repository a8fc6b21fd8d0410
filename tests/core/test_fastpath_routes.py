"""The fast path's two culled routes: small-plan pairs and large-plan groups.

Plans with ``queries × kernels ≤ _BUFFER_ELEMENTS`` mask every (box, kernel)
pair against all kernels; larger plans narrow each spatial group with
``box_candidates`` first and mask inside the group.  Both sum a selective
box over exactly the kernels whose support overlaps it, in ascending kernel
order, so a box's estimate must not depend on the plan it arrives in.  Both
must stay within :data:`~repro.core.fastpath.DEFAULT_ATOL` of the dense
path and below it (culling only ever drops mass), on either side of the
route boundary.

On a reflecting axis a kernel's mirror image at a domain bound is evaluated
only when the kernel's support reaches that bound; the dropped images stay
within the same budget and, for compact kernels, drop nothing at all.  The
near-bound masks are cached with the support entry, so a bandwidth change
or a snapshot restore after an estimate must not leave stale masks behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fastpath
from repro.core.adaptive import AdaptiveKDEEstimator
from repro.core.estimator import create_estimator
from repro.core.fastpath import DEFAULT_ATOL, fastpath_disabled
from repro.core.kde import KDESelectivityEstimator
from repro.data.generators import gaussian_mixture_table, uniform_table
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


def _edge_boxes(low: np.ndarray, high: np.ndarray, count: int, seed: int):
    """Boxes that straddle, touch (from inside or outside) or lie beyond a bound.

    Each box picks one axis and one bound of the domain ``[low, high]`` and
    is placed against it that way; its other axes are random sub-intervals.
    """
    rng = np.random.default_rng(seed)
    span = high - low
    half = span * rng.uniform(0.002, 0.2, size=(count, low.size))
    centers = low + rng.random((count, low.size)) * span
    lows, highs = centers - half, centers + half
    for row in range(count):
        axis = rng.integers(low.size)
        upper = rng.random() < 0.5
        bound = high[axis] if upper else low[axis]
        inward = -1.0 if upper else 1.0  # direction from the bound into the domain
        width = 2.0 * half[row, axis]
        kind = row % 4
        if kind == 0:  # straddles the bound
            ends = (bound - 0.5 * width, bound + 0.5 * width)
        elif kind == 1:  # touches it from inside
            ends = (bound, bound + inward * width)
        elif kind == 2:  # touches it from outside
            ends = (bound, bound - inward * width)
        else:  # lies wholly outside
            ends = (bound - inward * 0.1 * width, bound - inward * 1.1 * width)
        lows[row, axis], highs[row, axis] = min(ends), max(ends)
    return lows, highs


class TestReflectedImageCull:
    """Mirror images are evaluated only for kernels near their domain bound."""

    @pytest.fixture(
        scope="class",
        params=[
            (name, kernel, dims)
            for name in ("kde", "adaptive_kde")
            for kernel in ("gaussian", "epanechnikov")
            for dims in (1, 2, 3, 4)
        ],
        ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}d",
    )
    def model(self, request):
        name, kernel, dims = request.param
        table = uniform_table(3000, dimensions=dims, seed=40 + dims)
        estimator = create_estimator(
            name, sample_size=256, kernel=kernel, bandwidths=[0.02] * dims
        ).fit(table)
        return estimator, kernel

    def test_estimates_culled_downward_within_atol(self, model, routes) -> None:
        estimator, _kernel = model
        low, high = estimator._domain_low, estimator._domain_high
        near_low, near_high = estimator._support().near_bounds(low, high)
        # The cull is real: on every axis some kernels are near a bound and
        # some are not.
        assert np.all(near_low.any(axis=1) & ~near_low.all(axis=1))
        assert np.all(near_high.any(axis=1) & ~near_high.all(axis=1))
        kernels = _kernel_count(estimator)
        for count in (40, fastpath._BUFFER_ELEMENTS // kernels + 40):  # pair, then groups
            lows, highs = _edge_boxes(low, high, count, seed=count)
            # A third of the large plan is wide boxes: the dense route.
            wide = np.arange(count) % 3 == 0 if count > 40 else np.zeros(count, bool)
            lows[wide], highs[wide] = low - 0.1, high - 0.05 * (high - low)
            plan = CompiledQueries(estimator.columns, lows, highs)
            fast = estimator.estimate_batch(plan)
            with fastpath_disabled():
                dense = estimator.estimate_batch(plan)
            np.testing.assert_allclose(fast, dense, rtol=0.0, atol=DEFAULT_ATOL)
            assert np.all(fast <= dense + 1e-15), float(np.max(fast - dense))
        culled, dense_routed = _route_counts(routes)
        assert dense_routed == np.count_nonzero(wide) and culled > 0

    def test_axis_mass_culls_only_far_images(self, model) -> None:
        estimator, kernel = model
        low, high = estimator._domain_low, estimator._domain_high
        lows, highs = _edge_boxes(low, high, 64, seed=3)
        kernels = _kernel_count(estimator)
        pair_box = np.repeat(np.arange(64), kernels)
        pair_ids = np.tile(np.arange(kernels), 64)
        for axis in range(low.size):
            calls = (
                (None, lows[:, axis, None], highs[:, axis, None]),  # dense mode
                (pair_ids, lows[pair_box, axis], highs[pair_box, axis]),  # pair mode
            )
            for ids, box_lows, box_highs in calls:
                culled = estimator._axis_mass(ids, axis, box_lows, box_highs)
                with fastpath_disabled():
                    every = estimator._axis_mass(ids, axis, box_lows, box_highs)
                if kernel == "epanechnikov":
                    # A far image of a compact kernel has mass exactly 0.
                    np.testing.assert_array_equal(culled, every)
                else:
                    assert np.all(culled <= every)
                    assert np.max(every - culled) <= 2 * fastpath.cull_epsilon()


def _edge_plan(estimator, count: int = 60) -> CompiledQueries:
    lows, highs = _edge_boxes(estimator._domain_low, estimator._domain_high, count, seed=2)
    return CompiledQueries(estimator.columns, lows, highs)


def _near_kernel_count(estimator) -> int:
    """Kernels of the current epoch whose support reaches some domain bound."""
    near_low, near_high = estimator._support().near_bounds(
        estimator._domain_low, estimator._domain_high
    )
    return int(np.count_nonzero(near_low) + np.count_nonzero(near_high))


class TestImageMaskStaleness:
    """A much wider bandwidth moves kernels near the bounds: masks left over
    from the narrow one would drop those kernels' mirror images."""

    def test_kde_masks_follow_set_bandwidths(self) -> None:
        table = uniform_table(2000, dimensions=2, seed=31)
        estimator = KDESelectivityEstimator(sample_size=400, bandwidths=[0.005, 0.005]).fit(table)
        plan = _edge_plan(estimator)
        _assert_culled_within_atol(estimator, plan)
        narrow = _near_kernel_count(estimator)
        estimator.set_bandwidths([0.1, 0.1])
        _assert_culled_within_atol(estimator, plan)
        assert _near_kernel_count(estimator) > 4 * narrow

    def test_adaptive_masks_follow_snapshot_restore(self) -> None:
        table = uniform_table(2000, dimensions=2, seed=37)
        estimator = AdaptiveKDEEstimator(sample_size=400, bandwidths=[0.005, 0.005]).fit(table)
        plan = _edge_plan(estimator)
        _assert_culled_within_atol(estimator, plan)
        narrow = _near_kernel_count(estimator)
        wide = AdaptiveKDEEstimator(sample_size=400, bandwidths=[0.1, 0.1]).fit(table)
        estimator.load_state(wide.state_dict())
        _assert_culled_within_atol(estimator, plan)
        assert _near_kernel_count(estimator) > 4 * narrow
        np.testing.assert_array_equal(estimator.estimate_batch(plan), wide.estimate_batch(plan))
