"""Contract tests for the batch-first estimator API.

The core guarantee of the redesign: for every registered estimator,
``estimate_batch`` over a workload is numerically identical (to 1e-12) to
looping the scalar ``estimate`` over the same queries — on 1-D and multi-D
tables, through both the query-list and the pre-compiled-plan entry points —
and the error behaviour (unfitted, uncovered attributes) matches the scalar
contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import DimensionMismatchError, NotFittedError
from repro.core.estimator import (
    SelectivityEstimator,
    available_estimators,
    create_estimator,
)
from repro.engine.table import Table
from repro.workload.queries import CompiledQueries, RangeQuery, compile_queries

ALL_ESTIMATORS = sorted(available_estimators())

#: Constructor overrides keeping per-test fit cost small.
_FAST_KWARGS: dict[str, dict] = {
    "kde": {"sample_size": 200},
    "adaptive_kde": {"sample_size": 200},
    "sampling": {"sample_size": 200},
    "reservoir_sampling": {"sample_size": 200},
    "streaming_ade": {"max_kernels": 32},
    "grid": {"cells_per_dim": 8},
    "st_histogram": {"cells_per_dim": 6},
    "wavelet": {"resolution": 64, "coefficients": 16},
}


def _fitted(name: str, table: Table) -> SelectivityEstimator:
    return create_estimator(name, **_FAST_KWARGS.get(name, {})).fit(table)


def _assert_batch_matches_scalar(estimator, queries) -> None:
    scalar = np.array([estimator.estimate(q) for q in queries], dtype=float)
    batch = estimator.estimate_batch(queries)
    assert batch.shape == (len(queries),)
    np.testing.assert_allclose(batch, scalar, rtol=0.0, atol=1e-12)
    plan = compile_queries(queries, estimator.columns)
    np.testing.assert_array_equal(estimator.estimate_batch(plan), batch)


@pytest.mark.parametrize("name", ALL_ESTIMATORS)
class TestBatchScalarEquivalence:
    def test_1d(self, name: str, small_table: Table, workload_1d) -> None:
        _assert_batch_matches_scalar(_fitted(name, small_table), workload_1d)

    def test_multid(self, name: str, mixture_table_2d: Table, workload_2d) -> None:
        _assert_batch_matches_scalar(_fitted(name, mixture_table_2d), workload_2d)

    def test_partial_queries(self, name: str, mixture_table_2d: Table) -> None:
        """Queries constraining a strict subset of the fitted columns."""
        estimator = _fitted(name, mixture_table_2d)
        domain = mixture_table_2d.domain()
        queries = [
            RangeQuery({"x0": (domain["x0"][0], (domain["x0"][0] + domain["x0"][1]) / 2)}),
            RangeQuery({"x1": (domain["x1"][0], domain["x1"][1])}),
            RangeQuery({"x0": (0.0, 1.0), "x1": (-1.0, 0.5)}),
        ]
        _assert_batch_matches_scalar(estimator, queries)

    def test_unfitted_raises(self, name: str) -> None:
        estimator = create_estimator(name, **_FAST_KWARGS.get(name, {}))
        with pytest.raises(NotFittedError):
            estimator.estimate_batch([RangeQuery({"x0": (0.0, 1.0)})])

    def test_uncovered_attribute_raises(self, name: str, small_table: Table) -> None:
        estimator = _fitted(name, small_table)
        with pytest.raises(DimensionMismatchError):
            estimator.estimate_batch([RangeQuery({"other": (0.0, 1.0)})])

    def test_mismatched_plan_raises(self, name: str, small_table: Table) -> None:
        estimator = _fitted(name, small_table)
        plan = CompiledQueries(("other",), np.zeros((2, 1)), np.ones((2, 1)))
        with pytest.raises(DimensionMismatchError):
            estimator.estimate_batch(plan)

    def test_empty_batch(self, name: str, small_table: Table) -> None:
        estimator = _fitted(name, small_table)
        for empty in ([], (), compile_queries([], estimator.columns)):
            result = estimator.estimate_batch(empty)
            assert result.shape == (0,)
            assert result.dtype == np.float64
        # The short-circuit must not swallow plan-routing bugs: an empty plan
        # compiled for a different synopsis still raises.
        foreign = CompiledQueries(("other",), np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(DimensionMismatchError):
            estimator.estimate_batch(foreign)

    def test_empty_batch_never_touches_the_model(self, name: str, small_table: Table) -> None:
        """The short-circuit happens before plan compilation and estimation."""
        estimator = _fitted(name, small_table)
        calls = []
        original = type(estimator)._estimate_batch

        def spy(self, lows, highs):
            calls.append(lows.shape)
            return original(self, lows, highs)

        type(estimator)._estimate_batch = spy
        try:
            estimator.estimate_batch([])
        finally:
            type(estimator)._estimate_batch = original
        assert calls == []

    def test_cardinality_batch(self, name: str, small_table: Table, workload_1d) -> None:
        estimator = _fitted(name, small_table)
        cardinalities = estimator.estimate_cardinality_batch(workload_1d)
        expected = estimator.estimate_batch(workload_1d) * small_table.row_count
        np.testing.assert_array_equal(cardinalities, expected)


class TestFeedbackEquivalence:
    """Region corrections are the subtlest vectorization: check them after
    the feedback log is populated, not just on a freshly fitted wrapper."""

    @pytest.mark.parametrize("name", ["feedback_ade", "st_histogram"])
    def test_batch_matches_scalar_after_feedback(
        self, name: str, mixture_table_2d: Table, workload_2d
    ) -> None:
        estimator = _fitted(name, mixture_table_2d)
        truths = mixture_table_2d.true_selectivities(workload_2d)
        for query, truth in zip(workload_2d[:30], truths[:30]):
            estimator.feedback(query, float(truth))
        _assert_batch_matches_scalar(estimator, workload_2d)


class TestLoopFallback:
    """Third-party estimators that only implement the scalar contract."""

    class ScalarOnly(SelectivityEstimator):
        name = "scalar_only"

        def fit(self, table, columns=None):
            columns = self._resolve_columns(table, columns)
            self._domain = table.domain(columns)
            self._mark_fitted(columns, table.row_count)
            return self

        def estimate(self, query: RangeQuery) -> float:
            lows, highs = self._query_bounds(query)
            fraction = 1.0
            for d, column in enumerate(self._columns):
                low, high = self._domain[column]
                width = max(high - low, 1e-12)
                covered = max(min(highs[d], high) - max(lows[d], low), 0.0)
                fraction *= covered / width
            return self._clip_fraction(fraction)

        def memory_bytes(self) -> int:
            return 0

    class NoEstimate(SelectivityEstimator):
        name = "no_estimate"

        def fit(self, table, columns=None):
            self._mark_fitted(self._resolve_columns(table, columns), table.row_count)
            return self

        def memory_bytes(self) -> int:
            return 0

    def test_scalar_only_estimator_batches_via_loop(self, small_table, workload_1d) -> None:
        estimator = self.ScalarOnly().fit(small_table)
        _assert_batch_matches_scalar(estimator, workload_1d)

    def test_estimator_without_any_path_raises(self, small_table) -> None:
        estimator = self.NoEstimate().fit(small_table)
        with pytest.raises(NotImplementedError):
            estimator.estimate_batch([RangeQuery({"x0": (0.0, 1.0)})])
