"""Unit tests for the in-memory column table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import CatalogError, DimensionMismatchError, InvalidParameterError
from repro.engine.table import ColumnStats, Table
from repro.workload.queries import RangeQuery, compile_queries


@pytest.fixture()
def table() -> Table:
    return Table(
        "people",
        {
            "age": [20, 30, 40, 50, 60],
            "salary": [1000.0, 2000.0, 3000.0, 4000.0, 5000.0],
        },
    )


class TestConstruction:
    def test_basic(self, table: Table) -> None:
        assert table.row_count == 5
        assert table.column_names == ("age", "salary")
        assert len(table) == 5
        assert "age" in table

    def test_from_array_default_names(self) -> None:
        t = Table.from_array("t", np.arange(12).reshape(6, 2))
        assert t.column_names == ("x0", "x1")
        assert t.row_count == 6

    def test_from_array_custom_names(self) -> None:
        t = Table.from_array("t", np.ones((3, 2)), ["a", "b"])
        assert t.column_names == ("a", "b")

    def test_from_array_name_mismatch_raises(self) -> None:
        with pytest.raises(InvalidParameterError):
            Table.from_array("t", np.ones((3, 2)), ["only_one"])

    def test_unequal_columns_raise(self) -> None:
        with pytest.raises(InvalidParameterError):
            Table("t", {"a": [1, 2], "b": [1, 2, 3]})

    def test_empty_columns_raise(self) -> None:
        with pytest.raises(InvalidParameterError):
            Table("t", {})

    def test_unknown_column_raises(self, table: Table) -> None:
        with pytest.raises(CatalogError):
            table.column("height")


class TestAccessors:
    def test_columns_matrix(self, table: Table) -> None:
        matrix = table.columns(["salary", "age"])
        assert matrix.shape == (5, 2)
        assert matrix[0, 0] == 1000.0
        assert matrix[0, 1] == 20.0

    def test_as_matrix(self, table: Table) -> None:
        assert table.as_matrix().shape == (5, 2)

    def test_stats(self, table: Table) -> None:
        stats = table.stats("age")
        assert isinstance(stats, ColumnStats)
        assert stats.count == 5
        assert stats.minimum == 20.0
        assert stats.maximum == 60.0
        assert stats.mean == pytest.approx(40.0)
        assert stats.distinct == 5
        assert stats.width == 40.0

    def test_stats_empty_column(self) -> None:
        stats = ColumnStats("x", np.array([]))
        assert stats.count == 0
        assert stats.width == 0.0

    def test_domain(self, table: Table) -> None:
        domain = table.domain()
        assert domain["age"] == (20.0, 60.0)
        assert domain["salary"] == (1000.0, 5000.0)

    def test_iter_rows(self, table: Table) -> None:
        rows = list(table.iter_rows(["age"]))
        assert rows == [(20.0,), (30.0,), (40.0,), (50.0,), (60.0,)]


class TestQueries:
    def test_true_count_and_selectivity(self, table: Table) -> None:
        query = RangeQuery({"age": (25, 45)})
        assert table.true_count(query) == 2
        assert table.true_selectivity(query) == pytest.approx(0.4)

    def test_conjunctive_query(self, table: Table) -> None:
        query = RangeQuery({"age": (25, 55), "salary": (2500, 10_000)})
        assert table.true_count(query) == 2  # ages 40 and 50

    def test_boundaries_inclusive(self, table: Table) -> None:
        query = RangeQuery({"age": (20, 20)})
        assert table.true_count(query) == 1

    def test_empty_result(self, table: Table) -> None:
        assert table.true_count(RangeQuery({"age": (100, 200)})) == 0
        assert table.true_selectivity(RangeQuery({"age": (100, 200)})) == 0.0

    def test_select_returns_matching_rows(self, table: Table) -> None:
        selected = table.select(RangeQuery({"age": (25, 45)}))
        assert selected.row_count == 2
        assert set(selected.column("age")) == {30.0, 40.0}

    def test_selection_mask_shape(self, table: Table) -> None:
        mask = table.selection_mask(RangeQuery({"age": (0, 100)}))
        assert mask.shape == (5,)
        assert mask.all()


class TestMutation:
    def test_append_rows(self, table: Table) -> None:
        added = table.append_rows({"age": [70], "salary": [6000.0]})
        assert added == 1
        assert table.row_count == 6
        assert table.column("age")[-1] == 70.0

    def test_append_matrix(self, table: Table) -> None:
        table.append_matrix(np.array([[80.0, 7000.0], [90.0, 8000.0]]))
        assert table.row_count == 7

    def test_append_missing_column_raises(self, table: Table) -> None:
        with pytest.raises(DimensionMismatchError):
            table.append_rows({"age": [70]})

    def test_append_length_mismatch_raises(self, table: Table) -> None:
        with pytest.raises(DimensionMismatchError):
            table.append_rows({"age": [70, 80], "salary": [1.0]})

    def test_append_matrix_shape_mismatch_raises(self, table: Table) -> None:
        with pytest.raises(DimensionMismatchError):
            table.append_matrix(np.ones((2, 3)))


class TestSampling:
    def test_sample_size(self, table: Table) -> None:
        sample = table.sample(3, np.random.default_rng(0))
        assert sample.row_count == 3
        assert sample.column_names == table.column_names

    def test_sample_larger_than_table_returns_all(self, table: Table) -> None:
        assert table.sample(100).row_count == table.row_count

    def test_sample_values_come_from_table(self, table: Table) -> None:
        sample = table.sample(4, np.random.default_rng(1))
        assert set(sample.column("age")).issubset(set(table.column("age")))


class TestBatchGroundTruth:
    def test_true_counts_match_scalar(self, table: Table) -> None:
        queries = [
            RangeQuery({"age": (25, 45)}),
            RangeQuery({"age": (0, 100), "salary": (2500.0, 4500.0)}),
            RangeQuery({"salary": (10_000.0, 20_000.0)}),
        ]
        counts = table.true_counts(queries)
        np.testing.assert_array_equal(counts, [table.true_count(q) for q in queries])
        selectivities = table.true_selectivities(queries)
        np.testing.assert_allclose(
            selectivities, [table.true_selectivity(q) for q in queries]
        )

    def test_true_counts_accepts_compiled_plan(self, table: Table) -> None:
        queries = [RangeQuery({"age": (25, 45)})]
        plan = compile_queries(queries, ["age"])
        np.testing.assert_array_equal(table.true_counts(plan), table.true_counts(queries))

    def test_true_counts_exact_across_scratch_blocks(self) -> None:
        """Plans larger than one scratch block (the last one partial) count
        exactly like per-query selection masks."""
        rng = np.random.default_rng(4)
        rows = 400_000  # 2 queries per block: 5 queries take 3 blocks
        big = Table("big", {"x": rng.random(rows), "y": rng.integers(0, 10, rows)})
        queries = [
            RangeQuery({"x": (0.1, 0.4)}),
            RangeQuery({"x": (0.2, 0.9), "y": (3, 7)}),
            RangeQuery({"y": (5, 5)}),
            RangeQuery({"x": (2.0, 3.0)}),
            RangeQuery({"x": (0.0, 1.0), "y": (0, 9)}),
        ]
        expected = [int(np.count_nonzero(big.selection_mask(q))) for q in queries]
        np.testing.assert_array_equal(big.true_counts(queries), expected)

    def test_true_counts_unknown_plan_column_raises(self, table: Table) -> None:
        plan = compile_queries([RangeQuery({"height": (0, 1)})], ["height"])
        with pytest.raises(CatalogError):
            table.true_counts(plan)

    def test_true_counts_empty_workload(self, table: Table) -> None:
        assert table.true_counts([]).shape == (0,)

    def test_true_selectivities_empty_table(self) -> None:
        empty = Table("empty", {"x": []})
        values = empty.true_selectivities([RangeQuery({"x": (0, 1)})])
        np.testing.assert_array_equal(values, [0.0])
