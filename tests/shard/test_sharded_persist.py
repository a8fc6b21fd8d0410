"""Persistence and serving of sharded models.

The single-file snapshot contract for ``"sharded"`` is exercised by the
registry-wide suites in ``tests/persist``; this module pins the sharded
specifics: the single-archive layout (every shard and the partitioner in one
file), ModelStore round-trips, catalog save/restore, and serving through
:class:`EstimatorServer` with per-shard generation swaps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, SnapshotCorruptError
from repro.core.estimator import create_estimator
from repro.engine.catalog import Catalog
from repro.persist.snapshot import (
    CHECKSUM_KEY,
    FORMAT_VERSION,
    load_estimator,
    read_snapshot_header,
    save_estimator,
    verify_snapshot,
)
from repro.persist.store import ModelStore
from repro.serve import EstimatorServer
from repro.shard.sharded import ShardedEstimator


@pytest.fixture()
def sharded(mixture_table_2d) -> ShardedEstimator:
    return ShardedEstimator(
        {"name": "equidepth", "buckets": 32}, shards=3, partitioner="range"
    ).fit(mixture_table_2d)


class TestSingleArchiveSnapshot:
    def test_roundtrip_is_bitwise(self, sharded, workload_2d, tmp_path) -> None:
        before = sharded.estimate_batch(workload_2d)
        save_estimator(sharded, tmp_path / "model.npz")
        loaded = load_estimator(tmp_path / "model.npz")
        assert isinstance(loaded, ShardedEstimator)
        np.testing.assert_array_equal(loaded.estimate_batch(workload_2d), before)
        assert loaded.config() == sharded.config()
        assert loaded.row_count == sharded.row_count
        assert loaded.shard_count == sharded.shard_count
        np.testing.assert_array_equal(
            loaded.shard_row_counts(), sharded.shard_row_counts()
        )
        np.testing.assert_array_equal(
            loaded.partitioner.boundaries, sharded.partitioner.boundaries
        )

    def test_layout_is_one_archive(self, sharded, tmp_path) -> None:
        save_estimator(sharded, tmp_path / "model" / "sharded.npz")
        assert [p.name for p in (tmp_path / "model").iterdir()] == ["sharded.npz"]
        header = read_snapshot_header(tmp_path / "model" / "sharded.npz")
        assert header["format"] == FORMAT_VERSION
        assert header["estimator"] == "sharded"
        assert header["config"]["shards"] == 3
        assert [shard["estimator"] for shard in header["meta"]["shards"]] == [
            "equidepth"
        ] * 3

    def test_each_restored_shard_keeps_its_rows(self, sharded, tmp_path) -> None:
        save_estimator(sharded, tmp_path / "model.npz")
        loaded = load_estimator(tmp_path / "model.npz")
        for index, shard in enumerate(loaded.shard_estimators):
            assert shard.name == "equidepth"
            assert shard.row_count == sharded.shard_row_counts()[index]

    def test_checked_out_shard_saves_standalone(
        self, sharded, workload_2d, tmp_path
    ) -> None:
        shard = sharded.checkout_shard(1)
        save_estimator(shard, tmp_path / "shard-0001.npz")
        loaded = load_estimator(tmp_path / "shard-0001.npz")
        assert loaded.name == "equidepth"
        assert loaded.row_count == sharded.shard_row_counts()[1]
        np.testing.assert_array_equal(
            loaded.estimate_batch(workload_2d), shard.estimate_batch(workload_2d)
        )

    def test_damaged_shard_array_rejected(self, sharded, tmp_path) -> None:
        path = tmp_path / "model.npz"
        save_estimator(sharded, path)
        with np.load(path, allow_pickle=False) as data:
            payload = {key: data[key] for key in data.files}
        shard_keys = sorted(key for key in payload if key.startswith("a::s2::"))
        assert shard_keys, "shard arrays live inside the one archive"
        damaged = payload[shard_keys[0]].copy()
        damaged.flat[0] = damaged.flat[0] + 1
        payload[shard_keys[0]] = damaged
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        assert CHECKSUM_KEY in payload
        with pytest.raises(SnapshotCorruptError):
            verify_snapshot(path)
        with pytest.raises(SnapshotCorruptError):
            load_estimator(path)


class TestModelStoreIntegration:
    def test_store_publish_load_roundtrip(self, sharded, workload_2d, tmp_path) -> None:
        store = ModelStore(tmp_path / "store")
        before = sharded.estimate_batch(workload_2d)
        version = store.publish("stats", sharded)
        loaded = store.load("stats", version.version)
        assert isinstance(loaded, ShardedEstimator)
        np.testing.assert_array_equal(loaded.estimate_batch(workload_2d), before)
        header = store.describe("stats")
        assert header["estimator"] == "sharded"
        assert header["config"]["shards"] == 3

    def test_per_shard_snapshot_directory_coexists_with_store(
        self, sharded, workload_2d, tmp_path
    ) -> None:
        """A directory of per-shard snapshot files inside the store tree must
        not break version scans."""
        store = ModelStore(tmp_path / "store")
        store.publish("stats", sharded)
        root = tmp_path / "store"
        for foreign in (root / "stats" / "shards", root / "loose-shards"):
            for index, shard in enumerate(sharded.shard_estimators):
                save_estimator(shard, foreign / f"shard-{index:04d}.npz")
        assert store.versions("stats") == [1]
        assert store.latest_version("stats") == 1
        assert store.model_names() == ["stats"]
        store.publish("stats", sharded)
        assert store.versions("stats") == [1, 2]
        loaded = store.load("stats")
        np.testing.assert_array_equal(
            loaded.estimate_batch(workload_2d), sharded.estimate_batch(workload_2d)
        )

    def test_catalog_save_restore_sharded(
        self, mixture_table_2d, workload_2d, tmp_path
    ) -> None:
        catalog = Catalog()
        catalog.add_table(mixture_table_2d)
        catalog.attach_sharded(
            mixture_table_2d.name, "equiwidth", shards=2, partitioner="hash"
        )
        before = catalog.estimate_batch(mixture_table_2d.name, workload_2d)
        store = ModelStore(tmp_path / "store")
        catalog.save(store)

        restored = Catalog()
        restored.add_table(mixture_table_2d)
        assert restored.restore(store) == [mixture_table_2d.name]
        assert isinstance(restored.estimator(mixture_table_2d.name), ShardedEstimator)
        np.testing.assert_array_equal(
            restored.estimate_batch(mixture_table_2d.name, workload_2d), before
        )


class TestShardedServing:
    def test_serves_and_swaps_per_shard(self, sharded, workload_2d) -> None:
        server = EstimatorServer(sharded, cache_size=8)
        first = server.estimate_batch(workload_2d)
        np.testing.assert_array_equal(server.estimate_batch(workload_2d), first)
        assert server.cache_info().hits == 1

        generation = server.generation
        shard_copy = server.checkout_shard(0)
        new_generation = server.publish_shard(0, shard_copy)
        assert new_generation == generation + 1
        # The swapped-in copy is state-identical, so estimates are unchanged
        # but re-computed under the new generation (cache was invalidated).
        np.testing.assert_array_equal(server.estimate_batch(workload_2d), first)
        assert server.generation == new_generation

    def test_per_shard_swap_changes_estimates(
        self, mixture_table_2d, workload_2d
    ) -> None:
        sharded = ShardedEstimator(
            {"name": "reservoir_sampling", "sample_size": 128},
            shards=2,
            partitioner="hash",
        ).fit(mixture_table_2d)
        server = EstimatorServer(sharded, cache_size=8)
        shard_copy = server.checkout_shard(1)
        shard_copy.insert(np.random.default_rng(21).normal(5.0, 0.1, size=(5000, 2)))
        server.publish_shard(1, shard_copy)
        served = server.model
        assert isinstance(served, ShardedEstimator)
        assert served.shard(1).row_count > sharded.shard(1).row_count
        assert served.shard(0) is sharded.shard(0)  # untouched shard is shared

    def test_per_shard_swap_requires_sharded_model(self, mixture_table_2d) -> None:
        server = EstimatorServer(create_estimator("equiwidth").fit(mixture_table_2d))
        with pytest.raises(InvalidParameterError, match="not sharded"):
            server.checkout_shard(0)
