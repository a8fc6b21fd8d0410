"""Crash safety: checksums, quarantine + rollback, pointer repair, journal.

Every crash in this file is simulated deterministically through a
:class:`~repro.fault.FaultPlan` — no process kills — so each scenario replays
bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InjectedFault, PersistenceError, SnapshotCorruptError
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.fault.plan import FaultPlan, use_fault_plan
from repro.obs.metrics import MetricsRegistry, use_default_metrics
from repro.persist.journal import IngestJournal, JournaledIngest
from repro.persist.snapshot import load_estimator, save_estimator, verify_snapshot
from repro.persist.store import ModelStore
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

TABLE = gaussian_mixture_table(rows=1500, dimensions=2, seed=11, name="crash")
WORKLOAD = UniformWorkload(TABLE, volume_fraction=0.2, seed=12).generate(40)


def _fit(sample_size: int = 120) -> KDESelectivityEstimator:
    return KDESelectivityEstimator(sample_size=sample_size).fit(TABLE)


def _estimates(estimator) -> np.ndarray:
    return estimator.estimate_batch(compile_queries(WORKLOAD, estimator.columns))


# One snapshot, fitted and serialized once for the whole property run.
_REFERENCE = _fit()
_REFERENCE_ESTIMATES = _estimates(_REFERENCE)


@pytest.fixture(scope="module")
def snapshot_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("prop") / "ref.npz"
    save_estimator(_REFERENCE, path)
    return path.read_bytes()


class TestChecksumProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_single_bitflip_is_detected_or_harmless(
        self, data, snapshot_bytes: bytes, tmp_path_factory
    ) -> None:
        """Flip any one bit of a snapshot: the load either raises the typed
        corruption error or returns a bitwise-identical model (flips in zip
        padding/metadata that the reader never consumes are harmless) — it
        never silently serves corrupted estimates."""
        position = data.draw(
            st.integers(min_value=0, max_value=len(snapshot_bytes) * 8 - 1)
        )
        corrupted = bytearray(snapshot_bytes)
        corrupted[position // 8] ^= 1 << (position % 8)
        path = tmp_path_factory.mktemp("flip") / "flip.npz"
        path.write_bytes(bytes(corrupted))
        try:
            loaded = load_estimator(path)
        except (SnapshotCorruptError, PersistenceError):
            return
        np.testing.assert_array_equal(_estimates(loaded), _REFERENCE_ESTIMATES)

    def test_verify_snapshot_reports_checksum_presence(self, tmp_path) -> None:
        path = tmp_path / "ok.npz"
        save_estimator(_REFERENCE, path)
        assert verify_snapshot(path) is True


class TestTornPublish:
    def test_verified_publish_absorbs_torn_writes(self, tmp_path) -> None:
        store = ModelStore(tmp_path)
        plan = FaultPlan(seed=1)
        rule = plan.arm("persist.publish.write", action="torn", at=(1, 2))
        with use_fault_plan(plan):
            store.publish("m", _REFERENCE)
        assert rule.fired == 2  # two rewrites, third attempt clean
        np.testing.assert_array_equal(
            _estimates(store.load("m")), _REFERENCE_ESTIMATES
        )

    def test_unverified_corrupt_publish_rolls_back(self, tmp_path) -> None:
        store = ModelStore(tmp_path, verify_publish=False)
        intact = _fit(sample_size=90)
        store.publish("m", intact)
        plan = FaultPlan(seed=1)
        plan.arm("persist.publish.write", action="torn")
        with use_fault_plan(plan):
            store.publish("m", _REFERENCE)  # lands corrupt as v2

        version, loaded = store.load_latest("m")
        assert version.version == 1
        np.testing.assert_array_equal(_estimates(loaded), _estimates(intact))
        # The corrupt version was quarantined aside and the pointer repaired.
        assert list(tmp_path.glob("m/*.corrupt"))
        assert (tmp_path / "m" / "LATEST").read_text().strip() == "1"

    def test_all_versions_corrupt_raises_persistence_error(self, tmp_path) -> None:
        store = ModelStore(tmp_path, verify_publish=False)
        plan = FaultPlan(seed=1)
        plan.arm("persist.publish.write", action="torn")
        with use_fault_plan(plan):
            store.publish("m", _REFERENCE)
        with pytest.raises(PersistenceError):
            store.load_latest("m")

    def test_explicit_version_load_raises_without_quarantine(self, tmp_path) -> None:
        store = ModelStore(tmp_path, verify_publish=False)
        plan = FaultPlan(seed=1)
        plan.arm("persist.publish.write", action="torn")
        with use_fault_plan(plan):
            store.publish("m", _REFERENCE)
        with pytest.raises(SnapshotCorruptError):
            store.load("m", version=1)
        assert not list(tmp_path.glob("m/*.corrupt"))  # targeted load: no rename


class TestCrashedPublish:
    def test_crash_before_pointer_flip_never_commits(self, tmp_path) -> None:
        """The pointer flip is the commit point: a crash after the version
        slot is claimed but before the flip leaves the previous version
        live, and the next publish simply skips past the orphaned slot."""
        intact = _fit(sample_size=90)
        store = ModelStore(tmp_path)
        store.publish("m", intact)
        plan = FaultPlan(seed=1)
        plan.arm("persist.publish.crash", action="raise")
        with use_fault_plan(plan):
            with pytest.raises(InjectedFault):
                store.publish("m", _REFERENCE)

        # The crashed publish never committed: readers still get v1.
        restarted = ModelStore(tmp_path)
        assert restarted.latest_version("m") == 1
        np.testing.assert_array_equal(
            _estimates(restarted.load("m")), _estimates(intact)
        )
        # The orphaned v2 slot is claimed, so the next publish takes v3 and
        # commits normally.
        version = restarted.publish("m", _REFERENCE)
        assert version.version == 3
        assert (tmp_path / "m" / "LATEST").read_text().strip() == "3"
        np.testing.assert_array_equal(
            _estimates(restarted.load("m")), _REFERENCE_ESTIMATES
        )


class TestPointerRegression:
    @pytest.fixture()
    def store(self, tmp_path) -> ModelStore:
        store = ModelStore(tmp_path)
        store.publish("m", _fit(sample_size=90))
        store.publish("m", _REFERENCE)
        return store

    def test_zero_byte_pointer_falls_back_and_rewrites(self, store) -> None:
        pointer = store.root / "m" / "LATEST"
        pointer.write_bytes(b"")
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "2"

    def test_garbage_pointer_falls_back_and_rewrites(self, store) -> None:
        pointer = store.root / "m" / "LATEST"
        pointer.write_text("not-a-version\n")
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "2"

    def test_missing_pointer_falls_back_and_rewrites(self, store) -> None:
        pointer = store.root / "m" / "LATEST"
        pointer.unlink()
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "2"

    def test_dangling_pointer_falls_back(self, store) -> None:
        pointer = store.root / "m" / "LATEST"
        pointer.write_text("99\n")
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "2"

    def test_repair_never_regresses_a_valid_pointer(self, store) -> None:
        """A repair computed from a stale scan must lose to a concurrent
        publisher's newer pointer: the regress is only allowed when the
        pointed-to snapshot file is actually gone."""
        model_dir = store.root / "m"
        ModelStore._write_pointer(model_dir, 1, repair=True)
        assert (model_dir / "LATEST").read_text().strip() == "2"
        # Once v2 is gone (quarantined/deleted), the repair may regress.
        (model_dir / "v00000002.npz").unlink()
        ModelStore._write_pointer(model_dir, 1, repair=True)
        assert (model_dir / "LATEST").read_text().strip() == "1"

    def test_read_only_store_resolves_via_scan(self, store, monkeypatch) -> None:
        """A stale pointer on a store we cannot write to must still resolve
        through the version scan instead of raising from the repair."""
        pointer = store.root / "m" / "LATEST"
        pointer.write_text("99\n")

        def deny(*args, **kwargs):
            raise PermissionError(13, "read-only store")

        monkeypatch.setattr(ModelStore, "_write_pointer", staticmethod(deny))
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "99"  # nothing was rewritten


class TestIngestJournal:
    """The journal file on its own: checkpoint records come only from
    ``reset``, rows append after them, and replay tolerates damage."""

    def _rows(self, seed: int, count: int = 4) -> np.ndarray:
        return np.random.default_rng(seed).normal(size=(count, 2))

    def test_reset_leaves_one_checkpoint_record(self, tmp_path) -> None:
        with IngestJournal(tmp_path / "wal") as journal:
            journal.append_rows(self._rows(0))
            journal.append_rows(self._rows(1))
            journal.reset(3)
        replay = IngestJournal.replay(tmp_path / "wal")
        assert replay.checkpoint_version == 3
        assert replay.records == 1
        assert replay.batches == []
        assert not replay.torn_tail

    def test_rows_after_reset_replay_on_top_of_checkpoint(self, tmp_path) -> None:
        first, second = self._rows(2), self._rows(3, count=7)
        with IngestJournal(tmp_path / "wal") as journal:
            journal.append_rows(self._rows(1))
            journal.reset(2)
            assert journal.append_rows(first) == 2
            assert journal.append_rows(second) == 3
        replay = IngestJournal.replay(tmp_path / "wal")
        assert replay.checkpoint_version == 2
        assert replay.records == 3
        assert replay.rows == 11
        np.testing.assert_array_equal(replay.batches[0], first)
        np.testing.assert_array_equal(replay.batches[1], second)

    def test_missing_file_replays_empty(self, tmp_path) -> None:
        replay = IngestJournal.replay(tmp_path / "absent")
        assert replay.checkpoint_version is None
        assert replay.batches == [] and replay.records == 0
        assert not replay.torn_tail

    def test_foreign_file_replays_empty_with_torn_tail(self, tmp_path) -> None:
        (tmp_path / "wal").write_bytes(b"not a journal at all")
        replay = IngestJournal.replay(tmp_path / "wal")
        assert replay.checkpoint_version is None
        assert replay.batches == []
        assert replay.torn_tail

    def test_truncate_repairs_a_torn_tail(self, tmp_path) -> None:
        first, second, third = self._rows(4), self._rows(5), self._rows(6)
        path = tmp_path / "wal"
        with IngestJournal(path) as journal:
            journal.reset(1)
            journal.append_rows(first)
            journal.append_rows(second)
        path.write_bytes(path.read_bytes()[:-3])  # crash mid-append
        torn = IngestJournal.replay(path)
        assert torn.torn_tail
        assert len(torn.batches) == 1
        np.testing.assert_array_equal(torn.batches[0], first)
        with IngestJournal(path) as journal:
            journal.truncate(torn.intact_bytes)
            journal.append_rows(third)
        repaired = IngestJournal.replay(path)
        assert not repaired.torn_tail
        assert repaired.checkpoint_version == 1
        assert len(repaired.batches) == 2
        np.testing.assert_array_equal(repaired.batches[1], third)


class TestJournalCrashConsistency:
    def _batches(self, count: int = 8, rows: int = 32) -> list[np.ndarray]:
        rng = np.random.default_rng(3)
        matrix = TABLE.as_matrix()
        lo, hi = matrix.min(axis=0), matrix.max(axis=0)
        return [rng.uniform(lo, hi, size=(rows, 2)) for _ in range(count)]

    def _reference(self, batches, checkpoint_after: int) -> StreamingADE:
        reference = StreamingADE(max_kernels=48).fit(TABLE)
        for index, batch in enumerate(batches):
            reference.insert(batch)
            if index == checkpoint_after:
                reference.flush()  # the checkpoint's flush boundary
        reference.flush()
        return reference

    def test_replay_reproduces_the_model_bitwise(self, tmp_path) -> None:
        batches = self._batches()
        store = ModelStore(tmp_path / "store")
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            store,
            "m",
        )
        for index, batch in enumerate(batches):
            ingest.insert(batch)
            if index == 2:
                ingest.checkpoint()
        ingest.journal.close()  # crash: pending batches only in the journal

        recovered = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert recovered.last_recovery["replayed_batches"] == len(batches) - 3
        assert not recovered.last_recovery["torn_tail"]
        recovered.flush()
        np.testing.assert_array_equal(
            _estimates(recovered.estimator),
            _estimates(self._reference(batches, checkpoint_after=2)),
        )
        recovered.close()

    def test_torn_tail_is_discarded(self, tmp_path) -> None:
        batches = self._batches()
        store = ModelStore(tmp_path / "store")
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            store,
            "m",
        )
        plan = FaultPlan(seed=2)
        plan.arm("persist.journal.append", action="torn", at=(len(batches),))
        with use_fault_plan(plan):
            for index, batch in enumerate(batches):
                ingest.insert(batch)
                if index == 2:
                    ingest.checkpoint()
        ingest.journal.close()

        recovered = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert recovered.last_recovery["torn_tail"]
        assert recovered.last_recovery["replayed_batches"] == len(batches) - 4
        recovered.flush()
        np.testing.assert_array_equal(
            _estimates(recovered.estimator),
            _estimates(self._reference(batches[:-1], checkpoint_after=2)),
        )
        recovered.close()

    def test_torn_tail_is_truncated_before_new_appends(self, tmp_path) -> None:
        """Recovery cuts the garbage tail off the journal: batches inserted
        *after* a torn-tail recovery land contiguously after the last intact
        record, so they survive a second crash (the journal reopens in append
        mode — without the truncation they would be written past the garbage
        and be unreachable to replay)."""
        batches = self._batches()
        store = ModelStore(tmp_path / "store")
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            store,
            "m",
        )
        plan = FaultPlan(seed=2)
        plan.arm("persist.journal.append", action="torn", at=(len(batches),))
        with use_fault_plan(plan):
            for index, batch in enumerate(batches):
                ingest.insert(batch)
                if index == 2:
                    ingest.checkpoint()
        ingest.journal.close()

        recovered = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert recovered.last_recovery["torn_tail"]
        extra = self._batches(count=2, rows=16)
        for batch in extra:
            recovered.insert(batch)
        recovered.close()  # second crash, before any checkpoint

        again = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert not again.last_recovery["torn_tail"]
        assert (
            again.last_recovery["replayed_batches"]
            == (len(batches) - 4) + len(extra)
        )
        again.flush()
        np.testing.assert_array_equal(
            _estimates(again.estimator),
            _estimates(self._reference(batches[:-1] + extra, checkpoint_after=2)),
        )
        again.close()

    def test_stale_journal_is_not_replayed(self, tmp_path) -> None:
        """A journal whose checkpoint predates the loaded snapshot (someone
        published past it out-of-band) must not replay old rows on top."""
        batches = self._batches(count=4)
        store = ModelStore(tmp_path / "store")
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            store,
            "m",
        )
        for batch in batches:
            ingest.insert(batch)
        ingest.checkpoint()
        ingest.insert(batches[0])
        ingest.journal.close()
        # Out-of-band publish: the store moves past the journal's checkpoint.
        out_of_band = StreamingADE(max_kernels=48).fit(TABLE)
        store.publish("m", out_of_band)

        recovered = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert recovered.last_recovery["loaded_version"] == 2
        assert recovered.last_recovery["checkpoint_version"] == 1
        assert recovered.last_recovery["replayed_batches"] == 0
        recovered.close()

    def test_counters_record_to_the_registry_installed_at_call_time(
        self, tmp_path
    ) -> None:
        """The coordinator is built before any registry is installed; its
        insert/checkpoint counters still reach the scoped default registry,
        and stop once the scope ends."""
        batches = self._batches(count=3, rows=16)
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            ModelStore(tmp_path / "store"),
            "m",
        )
        registry = MetricsRegistry()
        with use_default_metrics(registry):
            for batch in batches:
                ingest.insert(batch)
            ingest.checkpoint()
        ingest.insert(batches[0])
        ingest.checkpoint()
        ingest.close()
        assert registry.counter("journal.appends").value == len(batches)
        assert registry.counter("journal.rows").value == 16 * len(batches)
        assert registry.counter("journal.checkpoints").value == 1
