"""The three benchmark workloads, driven through the public API.

Each workload is one process and one closed-loop client: the next op is
sent when the previous one returned, as the estimator's callers (a query
optimizer, an ingest pipeline) wait for each answer.  ``seed`` fixes every
input; the program under test receives only the generated inputs.

A workload object is set up once, then :meth:`Workload.step` runs one op at
a time (timing it from raw ``perf_counter`` samples), and
:meth:`Workload.finish` runs the post-run correctness checks.  Time spent
in sampled correctness checks during the loop is kept in
``check_seconds`` and excluded from the timed wall.
"""

from __future__ import annotations

import copy
import shutil
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

from repro.core.adaptive import AdaptiveKDEEstimator
from repro.core.fastpath import fastpath_disabled
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table, uniform_table
from repro.data.streams import sudden_drift_stream
from repro.engine.table import Table
from repro.persist.journal import JournaledIngest
from repro.persist.store import ModelStore
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.server import EstimatorServer
from repro.traffic import DEFAULT_TENANTS, TrafficSimulator
from repro.workload.generators import UniformWorkload
from repro.workload.queries import CompiledQueries, compile_queries

#: Seed of every workload's data set and model.  The data set is part of the
#: workload's definition; ``--seed`` varies the requests sent against it
#: (traffic schedule, plans, ingest row draws, accuracy queries), so that a
#: metric's run-to-run spread measures the program, not a different data set.
DATA_SEED = 20060912

#: Maximum deviation of a served answer from the dense reference path.
ANSWER_TOLERANCE = 1e-9

#: Sizes per scale.  ``tiny`` exists for ``perfbench/selftest.py`` only.
SCALES = {
    "full": {
        "serve_rows": 50_000,
        "serve_virtual_seconds": 60.0,
        "serve_warmup_events": 500,
        "serve_check_every": 97,
        "batch_rows": 30_000,
        "batch_sample": 2048,
        "batch_selective_queries": 4000,
        "batch_wide_queries": 500,
        "batch_check_every": 4,
        "ingest_pass_batches": 400,
        "ingest_checkpoint_every": 100,
        "ingest_reference_rows": 20_000,
        "ingest_warmup_batches": 4,
        "accuracy_queries": 4000,
    },
    "tiny": {
        "serve_rows": 3_000,
        "serve_virtual_seconds": 2.0,
        "serve_warmup_events": 20,
        "serve_check_every": 5,
        "batch_rows": 3_000,
        "batch_sample": 256,
        "batch_selective_queries": 200,
        "batch_wide_queries": 40,
        "batch_check_every": 1,
        "ingest_pass_batches": 20,
        "ingest_checkpoint_every": 5,
        "ingest_reference_rows": 2_000,
        "ingest_warmup_batches": 2,
        "accuracy_queries": 100,
    },
}

#: Length of the timed blocks; each block's times are scaled by the median
#: calibration op timed within it (see ``calibration.py``).
BLOCK_SECONDS = 2.0

#: Per-layer metrics counted by the workloads rather than by spans.
_WORKLOAD_COUNTS = (
    "serve.hit_rate",
    "serve.invalidations",
    "serve.hit_share.dashboard",
    "serve.hit_share.adhoc",
    "serve.hit_share.ingest",
    "journal.bytes_per_row_byte",
)

#: batch_scan's tail: the highest percentile of selective-call latency with
#: ten or more of a 30-second run's ~60 selective calls beyond it.
TAIL_PERCENTILE_BATCH = 80

#: ingest_durable's tail, over per-ack thread CPU time: in four identical
#: 20-second runs on a 2-CPU VM the CPU-time p95 moved by 4%, its p99 by 19%.
TAIL_PERCENTILE_INGEST = 95

#: batch_scan plans (alternating kinds) whose answers are scored for accuracy.
_SCORED_PLANS = 4

#: Queries compared against the dense reference per checked batch_scan call.
_CHECKED_QUERIES = 32


def percentile(samples: list[float], q: float) -> float:
    """Exact (linearly interpolated) percentile of raw samples; NaN if none.

    A NaN metric fails the run (``run.py`` counts non-finite metrics as
    failures).
    """
    if not samples:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


class Workload:
    """Common workload state: samples, failure accounting, check timing."""

    name = ""
    #: True when ops wait on the disk: their wait is then scaled by the disk
    #: calibration and their thread CPU time by the machine calibration.
    uses_disk = False

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = int(seed)
        self.config = SCALES[scale]
        self.workdir = workdir
        self.probe = None  # a layers.LayerProbe in traced runs
        #: kind -> [(block, seconds, thread CPU seconds or None)] of every timed op
        self.samples: dict[str, list[tuple[int, float, float | None]]] = {}
        self.units = 0
        self.block = 0
        #: False while ops run outside the timed loop (post-run checks)
        self.recording = True
        #: block -> raw-to-calibrated factor of CPU and of disk-wait time;
        #: 1.0 (raw) when absent
        self.factors: dict[int, float] = {}
        self.disk_factors: dict[int, float] = {}
        self.default_factor = 1.0
        self.default_disk_factor = 1.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_seconds = 0.0

    # -- accounting ----------------------------------------------------------
    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def record(self, kind: str, seconds: float, cpu: float | None = None) -> None:
        if self.recording:
            self.samples.setdefault(kind, []).append((self.block, seconds, cpu))

    def add_units(self, count: int) -> None:
        if self.recording:
            self.units += count

    def set_factors(self, factors, default, disk_factors, default_disk) -> None:
        """Scale later-read times of block ``b`` by ``factors[b]``.

        The disk wait of samples with a CPU time (wall minus CPU time) is
        scaled by ``disk_factors[b]`` instead.
        """
        self.factors, self.default_factor = factors, default
        self.disk_factors, self.default_disk_factor = disk_factors, default_disk

    def times(self, kind: str) -> list[float]:
        """Latency samples of ``kind``, scaled by their block's factors."""
        factors, default = self.factors, self.default_factor
        disk, disk_default = self.disk_factors, self.default_disk_factor
        return [
            s * factors.get(b, default)
            if cpu is None
            else cpu * factors.get(b, default) + max(0.0, s - cpu) * disk.get(b, disk_default)
            for b, s, cpu in self.samples.get(kind, [])
        ]

    def cpu_times(self, kind: str) -> list[float]:
        """Thread CPU time of the samples of ``kind``, scaled."""
        factors, default = self.factors, self.default_factor
        return [cpu * factors.get(b, default) for b, _s, cpu in self.samples.get(kind, [])]

    def reset_samples(self) -> None:
        """Forget warm-up timings: only the timed loop is reported.

        Warm-up ops stay in ``attempted`` (and in ``failed`` if they fail).
        """
        self.samples = {}
        self.units = 0
        self.check_seconds = 0.0

    def check(self, passed: bool, message: str) -> None:
        if not passed:
            self.fail(message)

    def _paused(self):
        if self.probe is None:
            return nullcontext()
        return self.probe.tracer.paused()

    def step(self) -> None:
        """Run one op; an op that raises counts as failed."""
        self.attempted += 1
        if self.probe is not None:
            self.probe.tracer.next_request()
        try:
            self._step()
        except Exception as error:  # noqa: BLE001 - the loop must keep measuring
            self.fail(f"{type(error).__name__}: {error}")

    # -- hooks -----------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def _step(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Post-run correctness checks and accuracy (untimed)."""

    def end_to_end(self, wall: float) -> tuple[dict[str, float], dict[str, int], dict]:
        """(metric values, sample count behind each, descriptive detail).

        ``wall`` is the timed wall, scaled like the samples.
        """
        raise NotImplementedError

    def layer_counts(self) -> dict[str, float]:
        """Per-layer metrics the workload measures itself (traced runs).

        Zero where the workload does not exercise the layer.
        """
        return dict.fromkeys(_WORKLOAD_COUNTS, 0.0)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _max_deviation(served: np.ndarray, reference: np.ndarray) -> float:
    if served.shape != reference.shape:
        return float("inf")
    return float(np.max(np.abs(served - reference))) if served.size else 0.0


class ServeMix(Workload):
    """Replay of a fixed three-tenant traffic schedule against the server.

    ``TrafficSimulator.schedule`` fixes the events (tenant, op, plan index);
    the events are replayed in order, cyclically, as a closed loop, with the
    op semantics of ``TrafficSimulator.run``: a query is one
    ``estimate_batch`` call, an ingest op is checkout + insert + flush +
    publish.  The simulator's own report is not used because its latency
    histogram buckets are ~12% wide; every op is timed here instead.
    """

    name = "serve_mix"

    def setup(self) -> None:
        config = self.config
        table = gaussian_mixture_table(config["serve_rows"], dimensions=2, seed=DATA_SEED)
        model = StreamingADE(max_kernels=256).fit(table)
        self.initial_model = copy.deepcopy(model)
        self.server = EstimatorServer(
            model,
            cache_size=32,
            admission=AdmissionController(),  # no quotas: never refuses
            breaker=CircuitBreaker(),
        )
        self.table = table
        self.matrix = table.as_matrix()
        simulator = TrafficSimulator(self.server, table, DEFAULT_TENANTS, seed=self.seed)
        self.duration = config["serve_virtual_seconds"]
        self.events = simulator.schedule(self.duration)
        self.profiles = {profile.name: profile for profile in DEFAULT_TENANTS}
        self.pools = {}
        for index, profile in enumerate(DEFAULT_TENANTS):
            queries = UniformWorkload(
                table,
                attributes=self.server.columns,
                volume_fraction=profile.volume_fraction,
                seed=self.seed * 1009 + index,
            ).generate(profile.plan_pool * profile.queries_per_plan)
            size = profile.queries_per_plan
            self.pools[profile.name] = [
                compile_queries(queries[start : start + size], self.server.columns)
                for start in range(0, len(queries), size)
            ]
        self.rows_rng = np.random.default_rng([self.seed, 17])
        self.position = 0
        self.queries_done = 0
        self.reset_samples()  # creates the per-tenant hit tallies
        for _ in range(config["serve_warmup_events"]):
            self.step()
        self.reset_samples()
        self.server.reset_stats()

    def reset_samples(self) -> None:
        super().reset_samples()
        #: tenant -> [cache hits, queries]
        self.hits = {name: [0, 0] for name in self.profiles}

    def _step(self) -> None:
        cycle, index = divmod(self.position, len(self.events))
        self.position += 1
        event = self.events[index]
        now = cycle * self.duration + event.time
        server = self.server
        if event.op == "query":
            plan = self.pools[event.tenant][event.plan]
            before = server.cache_info().hits
            start = perf_counter()
            answer = server.estimate_batch(plan, tenant=event.tenant, now=now)
            elapsed = perf_counter() - start
            hit = server.cache_info().hits - before
            self.record(f"{event.tenant}.{'hit' if hit else 'miss'}", elapsed)
            self.add_units(1)
            if self.recording:
                tally = self.hits[event.tenant]
                tally[0] += hit
                tally[1] += 1
            self.queries_done += 1
            if self.queries_done % self.config["serve_check_every"] == 0:
                self._check_answer(plan, answer)
            return
        profile = self.profiles[event.tenant]
        rows = None
        if event.op == "ingest":
            draw = self.rows_rng.integers(0, self.matrix.shape[0], profile.ingest_rows)
            rows = self.matrix[draw]
        start = perf_counter()
        server.admission.admit(event.tenant, event.op, now=now)
        model = server.checkout()
        if rows is not None:
            model.insert(rows)
            model.flush()
        server.publish(model)
        self.record("write", perf_counter() - start)
        self.add_units(1)

    def _check_answer(self, plan: CompiledQueries, answer: np.ndarray) -> None:
        start = perf_counter()
        with self._paused(), fastpath_disabled():
            reference = self.server.model.estimate_batch(plan)
        deviation = _max_deviation(np.asarray(answer), reference)
        self.check(
            deviation <= ANSWER_TOLERANCE,
            f"served answer deviates from the dense reference by {deviation:.3g}",
        )
        self.check_seconds += perf_counter() - start

    def finish(self) -> None:
        queries = []
        for index, profile in enumerate(DEFAULT_TENANTS):
            queries += UniformWorkload(
                self.table,
                attributes=self.server.columns,
                volume_fraction=profile.volume_fraction,
                seed=self.seed * 1013 + index,
            ).generate(self.config["accuracy_queries"])
        plan = compile_queries(queries, self.server.columns)
        estimates = self.initial_model.estimate_batch(plan)
        truth = self.table.true_selectivities(plan)
        self.abs_err_mean = float(np.mean(np.abs(estimates - truth)))

    def end_to_end(self, wall):
        dashboard = self.times("dashboard.hit")
        adhoc = self.times("adhoc.miss")
        queries = []
        for tenant in self.profiles:
            queries += self.times(f"{tenant}.hit") + self.times(f"{tenant}.miss")
        writes = self.times("write")
        stats = self.server.stats()
        metrics = {
            "throughput": self.units / wall,
            "primary_p50_us": percentile(dashboard, 50) * 1e6,
            "secondary_p50_us": percentile(adhoc, 50) * 1e6,
            "tail_us": percentile(queries, 99) * 1e6,
            "abs_err_mean": self.abs_err_mean,
        }
        counts = {
            "throughput": self.units,
            "primary_p50_us": len(dashboard),
            "secondary_p50_us": len(adhoc),
            "tail_us": len(queries),
            "abs_err_mean": len(DEFAULT_TENANTS) * self.config["accuracy_queries"],
        }
        detail = {
            "primary": "dashboard query latency when answered from the cache (hit path)",
            "secondary": "adhoc query latency when not answered from the cache (miss path)",
            "tail": "p99 over all queries",
            "throughput_unit": "client ops (queries + writes) per second",
            "write_p50_ms": percentile(writes, 50) * 1e3 if writes else None,
            "write_p99_ms": percentile(writes, 99) * 1e3 if writes else None,
            "writes": len(writes),
            "hit_rate": stats["hit_rate"],
            "hit_share": {
                name: hits / total if total else None for name, (hits, total) in self.hits.items()
            },
            "cache_invalidations": stats["cache_invalidations"],
            "schedule_events": len(self.events),
            "replayed_events": self.position,
        }
        return metrics, counts, detail

    def layer_counts(self):
        stats = self.server.stats()
        counts = super().layer_counts()
        counts["serve.hit_rate"] = stats["hit_rate"]
        counts["serve.invalidations"] = float(stats["cache_invalidations"])
        for name, (hits, total) in self.hits.items():
            counts[f"serve.hit_share.{name}"] = hits / total if total else 0.0
        return counts


class BatchScan(Workload):
    """Large unique plans through ``EstimatorServer.estimate_batch``.

    Calls alternate between a selective plan (4000 boxes of 0.1% width per
    axis, the culled route) and a wide plan (500 boxes of half the domain
    volume placed inside the domain, the dense route).  Every plan is drawn
    fresh, so every call misses the cache.
    """

    name = "batch_scan"

    def setup(self) -> None:
        config = self.config
        table = uniform_table(config["batch_rows"], dimensions=2, seed=DATA_SEED)
        model = AdaptiveKDEEstimator(
            sample_size=config["batch_sample"], bandwidths=[0.01, 0.01], seed=DATA_SEED
        ).fit(table)
        self.table = table
        self.server = EstimatorServer(model, cache_size=32)
        domain = table.domain(self.server.columns)
        self.low = np.array([domain[c][0] for c in self.server.columns])
        self.high = np.array([domain[c][1] for c in self.server.columns])
        self.rng = np.random.default_rng([self.seed, 23])
        self.calls = 0
        self.scored: list[tuple[CompiledQueries, np.ndarray]] = []
        self.step()  # warm-up: one plan of each kind
        self.step()
        self.scored = []
        self.reset_samples()
        self.server.reset_stats()

    def _plan(self, kind: str) -> CompiledQueries:
        span = self.high - self.low
        dims = span.size
        if kind == "selective":
            count = self.config["batch_selective_queries"]
            width = 0.001 * span
            centers = self.low + self.rng.random((count, dims)) * span
        else:
            count = self.config["batch_wide_queries"]
            width = 0.5 ** (1.0 / dims) * span
            centers = self.low + width / 2 + self.rng.random((count, dims)) * (span - width)
        return CompiledQueries(self.server.columns, centers - width / 2, centers + width / 2)

    def _step(self) -> None:
        kind = "selective" if self.calls % 2 == 0 else "wide"
        self.calls += 1
        plan = self._plan(kind)
        start = perf_counter()
        answer = self.server.estimate_batch(plan)
        self.record(kind, perf_counter() - start)
        self.add_units(len(plan))
        if len(self.scored) < _SCORED_PLANS:
            self.scored.append((plan, answer))
        if self.calls % self.config["batch_check_every"] == 0:
            self._check_answer(plan, answer)

    def _check_answer(self, plan: CompiledQueries, answer: np.ndarray) -> None:
        start = perf_counter()
        chosen = self.rng.choice(len(plan), size=min(_CHECKED_QUERIES, len(plan)), replace=False)
        subset = CompiledQueries(plan.columns, plan.lows[chosen], plan.highs[chosen])
        with self._paused(), fastpath_disabled():
            reference = self.server.model.estimate_batch(subset)
        deviation = _max_deviation(np.asarray(answer)[chosen], reference)
        self.check(
            deviation <= ANSWER_TOLERANCE,
            f"served answer deviates from the dense reference by {deviation:.3g}",
        )
        self.check_seconds += perf_counter() - start

    def finish(self) -> None:
        errors = []
        for plan, answer in self.scored:
            errors.append(np.abs(np.asarray(answer) - self.table.true_selectivities(plan)))
        self.abs_err_mean = float(np.mean(np.concatenate(errors)))
        self.cache_hits = self.server.stats()["cache_hits"]

    def end_to_end(self, wall):
        selective = self.times("selective")
        wide = self.times("wide")
        config = self.config
        metrics = {
            "throughput": self.units / wall,
            "primary_p50_us": percentile(selective, 50) * 1e6,
            "secondary_p50_us": percentile(wide, 50) * 1e6,
            "tail_us": percentile(selective, TAIL_PERCENTILE_BATCH) * 1e6,
            "abs_err_mean": self.abs_err_mean,
        }
        counts = {
            "throughput": self.units,
            "primary_p50_us": len(selective),
            "secondary_p50_us": len(wide),
            "tail_us": len(selective),
            "abs_err_mean": sum(len(plan) for plan, _answer in self.scored),
        }
        detail = {
            "primary": f"selective plan call latency ({config['batch_selective_queries']} queries)",
            "secondary": f"wide plan call latency ({config['batch_wide_queries']} queries)",
            "tail": f"p{TAIL_PERCENTILE_BATCH} of selective plan call latency",
            "throughput_unit": "estimated queries per second",
            "selective_qps": len(selective) * config["batch_selective_queries"] / sum(selective),
            "wide_qps": len(wide) * config["batch_wide_queries"] / sum(wide),
            "cache_hits": self.cache_hits,
        }
        return metrics, counts, detail


class IngestDurable(Workload):
    """Journaled, fsync'd ingest of a drifting stream with periodic checkpoints.

    Every ``JournaledIngest.insert`` appends to the write-ahead journal and
    fsyncs it before the model folds the batch in (the library default,
    kept fixed here: the durability contract).  Every 100 batches a
    checkpoint publishes the model to the ``ModelStore`` and resets the
    journal.  The stream (400 batches of 256 rows, one sudden drift) is
    replayed cyclically.
    """

    name = "ingest_durable"
    uses_disk = True

    def setup(self) -> None:
        config = self.config
        stream = sudden_drift_stream(
            dimensions=2, batch_size=256, batches=config["ingest_pass_batches"], seed=DATA_SEED
        )
        self.batches = list(stream)
        self.columns = stream.column_names
        recent = np.vstack(self.batches)[-config["ingest_reference_rows"] :]
        self.reference = Table.from_array("recent", recent, self.columns)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.workdir / "ingest.wal"
        self.store = ModelStore(self.workdir / "store", keep_versions=2)
        self.model = StreamingADE(max_kernels=256).start(self.columns)
        self.ingest = JournaledIngest(self.model, self.journal_path, self.store, "ingest")
        self.ingest.checkpoint()  # the baseline snapshot recovery replays onto
        self.position = 0
        self.accuracy_model = None
        self.journal_bytes = 0
        self.row_bytes = 0
        for _ in range(config["ingest_warmup_batches"]):
            self.step()
        self.reset_samples()

    def _step(self) -> None:
        batch = self.batches[self.position % len(self.batches)]
        size_before = self.journal_path.stat().st_size if self.probe is not None else 0
        start = perf_counter()
        cpu = thread_time()
        self.ingest.insert(batch)
        self.record("ack", perf_counter() - start, thread_time() - cpu)
        if self.probe is not None:
            self.journal_bytes += self.journal_path.stat().st_size - size_before
            self.row_bytes += batch.nbytes
        self.add_units(batch.shape[0])
        self.position += 1
        if self.position % self.config["ingest_checkpoint_every"] == 0:
            start = perf_counter()
            cpu = thread_time()
            self.ingest.checkpoint()
            self.record("checkpoint", perf_counter() - start, thread_time() - cpu)
        if self.position == len(self.batches):
            start = perf_counter()
            self.accuracy_model = copy.deepcopy(self.model)
            self.check_seconds += perf_counter() - start

    def finish(self) -> None:
        self.recording = False  # the batches below are not timed
        with self._paused():
            while self.accuracy_model is None:
                self._step()
            # One more batch after the loop, so the journal always holds rows
            # past its last checkpoint and recovery has to replay them.
            self._step()
            self.ingest.close()
            queries = UniformWorkload(
                self.reference, volume_fraction=0.1, seed=self.seed
            ).generate(self.config["accuracy_queries"])
            plan = compile_queries(queries, self.columns)
            truth = self.reference.true_selectivities(plan)
            self.abs_err_mean = float(
                np.mean(np.abs(self.accuracy_model.estimate_batch(plan) - truth))
            )
            self.attempted += 1
            try:
                recovered = JournaledIngest.recover(self.journal_path, self.store, "ingest")
            except Exception as error:  # noqa: BLE001 - a failed recovery is a failed check
                self.fail(f"recovery raised {type(error).__name__}: {error}")
                return
            try:
                live = self.model.estimate_batch(plan)
                replayed = recovered.estimator.estimate_batch(plan)
                self.check(
                    np.array_equal(live, replayed),
                    "recovered model's estimates differ from the live model's",
                )
            finally:
                recovered.close()

    def end_to_end(self, wall):
        acks = self.times("ack")
        acks_cpu = self.cpu_times("ack")
        checkpoints = self.times("checkpoint")
        metrics = {
            "throughput": self.units / wall,
            "primary_p50_us": percentile(acks, 50) * 1e6,
            "secondary_p50_us": percentile(checkpoints, 50) * 1e6,
            "tail_us": percentile(acks_cpu, TAIL_PERCENTILE_INGEST) * 1e6,
            "abs_err_mean": self.abs_err_mean,
        }
        counts = {
            "throughput": self.units,
            "primary_p50_us": len(acks),
            "secondary_p50_us": len(checkpoints),
            "tail_us": len(acks_cpu),
            "abs_err_mean": self.config["accuracy_queries"],
        }
        detail = {
            "primary": "ack latency of one 256-row JournaledIngest.insert (journal fsync + fold)",
            "secondary": "checkpoint latency (ModelStore.publish + journal reset)",
            "tail": f"p{TAIL_PERCENTILE_INGEST} of the ack's thread CPU time "
            "(the wall-time tail is set by the disk's fsync bursts)",
            "ack_wall_p99_us": percentile(acks, 99) * 1e6,
            "throughput_unit": "acknowledged rows per second, checkpoints included",
            "fsync": "every journal append and reset (library default)",
            "batches": self.position,
        }
        return metrics, counts, detail

    def layer_counts(self):
        counts = super().layer_counts()
        counts["journal.bytes_per_row_byte"] = (
            self.journal_bytes / self.row_bytes if self.row_bytes else 0.0
        )
        return counts


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeMix, BatchScan, IngestDurable)
}
