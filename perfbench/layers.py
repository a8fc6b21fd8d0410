"""The layers the traced run attributes time to, and what each should move.

:meth:`LayerProbe.install` wraps the public entry points of every layer on
the two ROADMAP paths (see ``perfbench/README.md``);
:meth:`LayerProbe.metrics` reduces the recorded spans to the per-layer
metrics named in ``BENCHMARK.json``.  :data:`PREDICTIONS` records, for each
per-layer metric, the end-to-end metrics and workloads it should move; on
every other (metric, workload) pair the prediction is little or no change.
"""

from __future__ import annotations

import os

import repro.persist.store as store_module
import repro.serve.server as server_module
from repro.core import fastpath
from repro.core.estimator import SelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.obs.metrics import MetricsRegistry
from repro.persist.journal import IngestJournal, JournaledIngest
from repro.persist.store import ModelStore
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.server import EstimatorServer

from tracing import Tracer

SERVE, BATCH, INGEST = "serve_mix", "batch_scan", "ingest_durable"

#: per-layer metric -> the (end-to-end metric, workload) pairs it should move.
#: This is the only copy of these predictions; ``selftest.py`` checks that
#: every per-layer metric has an entry and every pair names a declared
#: end-to-end metric and workload.
PREDICTIONS: dict[str, tuple[tuple[str, str], ...]] = {
    "workload.compile_us": (("primary_p50_us", SERVE),),
    "serve.self_us": (("primary_p50_us", SERVE),),
    "serve.hit_rate": (("primary_p50_us", SERVE), ("tail_us", SERVE)),
    "serve.hit_share.dashboard": (("primary_p50_us", SERVE),),
    "serve.hit_share.adhoc": (("secondary_p50_us", SERVE),),
    "serve.hit_share.ingest": (("tail_us", SERVE),),
    "serve.invalidations": (("primary_p50_us", SERVE), ("tail_us", SERVE)),
    "admission.admit_us": (("primary_p50_us", SERVE),),
    "breaker.call_us": (("secondary_p50_us", SERVE),),
    # writes are about a third of serve_mix's wall
    "serve.checkout_ms": (("throughput", SERVE),),
    "serve.publish_ms": (("throughput", SERVE),),
    "core.estimate_us": (
        ("secondary_p50_us", SERVE),
        ("tail_us", SERVE),
        ("throughput", BATCH),
        ("primary_p50_us", BATCH),
        ("secondary_p50_us", BATCH),
    ),
    # through the first miss after each publish
    "fastpath.index_builds": (("tail_us", SERVE),),
    "fastpath.index_build_ms": (("tail_us", SERVE),),
    "fastpath.route_us": (("secondary_p50_us", SERVE),),
    "fastpath.kernel_ms": (
        ("throughput", BATCH),
        ("primary_p50_us", BATCH),
        ("secondary_p50_us", BATCH),
    ),
    "fastpath.culled_queries": (("primary_p50_us", BATCH),),
    "fastpath.dense_queries": (("secondary_p50_us", BATCH),),
    "fastpath.candidate_fraction": (("primary_p50_us", BATCH),),
    "stream.insert_ms": (
        ("primary_p50_us", INGEST),
        ("tail_us", INGEST),
        ("throughput", INGEST),
        ("throughput", SERVE),
    ),
    "stream.flush_ms": (("tail_us", INGEST), ("throughput", INGEST), ("throughput", SERVE)),
    "stream.compress_ms": (("tail_us", INGEST), ("throughput", INGEST), ("throughput", SERVE)),
    "stream.compress_calls": (("tail_us", INGEST), ("throughput", INGEST), ("throughput", SERVE)),
    # the fsync drives the ack tail
    "journal.append_ms": (("primary_p50_us", INGEST), ("tail_us", INGEST)),
    "journal.bytes_per_row_byte": (("throughput", INGEST),),
    "store.publish_ms": (("secondary_p50_us", INGEST),),
    "snapshot.write_ms": (("secondary_p50_us", INGEST),),
    "snapshot.verify_ms": (("secondary_p50_us", INGEST),),
    "snapshot.bytes": (("secondary_p50_us", INGEST),),
    # tracing cost and coverage: predict nothing
    "trace.overhead": (),
    "trace.outside_share": (),
}


class LayerProbe:
    """A :class:`Tracer` wrapped around every layer, plus in-place counts."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.routes = MetricsRegistry()
        self.candidates = 0
        self.candidate_pool = 0
        self.snapshot_bytes = 0

    def _count_candidates(self, args, _kwargs, result) -> None:
        self.candidates += int(result.size)
        self.candidate_pool += int(args[0].kernel_count)

    def _count_snapshot(self, args, kwargs, _result) -> None:
        self.snapshot_bytes += os.path.getsize(kwargs.get("path", args[1]))

    def install(self) -> None:
        wrap = self.tracer.wrap
        # read path
        wrap(server_module, "compile_queries", "workload.compile")
        wrap(EstimatorServer, "estimate_batch", "serve.estimate_batch")
        wrap(EstimatorServer, "checkout", "serve.checkout")
        wrap(EstimatorServer, "publish", "serve.publish")
        wrap(AdmissionController, "admit", "admission.admit")
        wrap(CircuitBreaker, "before_call", "breaker.before_call")
        wrap(CircuitBreaker, "record_success", "breaker.record_success")
        wrap(SelectivityEstimator, "estimate_batch", "core.estimate")
        wrap(fastpath.KernelSupportIndex, "__init__", "fastpath.index_build")
        wrap(fastpath.KernelSupportIndex, "candidate_counts", "fastpath.candidate_counts")
        wrap(
            fastpath.KernelSupportIndex,
            "box_candidates",
            "fastpath.box_candidates",
            on_call=self._count_candidates,
        )
        wrap(fastpath, "estimate_boxes", "fastpath.estimate_boxes")
        wrap(fastpath, "weighted_box_masses", "fastpath.kernel")
        fastpath.set_route_metrics(self.routes)
        # write path
        wrap(JournaledIngest, "insert", "ingest.insert")
        wrap(JournaledIngest, "checkpoint", "ingest.checkpoint")
        wrap(IngestJournal, "append_rows", "journal.append")
        wrap(StreamingADE, "insert", "stream.insert")
        wrap(StreamingADE, "flush", "stream.flush")
        wrap(StreamingADE, "_compress_to", "stream.compress")
        wrap(ModelStore, "publish", "store.publish")
        wrap(store_module, "save_estimator", "snapshot.write", on_call=self._count_snapshot)
        wrap(store_module, "verify_snapshot", "snapshot.verify")

    def uninstall(self) -> None:
        self.tracer.uninstall()
        fastpath.set_route_metrics(None)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (0 for unused layers)."""
        tracer = self.tracer
        totals = tracer.totals()

        def get(name):
            return totals.get(name)

        def mean(name, scale):
            entry = get(name)
            return entry.mean() * scale if entry else 0.0

        def calls(name):
            entry = get(name)
            return entry.calls if entry else 0

        serve = get("serve.estimate_batch")
        before = get("breaker.before_call")
        success = get("breaker.record_success")
        boxes = get("fastpath.estimate_boxes")
        route_us = 0.0
        if boxes:
            kernel_under_boxes = tracer.child_total("fastpath.estimate_boxes", "fastpath.kernel")
            route_us = (boxes.total - kernel_under_boxes) / boxes.calls * 1e6
        writes = calls("snapshot.write")
        return {
            "workload.compile_us": mean("workload.compile", 1e6),
            "serve.self_us": serve.self_time / serve.calls * 1e6 if serve else 0.0,
            "admission.admit_us": mean("admission.admit", 1e6),
            "breaker.call_us": (
                (before.total + (success.total if success else 0.0)) / before.calls * 1e6
                if before
                else 0.0
            ),
            "serve.checkout_ms": mean("serve.checkout", 1e3),
            "serve.publish_ms": mean("serve.publish", 1e3),
            "core.estimate_us": mean("core.estimate", 1e6),
            "fastpath.index_builds": float(calls("fastpath.index_build")),
            "fastpath.index_build_ms": mean("fastpath.index_build", 1e3),
            "fastpath.route_us": route_us,
            "fastpath.kernel_ms": mean("fastpath.kernel", 1e3),
            "fastpath.culled_queries": self.routes.counter("fastpath.culled_queries").value,
            "fastpath.dense_queries": self.routes.counter("fastpath.dense_queries").value,
            "fastpath.candidate_fraction": (
                self.candidates / self.candidate_pool if self.candidate_pool else 0.0
            ),
            "stream.insert_ms": mean("stream.insert", 1e3),
            "stream.flush_ms": mean("stream.flush", 1e3),
            "stream.compress_ms": mean("stream.compress", 1e3),
            "stream.compress_calls": float(calls("stream.compress")),
            "journal.append_ms": mean("journal.append", 1e3),
            "store.publish_ms": mean("store.publish", 1e3),
            "snapshot.write_ms": mean("snapshot.write", 1e3),
            "snapshot.verify_ms": mean("snapshot.verify", 1e3),
            "snapshot.bytes": self.snapshot_bytes / writes if writes else 0.0,
        }

    def span_shares(self, wall: float) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self share of ``wall`` per span name."""
        return {
            name: {
                "calls": entry.calls,
                "share": entry.total / wall,
                "self_share": entry.self_time / wall,
            }
            for name, entry in sorted(self.tracer.totals().items())
        }
