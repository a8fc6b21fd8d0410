"""Parallel execution layer for per-shard work.

A :class:`ShardExecutor` runs one task per shard — fit, bulk insert,
``estimate_batch`` — on a ``concurrent.futures`` pool and always falls back
to serial execution when a pool cannot be created (restricted environments,
no usable ``fork``) or is not worth spinning up (one shard, one worker).

Backend guidance:

* ``"thread"`` (default) — numpy releases the GIL inside the kernels that
  dominate fitting and batch estimation, so threads overlap on multi-core
  hardware with zero serialisation cost.  Safe for every task type.
* ``"process"`` — true parallelism for Python-heavy fits; tasks and results
  cross process boundaries by pickling, so it pays off for expensive fits on
  large shards and is wasted on cheap per-shard estimates.
* ``"serial"`` — no pool at all; the deterministic reference path.

Results preserve task order regardless of completion order, and a task
exception propagates to the caller after the remaining tasks finish
(the pool is always drained, never abandoned mid-flight).

Fault tolerance: tasks that fail with a *transient* error (an injected
fault, a timeout, a dropped connection) are retried in place with
exponential backoff (``retries`` attempts, ``shard.task_retries`` counter).
A broken pool (``BrokenProcessPool`` and kin) degrades the executor to the
serial reference path — once, with a warning log and a
``shard.pool_broken`` counter, after which the executor stays serial rather
than paying the broken-pool discovery cost on every map.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import InjectedFault, InvalidParameterError
from repro.fault.plan import inject
from repro.obs.metrics import default_metrics

__all__ = ["ShardExecutor", "BACKENDS", "TRANSIENT_ERRORS"]

logger = logging.getLogger("repro.shard")

BACKENDS = ("serial", "thread", "process")

#: Exception types retried as transient worker failures.  ``InjectedFault``
#: is the deterministic stand-in used by fault-injection tests; the rest are
#: the usual flaky-infrastructure suspects.
TRANSIENT_ERRORS = (
    InjectedFault,
    TimeoutError,
    ConnectionError,
    InterruptedError,
)


def _cpu_count() -> int:
    try:
        return os.cpu_count() or 1
    except Exception:  # pragma: no cover - platform oddity
        return 1


class ShardExecutor:
    """Maps a function over per-shard tasks, in parallel where possible.

    Telemetry goes to the process-default registry
    (:func:`~repro.obs.metrics.default_metrics`), read when an event is
    recorded: every :meth:`map` records its wall-clock span
    (``shard.map_seconds``) and — on the serial/thread backends, where the
    wrapper needs no pickling — each task's span (``shard.task_seconds``),
    labelled with the caller-supplied ``op``.  Transient retries bump
    ``shard.task_retries``; a broken pool bumps ``shard.pool_broken``.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"thread"`` or ``"process"`` (see module docstring).
        ``None`` means ``"serial"``.
    max_workers:
        Pool width; defaults to ``min(tasks, cpu_count)`` at call time.
    retries:
        Extra attempts per task when it fails with one of
        :data:`TRANSIENT_ERRORS`, with exponential backoff starting at
        ``retry_backoff`` seconds.  Applied on the serial and thread
        backends (and the serial fallback); a process pool cannot pickle
        the retry wrapper, so its tasks run unwrapped.  ``0`` disables.
    retry_backoff:
        First-retry sleep in seconds; attempt ``k`` sleeps
        ``retry_backoff * 2**(k-1)``.
    """

    def __init__(
        self,
        backend: str | None = "thread",
        max_workers: int | None = None,
        retries: int = 2,
        retry_backoff: float = 0.01,
    ) -> None:
        backend = backend or "serial"
        if backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown parallel backend {backend!r}; available: {list(BACKENDS)}"
            )
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError("max_workers must be positive")
        if retries < 0:
            raise InvalidParameterError("retries must be >= 0")
        if retry_backoff < 0:
            raise InvalidParameterError("retry_backoff must be >= 0")
        self.backend = backend
        self.max_workers = max_workers
        self.retries = retries
        self.retry_backoff = retry_backoff
        self._pool_broken = False

    def _pool(self, tasks: int) -> Executor | None:
        if self._pool_broken:
            return None  # latched serial after a BrokenExecutor (see map)
        workers = self.max_workers or min(tasks, _cpu_count())
        if self.backend == "serial" or workers < 2 or tasks < 2:
            return None
        try:
            if self.backend == "process":
                return ProcessPoolExecutor(max_workers=workers)
            return ThreadPoolExecutor(max_workers=workers)
        except (OSError, ValueError, RuntimeError):  # pragma: no cover - env specific
            return None  # restricted environment: serial fallback

    def _run_task(self, fn: Callable[..., Any], args: tuple) -> Any:
        """One task with the ``shard.task`` injection point and retries."""
        attempt = 0
        while True:
            try:
                inject("shard.task")
                return fn(*args)
            except TRANSIENT_ERRORS:
                if attempt >= self.retries:
                    raise
                attempt += 1
                default_metrics().counter("shard.task_retries").inc()
                if self.retry_backoff:
                    time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    def map(
        self, fn: Callable[..., Any], *iterables: Iterable[Any], op: str | None = None
    ) -> list[Any]:
        """Apply ``fn`` across zipped task arguments, preserving order.

        Equivalent to ``[fn(*args) for args in zip(*iterables)]`` with the
        work spread over the pool; falls back to exactly that loop when no
        pool is available.  ``op`` labels the per-task telemetry series
        (``"fit"``, ``"insert"``, ``"estimate"``, ...).
        """
        tasks: Sequence[tuple] = list(zip(*iterables))
        if not tasks:
            return []
        metrics = default_metrics()
        instrumented = metrics.enabled
        if instrumented:
            map_start = perf_counter()
            if self.backend != "process" or self._pool_broken:
                # Per-task spans need a closure over the histogram, which a
                # process pool cannot pickle; process-backend runs are
                # covered by the whole-map span below.
                task_seconds = metrics.histogram(
                    "shard.task_seconds", **({"op": op} if op else {})
                )
                inner = fn

                def fn(*args: Any) -> Any:
                    task_start = perf_counter()
                    try:
                        return inner(*args)
                    finally:
                        task_seconds.record(perf_counter() - task_start)

        try:
            pool = self._pool(len(tasks))
            if pool is None:
                return [self._run_task(fn, args) for args in tasks]
            try:
                if self.backend == "process":
                    # Tasks must pickle: no retry/injection wrapper.  The
                    # transient-retry contract is honoured by the serial
                    # fallback below when the pool itself breaks.
                    with pool:
                        return list(pool.map(fn, *map(list, zip(*tasks))))
                run = self._run_task
                with pool:
                    return list(
                        pool.map(lambda args: run(fn, args), tasks)
                    )
            except BrokenExecutor:
                # The pool itself died (sandboxed fork/spawn, OOM-killed
                # worker) — distinct from a *task* raising, which propagates
                # above.  Degrade to the serial reference path rather than
                # failing the operation, and latch: a pool that broke once
                # will break again, so later maps skip straight to serial.
                if not self._pool_broken:
                    self._pool_broken = True
                    metrics.counter("shard.pool_broken").inc()
                    logger.warning(
                        "%s pool broke during %r map; executor degraded to "
                        "serial execution",
                        self.backend,
                        op or "anonymous",
                    )
                return [self._run_task(fn, args) for args in tasks]
        finally:
            if instrumented:
                metrics.histogram(
                    "shard.map_seconds", **({"op": op} if op else {})
                ).record(perf_counter() - map_start)

    def describe(self) -> dict[str, Any]:
        """JSON description used by sharded-estimator configs."""
        return {"backend": self.backend, "max_workers": self.max_workers}
