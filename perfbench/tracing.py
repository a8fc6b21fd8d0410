"""Span recording around calls into the program's layers, from outside it.

The benchmark attributes time to layers without touching ``src/``: a
:class:`Tracer` replaces chosen functions and methods with wrappers that
record one span per call (name, start, end, parent span, request id) and
restores the originals on :meth:`Tracer.uninstall`.  Spans are kept in
memory and reduced to per-name totals when the run ends.

A function imported by name into another module is a separate binding, so
it is wrapped in the module that *calls* it (``compile_queries`` as seen by
``repro.serve.server``, ``save_estimator`` as seen by
``repro.persist.store``).  Functions the program reaches through a module
attribute (``fastpath.weighted_box_masses``) are wrapped on that module.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass
class SpanTotals:
    """Per-name reduction of the recorded spans."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0

    def mean(self) -> float:
        return self.total / self.calls if self.calls else 0.0


class Tracer:
    """Records spans around wrapped callables while installed and active."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, request id]`` per span
        self.spans: list[list] = []
        self.request = 0
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_call: Callable[[tuple, dict, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_call(args, kwargs, result)`` runs after each recorded call, for
        counts measured where the work happens (candidate set sizes, bytes).
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.request]
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
        self._patches.append((owner, attr, raw if raw is not None else original))

    def uninstall(self) -> None:
        """Restore every wrapped callable (latest wrap first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Calls inside the block (correctness checks) record no spans."""
        previous = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = previous

    def next_request(self) -> None:
        """Start a new request id: spans of one client op share it."""
        self.request += 1

    # -- reduction ---------------------------------------------------------
    def totals(self) -> dict[str, SpanTotals]:
        """Calls, inclusive time and self time (minus child spans) per name."""
        result: dict[str, SpanTotals] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _request in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            entry = result.setdefault(name, SpanTotals())
            entry.calls += 1
            entry.total += end - start
            entry.self_time += end - start - child_time[index]
        return result

    def root_time(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(end - start for _n, start, end, parent, _r in self.spans if parent < 0)

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Total time of ``child_name`` spans directly under ``parent_name``."""
        spans = self.spans
        return sum(
            end - start
            for name, start, end, parent, _r in spans
            if name == child_name and parent >= 0 and spans[parent][0] == parent_name
        )
