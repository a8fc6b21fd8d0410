"""Per-tenant admission control: token buckets + tail-driven load shedding.

The serving tier's control plane.  An :class:`AdmissionController` makes a
synchronous allow/deny decision per request from two independent policies:

* **Token buckets** — each :class:`TenantQuota` with a ``rate`` gets a
  classic token bucket (capacity ``burst``, refill ``rate`` tokens/second):
  a tenant exceeding its provisioned request rate is refused with reason
  ``"tokens"`` regardless of system load.
* **Tail-driven write shedding** — quotas with an ``slo_p99`` mark
  latency-protected tenants.  The controller watches their trailing request
  p99 (``serve.request_seconds{tenant=...}``) in a
  :class:`~repro.obs.collector.TimeSeriesStore`, normally by subscribing to
  a live :class:`~repro.obs.collector.TelemetryCollector` via :meth:`bind`.
  While any protected tenant is over target, the *write allowance* — the
  admitted fraction of write ops (``ingest``/``publish``) from
  **unprotected** tenants — decays multiplicatively (``backoff``) down to
  ``floor``; once every protected tenant is back under target it recovers
  multiplicatively (``recovery``) up to 1.  Sheds are refused with reason
  ``"shed"``.

Shedding is **deterministic**: each tenant accumulates ``allowance`` credits
per write attempt and an op is admitted exactly when a whole credit is
available — no RNG, and two identical runs shed the identical ops.  With
``quantum=1`` admitted writes are spread evenly (allowance 0.25 admits every
4th write).  A larger ``quantum`` *clusters* them instead: credits must pile
up to ``quantum`` before a burst of consecutive writes drains them, so the
same long-run admitted fraction arrives as rare bursts separated by long
write-free gaps.  For publish-style writes that invalidate a shared cache,
clustering is strictly kinder to latency-protected readers — back-to-back
publishes cost one cold-cache episode, not many — which is why the admission
benchmark runs with a quantum above 1.  Every decision takes an explicit
``now=`` timestamp (default ``time.monotonic()``), which is how the
virtual-time traffic simulator drives bucket refill and the control loop on
its own clock while latencies stay wall-clock.

Refusals raise the typed :class:`~repro.core.errors.AdmissionRejected` and
are counted in the registry (``admission.rejected{tenant=,op=,reason=}``)
alongside ``admission.allowed`` and an ``admission.write_allowance`` gauge —
behind the same one-branch no-op default as the rest of the serving
instrumentation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.errors import AdmissionRejected, InvalidParameterError
from repro.fault.plan import skew_clock
from repro.obs.metrics import default_metrics

if TYPE_CHECKING:  # annotation-only: obs must not import serve
    from repro.obs.collector import TelemetryCollector, TimeSeriesStore

__all__ = ["TenantQuota", "AdmissionController", "WRITE_OPS"]

#: Op classes subject to tail-driven shedding (mutating the served model).
WRITE_OPS = frozenset({"ingest", "publish"})

#: Histogram whose per-tenant trailing p99 drives the shedding policy.
_SLO_METRIC = "serve.request_seconds"


@dataclass(frozen=True)
class TenantQuota:
    """Admission policy of one tenant.

    ``rate`` (requests/second, ``None`` = unthrottled) and ``burst``
    (bucket capacity, default ``2 * rate``) provision the token bucket;
    ``slo_p99`` (seconds, ``None`` = unprotected) marks the tenant as
    latency-protected: its trailing request p99 drives write shedding of
    the *other*, unprotected tenants, and its own writes are never shed.
    """

    name: str
    rate: float | None = None
    burst: float | None = None
    slo_p99: float | None = None

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise InvalidParameterError("rate must be positive (or None)")
        if self.burst is not None and self.burst < 1:
            raise InvalidParameterError("burst must be at least 1 (or None)")
        if self.slo_p99 is not None and self.slo_p99 <= 0:
            raise InvalidParameterError("slo_p99 must be positive (or None)")

    @property
    def capacity(self) -> float:
        """Effective bucket capacity (``burst`` or ``2 * rate``)."""
        if self.burst is not None:
            return float(self.burst)
        return max(2.0 * float(self.rate or 0.0), 1.0)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "rate": self.rate,
            "burst": self.burst,
            "slo_p99": self.slo_p99,
        }


class _Bucket:
    __slots__ = ("tokens", "last")

    def __init__(self, tokens: float, last: float) -> None:
        self.tokens = tokens
        self.last = last


class AdmissionController:
    """Allow/deny serving-tier requests per tenant (see module docstring).

    Decision counters and the write-allowance gauge go to the
    process-default registry (:func:`~repro.obs.metrics.default_metrics`),
    bound once at construction: :meth:`admit` sits on the request path.

    Parameters
    ----------
    quotas:
        :class:`TenantQuota` entries (or a ``name -> quota`` mapping).
        Tenants without a quota are unthrottled but their writes are
        subject to shedding.
    window:
        Trailing window (seconds) of the p99 readout; ``None`` uses every
        retained collector point.
    floor:
        Minimum write allowance — shedding never starves writes entirely,
        so ingest tenants keep making (slow) progress during storms.
    backoff / recovery:
        Multiplicative allowance decrease per breached control tick and
        increase per healthy one.
    quantum:
        Burst size of the deterministic shed scheduler.  1 (default) spreads
        admitted writes evenly; larger values cluster them into bursts of
        roughly ``quantum`` consecutive admits separated by proportionally
        longer shed gaps (same long-run admitted fraction), which concentrates
        cache-invalidating publishes into rare episodes.
    initial_allowance:
        Starting write allowance (default 1.0).  Set near ``floor`` for a
        slow-start controller that admits writes conservatively until healthy
        tails earn the allowance back — avoids the reactive-control window
        where a fresh storm runs unthrottled until the first breach is
        observed.
    """

    def __init__(
        self,
        quotas: "Iterable[TenantQuota] | Mapping[str, TenantQuota]" = (),
        *,
        window: float | None = 2.0,
        floor: float = 0.05,
        backoff: float = 0.5,
        recovery: float = 1.5,
        quantum: int = 1,
        initial_allowance: float = 1.0,
    ) -> None:
        if isinstance(quotas, Mapping):
            quotas = quotas.values()
        self.quotas: dict[str, TenantQuota] = {}
        for quota in quotas:
            if quota.name in self.quotas:
                raise InvalidParameterError(f"duplicate quota for tenant {quota.name!r}")
            self.quotas[quota.name] = quota
        if window is not None and window <= 0:
            raise InvalidParameterError("window must be positive (or None)")
        if not 0.0 < floor <= 1.0:
            raise InvalidParameterError("floor must lie in (0, 1]")
        if not 0.0 < backoff < 1.0:
            raise InvalidParameterError("backoff must lie in (0, 1)")
        if recovery <= 1.0:
            raise InvalidParameterError("recovery must exceed 1")
        if int(quantum) != quantum or quantum < 1:
            raise InvalidParameterError("quantum must be a positive integer")
        if not 0.0 < initial_allowance <= 1.0:
            raise InvalidParameterError("initial_allowance must lie in (0, 1]")
        self.window = window
        self.floor = float(floor)
        self.backoff = float(backoff)
        self.recovery = float(recovery)
        self.quantum = int(quantum)
        self._lock = threading.Lock()
        self._buckets: dict[str, _Bucket] = {}
        self._credits: dict[str, float] = {}
        self._draining: set[str] = set()
        self._allowance = max(self.floor, float(initial_allowance))
        self._store: "TimeSeriesStore | None" = None
        self.metrics = default_metrics()
        self._instrumented = self.metrics.enabled
        self._decision_counters: dict[tuple, object] = {}
        if self._instrumented:
            self.metrics.gauge_fn(
                "admission.write_allowance", lambda: self._allowance
            )

    # -- collector wiring ------------------------------------------------------
    def bind(self, collector: "TelemetryCollector") -> "AdmissionController":
        """Close the control loop over a live collector.

        Reads trailing p99s from the collector's store and subscribes
        :meth:`update`, so every collector tick immediately re-evaluates the
        shedding policy.  Returns ``self`` for chaining.
        """
        self._store = collector.store
        collector.subscribe(lambda _collector, now: self.update(now=now))
        return self

    def attach_store(self, store: "TimeSeriesStore") -> "AdmissionController":
        """Read trailing p99s from ``store`` without subscribing to ticks."""
        self._store = store
        return self

    # -- introspection ---------------------------------------------------------
    @property
    def write_allowance(self) -> float:
        """Current admitted fraction of unprotected-tenant write ops."""
        return self._allowance

    def slo_status(self) -> dict[str, dict]:
        """Trailing p99 vs. target per protected tenant (monitoring view)."""
        status: dict[str, dict] = {}
        for name, quota in self.quotas.items():
            if quota.slo_p99 is None:
                continue
            p99 = self._trailing_p99(name)
            status[name] = {
                "target_p99": quota.slo_p99,
                "trailing_p99": p99,
                "breach": p99 is not None and p99 > quota.slo_p99,
            }
        return status

    def describe(self) -> dict:
        return {
            "quotas": {name: q.describe() for name, q in self.quotas.items()},
            "window": self.window,
            "floor": self.floor,
            "backoff": self.backoff,
            "recovery": self.recovery,
            "quantum": self.quantum,
            "write_allowance": self._allowance,
        }

    # -- the control loop ------------------------------------------------------
    def _trailing_p99(self, tenant: str) -> float | None:
        if self._store is None:
            return None
        key = f"{_SLO_METRIC}{{tenant={tenant}}}"
        return self._store.window_quantile(key, 0.99, self.window)

    def update(self, now: float | None = None) -> float:
        """One control tick: grade protected tenants, adjust the allowance.

        Any protected tenant over its p99 target backs the write allowance
        off multiplicatively (down to ``floor``); an all-clear tick recovers
        it (up to 1).  Returns the new allowance.  Invoked per collector
        tick when bound via :meth:`bind`.
        """
        breach = False
        for name, quota in self.quotas.items():
            if quota.slo_p99 is None:
                continue
            p99 = self._trailing_p99(name)
            if p99 is not None and p99 > quota.slo_p99:
                breach = True
                break
        with self._lock:
            if breach:
                self._allowance = max(self.floor, self._allowance * self.backoff)
            else:
                self._allowance = min(1.0, self._allowance * self.recovery)
            return self._allowance

    # -- the decision ----------------------------------------------------------
    def admit(self, tenant: str, op: str = "query", now: float | None = None) -> None:
        """Admit or refuse one request (raises :class:`AdmissionRejected`).

        ``now`` is the decision timestamp for bucket refill — pass virtual
        time from simulators, omit for wall clock.
        """
        if now is None:
            now = time.monotonic()
        # Fault hook: a skewed (possibly backwards) clock must degrade refill,
        # never corrupt the buckets — the `now > bucket.last` guard below
        # already makes backwards time a no-op refill.
        now = skew_clock("admission.clock", now)
        quota = self.quotas.get(tenant)
        with self._lock:
            if quota is not None and quota.rate is not None:
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    bucket = _Bucket(quota.capacity, float(now))
                    self._buckets[tenant] = bucket
                elif now > bucket.last:
                    bucket.tokens = min(
                        quota.capacity,
                        bucket.tokens + (float(now) - bucket.last) * float(quota.rate),
                    )
                    bucket.last = float(now)
                if bucket.tokens < 1.0:
                    self._refuse(tenant, op, "tokens")
                bucket.tokens -= 1.0
            if (
                op in WRITE_OPS
                and self._allowance < 1.0
                and (quota is None or quota.slo_p99 is None)
            ):
                # Credits accumulate at `allowance` per attempt and cap at
                # quantum; a burst starts once they pile up to quantum and
                # drains one credit per admit until exhausted, so the same
                # long-run admitted fraction arrives clustered (quantum > 1)
                # or evenly (quantum == 1).
                credit = min(
                    float(self.quantum), self._credits.get(tenant, 0.0) + self._allowance
                )
                threshold = 1.0 if tenant in self._draining else float(self.quantum)
                if credit < threshold:
                    self._credits[tenant] = credit
                    self._draining.discard(tenant)
                    self._refuse(tenant, op, "shed")
                self._draining.add(tenant)
                self._credits[tenant] = credit - 1.0
        if self._instrumented:
            self._count("allowed", tenant, op)

    def _refuse(self, tenant: str, op: str, reason: str) -> None:
        if self._instrumented:
            self._count("rejected", tenant, op, reason)
        raise AdmissionRejected(tenant, op, reason)

    def _count(self, decision: str, tenant: str, op: str, reason: str | None = None) -> None:
        key = (decision, tenant, op, reason)
        counter = self._decision_counters.get(key)
        if counter is None:
            labels = {"tenant": tenant, "op": op}
            if reason is not None:
                labels["reason"] = reason
            counter = self.metrics.counter(f"admission.{decision}", **labels)
            self._decision_counters[key] = counter
        counter.inc()
