"""Query-side fast path: kernel support culling + the batched CDF micro-kernel.

Every estimator of the kernel family (fixed KDE, adaptive KDE, the streaming
ADE and — through its wrapped base — the feedback wrapper) answers a range
query as a weighted sum of per-kernel product masses,

    ``sel(Q) = (1/W) Σ_i w_i Π_d mass_d(i, Q)``.

The dense evaluation is O(kernels × queries × dims) normal-CDF calls even
though a kernel more than a few bandwidths away from the query box
contributes essentially nothing.  This module supplies the pieces that make
the family fast without changing its answers:

:class:`KernelSupportIndex`
    A per-dimension sorted index of kernel positions with *effective support
    radii*.  Kernel ``i`` *overlaps* a box when, on every axis,
    ``c_i - r_i ≤ high`` and ``c_i + r_i ≥ low``.
    :meth:`~KernelSupportIndex.overlap_pairs` applies that exact per-kernel
    radius test to every (box, kernel) pair, and
    :meth:`~KernelSupportIndex.box_candidates` narrows a large plan's kernel
    set first with two ``searchsorted`` probes per axis.  Compact
    kernels (Epanechnikov & friends) use their exact support radius, so
    culling is lossless; the Gaussian uses the ε-derived radius below.

:func:`weighted_box_masses`
    The single batched product-kernel CDF micro-kernel, with two modes.  The
    dense mode accumulates ``Σ_i w_i Π_d mass_d`` for every (box, kernel)
    combination in blocked, preallocated buffers.  The pair mode evaluates
    the product only on the overlapping ``(box, kernel)`` pairs and reduces
    per box with ``np.bincount``.  Both run the same per-estimator
    :data:`AxisMass` callback.

Routing (:func:`estimate_boxes`)
--------------------------------

:func:`estimate_boxes` is the family's single estimate entry point: every
``_estimate_batch`` of the kernel family builds its ``AxisMass`` callback
and hands the plan to it.  Empty and zero-weight synopses answer 0; tiny
synopses (fewer than ``_MIN_KERNELS`` kernels) and :func:`fastpath_disabled`
blocks run the dense mode.  *Small plans* (``queries × kernels ≤
_BUFFER_ELEMENTS`` — every serving plan) build the (box × kernel) overlap
mask against all kernels at once and run the pair mode: no candidate probes,
no grouping.  *Large plans* route each box by its tightest per-axis candidate
count: wide boxes run the dense mode; selective boxes are clustered into
spatial groups, each group's union box narrows the kernels with
``box_candidates``, and the overlap mask is then built inside the group
(blocked so it stays within ``_BUFFER_ELEMENTS``).  Either way a selective
box is summed over exactly the kernels whose support overlaps it, in
ascending kernel order, so its estimate does not depend on the plan it
arrives in or on how boxes are grouped: it is bitwise identical alone or
inside any plan.

The ``AxisMass`` protocol
-------------------------

``axis_mass(ids, axis, lows, highs)`` returns the per-axis kernel mass and
is broadcast-agnostic: the dense mode passes ``ids=None`` (all kernels)
with ``(n, 1)`` bounds and gets ``(n, kernels)`` back; the pair mode passes
``(P,)`` kernel ids with ``(P,)`` bounds (one entry per pair) and gets
``(P,)`` back.  An implementation only selects its per-kernel parameters by
``ids`` and lets numpy broadcast them against the bounds.

Epsilon / atol policy
---------------------

Culling an unbounded (Gaussian) kernel drops real mass, so the cull radius is
derived from a deviation budget: with per-image tail tolerance
``ε = atol / 24`` the radius is ``-ndtri(ε)`` (≈ 7.5 at the default
``atol = 1e-12``).  Every dropped kernel image then contributes at most ``ε``
axis mass, and mass is dropped in two ways:

* a *culled pair* (the kernel's support misses the box on some axis) drops
  its whole product, which is at most that axis's mass: ``≤ 3·ε`` for the
  kernel and its two boundary reflections (a mirror image is never nearer
  to a domain-clipped interval than its source kernel, see
  ``KernelSupportIndex.box_candidates``);
* a *kept pair* drops, on each reflecting axis, the mirror images at the
  bounds its kernel is not near (``SupportCache.near_bounds``): at most
  ``2·ε`` per axis, so ``≤ 2·d·ε`` over ``d`` axes, since axis masses lie
  in ``[0, 1]``.

Because the per-kernel weights are normalised, the deviation of a fast-path
estimate from the dense reference is at most ``max(3, 2·d)·ε`` per box.  That
stays within ``atol`` up to ``d = 12`` dimensions (``2·d ≤ 24``); below that
the rest of the factor 24 absorbs the summation-order differences between
the pair reduction and the dense path's dot product.  Estimates are culled
*downward* only: the fast path never reports more mass than the dense path.

Staleness contract
------------------

Estimators keep their query-side geometry — kernel centers, support radii,
the lazily built index and, for reflecting synopses, the near-bound image
masks — in one :class:`SupportCache` entry, stamped with a staleness counter
(an epoch bumped by every synopsis mutation — fit, bulk/sequential insert,
flush of a pending chunk, compress, prune, snapshot restore,
``set_bandwidths``; see :class:`SupportCached`).  The entry is rebuilt
lazily on the next estimate after the epoch moved, its index only when a
culled route first needs it and its near-bound masks on the first reflected
axis mass; per-tuple index updates are never attempted.
The entry is swapped as one attribute, so concurrent readers (the serving
layer calls ``estimate_batch`` from many threads) either see a consistent
cached entry or rebuild it — an idempotent, benign race.  Deep-copying an
estimator (the serving layer's copy-on-write ``checkout``/``publish``)
carries the cached entry along.

The :func:`fastpath_disabled` context manager forces the dense reference
path process-wide, with every mirror image of every kernel evaluated; the
equivalence suite compares the fast path against it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np
from scipy import special

__all__ = [
    "DEFAULT_ATOL",
    "KernelSupportIndex",
    "SupportCache",
    "SupportCached",
    "cull_epsilon",
    "culling_enabled",
    "estimate_boxes",
    "fastpath_disabled",
    "gaussian_cull_radius",
    "gaussian_tail_radius",
    "normal_box_mass",
    "set_route_metrics",
    "weighted_box_masses",
]

#: Documented maximum absolute deviation of a fast-path estimate from the
#: dense reference path (see the module docstring for the derivation).
DEFAULT_ATOL = 1e-12

#: Deviation-budget safety factor: three kernel images per axis (center plus
#: two boundary reflections), or two culled mirror images per reflecting axis,
#: times headroom for summation-order rounding differences between the pair
#: reduction and the dense dot product (see the module docstring).
_EPSILON_SAFETY = 24.0

#: Below this many kernels a dense pass beats any index overhead.
_MIN_KERNELS = 32

#: In large plans, queries whose tightest per-axis candidate range still
#: keeps this fraction of all kernels are answered densely — culling would
#: not pay for them.
_DENSE_FRACTION = 0.75

#: Aimed-for queries per evaluation group (grid-bucketed query clustering).
_TARGET_GROUP = 64

#: Work-buffer bound for the micro-kernel: dense blocks of (queries ×
#: kernels) and overlap masks of (boxes × kernels) stay at or below this many
#: elements (≈ 1 MB of floats), keeping the temporaries cache resident while
#: still amortising interpreter overhead.  Plans with ``queries × kernels``
#: at or below it take the small-plan pair route.
_BUFFER_ELEMENTS = 1 << 17

#: ``axis_mass(ids, axis, lows, highs)`` — per-axis kernel mass, broadcast
#: over the kernels ``ids`` selects: ``ids=None`` (all kernels) with
#: ``(n, 1)`` bounds gives ``(n, kernels)``; ``(P,)`` ids with ``(P,)`` bounds
#: gives one mass per (box, kernel) pair.
AxisMass = Callable[[np.ndarray | None, int, np.ndarray, np.ndarray], np.ndarray]

_ENABLED = True

#: Optional observability sink for routing decisions (``None`` = no-op).
_ROUTE_METRICS = None


def set_route_metrics(registry) -> None:
    """Install a :class:`repro.obs.metrics.MetricsRegistry` for route counts.

    When set, :func:`estimate_boxes` counts how many queries it answered via
    a culled route (``fastpath.culled_queries``: every query of a small
    plan, and the selective queries of a large one) versus the dense
    micro-kernel (``fastpath.dense_queries``, including whole batches it
    declined).  ``None`` (the default) disables counting entirely — the hot
    path then pays a single module-global ``is not None`` check.  Process-
    wide rather than per-estimator because the routing decision itself is a
    module-level policy.
    """
    global _ROUTE_METRICS
    _ROUTE_METRICS = registry if registry is not None and registry.enabled else None


@contextmanager
def fastpath_disabled():
    """Force every estimator onto the dense reference path within the block.

    The equivalence suite and the fast-path benchmark use this to reach the
    dense path without rebuilding estimators: no support index is built, no
    route is counted and no reflected kernel image is culled inside the
    block.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def culling_enabled() -> bool:
    """False inside a :func:`fastpath_disabled` block, true otherwise."""
    return _ENABLED


def cull_epsilon(atol: float = DEFAULT_ATOL) -> float:
    """Per-kernel-image tail-mass tolerance for a total deviation ``atol``."""
    return max(float(atol), 1e-300) / _EPSILON_SAFETY


def gaussian_tail_radius(epsilon: float) -> float:
    """The radius with ``Φ(-r) ≤ epsilon`` (one-sided tail mass beyond ``r``).

    Clamped to ``[1, 40]``; the single source of the Gaussian tail bound used
    by both :func:`gaussian_cull_radius` and
    :meth:`repro.core.kernels.GaussianKernel.effective_support_radius`.
    """
    return float(min(max(-special.ndtri(max(float(epsilon), 1e-300)), 1.0), 40.0))


def gaussian_cull_radius(atol: float = DEFAULT_ATOL) -> float:
    """Standardised cull radius for the Gaussian kernel at deviation ``atol``.

    ``Φ(-radius) ≤ cull_epsilon(atol)``, so a Gaussian kernel (or cluster
    kernel) whose center is more than ``radius`` standard deviations outside
    the query interval contributes at most ``ε`` axis mass.
    """
    return gaussian_tail_radius(cull_epsilon(atol))


def normal_box_mass(
    lows: np.ndarray,
    highs: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Mass of ``N(means, stds²)`` inside ``[lows, highs]``, elementwise.

    Uses ``ndtr`` (the normal CDF evaluated directly) — several times faster
    than composing ``erf``, and this is the hot function of batch estimation.
    ``out`` may supply a preallocated result buffer of the broadcast shape.
    """
    if out is None:
        mass = np.subtract(highs, means)
    else:
        mass = np.subtract(highs, means, out=out)
    np.divide(mass, stds, out=mass)
    special.ndtr(mass, out=mass)
    work = np.subtract(lows, means)
    np.divide(work, stds, out=work)
    special.ndtr(work, out=work)
    np.subtract(mass, work, out=mass)
    return np.clip(mass, 0.0, 1.0, out=mass)


class KernelSupportIndex:
    """Per-dimension sorted kernel positions with effective support radii.

    ``centers`` is the ``(K, d)`` matrix of kernel positions; ``radii`` the
    per-kernel per-axis effective support (broadcastable to ``(K, d)``):
    kernel ``i`` contributes more than the cull epsilon on axis ``d`` only to
    intervals overlapping ``[c_id - r_id, c_id + r_id]``.  Instances are
    immutable snapshots of the synopsis geometry — a mutated synopsis builds
    a fresh index (see the staleness contract in the module docstring).
    """

    __slots__ = (
        "lower_reach",
        "upper_reach",
        "orders",
        "sorted_positions",
        "max_radii",
        "kernel_count",
        "dims",
    )

    def __init__(self, centers: np.ndarray, radii: np.ndarray) -> None:
        centers = np.ascontiguousarray(np.atleast_2d(centers), dtype=float)
        self.kernel_count, self.dims = centers.shape
        radii = np.broadcast_to(np.asarray(radii, dtype=float), centers.shape)
        #: per-axis support ends ``c - r`` / ``c + r``, axis-major (``(d, K)``)
        self.lower_reach = np.ascontiguousarray((centers - radii).T)
        self.upper_reach = np.ascontiguousarray((centers + radii).T)
        #: per-axis argsort of the kernel positions (``(K, d)``)
        self.orders = np.argsort(centers, axis=0, kind="stable")
        self.sorted_positions = np.take_along_axis(centers, self.orders, axis=0)
        self.max_radii = (
            radii.max(axis=0)
            if self.kernel_count
            else np.zeros(self.dims)
        )

    def candidate_counts(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Per-query, per-axis candidate-count upper bounds (``(n, d)``).

        Two vectorised ``searchsorted`` probes per axis against the sorted
        positions, widened by the axis's maximum support radius.  The counts
        drive the dense-vs-culled routing of large plans.
        """
        counts = np.empty(lows.shape, dtype=np.int64)
        for axis in range(self.dims):
            positions = self.sorted_positions[:, axis]
            radius = self.max_radii[axis]
            starts = np.searchsorted(positions, lows[:, axis] - radius, side="left")
            stops = np.searchsorted(positions, highs[:, axis] + radius, side="right")
            counts[:, axis] = stops - starts
        return counts

    def box_candidates(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Ascending kernel ids whose support can overlap the box ``[low, high]``.

        The axis with the fewest in-range kernels supplies the initial
        contiguous slice of its sort order; every axis (including that one)
        then refines with the exact per-kernel radius test, so the result is
        the intersection of the per-axis support overlaps.  Reflected kernel
        images (boundary-corrected KDE) need no extra probes: a reflected
        image overlaps a domain-clipped interval only if its source kernel
        sits within one support radius of the interval, which places the
        source inside the same candidate slice.
        """
        starts = np.empty(self.dims, dtype=np.int64)
        stops = np.empty(self.dims, dtype=np.int64)
        for axis in range(self.dims):
            positions = self.sorted_positions[:, axis]
            radius = self.max_radii[axis]
            starts[axis] = np.searchsorted(positions, low[axis] - radius, side="left")
            stops[axis] = np.searchsorted(positions, high[axis] + radius, side="right")
        primary = int(np.argmin(stops - starts))
        ids = self.orders[starts[primary] : stops[primary], primary]
        if ids.size == 0:
            return ids
        keep = np.ones(ids.size, dtype=bool)
        for axis in range(self.dims):
            keep &= self.upper_reach[axis, ids] >= low[axis]
            keep &= self.lower_reach[axis, ids] <= high[axis]
        return np.sort(ids[keep])

    def overlap_pairs(
        self, lows: np.ndarray, highs: np.ndarray, ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(box_idx, kernel_ids)`` of every overlapping (box, kernel) pair.

        Builds the ``(boxes, kernels)`` overlap mask with the exact
        per-kernel radius test of :meth:`box_candidates`, against ``ids``
        (ascending kernel ids; ``None`` means all kernels).  Pairs come out
        box-major with ascending kernel ids, so each box's pairs are the same
        whichever candidate superset it was tested against.
        """
        upper = self.upper_reach if ids is None else self.upper_reach[:, ids]
        lower = self.lower_reach if ids is None else self.lower_reach[:, ids]
        mask = np.ones((lows.shape[0], upper.shape[1]), dtype=bool)
        for axis in range(self.dims):
            mask &= upper[axis] >= lows[:, axis, None]
            mask &= lower[axis] <= highs[:, axis, None]
        box_idx, columns = np.nonzero(mask)
        return box_idx, (columns if ids is None else ids[columns])


class SupportCache:
    """One epoch's query-side geometry of a kernel synopsis.

    ``centers`` and ``radii`` are what the :class:`KernelSupportIndex` is
    built from; ``scales`` holds per-kernel parameters the estimator's
    ``AxisMass`` callback reads (the streaming ADE's per-kernel stds), or
    ``None``.  The index itself is built by the first :meth:`index` call, so
    only a culled route ever pays for one; the near-bound masks of a
    reflecting synopsis likewise by the first :meth:`near_bounds` call.
    """

    __slots__ = ("epoch", "centers", "radii", "scales", "_index", "_near_bounds")

    def __init__(
        self, epoch: int, centers: np.ndarray, radii: np.ndarray, scales: np.ndarray | None
    ) -> None:
        self.epoch = epoch
        self.centers = centers
        self.radii = radii
        self.scales = scales
        self._index: KernelSupportIndex | None = None
        self._near_bounds: tuple[np.ndarray, np.ndarray] | None = None

    def index(self) -> KernelSupportIndex:
        """The support index of this epoch's geometry (built on first use)."""
        index = self._index
        if index is None:
            index = self._index = KernelSupportIndex(self.centers, self.radii)
        return index

    def near_bounds(
        self, low: np.ndarray, high: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(near_low, near_high)`` kernel masks, each ``(d, K)`` boolean.

        Kernel ``i`` is *near* the low bound of axis ``d`` when its support
        reaches it (``c_id - r_id ≤ low_d``), and near the high bound when
        ``c_id + r_id ≥ high_d``.  Only a near kernel's mirror image at that
        bound can put more than the cull epsilon back into the domain.  The
        bounds (a reflecting synopsis's domain) are fixed for the epoch, so
        the masks are built by the first call and reused until the next
        mutation replaces the entry.
        """
        near = self._near_bounds
        if near is None:
            radii = np.broadcast_to(np.asarray(self.radii, dtype=float), self.centers.shape)
            near = self._near_bounds = (
                np.ascontiguousarray((self.centers - radii <= low).T),
                np.ascontiguousarray((self.centers + radii >= high).T),
            )
        return near


class SupportCached:
    """Mixin: the epoch-guarded :class:`SupportCache` of a kernel estimator.

    Every synopsis mutation calls :meth:`_invalidate_support`; estimates read
    the current entry through :meth:`_support`, which rebuilds it from
    :meth:`_support_geometry` once the epoch moved (see the staleness
    contract in the module docstring).
    """

    _synopsis_epoch = 0
    _support_cache: SupportCache | None = None

    def _invalidate_support(self) -> None:
        """Bump the staleness counter: the synopsis geometry changed."""
        self._synopsis_epoch += 1
        self._support_cache = None

    def _support(self) -> SupportCache:
        """The support cache entry of the current epoch (rebuilt lazily)."""
        epoch = self._synopsis_epoch
        entry = self._support_cache
        if entry is None or entry.epoch != epoch:
            entry = SupportCache(epoch, *self._support_geometry())
            self._support_cache = entry
        return entry

    def _support_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(centers, radii, scales)`` of the current synopsis."""
        raise NotImplementedError


def weighted_box_masses(
    lows: np.ndarray,
    highs: np.ndarray,
    axis_mass: AxisMass,
    weights: np.ndarray,
    total_weight: float,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The product-kernel CDF micro-kernel: ``(1/W) Σ_i w_i Π_d mass_d(i)``.

    Without ``pairs`` (the dense mode) every query box in ``(lows, highs)``
    is evaluated against all kernels, blocked over queries with one
    preallocated ``(block, kernels)`` accumulation buffer so arbitrarily
    large batches stay cache resident.  With ``pairs = (box_idx,
    kernel_ids)`` (the pair mode) the product is evaluated only on those
    ``(P,)`` pairs and summed per box with ``np.bincount``; boxes without a
    pair get 0.  This is the single inner loop of the whole estimator
    family — the dense reference path and both culled routes run on it.
    """
    n = lows.shape[0]
    dims = lows.shape[1]
    if out is None:
        out = np.empty(n)
    if pairs is not None:
        box_idx, kernel_ids = pairs
        if box_idx.size == 0:
            out[:n] = 0.0
            return out
        terms = weights[kernel_ids]
        for axis in range(dims):
            terms *= axis_mass(kernel_ids, axis, lows[box_idx, axis], highs[box_idx, axis])
        out[:n] = np.bincount(box_idx, weights=terms, minlength=n)
        out[:n] /= total_weight
        return out
    count = weights.size
    if count == 0 or n == 0:
        out[:n] = 0.0
        return out
    block = max(_BUFFER_ELEMENTS // count, 1)
    buffer = np.empty((min(block, n), count))
    for start in range(0, n, block):
        stop = min(start + block, n)
        masses = buffer[: stop - start]
        masses[:] = 1.0
        for axis in range(dims):
            np.multiply(
                masses,
                axis_mass(
                    None, axis, lows[start:stop, axis, None], highs[start:stop, axis, None]
                ),
                out=masses,
            )
        np.matmul(masses, weights, out=out[start:stop])
    out[:n] /= total_weight
    return out


def _spatial_groups(
    lows: np.ndarray, highs: np.ndarray, index: KernelSupportIndex
) -> Iterator[np.ndarray]:
    """Cluster query boxes into spatially coherent evaluation groups.

    Nearby boxes share one culled candidate set, so grouping narrows the
    kernels each group's overlap mask is built against.  Box centers
    (clipped to the kernel position range, which keeps one-sided and
    full-domain boxes finite) are bucketed on a coarse grid sized for about
    ``_TARGET_GROUP`` queries per cell; each occupied cell is one group.
    """
    n, dims = lows.shape
    if n <= 1:
        yield np.arange(n)
        return
    position_low = index.sorted_positions[0, :]
    position_high = index.sorted_positions[-1, :]
    centers = 0.5 * (
        np.maximum(lows, position_low) + np.minimum(highs, position_high)
    )
    span = position_high - position_low
    span = np.where(span > 0, span, 1.0)
    cells_per_axis = max(int(np.ceil((n / _TARGET_GROUP) ** (1.0 / dims))), 1)
    cells = ((centers - position_low) / span * cells_per_axis).astype(np.int64)
    np.clip(cells, 0, cells_per_axis - 1, out=cells)
    keys = np.zeros(n, dtype=np.int64)
    for axis in range(dims):
        keys *= cells_per_axis
        keys += cells[:, axis]
    order = np.argsort(keys, kind="stable")
    boundaries = np.flatnonzero(np.diff(keys[order])) + 1
    yield from np.split(order, boundaries)


def estimate_boxes(
    lows: np.ndarray,
    highs: np.ndarray,
    support_index: Callable[[], KernelSupportIndex],
    weights: np.ndarray,
    axis_mass: AxisMass,
) -> np.ndarray:
    """The kernel family's one estimate path: ``(1/W) Σ_i w_i Π_d mass_d``.

    An empty or zero-weight synopsis answers 0 for every box.  The dense
    micro-kernel answers the whole plan under :func:`fastpath_disabled`, for
    synopses of fewer than ``_MIN_KERNELS`` kernels, and for large plans whose
    every query is wide.  Otherwise small plans (``queries × kernels ≤
    _BUFFER_ELEMENTS``) evaluate the pair mode over the overlap mask against
    all kernels, and large plans route each query by its tightest per-axis
    candidate count: wide queries (candidate fraction ≥ ``_DENSE_FRACTION``)
    run on the dense micro-kernel, selective queries are clustered into
    spatial groups whose union box narrows the kernels, and the overlap mask
    is built inside each group.  ``support_index`` is called only once a
    culled route is taken, so the dense route never builds an index.
    """
    n = lows.shape[0]
    kernel_count = weights.size
    if kernel_count == 0:
        return np.zeros(n)
    total_weight = float(weights.sum())
    if total_weight <= 0:
        return np.zeros(n)
    if not _ENABLED:
        return weighted_box_masses(lows, highs, axis_mass, weights, total_weight)
    route_metrics = _ROUTE_METRICS
    if kernel_count < _MIN_KERNELS or n == 0:
        if route_metrics is not None and n:
            route_metrics.counter("fastpath.dense_queries").inc(n)
        return weighted_box_masses(lows, highs, axis_mass, weights, total_weight)
    index = support_index()
    if n * kernel_count <= _BUFFER_ELEMENTS:
        if route_metrics is not None:
            route_metrics.counter("fastpath.culled_queries").inc(n)
        return weighted_box_masses(
            lows, highs, axis_mass, weights, total_weight,
            pairs=index.overlap_pairs(lows, highs),
        )
    counts = index.candidate_counts(lows, highs)
    tightest = counts.min(axis=1)
    selective = tightest < kernel_count * _DENSE_FRACTION
    if not selective.any():
        if route_metrics is not None:
            route_metrics.counter("fastpath.dense_queries").inc(n)
        return weighted_box_masses(lows, highs, axis_mass, weights, total_weight)
    out = np.zeros(n)
    wide = np.flatnonzero(~selective)
    if route_metrics is not None:
        if wide.size:
            route_metrics.counter("fastpath.dense_queries").inc(int(wide.size))
        route_metrics.counter("fastpath.culled_queries").inc(int(n - wide.size))
    if wide.size:
        out[wide] = weighted_box_masses(
            lows[wide], highs[wide], axis_mass, weights, total_weight
        )
    chosen = np.flatnonzero(selective)
    for group in _spatial_groups(lows[chosen], highs[chosen], index):
        queries = chosen[group]
        union_low = lows[queries].min(axis=0)
        union_high = highs[queries].max(axis=0)
        ids = index.box_candidates(union_low, union_high)
        if ids.size == 0:
            continue  # no kernel reaches any box in the group: mass 0
        block = max(_BUFFER_ELEMENTS // ids.size, 1)
        for start in range(0, queries.size, block):
            members = queries[start : start + block]
            member_lows = lows[members]
            member_highs = highs[members]
            out[members] = weighted_box_masses(
                member_lows, member_highs, axis_mass, weights, total_weight,
                pairs=index.overlap_pairs(member_lows, member_highs, ids),
            )
    return out
