"""Fixed-bandwidth kernel density selectivity estimator.

:class:`KDESelectivityEstimator` is the classical kernel-based synopsis: a
uniform random sample of the relation is retained and every sample point is
smoothed with a product kernel.  The selectivity of a conjunctive range
predicate ``Π_d [a_d, b_d]`` is the model mass inside the box,

    ``sel(Q) = (1/W) Σ_i w_i Π_d [ F_d((b_d - x_{id}) / h_d) - F_d((a_d - x_{id}) / h_d) ]``

which is closed form for product kernels because the box factorises per
attribute.  Optional boundary correction by reflection keeps mass from
leaking outside the attribute domains (important for bounded domains such as
``[0, 1]`` grades or ages).

The estimator is *space budgeted*: its footprint is the retained sample plus
one bandwidth per attribute, so it can be compared with histograms and other
synopses at equal byte budgets.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core import fastpath
from repro.core.bandwidth import select_bandwidth
from repro.core.errors import InvalidParameterError
from repro.core.estimator import (
    FLOAT_BYTES,
    SelectivityEstimator,
    register_estimator,
)
from repro.core.kernels import Kernel, get_kernel
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table

__all__ = ["KDESelectivityEstimator"]


@register_estimator("kde")
class KDESelectivityEstimator(fastpath.SupportCached, SelectivityEstimator):
    """Sample-based product-kernel density estimator for range selectivities.

    Parameters
    ----------
    sample_size:
        Number of rows retained from the relation.  ``None`` keeps all rows.
    kernel:
        Kernel name or :class:`~repro.core.kernels.Kernel` instance.
    bandwidth_rule:
        ``"scott"``, ``"silverman"``, ``"lscv"`` or ``"mlcv"``; or pass
        explicit per-attribute bandwidths via ``bandwidths``.
    bandwidths:
        Optional explicit bandwidths (sequence aligned with the fitted
        columns), overriding ``bandwidth_rule``.
    boundary_correction:
        When true, sample points are reflected at the attribute domain
        boundaries so no probability mass falls outside the observed domain.
    seed:
        Seed for the sampling generator (reproducibility).

    Batch estimation runs through the support-culling query fast path
    (:mod:`repro.core.fastpath`), which matches the dense path to
    :data:`~repro.core.fastpath.DEFAULT_ATOL`.
    """

    name = "kde"

    def __init__(
        self,
        sample_size: int | None = 1000,
        kernel: str | Kernel = "gaussian",
        bandwidth_rule: str = "scott",
        bandwidths: Sequence[float] | None = None,
        boundary_correction: bool = True,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        if sample_size is not None and sample_size < 1:
            raise InvalidParameterError("sample_size must be positive or None")
        self.sample_size = sample_size
        self.kernel = get_kernel(kernel)
        self.bandwidth_rule = bandwidth_rule
        self._explicit_bandwidths = (
            np.asarray(bandwidths, dtype=float) if bandwidths is not None else None
        )
        self.boundary_correction = boundary_correction
        self.seed = seed

        self._points: np.ndarray = np.empty((0, 0))
        self._weights: np.ndarray = np.empty(0)
        self._bandwidths: np.ndarray = np.empty(0)
        self._domain_low: np.ndarray = np.empty(0)
        self._domain_high: np.ndarray = np.empty(0)

    # -- fitting -------------------------------------------------------------
    def fit(self, table: Table, columns: Sequence[str] | None = None) -> "KDESelectivityEstimator":
        columns = self._resolve_columns(table, columns)
        data = table.columns(columns)
        rng = np.random.default_rng(self.seed)
        if self.sample_size is not None and data.shape[0] > self.sample_size:
            index = rng.choice(data.shape[0], size=self.sample_size, replace=False)
            sample = data[index]
        else:
            sample = data.copy()
        self._points = sample
        self._weights = np.ones(sample.shape[0], dtype=float)
        self._fit_domain(data)
        self._fit_bandwidths(sample, rng)
        self._invalidate_support()
        self._mark_fitted(columns, table.row_count)
        return self

    def _fit_domain(self, data: np.ndarray) -> None:
        if data.size == 0:
            dims = data.shape[1] if data.ndim == 2 else 0
            self._domain_low = np.zeros(dims)
            self._domain_high = np.ones(dims)
            return
        self._domain_low = data.min(axis=0).astype(float)
        self._domain_high = data.max(axis=0).astype(float)

    def _fit_bandwidths(self, sample: np.ndarray, rng: np.random.Generator) -> None:
        dims = sample.shape[1]
        if self._explicit_bandwidths is not None:
            self._bandwidths = _validated_bandwidths(self._explicit_bandwidths, dims)
            return
        if sample.shape[0] == 0:
            # Zero-row fit: there is nothing to select a bandwidth from.  The
            # estimator stays usable and answers 0.0 (no sample points means
            # no mass anywhere); placeholder bandwidths keep every downstream
            # formula finite.
            self._bandwidths = np.ones(dims)
            return
        bandwidths = np.empty(dims)
        for d in range(dims):
            bandwidths[d] = select_bandwidth(
                sample[:, d],
                rule=self.bandwidth_rule,
                dimensions=dims,
                kernel=self.kernel,
                rng=rng,
            )
        self._bandwidths = bandwidths

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {
            "sample_size": self.sample_size,
            "kernel": self.kernel.name,
            "bandwidth_rule": self.bandwidth_rule,
            "bandwidths": (
                None
                if self._explicit_bandwidths is None
                else [float(b) for b in self._explicit_bandwidths]
            ),
            "boundary_correction": self.boundary_correction,
            "seed": self.seed,
        }

    def _state(self) -> tuple[dict, dict]:
        arrays = {
            "points": self._points,
            "weights": self._weights,
            "bandwidths": self._bandwidths,
            "domain_low": self._domain_low,
            "domain_high": self._domain_high,
        }
        return arrays, {}

    def _restore_state(self, arrays, meta) -> None:
        self._points = np.asarray(arrays["points"], dtype=float)
        self._weights = np.asarray(arrays["weights"], dtype=float)
        self._bandwidths = np.asarray(arrays["bandwidths"], dtype=float)
        self._domain_low = np.asarray(arrays["domain_low"], dtype=float)
        self._domain_high = np.asarray(arrays["domain_high"], dtype=float)
        self._invalidate_support()

    # -- introspection ---------------------------------------------------------
    @property
    def bandwidths(self) -> np.ndarray:
        """Per-attribute bandwidths chosen during ``fit``."""
        self._require_fitted()
        return self._bandwidths.copy()

    @property
    def sample_points(self) -> np.ndarray:
        """The retained sample (``(m, d)`` matrix)."""
        self._require_fitted()
        return self._points.copy()

    def set_bandwidths(self, bandwidths: Sequence[float]) -> None:
        """Override the per-attribute bandwidths of a fitted estimator."""
        self._require_fitted()
        self._bandwidths = _validated_bandwidths(bandwidths, self._points.shape[1])
        self._invalidate_support()

    def memory_bytes(self) -> int:
        self._require_fitted()
        sample_floats = self._points.size + self._weights.size
        parameter_floats = self._bandwidths.size + self._domain_low.size + self._domain_high.size
        return int((sample_floats + parameter_floats) * FLOAT_BYTES)

    # -- estimation -------------------------------------------------------------
    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Box mass of the kernel mixture for ``(n, d)`` bound matrices."""
        return fastpath.estimate_boxes(
            lows, highs, self._support().index, self._weights, self._axis_mass
        )

    def _support_geometry(self) -> tuple[np.ndarray, np.ndarray, None]:
        """Sample points and their support radii (see :class:`fastpath.SupportCached`)."""
        return self._points, self._support_radii(), None

    def _support_radii(self) -> np.ndarray:
        """Per-axis effective support radii (``(d,)``; subclasses widen per point)."""
        scale = self.kernel.effective_support_radius(fastpath.cull_epsilon())
        return self._bandwidths * scale

    def _axis_bandwidths(self, axis: int, ids: np.ndarray | None) -> float | np.ndarray:
        """Bandwidth(s) along one axis; adaptive subclasses return per-point arrays."""
        return float(self._bandwidths[axis])

    def _reflects(self, axis: int) -> bool:
        """Whether kernels are mirrored at both (finite) domain bounds of ``axis``."""
        return self.boundary_correction and bool(
            math.isfinite(self._domain_low[axis]) and math.isfinite(self._domain_high[axis])
        )

    def _axis_mass(
        self, ids: np.ndarray | None, axis: int, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        """Kernel mass on one axis, with reflection (the ``AxisMass`` protocol).

        ``ids`` selects the sample points (``None``: all of them) and the
        bounds broadcast against them: the dense path passes ``(n, 1)`` bounds
        and gets ``(n, m)`` back, the pair route passes ``(P,)`` ids with
        ``(P,)`` bounds and gets one mass per (box, point) pair.  Centers are
        pre-divided by the bandwidth so each CDF argument costs a single
        broadcast pass — this is the hot loop of batch estimation.

        On a reflecting axis a kernel's mirror image at a domain bound is
        evaluated only if the kernel is *near* that bound, i.e. within its
        own effective support radius of it (the near-low / near-high masks
        of :meth:`fastpath.SupportCache.near_bounds`, per point for adaptive
        bandwidths).  A far image puts at most the cull epsilon back into the
        domain — exactly 0 for compact kernels.  The dense mode evaluates an
        image on the near kernels' columns only, the pair mode on the pairs
        whose kernel is near.  The masks live in the epoch-guarded support
        cache entry, so every mutation that invalidates it rebuilds them, and
        they depend only on the kernel, so a box's answer stays independent
        of its plan.  Inside :func:`fastpath.fastpath_disabled` every image
        of every kernel is evaluated: that is the exact reference.
        """
        centers = self._points[:, axis] if ids is None else self._points[ids, axis]
        inv_h = 1.0 / self._axis_bandwidths(axis, ids)
        scaled_centers = centers * inv_h
        if not self._reflects(axis):
            return self._scaled_axis_mass(scaled_centers, inv_h, low, high)
        # Reflection: mirror each kernel at the domain boundaries and fold the
        # reflected mass that re-enters the query interval back in.  The query
        # interval is clipped to the domain first because no data exists outside.
        domain_low = self._domain_low[axis]
        domain_high = self._domain_high[axis]
        clipped_low = np.maximum(low, domain_low)
        clipped_high = np.minimum(high, domain_high)
        mass = self._scaled_axis_mass(scaled_centers, inv_h, clipped_low, clipped_high)
        near = (slice(None), slice(None))  # every kernel: the exact reference
        if fastpath.culling_enabled():
            masks = self._support().near_bounds(self._domain_low, self._domain_high)
            # Positions along the result's last axis: the near kernels'
            # columns in dense mode, the pairs whose kernel is near in pair mode.
            near = [np.flatnonzero(m[axis] if ids is None else m[axis][ids]) for m in masks]
        for bound, positions in zip((domain_low, domain_high), near):
            image_inv_h = inv_h[positions] if np.ndim(inv_h) else inv_h
            # Dense-mode (n, 1) bounds broadcast over kernels; pair bounds are per pair.
            if ids is None:
                box_low, box_high = clipped_low, clipped_high
            else:
                box_low, box_high = clipped_low[positions], clipped_high[positions]
            mass[..., positions] += self._scaled_axis_mass(
                (2.0 * bound - centers[positions]) * image_inv_h, image_inv_h, box_low, box_high
            )
        np.clip(mass, 0.0, 1.0, out=mass)
        empty = clipped_low > clipped_high
        if np.any(empty):
            np.copyto(mass, 0.0, where=empty)
        return mass

    def _scaled_axis_mass(
        self,
        scaled_centers: np.ndarray,
        inv_bandwidth: float | np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
    ) -> np.ndarray:
        """Kernel mass from pre-scaled centers: args are ``bound/h - center/h``."""
        return self.kernel.interval_mass(
            low * inv_bandwidth - scaled_centers, high * inv_bandwidth - scaled_centers
        )

    # -- density (used by MISE metrics and the bandwidth ablation) ------------
    def density(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the estimated joint density at ``points`` (``(m, d)`` matrix).

        The density :meth:`estimate` integrates: on a reflecting axis each
        kernel carries its two mirror images and the density is zero outside
        the domain, so the mass of any box equals the box's estimate.
        """
        self._require_fitted()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self._points.shape[1]:
            raise InvalidParameterError(
                f"density expects {self._points.shape[1]}-dimensional points"
            )
        if self._points.shape[0] == 0:
            return np.zeros(points.shape[0])
        total_weight = float(self._weights.sum())
        result = np.zeros(points.shape[0])
        # Evaluate in blocks so memory stays bounded for large samples.
        block = 2048
        for start in range(0, points.shape[0], block):
            chunk = points[start : start + block]
            values = np.ones((chunk.shape[0], self._points.shape[0]))
            for d in range(self._points.shape[1]):
                x = chunk[:, d, None]
                centers = self._points[:, d]
                h = self._axis_bandwidths(d, None)
                axis_density = self.kernel.pdf((x - centers) / h)
                if self._reflects(d):
                    low = self._domain_low[d]
                    high = self._domain_high[d]
                    axis_density += self.kernel.pdf((x - (2.0 * low - centers)) / h)
                    axis_density += self.kernel.pdf((x - (2.0 * high - centers)) / h)
                    axis_density *= (x >= low) & (x <= high)
                values *= axis_density / h
            result[start : start + block] = values @ self._weights / total_weight
        return result


def _validated_bandwidths(bandwidths: Sequence[float], dims: int) -> np.ndarray:
    """``bandwidths`` as a float array: one per attribute, finite and positive."""
    bandwidths = np.array(bandwidths, dtype=float)
    if bandwidths.size != dims:
        raise InvalidParameterError(
            f"{bandwidths.size} bandwidths supplied for {dims} attributes"
        )
    if not np.all(np.isfinite(bandwidths) & (bandwidths > 0)):
        raise InvalidParameterError("bandwidths must be finite and positive")
    return bandwidths
