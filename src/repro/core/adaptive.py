"""Sample-point adaptive (variable-bandwidth) kernel selectivity estimator.

Fixed-bandwidth KDE over-smooths dense regions and under-smooths sparse
ones, which translates directly into selectivity error on skewed database
columns.  :class:`AdaptiveKDEEstimator` assigns each retained sample point
its own bandwidth: a pilot fixed-bandwidth estimate is computed first, then
Abramson-style local factors ``λ_i ∝ f_pilot(x_i)^{-α}`` widen kernels in
sparse regions and narrow them in dense ones.

This estimator is the *batch* form of the paper's adaptive density
estimation idea; the streaming form lives in
:mod:`repro.core.streaming` and the feedback-driven tuning in
:mod:`repro.core.feedback`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bandwidth import local_bandwidth_factors
from repro.core.errors import InvalidParameterError
from repro.core.estimator import FLOAT_BYTES, register_estimator
from repro.core.kde import KDESelectivityEstimator
from repro.core.kernels import Kernel
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table

__all__ = ["AdaptiveKDEEstimator"]


@register_estimator("adaptive_kde")
class AdaptiveKDEEstimator(KDESelectivityEstimator):
    """Adaptive KDE with per-sample-point bandwidth factors.

    Parameters
    ----------
    sensitivity:
        Abramson exponent ``α ∈ [0, 1]``; ``0`` degenerates to the fixed
        bandwidth estimator, ``0.5`` is the classical square-root law.
    max_factor:
        Clip bound on the per-point factors (see
        :func:`repro.core.bandwidth.local_bandwidth_factors`).
    Other parameters are inherited from :class:`KDESelectivityEstimator`.
    """

    name = "adaptive_kde"

    def __init__(
        self,
        sample_size: int | None = 1000,
        kernel: str | Kernel = "gaussian",
        bandwidth_rule: str = "scott",
        bandwidths: Sequence[float] | None = None,
        boundary_correction: bool = True,
        sensitivity: float = 0.5,
        max_factor: float = 3.0,
        seed: int | None = 0,
    ) -> None:
        super().__init__(
            sample_size=sample_size,
            kernel=kernel,
            bandwidth_rule=bandwidth_rule,
            bandwidths=bandwidths,
            boundary_correction=boundary_correction,
            seed=seed,
        )
        if not 0.0 <= sensitivity <= 1.0:
            raise InvalidParameterError("sensitivity must lie in [0, 1]")
        if max_factor < 1.0:
            raise InvalidParameterError("max_factor must be at least 1")
        self.sensitivity = sensitivity
        self.max_factor = max_factor
        self._local_factors: np.ndarray = np.empty(0)

    # -- fitting -------------------------------------------------------------
    def fit(self, table: Table, columns: Sequence[str] | None = None) -> "AdaptiveKDEEstimator":
        super().fit(table, columns)
        self._fit_local_factors()
        # The per-point factors widen the support radii, so the support cache
        # filled during fit (if any) is stale again.
        self._invalidate_support()
        return self

    def _fit_local_factors(self) -> None:
        """Compute Abramson factors from a pilot (fixed-bandwidth) density."""
        if self._points.shape[0] == 0 or self.sensitivity == 0.0:
            self._local_factors = np.ones(self._points.shape[0])
            return
        pilot_density = self._pilot_density_at_samples()
        self._local_factors = local_bandwidth_factors(
            pilot_density, self.sensitivity, self.max_factor
        )

    def _pilot_density_at_samples(self) -> np.ndarray:
        """Pilot fixed-bandwidth density evaluated at every retained sample point."""
        points = self._points
        n, dims = points.shape
        densities = np.zeros(n)
        block = 1024
        for start in range(0, n, block):
            chunk = points[start : start + block]
            values = np.ones((chunk.shape[0], n))
            for d in range(dims):
                h = self._bandwidths[d]
                u = (chunk[:, d, None] - points[None, :, d]) / h
                values *= self.kernel.pdf(u) / h
            densities[start : start + block] = values.mean(axis=1)
        return densities

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {
            **super()._config_params(),
            "sensitivity": self.sensitivity,
            "max_factor": self.max_factor,
        }

    def _state(self) -> tuple[dict, dict]:
        arrays, meta = super()._state()
        arrays["local_factors"] = self._local_factors
        return arrays, meta

    def _restore_state(self, arrays, meta) -> None:
        super()._restore_state(arrays, meta)
        self._local_factors = np.asarray(arrays["local_factors"], dtype=float)
        self._invalidate_support()

    @property
    def local_factors(self) -> np.ndarray:
        """Per-sample-point bandwidth multipliers (geometric mean 1)."""
        self._require_fitted()
        return self._local_factors.copy()

    def memory_bytes(self) -> int:
        base = super().memory_bytes()
        return int(base + self._local_factors.size * FLOAT_BYTES)

    # -- estimation -------------------------------------------------------------
    def _axis_bandwidths(self, axis: int, ids: np.ndarray | None) -> np.ndarray:
        """Per-point bandwidths ``h_d · λ_i`` along one axis.

        ``ids`` selects the sample points (``None``: all points, as
        :meth:`density` and the dense path read them); pilot paths with no
        factors fall back to the fixed bandwidth behaviour.
        """
        factors = self._local_factors
        if factors.size == 0:
            factors = np.ones(self._points.shape[0])
        if ids is not None:
            factors = factors[ids]
        return self._bandwidths[axis] * factors

    def _support_radii(self) -> np.ndarray:
        """Per-point, per-axis support radii: the base radii widened by λ_i."""
        base = super()._support_radii()
        factors = self._local_factors
        if factors.size == 0:
            return base
        return np.outer(factors, base)
