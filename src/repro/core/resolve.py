"""Resolution of estimator specifications.

The wrapper estimators — the feedback wrapper, the sharded front end and
the expert ensemble — accept the estimator they wrap as any of

* an estimator **instance**,
* a registry **name** string (``"kde"``),
* a ``{"name": ..., **params}`` **config mapping** — which is how snapshot
  and describe round-trips reconstruct nested wrappers through
  :func:`~repro.core.estimator.estimator_from_config`.

:func:`resolve_estimator` is the one implementation of that convention, so
arbitrarily nested wrapper configs round-trip uniformly.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.core.errors import InvalidParameterError
from repro.core.estimator import (
    SelectivityEstimator,
    create_estimator,
    estimator_from_config,
)

__all__ = ["resolve_estimator"]


def resolve_estimator(
    spec: "SelectivityEstimator | Mapping[str, Any] | str | None",
    default: Callable[[], SelectivityEstimator] | None = None,
    *,
    what: str = "estimator",
) -> SelectivityEstimator:
    """Resolve an estimator spec (instance / registry name / config mapping).

    ``default`` is a zero-argument factory used when ``spec`` is ``None``;
    without one, ``None`` is rejected.  ``what`` names the parameter in error
    messages (``"base"``, ``"expert"``, ...).
    """
    if spec is None:
        if default is None:
            raise InvalidParameterError(f"{what} specification is required")
        return default()
    if isinstance(spec, SelectivityEstimator):
        return spec
    if isinstance(spec, str):
        return create_estimator(spec)
    if isinstance(spec, Mapping):
        return estimator_from_config(spec)
    raise InvalidParameterError(
        f"{what} must be an estimator instance, registry name or config "
        f"mapping, got {type(spec).__name__}"
    )
