"""Configs and snapshots carrying a retired constructor parameter still load.

The kernel-family estimators once took a ``fastpath`` flag, and it was
written into every ``config()`` and snapshot header.  Loading must ignore
the key — at top level and inside the nested configs of the wrapper
estimators — and rebuild an estimator that answers bitwise like one built
without it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveKDEEstimator
from repro.core.estimator import create_estimator, estimator_from_config
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.engine.table import Table
from repro.persist.snapshot import load_estimator, read_snapshot_header, save_estimator
from repro.workload.queries import compile_queries

_KERNEL_CONFIGS = {
    "kde": {"name": "kde", "sample_size": 200},
    "adaptive_kde": {"name": "adaptive_kde", "sample_size": 200},
    "streaming_ade": {"name": "streaming_ade", "max_kernels": 32},
}


def _wrapped(inner: dict) -> dict[str, dict]:
    """Wrapper configs whose nested estimator config is ``inner``."""
    return {
        "feedback": {"name": "feedback_ade", "base": inner},
        "ensemble": {"name": "ensemble", "experts": [inner, {"name": "equiwidth"}]},
        "sharded": {"name": "sharded", "base": inner, "shards": 2, "parallel": None},
    }


def _configs(flag: bool | None) -> dict[str, dict]:
    """Every config under test; ``flag`` set means the retired key rides along."""
    configs = {}
    for name, config in _KERNEL_CONFIGS.items():
        inner = dict(config) if flag is None else {**config, "fastpath": flag}
        configs[name] = inner
        for wrapper, wrapped in _wrapped(inner).items():
            configs[f"{wrapper}/{name}"] = wrapped
    return configs


CASES = sorted(_configs(None))


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("case", CASES)
def test_config_with_retired_key_builds_identical_estimator(
    case: str, flag: bool, mixture_table_2d: Table, workload_2d
) -> None:
    reference = estimator_from_config(_configs(None)[case]).fit(mixture_table_2d)
    plan = compile_queries(workload_2d, reference.columns)
    legacy = estimator_from_config(_configs(flag)[case]).fit(mixture_table_2d)
    assert "fastpath" not in json.dumps(legacy.config())
    np.testing.assert_array_equal(legacy.estimate_batch(plan), reference.estimate_batch(plan))


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("case", CASES)
def test_snapshot_with_retired_key_loads(
    case: str, flag: bool, mixture_table_2d: Table, workload_2d, tmp_path, monkeypatch
) -> None:
    estimator = estimator_from_config(_configs(None)[case]).fit(mixture_table_2d)
    plan = compile_queries(workload_2d, estimator.columns)
    expected = estimator.estimate_batch(plan)
    path = tmp_path / "legacy.npz"
    # Write the snapshot as it was written while the flag existed: every
    # kernel-family config — top level or nested — carries it.
    with monkeypatch.context() as patch:
        for cls in (KDESelectivityEstimator, AdaptiveKDEEstimator, StreamingADE):
            params = cls._config_params
            patch.setattr(
                cls,
                "_config_params",
                lambda self, params=params: {**params(self), "fastpath": flag},
            )
        save_estimator(estimator, path)
    assert f'"fastpath": {json.dumps(flag)}' in json.dumps(read_snapshot_header(path))
    loaded = load_estimator(path)
    assert "fastpath" not in json.dumps(loaded.config())
    np.testing.assert_array_equal(loaded.estimate_batch(plan), expected)


def test_constructors_reject_the_retired_parameter() -> None:
    for name, config in _KERNEL_CONFIGS.items():
        params = {k: v for k, v in config.items() if k != "name"}
        with pytest.raises(TypeError):
            create_estimator(name, fastpath=True, **params)
