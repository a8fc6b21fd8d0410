"""The experiments CLI's telemetry flags: snapshot, series, dashboard, errors."""

from __future__ import annotations

import pytest

import repro.experiments.__main__ as cli
from repro.obs.collector import store_from_payload
from repro.obs.export import exporter_for_path
from repro.persist.store import ModelStore

SMALL_RUN = ["table1", "--rows", "2000", "--queries", "50"]


def test_telemetry_snapshot_series_and_dashboard(tmp_path, capsys) -> None:
    snapshot_path = tmp_path / "x.jsonl"
    dashboard = tmp_path / "d.html"
    assert cli.main(
        [
            "--telemetry", str(snapshot_path),
            "--collect-interval", "0.2",
            "--dashboard", str(dashboard),
            *SMALL_RUN,
        ]
    ) == 0
    snapshot = exporter_for_path(snapshot_path).load(snapshot_path)
    run = snapshot["histograms"]["experiments.run_seconds{experiment=table1}"]
    assert run["count"] == 1
    series_path = tmp_path / "x.series.jsonl"
    series = store_from_payload(exporter_for_path(series_path).load(series_path))
    assert "experiments.run_seconds{experiment=table1}" in series.keys()
    assert dashboard.is_file() and dashboard.stat().st_size > 0
    out = capsys.readouterr().out
    assert "telemetry series written to" in out


def test_store_built_before_the_scope_counts_every_publish(tmp_path) -> None:
    models = tmp_path / "models"
    snapshot_path = tmp_path / "t.json"
    cli.main(["--save-models", str(models), "--telemetry", str(snapshot_path), *SMALL_RUN])
    store = ModelStore(models)
    published = sum(len(store.versions(name)) for name in store.model_names())
    assert published > 0
    snapshot = exporter_for_path(snapshot_path).load(snapshot_path)
    assert snapshot["counters"]["persist.publishes"]["value"] == published


@pytest.mark.parametrize(
    "flags",
    [
        ["--save-models", "models", "--telemetry", "out.bogus"],
        ["--telemetry", "out.bogus", "--collect-interval", "0.5"],
    ],
    ids=["snapshot", "series"],
)
def test_unknown_suffix_exits_before_any_run(tmp_path, monkeypatch, flags) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("the experiment ran before the suffix was checked")

    monkeypatch.setattr(cli, "run_experiment", forbidden)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*flags, "table3"])
    message = str(exit_info.value.code)
    assert "'.bogus'" in message and ".jsonl" in message
    assert list(tmp_path.iterdir()) == []
