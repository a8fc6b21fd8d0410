"""Compare two sets of benchmark runs, per (workload, metric).

Usage, from the repository root::

    python3 perfbench/compare.py parent.txt change.txt

Each file holds the captured standard output of any number of
``perfbench/run.py`` runs (append one run after another).  Every untraced
end-to-end metric is labelled, by the bound ``BENCHMARK.json`` fixes for it:

* ``unresolved`` — either side's run-to-run spread (interquartile range over
  median) exceeds the bound, unless every run of the change reads better
  (``better``) or worse (``worse``) than every run of the parent;
* ``worse`` — the change's median is worse than the parent's by more than
  the bound;
* ``better`` — the change wins at least nine tenths of all (parent, change)
  run pairs, ties counting for neither, and the medians differ by more than
  the parent's interquartile range;
* ``unchanged`` — otherwise.

Per-layer metrics (traced runs) have no bound; their medians are listed for
attribution.  Runs made at the ``tiny`` self-test scale are ignored.  The
exit code is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> list[tuple[dict, dict]]:
    """``(meta, result)`` pairs of the full-scale runs captured in ``path``."""
    runs = []
    meta = None
    skipped = 0
    for line in path.read_text().splitlines():
        if not line.startswith("{"):
            continue
        payload = json.loads(line)
        if "perfbench_meta" in payload:
            meta = payload["perfbench_meta"]
        elif "metrics" in payload and meta is not None:
            if meta.get("scale") == "full":
                runs.append((meta, payload))
            else:
                skipped += 1
            meta = None
    if skipped:
        print(f"{path}: ignored {skipped} run(s) not made at full scale")
    return runs


def group(runs) -> dict[tuple[str, bool, str], list[float]]:
    values: dict[tuple[str, bool, str], list[float]] = {}
    for meta, result in runs:
        for name, entry in result["metrics"].items():
            key = (meta["workload"], bool(meta["traced"]), name)
            values.setdefault(key, []).append(float(entry["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def label(base: list[float], change: list[float], bound: float, lower_is_better: bool) -> str:
    """The verdict for one (workload, metric); see the module docstring."""

    def better(a: float, b: float) -> bool:
        return b < a if lower_is_better else b > a

    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(change)
    spread = max((q3a - q1a) / abs(ma) if ma else 0.0, (q3b - q1b) / abs(mb) if mb else 0.0)
    every_better = all(better(a, b) for a in base for b in change)
    every_worse = all(better(b, a) for a in base for b in change)
    if spread > bound:
        return "better" if every_better else "worse" if every_worse else "unresolved"
    worsening = (mb - ma) / abs(ma) if ma else 0.0
    if not lower_is_better:
        worsening = -worsening
    if worsening > bound:
        return "worse"
    wins = sum(better(a, b) for a in base for b in change)
    if (
        wins >= 0.9 * len(base) * len(change)
        and better(ma, mb)
        and abs(mb - ma) > q3a - q1a
    ):
        return "better"
    return "unchanged"


def _describe(runs, side: str) -> None:
    shas = sorted({str(meta.get("git_sha")) for meta, _ in runs})
    digests = sorted({meta.get("source_digest", "")[:12] for meta, _ in runs})
    seeds = sorted({meta.get("seed") for meta, _ in runs})
    print(f"{side}: {len(runs)} runs, git_sha {shas}, source {digests}, seeds {seeds}")
    if len(digests) > 1:
        print(f"{side}: WARNING runs of different sources are mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="captured runs of the parent")
    parser.add_argument("change", type=Path, help="captured runs of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    layer = {entry["name"]: entry for entry in spec["per_layer"]}
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)
    _describe(base_runs, "base")
    _describe(change_runs, "change")
    base, change = group(base_runs), group(change_runs)
    worse = 0
    header = (
        f"{'workload':15s} {'metric':28s} {'n':>7s} {'base median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'change':>8s}  verdict"
    )
    print(header)
    for key in sorted(set(base) | set(change)):
        workload, traced, name = key
        a, b = base.get(key), change.get(key)
        if not a or not b:
            print(f"{workload:15s} {name:28s} missing on one side")
            continue
        q1a, ma, q3a = quartiles(a)
        q1b, mb, q3b = quartiles(b)
        relative = (mb - ma) / abs(ma) if ma else 0.0
        if traced:
            unit = layer.get(name, {}).get("unit", "")
            verdict = f"per-layer ({unit}), no bound"
        else:
            entry = bounds[name]
            verdict = label(a, b, entry["bound"], entry["better"] == "lower")
            worse += verdict == "worse"
        print(
            f"{workload:15s} {name:28s} {len(a):>3d}/{len(b):<3d} "
            f"{ma:12.6g} [{q1a:9.4g}, {q3a:9.4g}] {mb:12.6g} [{q1b:9.4g}, {q3b:9.4g}] "
            f"{relative:+8.2%}  {verdict}"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
