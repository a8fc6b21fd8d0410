"""Self-test of the benchmark at a tiny size (about a minute).

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks that:

* every workload, untraced and traced, prints every metric ``BENCHMARK.json``
  declares for that mode, by name and with its unit, and passes its
  correctness checks;
* every per-layer metric has a prediction in ``layers.PREDICTIONS``, and
  every prediction names a declared end-to-end metric and workload;
* the correctness checks are not vacuous: a served answer perturbed by
  1e-6 fails the dense-reference check on ``serve_mix`` and ``batch_scan``,
  and a flipped journal byte fails the recovery check on ``ingest_durable``;
* without the program's sources the command exits non-zero and prints no
  result.

Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (needs the program on sys.path)
from repro.persist.journal import JournaledIngest  # noqa: E402
from repro.serve.server import EstimatorServer  # noqa: E402
from layers import PREDICTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
SECONDS = "1"


def _run_cli(workload: str, trace: int) -> list[str]:
    """Problems with one tiny CLI run's output (empty when it is right)."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
            "--trace", str(trace), "--scale", "tiny",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    where = f"{workload} trace={trace}"
    if completed.returncode != 0:
        return [f"{where}: exit {completed.returncode}: {completed.stderr.strip()[-500:]}"]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: correctness checks failed")
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {name} [{unit}] missing or malformed: {got}")
        if not any(line.startswith(f"{workload} {name} = ") and f" {unit} " in line for line in lines):
            problems.append(f"{where}: metric {name} not printed with unit {unit}")
    if len(result["metrics"]) != len(declared):
        problems.append(f"{where}: {len(result['metrics'])} metrics, {len(declared)} declared")
    return problems


def _predictions_problems() -> list[str]:
    """Every per-layer metric predicts declared (metric, workload) pairs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {entry["name"] for entry in spec["per_layer"]}
    metric_names = {entry["name"] for entry in spec["end_to_end"]}
    workload_names = {entry["name"] for entry in spec["workloads"]}
    problems = []
    if layer_names != set(PREDICTIONS):
        problems.append(
            f"PREDICTIONS do not match per_layer: missing {sorted(layer_names - set(PREDICTIONS))}, "
            f"undeclared {sorted(set(PREDICTIONS) - layer_names)}"
        )
    for name, pairs in PREDICTIONS.items():
        for metric, workload in pairs:
            if metric not in metric_names or workload not in workload_names:
                problems.append(f"prediction of {name} names ({metric}, {workload})")
    return problems


@contextmanager
def _patched(owner, attr, replacement):
    original = vars(owner)[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _failed_ops(workload: str) -> int:
    """Failed ops of one in-process tiny untraced run."""
    return run.run_untraced(WORKLOADS[workload], SEED, 0.5, "tiny")[4]


def _perturbed_answers_trip() -> list[str]:
    original = EstimatorServer.estimate_batch

    def perturbed(self, *args, **kwargs):
        return original(self, *args, **kwargs) + 1e-6

    problems = []
    with _patched(EstimatorServer, "estimate_batch", perturbed):
        for workload in ("serve_mix", "batch_scan"):
            if _failed_ops(workload) == 0:
                problems.append(f"{workload}: a perturbed answer passed the checks")
    return problems


def _flipped_journal_byte_trips() -> list[str]:
    original = vars(JournaledIngest)["recover"]

    def recover_flipped(cls, journal, *args, **kwargs):
        path = Path(journal)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # last byte of the last (row batch) record
        path.write_bytes(bytes(data))
        return original.__func__(cls, journal, *args, **kwargs)

    with _patched(JournaledIngest, "recover", classmethod(recover_flipped)):
        if _failed_ops("ingest_durable") == 0:
            return ["ingest_durable: a flipped journal byte passed the recovery check"]
    return []


def _fails_without_sources() -> list[str]:
    scratch = Path(tempfile.mkdtemp(prefix="bench-only-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve_mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=scratch, timeout=180,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if completed.returncode == 0 or completed.stdout.strip():
        return ["without program sources the command did not fail cleanly"]
    return []


def main() -> int:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    problems = _predictions_problems()
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += _run_cli(workload, trace)
    problems += _perturbed_answers_trip()
    problems += _flipped_journal_byte_trips()
    problems += _fails_without_sources()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
