"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload twice over the same ops, untraced then
traced, and prints every per-layer metric.  Each metric is printed on its
own line by name with its unit; the line before the last is a
``{"perfbench_meta": ...}`` description of the run (commit, machine,
versions, seed, sample counts); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

# One client, no extra threads: pin the BLAS pool before numpy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per untraced run: at least ``SETUP_REPEATS``, more (up to
#: ``SETUP_MAX_REPEATS``) until ``SETUP_MIN_SECONDS`` were spent setting up;
#: ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 41
SETUP_MIN_SECONDS = 3.0

#: Timed wall between two calibration ops in the timed loop.
CALIBRATE_EVERY_SECONDS = 0.1

#: Calibration ops timed before each set-up.
SETUP_CALIBRATIONS = 5

#: End-to-end metrics that are times, reported calibrated (raw ones in detail).
TIME_METRICS = ("setup_s", "throughput", "primary_p50_us", "secondary_p50_us", "tail_us")


@dataclass
class Timing:
    """What :func:`timed_loop` measured, per ``BLOCK_SECONDS`` block."""

    wall: float = 0.0
    ops: int = 0
    block_walls: dict[int, float] = field(default_factory=dict)
    #: thread CPU time of the ops, for workloads that wait on the disk
    block_cpu: dict[int, float] = field(default_factory=dict)
    calibrations: dict[int, list[float]] = field(default_factory=dict)
    disk_calibrations: dict[int, list[float]] = field(default_factory=dict)


def timed_loop(workload, calibration, seconds=None, max_ops=None) -> Timing:
    """Run ops for ``seconds`` of timed wall or ``max_ops`` ops.

    Time spent in sampled correctness checks and in calibration ops is
    excluded from the wall.  One calibration op (and, for a workload that
    uses the disk, one disk calibration op) runs every
    ``CALIBRATE_EVERY_SECONDS`` of timed wall.
    """
    from calibration import DiskCalibration
    from workloads import BLOCK_SECONDS

    timing = Timing()
    disk = DiskCalibration(workload.workdir / "calibration") if workload.uses_disk else None
    calibrated_at = -CALIBRATE_EVERY_SECONDS
    try:
        while (timing.ops < max_ops) if max_ops is not None else (timing.wall < seconds):
            workload.block = block = int(timing.wall / BLOCK_SECONDS)
            if timing.wall - calibrated_at >= CALIBRATE_EVERY_SECONDS:
                calibrated_at = timing.wall
                timing.calibrations.setdefault(block, []).append(calibration.measure())
                if disk is not None:
                    timing.disk_calibrations.setdefault(block, []).append(disk.measure())
            checks = workload.check_seconds
            cpu = thread_time()
            start = perf_counter()
            workload.step()
            elapsed = perf_counter() - start - (workload.check_seconds - checks)
            if disk is not None:
                # correctness checks are CPU-bound: their wall stands for their CPU
                cpu = thread_time() - cpu - (workload.check_seconds - checks)
                timing.block_cpu[block] = timing.block_cpu.get(block, 0.0) + cpu
            timing.block_walls[block] = timing.block_walls.get(block, 0.0) + elapsed
            timing.wall += elapsed
            timing.ops += 1
    finally:
        if disk is not None:
            disk.close()
    return timing


def _factors(calibrations: dict[int, list[float]], reference: float, average=statistics.median):
    """Per-block ``reference / average``, and the same over the whole run."""
    overall = average([t for times in calibrations.values() for t in times])
    factors = {block: reference / average(times) for block, times in calibrations.items()}
    return factors, reference / overall


def calibrate(workload, timing: Timing) -> float:
    """Give ``workload`` its per-block time factors; return the scaled wall.

    Per-op disk waits are scaled by the median disk calibration op, as a
    typical op waits a typical fsync.  The wall sums every wait, the disk's
    rare slow fsyncs included, so its disk wait is scaled by the mean.
    """
    from calibration import REFERENCE_DISK_SECONDS, REFERENCE_SECONDS

    factors, default = _factors(timing.calibrations, REFERENCE_SECONDS)
    disk_factors, disk_default = factors, default
    wall_disk_factors, wall_disk_default = factors, default
    if timing.disk_calibrations:
        disk_factors, disk_default = _factors(timing.disk_calibrations, REFERENCE_DISK_SECONDS)
        wall_disk_factors, wall_disk_default = _factors(
            timing.disk_calibrations, REFERENCE_DISK_SECONDS, statistics.fmean
        )
    workload.set_factors(factors, default, disk_factors, disk_default)
    scaled = 0.0
    for block, wall in timing.block_walls.items():
        cpu = min(timing.block_cpu.get(block, wall), wall)
        scaled += cpu * factors.get(block, default)
        scaled += (wall - cpu) * wall_disk_factors.get(block, wall_disk_default)
    return scaled


def _workdir(name: str, index: int) -> Path:
    return ROOT / ".perfbench_work" / f"{name}-{os.getpid()}-{index}"


def run_untraced(cls, seed: int, seconds: float, scale: str):
    from calibration import REFERENCE_SECONDS, Calibration

    calibration = Calibration()
    setups = []
    raw_setups = []
    workload = None
    while len(setups) < SETUP_REPEATS or (
        sum(raw_setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        if workload is not None:
            workload.close()
        workload = cls(seed, scale, _workdir(cls.name, len(setups)))
        speed = calibration.median(SETUP_CALIBRATIONS)
        start = perf_counter()
        workload.setup()
        raw_setups.append(perf_counter() - start)
        setups.append(raw_setups[-1] * REFERENCE_SECONDS / speed)
    try:
        timing = timed_loop(workload, calibration, seconds)
        workload.finish()
        raw, _, _ = workload.end_to_end(timing.wall)
        metrics, counts, detail = workload.end_to_end(calibrate(workload, timing))
    finally:
        workload.close()
    metrics["setup_s"] = statistics.median(setups)
    raw["setup_s"] = statistics.median(raw_setups)
    counts["setup_s"] = len(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts["peak_rss_mb"] = 1
    calibration_times = [t for times in timing.calibrations.values() for t in times]
    disk_times = [t for times in timing.disk_calibrations.values() for t in times]
    detail.update(
        raw={name: raw[name] for name in TIME_METRICS},
        calibration_ms_median=statistics.median(calibration_times) * 1e3,
        calibration_ops=len(calibration_times),
        disk_calibration_ms_median=statistics.median(disk_times) * 1e3 if disk_times else None,
        timed_wall_s=timing.wall,
        ops=timing.ops,
        setups_s=setups,
    )
    return metrics, counts, detail, workload.attempted, workload.failed, workload.failures


def run_traced(cls, seed: int, seconds: float, scale: str):
    from calibration import Calibration
    from layers import LayerProbe

    calibration = Calibration()
    plain = cls(seed, scale, _workdir(cls.name, 0))
    try:
        plain.setup()
        plain_timing = timed_loop(plain, calibration, seconds / 2)
        plain_scaled = calibrate(plain, plain_timing)
        plain.finish()
    finally:
        plain.close()
    traced = cls(seed, scale, _workdir(cls.name, 1))
    try:
        traced.setup()
        probe = LayerProbe()
        probe.install()
        traced.probe = probe
        try:
            traced_timing = timed_loop(traced, calibration, max_ops=plain_timing.ops)
        finally:
            probe.uninstall()
            traced.probe = None
        traced_scaled = calibrate(traced, traced_timing)
        traced.finish()
    finally:
        traced.close()
    metrics = probe.metrics()
    metrics.update(traced.layer_counts())
    metrics["trace.overhead"] = traced_scaled / plain_scaled
    traced_wall, plain_wall, ops = traced_timing.wall, plain_timing.wall, plain_timing.ops
    metrics["trace.outside_share"] = max(0.0, 1.0 - probe.tracer.root_time() / traced_wall)
    counts = {name: ops for name in metrics}
    detail = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "raw_overhead": traced_wall / plain_wall,
        "ops": ops,
        "spans": probe.span_shares(traced_wall),
    }
    return (
        metrics,
        counts,
        detail,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        plain.failures + traced.failures,
    )


def _git_sha() -> str | None:
    """Commit of the checkout, or None when it is not its own git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the program and benchmark sources (identifies the code)."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "BENCHMARK.json")
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _meta(args, counts: dict, detail: dict, failures: list[str]) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "scale": args.scale,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "samples": counts,
        "detail": detail,
        "failures": failures,
    }


def run_all(args) -> int:
    """Run every workload of BENCHMARK.json in its own process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worst = 0
    for entry in spec["workloads"]:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", entry["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--scale", args.scale,
        ]
        completed = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            print(f"{entry['name']}: FAILED (exit {completed.returncode})")
        worst = max(worst, completed.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}

    runner = run_traced if args.trace else run_untraced
    metrics, counts, detail, attempted, failed, failures = runner(
        WORKLOADS[args.workload], args.seed, args.seconds, args.scale
    )
    if set(metrics) != set(units):
        print(
            "perfbench: measured metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}",
            file=sys.stderr,
        )
        return 3
    for name, value in metrics.items():
        if not math.isfinite(value):
            failed += 1
            failures.append(f"metric {name} is not finite ({value})")
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]} (n={counts[name]})")
    print(f"{args.workload} failed_ops_share = {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted})")
    for failure in failures:
        print(f"{args.workload} FAILED: {failure}")
    print(json.dumps({"perfbench_meta": _meta(args, counts, detail, failures)}))
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
