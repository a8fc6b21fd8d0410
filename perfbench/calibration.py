"""Machine-speed calibration for the benchmark's time metrics.

On a shared machine other tenants slow every op for seconds to minutes at a
time (on a 2-CPU VM the same 4000-query plan took 133 ms and 226 ms a
minute apart), by
contending for caches and memory rather than by descheduling.  A run
cannot outlast such a phase, so raw times measure the neighbours as much as
the program.

The timed loop therefore interleaves a fixed calibration op — numpy
arithmetic of the kind the CDF kernel does, plus a pure-Python loop of the
kind the request path does — that never touches the program under test.
Every raw time is scaled by ``REFERENCE_SECONDS / c``, where ``c`` is the
median calibration time around it.  A slow phase stretches both, and the
ratio stays; a change to the program moves only the numerator.  Reported
times are thus "seconds on a machine where the calibration op takes
``REFERENCE_SECONDS``", which on the machine the benchmark was tuned on is
close to its wall time.

A workload that waits on the disk (``ingest_durable``'s fsync'd journal)
splits each op into its thread CPU time, scaled as above, and the rest —
the wait — scaled by ``REFERENCE_DISK_SECONDS / d``, where ``d`` is the
median time of a fixed fsync'd append (:class:`DiskCalibration`) around it.
"""

from __future__ import annotations

import os
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import ndtr

#: Nominal duration of one calibration op: the machine speed times are
#: reported at.
REFERENCE_SECONDS = 1e-3

#: Nominal duration of one disk calibration op (a 4 KiB append + fsync).
REFERENCE_DISK_SECONDS = 0.3e-3

_DISK_PAYLOAD = b"\x5a" * 4096
_DISK_OPS_PER_FILE = 256

_ROWS, _COLUMNS = 16, 2048
_PYTHON_ITERATIONS = 3000


class Calibration:
    """A fixed op whose duration tracks the machine's current speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((_ROWS, _COLUMNS))
        self._weights = rng.random(_COLUMNS)
        self._buffer = np.empty_like(self._matrix)
        self.checksum = 0.0

    def _numpy_part(self) -> float:
        buffer = self._buffer
        np.subtract(self._matrix, 0.5, out=buffer)
        ndtr(buffer, out=buffer)
        np.multiply(buffer, self._matrix, out=buffer)
        return float((buffer @ self._weights).sum())

    @staticmethod
    def _python_part() -> int:
        table: dict[int, int] = {}
        total = 0
        for index in range(_PYTHON_ITERATIONS):
            table[index & 63] = total
            total += index * 3 % 7
        return total + len(table)

    def measure(self) -> float:
        """Run the op once; return its wall time in seconds."""
        start = perf_counter()
        self.checksum += self._numpy_part() + self._python_part()
        return perf_counter() - start

    def median(self, repeats: int) -> float:
        """Median time of ``repeats`` ops."""
        return float(np.median([self.measure() for _ in range(repeats)]))


class DiskCalibration:
    """A fixed fsync'd append whose duration tracks the disk's current speed.

    Mirrors a journal append: 4 KiB appended to a file in ``directory`` and
    fsynced, so the file grows and each fsync commits metadata too.  The
    file is truncated every 256 ops.
    """

    def __init__(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(directory / "calibration.bin", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        self._ops = 0

    def measure(self) -> float:
        """Run the op once; return its wall time in seconds."""
        if self._ops % _DISK_OPS_PER_FILE == 0:
            os.ftruncate(self._fd, 0)
        self._ops += 1
        start = perf_counter()
        os.write(self._fd, _DISK_PAYLOAD)
        os.fsync(self._fd)
        return perf_counter() - start

    def close(self) -> None:
        os.close(self._fd)
