"""Machine-speed calibration for the benchmark's end-to-end timings.

The shared cores this benchmark was built on change speed by 10-40 % within
seconds to minutes, for every kind of work at once.  To take that out of
the times, a fixed task that does not touch metabox is timed about once a
second while the benchmark runs, and each timing is reported as
``seconds * NOMINAL_S / calibration``: what it would have taken at the
calibration's nominal speed.  ``calibration`` is the mean of the readings
taken just before, during and just after the timed interval.

The task is a few launches of a stdlib interpreter that imports two modules
and runs a short loop.  The launches are made by a small helper process
(this file run as a script), so their cost does not depend on the size of
the benchmark process, which grows with whatever metabox imports.  The
helper answers each line on stdin with one line on stdout: the median wall
time of ``LAUNCHES`` launches.

Readings taken during a solve are taken inside the blackbox callable, between
evaluations, and the time they take is subtracted from the solve's time.

Set-up time (importing metabox in a fresh interpreter) is nearly all the
import of numpy and scipy, which slows down and speeds up with the machine's
file and memory traffic more than with its processor speed.  So set-ups are
scaled by their own reference instead: a fresh interpreter that imports
``IMPORTS``, timed inside the child like the set-up itself, taken before
and after each set-up; see :func:`import_reading`.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

CODE = "import json, re\nsum(i * i % 7 for i in range(100000))"
LAUNCHES = 4
NOMINAL_S = 0.040   # one launch on a 2-vCPU Xeon at 2.1 GHz, Python 3.11.7
EVERY_S = 1.0       # least time between two readings

IMPORTS = "numpy, scipy.linalg, scipy.special"
IMPORT_CODE = ("import time\nstart = time.perf_counter()\n"
               f"import {IMPORTS}\n"
               "print(repr(time.perf_counter() - start))")
NOMINAL_IMPORT_S = 0.55   # on the same machine, numpy 2.4.6, scipy 1.17.1


def measure() -> float:
    times = []
    for _ in range(LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", CODE], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_reading() -> float:
    """Seconds a fresh interpreter takes to import ``IMPORTS``."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


class Calibrator:
    """The helper process and the readings of one run; a context manager.

    ``paused`` is the wall time spent taking readings, so a caller can
    subtract the readings taken inside an interval it times.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", __file__],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.readings = []
        self.paused = 0.0
        self._last = -math.inf

    def read(self) -> None:
        start = time.perf_counter()
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        self.readings.append(float(line))
        self._last = time.perf_counter()
        self.paused += self._last - start

    def read_if_due(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.read()

    def between_readings(self, fn):
        """``fn`` taking a reading first whenever one is due."""
        def calibrated(*args, **kwargs):
            self.read_if_due()
            return fn(*args, **kwargs)
        return calibrated

    def mean(self, first: int, after: int) -> float:
        """Mean of readings ``first`` .. ``after`` inclusive."""
        return statistics.fmean(self.readings[first:after + 1])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scaled(seconds: float, calibration: float, nominal: float = NOMINAL_S) -> float:
    """``seconds`` at the calibration's nominal speed."""
    return seconds * nominal / calibration


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(measure()), flush=True)
