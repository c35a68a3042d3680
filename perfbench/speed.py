"""Reference kernels: how fast the shared machine is at this moment.

The machine the benchmark was built on shares its cores, and its speed
drifts by up to 1.5x over seconds to minutes.  Raw throughput moved by
35% between runs of the same code.  So fixed kernels that call nothing in
rankstop are timed around and during the ops, and each op's wall time is
multiplied by the kernel's nominal time over the kernel's time while the
op ran.  The reported seconds are then seconds on a machine where the
kernels take their nominal times.

Two kernels, because the slow phases do not slow all code alike:

* ``small`` -- a Python loop of numpy calls on 15-element arrays, the
  shape of the solvers' quadrature loop.  It tracks ``solve`` and
  ``enumerate``.  Timed only before and after each op, it cut the spread
  of run throughput on ``solve`` ops from 8% to 2.5% (standard deviation
  over mean, 8 runs).  Ops of ``tabulated_knots`` take seconds, so the
  kernel also runs every TICK_S seconds during them (Sampler); that cut
  the interquartile range of their throughput over five seeds from 16%
  to 4% of the median.
* ``bulk`` -- vectorized work on 2^16 x 3 arrays, the shape of the Monte
  Carlo chunk kernel.  It tracks ``simulate``, where the small kernel did
  not help: 6.6% down to 2.1%.

Interpreter launches drift on their own, by up to 1.7x between minutes,
and follow neither kernel.  A set-up launch is scaled by a reference
launch instead: a fresh interpreter that imports only numpy and click,
the part of the import floor that rankstop does not control.  Over 12
groups of five launches the interquartile range of the group medians was
32% of their median raw and 3% scaled.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
import time

import numpy as np

#: Nominal kernel times: reported seconds are seconds at these speeds.
NOMINAL_S = {"small": 0.0005, "bulk": 0.015}
#: Nominal time of the reference launch.
NOMINAL_LAUNCH_S = 0.2
#: Period of the small kernel's samples.
TICK_S = 0.1

_X = np.linspace(0.0, 1.0, 15)
_STEPS = np.linspace(-1.0, 1.0, 3 << 16).reshape(-1, 3)


def _small():
    acc = 0.0
    for _ in range(100):
        acc += float(np.interp(0.5 * _X, _X, _X) @ _X)
    return acc


def _bulk():
    sums = np.cumsum(_STEPS, axis=1)
    below = sums[:, :, None] < sums[:, None, :]
    return np.bincount(below.sum(axis=1)[:, 0], minlength=4)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Sampler:
    """Reference-kernel times around and during the ops of one loop.

    The small kernel runs every TICK_S seconds from a SIGALRM handler, so
    ops that take seconds are sampled while they run: timed only at their
    ends, 2-4 s ops were scaled by a speed the machine had for a moment.
    The bulk kernel (15 ms) is too long to interrupt an op with and runs
    after every op; simulate ops take about 0.5 s, and their ends track
    them well.  Use as a context manager around the loop.
    """

    def __init__(self):
        self._times: list[float] = []
        self._ticks: list[float] = []
        self._bulk_before = 0.0
        self._old_handler = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _small()
        self._ticks.append(time.perf_counter() - t0)
        self._times.append(t0)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._bulk_before = _timed(_bulk)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def reference_s(self, kind: str, t0: float, t1: float) -> float:
        """The ``kind`` kernel's time for an op that ran over [t0, t1].

        Call once after every op.  Small: the mean of the samples taken
        during the op and the nearest one on each side.  Bulk: the mean of
        the runs just before and just after the op.
        """
        self._tick(None, None)  # the sample just after the op
        bulk_after = _timed(_bulk)
        bulk_before, self._bulk_before = self._bulk_before, bulk_after
        if kind == "bulk":
            return 0.5 * (bulk_before + bulk_after)
        lo = max(bisect.bisect_left(self._times, t0) - 1, 0)
        hi = bisect.bisect_right(self._times, t1) + 1
        window = self._ticks[lo:hi]
        return sum(window) / len(window)


def launch_s(cmd) -> float:
    """Wall time of one run of ``cmd`` to its exit; raises if it fails."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


def scaled_launches(cmd, count: int) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of ``count`` launches of ``cmd``, one at a time,
    each between two reference launches."""
    reference = [sys.executable, "-c", "import numpy, click"]
    raw, scaled = [], []
    ref_before = launch_s(reference)
    for _ in range(count):
        raw.append(launch_s(cmd))
        ref_after = launch_s(reference)
        scaled.append(raw[-1] * NOMINAL_LAUNCH_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return raw, scaled


def kernel_for(argv) -> str:
    """``simulate`` runs on 2^18-path arrays; the other commands loop in Python."""
    return "bulk" if argv[0] == "simulate" else "small"
