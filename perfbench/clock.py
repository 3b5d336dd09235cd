"""Wall time scaled to a reference host speed.

The benchmark runs on a few virtual CPUs of a shared host. The host's
other tenants make the same code run up to 1.5x slower for stretches of
seconds to minutes, with little CPU steal to show for it: a stage's wall
time then drifts by 10-15 % between runs however long each run is. A fixed
calibration kernel slows down with it. ``HostClock.timed`` calibrates
(``REPEATS`` kernel calls) just before and just after each timed call and
scales the call's wall time by ``REFERENCE_S`` / the mean of the two
calibration times, so a time reads as seconds on a host where a calibration
takes ``REFERENCE_S``. Calls timed back to back share the calibration
between them. The kernel is code of the benchmark's own, so a change to
crossrisk does not move it.

Import this module after BLAS threads are pinned: it loads numpy.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.15  # calibration time on the 2-vCPU machine the benchmark was built on
REPEATS = 8  # kernel calls per calibration; 4 tracked the host visibly worse
STALE_S = 1.0  # an older calibration is not reused as the one before a call

_RNG = np.random.default_rng(0)
_POINTS = _RNG.random((400, 2))
_WEIGHTS = _RNG.random(400)


def _kernel() -> float:
    """Interpreter-bound dict and float work, then small numpy vector ops,
    like the mix of the pipeline's forest and GP code."""
    table, total = {}, 0.0
    for i in range(20000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key]
    pos = np.array([0.3, 0.4])
    for _ in range(400):
        k = np.exp(-0.5 * ((_POINTS - pos) ** 2).sum(axis=1))
        pos = pos + np.array([k @ _WEIGHTS, k.sum()]) * 1e-6
    return total + float(pos.sum())


class HostClock:
    """Times calls in reference seconds and keeps every calibration."""

    def __init__(self) -> None:
        self.calibrations: list[float] = []
        self._last = (float("-inf"), 0.0)  # (end time, seconds) of the last calibration

    def calibrate(self) -> float:
        """Collects garbage left by earlier calls, then times the kernel."""
        gc.collect()
        start = time.perf_counter()
        for _ in range(REPEATS):
            _kernel()
        end = time.perf_counter()
        self.calibrations.append(end - start)
        self._last = (end, end - start)
        return end - start

    def scale(self, wall: float, calibration: float) -> float:
        return wall * REFERENCE_S / calibration

    def timed(self, fn, *args):
        """``(fn(*args), reference seconds of the call)``."""
        last_end, before = self._last
        if time.perf_counter() - last_end > STALE_S:
            before = self.calibrate()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, self.scale(wall, (before + self.calibrate()) / 2)

    def host_factor(self) -> float:
        """Median calibration time ÷ ``REFERENCE_S``: above 1 on a slow host."""
        return statistics.median(self.calibrations) / REFERENCE_S
