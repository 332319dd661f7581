"""Host speed, from a fixed reference kernel timed between the program's operations.

The machine the benchmark runs on may be a few cores of a shared host whose
speed drifts by tens of percent over tens of seconds (other tenants, clock
changes). A run of a fixed amount of the program's work then takes longer in
a slow stretch than in a fast one, and runs of the same code disagree.

The benchmark times a fixed kernel every ``INTERVAL_S`` between operations,
never inside one. The kernel does, in about equal shares of its time, the
three kinds of work the workloads do: an interpreter loop, numpy sorts of an
array that fits the core's L2 cache, and a sum over an array that does not.
A slow stretch slows each kind by a different amount, and each workload
mixes them differently; in trial runs each kind alone left some workload's
scaled figures markedly less steady than the mix did. Each pass's figures are scaled
by ``NOMINAL_S / median(kernel times during the pass)``: the time the pass
would have taken on the host running at the speed where the kernel takes
``NOMINAL_S``. The unscaled figures go to the result record beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4). Any fixed value works: it only sets the speed figures refer to.
NOMINAL_S = 0.004
INTERVAL_S = 0.25
_SORTED = np.random.default_rng(0).standard_normal(16_667)
_SUMMED = np.random.default_rng(1).standard_normal(600_000)


def _kernel() -> None:
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(14):
        np.sort(_SORTED)
    for _ in range(6):
        _SUMMED.sum()


def kernel_seconds() -> float:
    """Best of three timings of the kernel, so a preemption does not count."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Kernel timings, taken at most every ``INTERVAL_S`` or when forced."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(kernel_seconds())
            self._last = time.perf_counter()

    def scale_since(self, first: int) -> float:
        """``NOMINAL_S`` over the median kernel time of samples ``first`` onwards."""
        return NOMINAL_S / statistics.median(self.samples[first:])
