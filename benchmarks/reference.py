"""Reference kernels: how fast the host runs at this moment.

A shared host changes speed from second to second, and it can stay in a slow
phase for minutes.  Every time the harness reports is therefore scaled by a
fixed reference kernel timed right before and right after the timed work:

    normalised = measured * nominal_s / reference

Code of different kinds slows by different amounts in a slow phase, so each
workload names the kernel that moves most like its own work:

* ``scalar``: scalar numpy calls inside Python loops, like root isolation.
  Its data stays in the first-level cache.
* ``memory``: a gather, multiply and scatter-add over arrays of a few
  megabytes, like ``Jet.__mul__`` and the vectorised Newton sweep.  Arrays
  this large spread over many pages; with arrays of a few hundred kilobytes
  the kernel's speed depended on where a process's pages happened to land.

The kernels use only Python and numpy, never the package, so a change to the
package cannot move them.  A normalised time is in seconds at the speed at
which one kernel run takes ``nominal_s``; on the 2-vCPU host the benchmark was
written on, that is about the measured wall time.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
from numpy.polynomial import polynomial as npp

# the scalar kernel repeats until this has passed, so it runs a few times
MIN_BUDGET_S = 1.5e-3
_COEFFS = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 1.0])
_XS = np.linspace(0.0, 1.0, 64)
MEMORY_ROWS, MEMORY_TERMS, MEMORY_PAIRS = 2000, 35, 150


class Reference:
    """One reference kernel with its buffers, warmed up on construction."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "scalar":
            self.nominal_s, self._kernel = 0.5e-3, self._scalar
        elif kind == "memory":
            self.nominal_s, self._kernel = 10e-3, self._memory
            self._rows = rng.random((MEMORY_ROWS, MEMORY_TERMS))
            self._ia, self._ib, self._iout = (rng.integers(0, MEMORY_TERMS, MEMORY_PAIRS) for _ in range(3))
            # preallocated, so that no run pays for fresh pages
            self._gathered = np.empty((MEMORY_ROWS, MEMORY_PAIRS))
            self._prod = np.empty((MEMORY_ROWS, MEMORY_PAIRS))
            self._out = np.empty((MEMORY_TERMS, MEMORY_ROWS))
        else:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self._kernel()

    @staticmethod
    def _scalar() -> float:
        total = 0.0
        for i in range(40):
            total += float(npp.polyval(-1.0 + i / 20.0, _COEFFS))
            total += sum(j * j % 7 for j in range(10))
        x = _XS
        for _ in range(20):
            x = np.sin(x) * 0.5 + np.cos(x[::-1]) * 0.5
        return total + float(x[0])

    def _memory(self) -> float:
        np.take(self._rows, self._ia, axis=1, out=self._gathered)
        np.take(self._rows, self._ib, axis=1, out=self._prod)
        np.multiply(self._gathered, self._prod, out=self._prod)
        self._out.fill(0.0)
        np.add.at(self._out, self._iout, self._prod.T)
        return float(self._out[0, 0])

    def measure(self, budget_s: float = 0.0) -> float:
        """Median time of one kernel run, in seconds.

        The kernel runs at least once and until ``max(budget_s,
        MIN_BUDGET_S)`` has passed; a larger budget gives a steadier figure.
        The garbage collector is off meanwhile, so that a collection of the
        package's objects is not charged to the kernel.
        """
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            end = time.perf_counter() + max(budget_s, MIN_BUDGET_S)
            while not times or time.perf_counter() < end:
                t0 = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times)
