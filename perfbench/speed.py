"""Machine-speed sampling, so timings read the same on a busy machine.

The benchmark runs on a small shared virtual machine whose speed drifts
by up to 2x within minutes (other tenants' load, not the program). A
:class:`SpeedSampler` runs a fixed calibration kernel from a SIGALRM
handler every ``PERIOD_S`` seconds, in the main thread, so the program is
paused while the kernel runs. The kernel runs twice and only the
second run is timed: the first brings back the caches and code paths
the program left cold, so the timed run does not depend on what the
program was doing when it was interrupted. Each slice of wall time
between two samples is then scaled by ``REFERENCE_KERNEL_S / t`` where
``t`` is the timed kernel run of the sample that ended the slice, and
both kernel runs are left out. The result is in reference seconds: wall
seconds on this machine when it runs the warm kernel in
``REFERENCE_KERNEL_S``.

The kernel mixes what the workloads do: small matrix-vector products
and a sort-based simplex step, as in projections and map calls, and a
block of Philox uniform draws summed over its first axis, as in
``noise_sum`` at large batch sizes.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# warm kernel time in the fast state of the machine the baseline was taken
# on (2-vCPU Intel Xeon VM, numpy 2.4 with OpenBLAS, one BLAS thread)
REFERENCE_KERNEL_S = 3.0e-4
PERIOD_S = 0.05


class _Kernel:
    def __init__(self):
        rng = np.random.Generator(np.random.Philox(20191001))
        self.a = rng.uniform(0.0, 1.0, (10, 20))
        self.v = rng.uniform(0.0, 0.1, 30)
        self.steps = np.arange(1.0, 21.0)
        self.rng = rng
        self.out = np.empty(30)

    def __call__(self):
        a, v, out, steps = self.a, self.v, self.out, self.steps
        for _ in range(24):
            np.matmul(a.T, v[20:], out=out[:20])
            np.matmul(a, v[:20], out=out[20:])
            u = np.sort(out[:20])[::-1]
            cssv = u.cumsum()
            cssv -= 1.0
            rho = np.nonzero(u * steps > cssv)[0][-1]
            np.maximum(out[:20] - cssv[rho] / (rho + 1.0), 0.0)
        self.rng.uniform(-1.0, 1.0, (40, 10, 20)).sum(axis=0)


class SpeedSampler:
    """Context manager that samples machine speed while it is open.

    :meth:`seconds` turns a ``perf_counter_ns`` interval inside the open
    period into reference seconds. ``on_kernel`` is called with the ns
    of every sample (both kernel runs), so a tracer can leave them out
    of the calls they interrupted.
    """

    def __init__(self, on_kernel):
        self.on_kernel = on_kernel
        self.kernel = _Kernel()
        self.starts = []     # sample start times, ns
        self.ends = []       # sample end times, ns
        self.took = []       # ns of each sample's timed kernel run
        self.opened = None
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter_ns()
        self.kernel()
        timed = time.perf_counter_ns()
        self.kernel()
        end = time.perf_counter_ns()
        self.starts.append(start)
        self.ends.append(end)
        self.took.append(end - timed)
        self.on_kernel(end - start)
        self._busy = False

    def __enter__(self):
        self.kernel()  # warm up outside the timeline
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.opened = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _factor(self, index):
        # slice index ends at sample `index`; the tail uses the last sample
        index = min(index, len(self.took) - 1)
        return REFERENCE_KERNEL_S / (self.took[index] / 1e9)

    def wall(self, start_ns, end_ns):
        """Wall seconds in [start_ns, end_ns], samples left out."""
        return self._integrate(start_ns, end_ns, scaled=False)

    def seconds(self, start_ns, end_ns):
        """Reference seconds in [start_ns, end_ns], samples left out."""
        return self._integrate(start_ns, end_ns, scaled=True)

    def _integrate(self, start_ns, end_ns, scaled):
        if not self.starts:
            return (end_ns - start_ns) / 1e9
        total = 0.0
        first = bisect.bisect_right(self.ends, start_ns)
        for index in range(first, len(self.starts) + 1):
            lo = self.ends[index - 1] if index else self.opened
            hi = self.starts[index] if index < len(self.starts) else end_ns
            lo, hi = max(lo, start_ns), min(hi, end_ns)
            if hi > lo:
                total += (hi - lo) / 1e9 * (self._factor(index) if scaled
                                             else 1.0)
            if hi >= end_ns:
                break
        return total
