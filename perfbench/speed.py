"""Gauges the machine's speed while a sample's timed region runs.

The host the benchmark runs on is shared, and the speed a process gets
drifts by a fifth or more within seconds and over minutes; a workload's wall
time (and its CPU time) moves with it. While the timed region runs,
``SpeedProbe`` interrupts it every ``INTERVAL_S`` with an interval timer and
times a fixed pure-Python loop of ``ITERS`` iterations (about 0.2 ms). The
benchmark reports the region's wall time, less the probes' own time, in
units of the first quartile of the probe times, scaled to a million
iterations (``wall_rel``). The slower probes run in caches and branch
predictors the workload has just disturbed, so they say more about the
workload than about the machine. On a shared 2-vCPU host, over 58 samples
of ``embedding_1d``, the log of the wall time varied by 0.14 (standard
deviation) and the log of this ratio by 0.047; with the median probe time
it was 0.067, and with a reference timed just before and after the region
about half the wall time's.

Python runs the handler between bytecodes of the main thread, so a long
call into native code delays the next probe but not its duration. The
probe uses no schauderlab code, so no change to schauderlab changes it.
"""

import signal
import statistics
import time


class SpeedProbe:
    """Context manager around a timed region; ``ref_s`` and
    ``overhead_s`` are read after it exits."""

    INTERVAL_S = 0.025
    ITERS = 3000

    def __init__(self):
        self.times = []
        self._previous = None

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(self.ITERS):
            s += i * 0.5
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def overhead_s(self):
        """Seconds the probes took inside the region."""
        return sum(self.times)

    def ref_s(self):
        """First quartile of the probe times, scaled to a million
        iterations."""
        return statistics.quantiles(self.times, n=4)[0] * 1e6 / self.ITERS
