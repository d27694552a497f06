"""Host speed, sampled while the program runs.

The host this benchmark was written on (2 vCPUs shared with other tenants)
runs the same code up to 2x slower for seconds or minutes at a time, so a
pass time on its own says as much about the host as about the program.
While a timed CLI call runs, a SIGALRM interval timer interrupts it every
``interval`` seconds of wall time, and the handler times a small fixed
reference kernel in the same process.  The mean kernel time over a pass
is the host's slowness during that pass; a pass time divided by it and
multiplied by ``NOMINAL_S`` is the pass time at a fixed nominal host speed.

The kernel is fixed code of the benchmark, not of the program, so a change
to the program moves the pass time and not the kernel time.  The time
spent in the handler is measured and taken off the pass time.  No thread
or process is started: the handler runs in the main thread between two
bytecodes of the program.
"""
from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# Reference-kernel time at the nominal host speed: about its time in the
# fast phases of a 2-vCPU x86-64 VM with Python 3.11.  It only sets the
# scale, so that normalised times read like fast-phase wall times.
NOMINAL_S = 0.00025
INTERVAL_S = 0.025
# Fewer samples than this in a pass, and the run's mean is used instead.
MIN_SAMPLES = 5


def reference_kernel():
    """Time one run of a fixed mix of the program's kinds of work: exact
    fractions, tuple keys in dicts, sorting and string formatting."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 3)
    table = {}
    for i in range(120):
        table[(i % 7, i % 11, i)] = total.numerator % (i + 1)
    ",".join(f"{k}:{v}" for k, v in sorted(table.items()))
    return time.perf_counter() - start


class Sampler:
    """Collects reference-kernel times while ``sampling()`` is active."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _handler(self, _signum, _frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        # The program's heap must not change the kernel's time through
        # collections triggered by the kernel's own allocations.
        enabled = gc.isenabled()
        gc.disable()
        try:
            # The first run warms the caches the program left cold, so
            # that the second, the one kept, depends on the host and not
            # on the program's memory traffic.
            reference_kernel()
            self.samples.append(reference_kernel())
        finally:
            if enabled:
                gc.enable()
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self):
        """(samples, handler wall time, handler CPU time) since the last
        take, and start afresh."""
        taken = (self.samples, self.spent_wall, self.spent_cpu)
        self.samples, self.spent_wall, self.spent_cpu = [], 0.0, 0.0
        return taken


def normalise(times, sample_sets):
    """Each time rescaled to the nominal host speed by the mean kernel time
    of its own samples, or of all samples when it has too few."""
    pooled = [s for samples in sample_sets for s in samples]
    if not pooled:
        raise ValueError("no host-speed samples were taken")
    fallback = statistics.fmean(pooled)
    return [t * NOMINAL_S / (statistics.fmean(samples)
                             if len(samples) >= MIN_SAMPLES else fallback)
            for t, samples in zip(times, sample_sets)]
