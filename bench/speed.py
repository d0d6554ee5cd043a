"""Machine-speed calibration for every reported timing.

On a shared machine the CPU speed seen by one process changes by up to
1.75x, from second to second and from minute to minute (another tenant's
load; CPU time moves with wall time, so it is not scheduling).  A median
over one run cannot hide a slow minute, so every pass samples the speed.
A SIGALRM timer runs a small fixed pure-Python kernel every
``SAMPLE_EVERY_S``, inside long operations too, and records how long it
took.  A timing over an interval is reported as

    (raw seconds - sampling seconds inside it) * (speed near it)

where the speed is the mean of reference time / kernel time over the
samples within ``near`` seconds of the interval: seconds of the reference
machine at its fast speed.  The raw seconds are kept beside it in the
result file.  The kernel uses no adjmon code, so a change to the program
moves the calibrated time and a change in machine speed does not.

Commands run as child processes are sampled with another kernel, a bare
interpreter start, because they react to the slow state less than the
pure-Python kernel does (see NOTES.md).

The timer's kernel runs in the main thread; a program that ran threads
of its own would compete with it for the interpreter lock, which the
benchmark's calls into adjmon do not do.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_KERNEL_S = 0.00030  # fastest kernel time on the reference machine
SAMPLE_EVERY_S = 0.01
REFERENCE_START_S = 0.042  # fastest bare interpreter start on the reference machine


def kernel() -> int:
    """Swap adjacent out-of-order pairs, backing up one place after each
    swap, as the rewrite loop does."""
    w = [(i * 7 % 11, i % 5) for i in range(56)]
    swaps = p = 0
    while p < len(w) - 1:
        a, b = w[p], w[p + 1]
        if a[0] > b[0]:
            w[p : p + 2] = [b, a]
            swaps += 1
            p = max(p - 1, 0)
        else:
            p += 1
    return swaps


class SpeedProbe:
    """Samples a kernel's time every SAMPLE_EVERY_S while started, or when
    asked.  A sample counts for intervals within ``near`` seconds of it."""

    def __init__(self, kernel=kernel, reference=REFERENCE_KERNEL_S, near=SAMPLE_EVERY_S, warmup=12):
        self.kernel, self.reference, self.near = kernel, reference, near
        self.at: list[float] = []  # when each sample started
        self.took: list[float] = []  # kernel seconds
        self.spent: list[float] = []  # sampling seconds up to and including each sample
        self._previous = None
        for _ in range(warmup):  # the interpreter specializes the kernel's code in its first runs
            kernel()

    def sample(self, times: int) -> None:
        """Take samples now, outside the timer."""
        for _ in range(times):
            self._sample(None, None)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent.append((self.spent[-1] if self.spent else 0.0) + time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _spent_before(self, t: float) -> float:
        n = bisect.bisect_left(self.at, t)
        return self.spent[n - 1] if n else 0.0

    def speed(self, t0: float, t1: float) -> float:
        """The machine's mean speed over [t0, t1] relative to the reference,
        from the samples in and next to it."""
        if not self.at:
            return 1.0
        lo = bisect.bisect_left(self.at, t0 - self.near)
        hi = bisect.bisect_right(self.at, t1 + self.near)
        if lo == hi:  # no sample near: take the closest one
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return sum(self.reference / took for took in self.took[lo:hi]) / (hi - lo)

    def raw(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1] minus the kernel's own time in it."""
        return t1 - t0 - (self._spent_before(t1) - self._spent_before(t0))

    def calibrated(self, t0: float, t1: float) -> float:
        return self.raw(t0, t1) * self.speed(t0, t1)
