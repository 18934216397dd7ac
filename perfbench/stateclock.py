"""A clock that rescales wall time to the machine's fast state.

On a shared 2-vCPU machine one process runs, for seconds at a time, in a
fast state or in states 1.5x to 2.5x slower, and the mix drifts over tens
of minutes.  A pass of the same work then reads 9 s or 13 s, and no number
of repeats in a 30-second run makes its fastest or its median pass steady.

While a :class:`StateClock` runs, a timer signal runs a fixed calibration
kernel in the measured process every ``PERIOD_S`` seconds and records how
long it took.  The stretch of wall time before each sample is taken to have
run at speed ``KERNEL_REFERENCE_S / c``, where ``c`` is the median kernel
time of the ``WINDOW`` samples around it; the kernel's own time counts as
zero.  :meth:`StateClock.seconds` integrates that speed over an interval,
which gives the interval's length in seconds of a machine whose kernel takes
``KERNEL_REFERENCE_S``: about this machine's fast state.  Work the program
does in a slow stretch is scaled down with the kernel, so most of the
machine's drift is taken out while a change in the program's own cost shows
in full.  The tracking is not exact: the kernel is not the program, and an
item shorter than a few samples gets the speed of the stretch around it.

What this cannot see: a program that slows the machine itself (say, threads
of its own spinning on the other vCPU) slows the kernel too, and that part of
its cost is scaled away.  ``run.py`` prints the raw wall times beside the
scaled ones.
"""

import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.02
WINDOW = 5
# Kernel time in the fast state of the machine the benchmark was defined on
# (Xeon, 2 vCPUs under KVM, Python 3.11.7, numpy 2.4.6).  Only the unit of
# the rescaled times depends on it.
KERNEL_REFERENCE_S = 180e-6

# Bound now, before ``tracing.py`` can wrap ``numpy.linalg.det``, so that a
# traced run records no span for the kernel.
_det = np.linalg.det
_rng = np.random.default_rng(1)
_Z = 0.3 * (_rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3)))
_I = np.eye(3)


def kernel():
    """Fixed calibration work of the two kinds bsdkit does: an interpreter
    loop, and what it does per sample point (copy a small complex matrix,
    set one entry, take det(I - ZZ*))."""
    x = 0
    for i in range(1000):
        x += i * i
    for _ in range(8):
        z = _Z.copy()
        z[1, 2] = 0.1 + 1j * z[1, 2].imag
        _det(_I - z @ z.conj().T)
    return x


class StateClock:
    """Timer-signal sampler of the kernel; converts wall intervals taken with
    ``time.perf_counter`` while it ran into fast-state seconds."""

    def __init__(self):
        self.times = array("d")
        self.costs = array("d")
        self._start = self._stop = None
        self._saved_handler = None

    def _sample(self, signum, frame):
        clock = time.perf_counter
        t = clock()
        kernel()
        self.times.append(t)
        self.costs.append(clock() - t)

    def start(self):
        self._saved_handler = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self._stop = time.perf_counter()
        times = np.frombuffer(self.times, dtype=np.float64).copy()
        costs = np.frombuffer(self.costs, dtype=np.float64).copy()
        if len(times) == 0:
            raise RuntimeError("the state clock took no sample")
        pad = WINDOW // 2
        padded = np.pad(costs, (pad, pad), mode="edge")
        typical = np.median(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
        speed = KERNEL_REFERENCE_S / typical
        # breakpoints: start, then each sample's begin and end, then stop;
        # a free stretch runs at the speed of the sample that ends it (the
        # last at the last sample's), a kernel run at speed zero
        n = len(times)
        self._bounds = np.empty(2 * n + 2)
        self._bounds[0] = self._start
        self._bounds[1:-1:2] = times
        self._bounds[2:-1:2] = times + costs
        self._bounds[-1] = self._stop
        self._rates = np.zeros(2 * n + 1)
        self._rates[0:-1:2] = speed
        self._rates[-1] = speed[-1]
        self._cumulative = np.concatenate(([0.0], np.cumsum(np.diff(self._bounds) * self._rates)))
        self.raw_kernel_s = costs

    def _at(self, t):
        t = np.clip(np.asarray(t, dtype=np.float64), self._bounds[0], self._bounds[-1])
        k = np.clip(np.searchsorted(self._bounds, t, side="right") - 1, 0, len(self._rates) - 1)
        return self._cumulative[k] + (t - self._bounds[k]) * self._rates[k]

    def seconds(self, begin, end):
        """Fast-state seconds between wall times ``begin`` and ``end``
        (scalars or arrays) taken while the clock ran."""
        return self._at(end) - self._at(begin)
