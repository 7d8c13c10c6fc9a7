"""A probe of the host's speed, sampled while a timed block runs.

On a shared host the speed of a core drifts: for seconds to minutes at a
time the same code takes up to 1.8 times as long, and wall time and CPU
time drift together, so neither measures the program alone.  While a
block runs, `HostProbe` interrupts it every `INTERVAL_S` of wall time
(``SIGALRM``, handled in the main thread between bytecodes, so no thread
or process is added) and times a fixed piece of work.  `scale` is the
probe's nominal time over its mean measured time; a block's wall time
times `scale` is its time on a host where the probe takes its nominal
time.  Over the benchmark's workloads the probe's mean time tracks a
run's wall time with a correlation of 0.9 to 1.0.

The probe's work imports nothing from ``titeica`` and never changes, so a
change to the program moves a scaled time only through the wall time.
It mirrors the work the pipeline does: interpreted integer arithmetic,
element-wise indexing of small complex arrays with scalar arithmetic (the
RK4 transport kernel), 4x4 matrix products, and numpy and scipy-style
calls on small arrays together with str, list and dict work.  With
``numpy=False`` only the interpreted part runs, so that a probe of set-up
time does not import numpy before the set-up being timed.  The sampling
costs about 2% of a block's wall time.
"""

import signal
import time

INTERVAL_S = 0.03
# mean probe time, in seconds, on an uncontended 2-core Xeon VM; these
# only fix the unit of a scaled time
NOMINAL_S = 6.0e-4
NOMINAL_INTERPRETER_S = 1.6e-4


def _interpreted():
    s = 0
    for i in range(2000):
        s += i * i % 7
    return s


class HostProbe:
    """Context manager that samples the probe while its block runs."""

    def __init__(self, numpy=True):
        self.samples = []
        self._busy = False
        self._old = None
        if numpy:
            import numpy as np

            self.np = np
            self.m4 = np.eye(4) * 0.5
            self.v4 = np.ones(4)
            self.m3 = np.eye(3) + 0.1
            self.v1k = np.linspace(0.0, 1.0, 1000)
            self.c4 = (np.arange(36).reshape(2, 2, 3, 3) * 0.01 + 0.5j)
            self.nominal = NOMINAL_S
        else:
            self.np = None
            self.nominal = NOMINAL_INTERPRETER_S

    def _numeric(self):
        np, c4, acc, z = self.np, self.c4, 0j, 0.3 + 0.1j
        for _ in range(12):
            for a in range(3):
                for b in range(3):
                    acc += ((0.25 * c4[0, 0, a, b] + 0.75 * c4[1, 1, a, b]) * z
                            + c4[0, 1, a, b] * acc * 1e-3)
        x = self.v4
        for _ in range(40):
            x = self.m4 @ x + 1.0
            acc += float(x[0])
        for _ in range(5):
            np.linalg.solve(self.m3, self.v4[:3])
        np.sin(self.v1k)
        words = [str(i) for i in range(200)]
        return acc, {w: len(w) for w in words}

    def sample(self, *_):
        """Time one run of the probe's work; also the signal handler."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _interpreted()
            if self.np is not None:
                self._numeric()
            self.samples.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # a block shorter than one interval
            self.sample()
        return False

    def scale(self):
        """Nominal over mean measured probe time of the last block."""
        return self.nominal * len(self.samples) / sum(self.samples)
