"""Machine-speed reference for normalising the benchmark's timings.

The shared machines this benchmark runs on change speed by up to 1.8x within
seconds and stay in one state for tens of seconds (a fixed loop timed in
1.4 s windows read 0.82-1.52 ms), so raw times of two runs a minute apart
differ by more than any useful bound.  Every timed segment is therefore
bracketed by samples of a fixed reference kernel, and its time is reported
at the reference speed:

    normalised = raw * REF_NOMINAL_S / mean(reference before, reference after)

The kernel mixes the three kinds of work in epibarrier's hot paths:
interpreter float arithmetic, numpy calls on tiny arrays, and vectorised
numpy over ~10^4 rows.  It never calls epibarrier, so no change to the
package can move it.  Raw times are reported beside the normalised ones.
"""
import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.004  # one reference unit on a 2-core Xeon VM in its fast state
UNITS_PER_SAMPLE = 3

_BIG = np.random.default_rng(12345).random((12000, 3, 3))
_ORIGIN = np.array([0.3, 0.1])


def reference_unit():
    """About 4.5 ms of fixed work: 1/3 interpreter, 1/3 tiny numpy, 1/3 wide numpy."""
    s, i, h = 0.8, 0.01, 1e-3
    for _ in range(6000):
        a1 = 0.7 * s * i
        s2, i2 = s - 0.5 * h * a1, i + 0.5 * h * (a1 - 0.5 * i)
        a2 = 0.7 * s2 * i2
        s, i = s - h * a2, i + h * (a2 - 0.5 * i2)
    y = np.array([0.8, 0.01])
    for _ in range(600):
        y = y + 1e-3 * np.array([-0.7 * y[0] * y[1], 0.7 * y[0] * y[1] - 0.5 * y[1]])
    hits = 0
    for _ in range(2):
        d = _BIG[:, :, :2] - _ORIGIN
        hits += int(np.sum(d[:, 1, 0] * d[:, 2, 1] - d[:, 1, 1] * d[:, 2, 0] > 0.0))
    return s + i + float(y[1]) + hits


class Speed:
    """Reference samples taken between timed segments."""

    def __init__(self):
        self.samples = []

    def sample(self):
        """Median time of a few reference units, taken now."""
        times = []
        for _ in range(UNITS_PER_SAMPLE):
            t0 = time.perf_counter()
            reference_unit()
            times.append(time.perf_counter() - t0)
        ref = statistics.median(times)
        self.samples.append(ref)
        return ref

    @staticmethod
    def scale(before, after):
        """Factor turning a raw time between two samples into reference time."""
        return REF_NOMINAL_S / (0.5 * (before + after))
