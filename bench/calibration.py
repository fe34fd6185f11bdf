"""Host-speed calibration: fixed kernels, independent of the program.

The benchmark runs on shared machines whose speed swings by up to 1.9x
within a minute (measured on a shared 2-core x86-64 VM, in CPU time as much
as in wall time).  A fixed kernel timed between ops slows down with the
host, so the ratio of an op's time to the kernel's time stays steady where
the raw time does not.  Each op's wall time is scaled by
``reference_s / t``, where ``t`` is the median kernel time around the op and
``reference_s`` the kernel's time at the reference speed: the result is the
op's time at that speed.  The kernels never call ``conslaw``, so a faster
program still reads faster.

Each workload uses the kernel closest to its own instruction mix: small
dense LAPACK calls driven from Python (``dense``), or exponential-integrator
steps with FFTs and elementwise products on 1250 points (``spectral``).
Against ``evolve``, the ``spectral`` kernel's time moves with the op's time
(log-log slope 0.8 to 1.1) where the dense kernel's moves twice as much.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20261017)
_A = _RNG.standard_normal((40, 40))
_A = _A + _A.T
_EYE = np.eye(40)
# A stable diagonal-exponential system on 1250 points, stepped like the
# four-stage scheme in ``evolve``; the numbers are arbitrary but fixed.
_N = 1250
_H = _N // 2 + 1
_E_HALF = np.exp(-0.05 * np.linspace(0.0, 50.0, _H))
_E_FULL = _E_HALF**2
_F = [0.01 * _RNG.random(_H) for _ in range(4)]
_FAC = -np.linspace(0.0, 1.0, _H)
_CUT = np.arange(_H) > 500
_V0 = np.fft.rfft(0.01 * _RNG.standard_normal(_N))


def _dense() -> None:
    for i in range(6):
        _, v = np.linalg.eigh(_A)
        np.linalg.qr(np.linalg.solve(_A + i * _EYE, v[:, :3]))
        sum(j * 0.5 for j in range(150))


def _nonlinear(v: np.ndarray) -> np.ndarray:
    u = np.fft.irfft(v, _N)
    out = _FAC * np.fft.rfft(0.3 * u**2 + u**3)
    out[_CUT] = 0.0
    return out


def _spectral() -> None:
    v = _V0
    f0, f1, f2, f3 = _F
    for _ in range(2):
        n0 = _nonlinear(v)
        a = _E_HALF * v + f0 * n0
        n1 = _nonlinear(a)
        n2 = _nonlinear(_E_HALF * v + f0 * n1)
        n3 = _nonlinear(_E_HALF * a + f0 * (2.0 * n2 - n0))
        v = _E_FULL * v + f1 * n0 + 2.0 * f2 * (n1 + n2) + f3 * n3


#: kernel name -> (kernel, its time at the reference speed: about its time on
#: the shared 2-core x86-64 VM the benchmark was defined on, one BLAS thread,
#: while that host was uncontended)
KERNELS = {"dense": (_dense, 1.25e-3), "spectral": (_spectral, 1.2e-3)}


class Calibration:
    """Samples of one kernel's time, taken between ops and used to scale them."""

    #: Take a sample when this long has passed since the last one.
    EVERY_S = 0.1
    #: An op is scaled by the mean of the samples within this distance of it,
    #: or within ten times its own duration if that is longer: a long op
    #: spans many changes of contention, which the samples taken just before
    #: and after it do not represent.
    WINDOW_S = 0.25
    WINDOW_OPS = 10.0
    #: Kernel runs per sample; the sample is their median.
    REPEATS = 3

    def __init__(self, kernel: str) -> None:
        self._kernel, self.reference_s = KERNELS[kernel]
        self.times: list[float] = []  # perf_counter at each sample
        self.samples: list[float] = []

    def sample(self) -> None:
        runs = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.samples.append(statistics.median(runs))

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S

    def scale(self, start: float, end: float) -> float:
        """Factor for an op that ran from ``start`` to ``end``.

        Uses the samples within the window around the op, and at least the
        one just before and the one just after it.
        """
        window = max(self.WINDOW_S, self.WINDOW_OPS * (end - start))
        lo = bisect.bisect_left(self.times, start - window)
        hi = bisect.bisect_right(self.times, end + window)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, bisect.bisect_right(self.times, end) + 1)
        return self.reference_s / statistics.fmean(self.samples[lo:hi])

    def speed(self) -> float:
        """Host speed over the run, relative to the reference machine."""
        return self.reference_s / statistics.median(self.samples)
