"""A fixed reference kernel that follows the speed of the machine.

On a shared host the same code runs up to 1.8 times slower for minutes
at a time (README.md, "Reference figures"), far more than any useful
regression bound.  A :class:`Gauge` times a fixed kernel between calls
of the program, which shares no code with it, and converts each wall
duration into reference time:

    reference seconds = wall seconds * NOMINAL_S / (local kernel time)

where the local kernel time is the median of the kernel timings nearest
in time.  A figure in reference time is the wall time the call would
take on this machine at the speed where the kernel takes exactly
NOMINAL_S.  A change to the program moves it; the host's load mostly
does not.
"""

from __future__ import annotations

import json
import time

import numpy as np

NOMINAL_S = 1e-3      # the kernel's duration at reference speed, by definition
SAMPLE_EVERY_S = 0.1  # time between kernel timings while the program runs
NEIGHBOURS = 15       # kernel timings that set the local speed of one duration


class Gauge:
    """Kernel timings of one run, and the conversion they define."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._T = rng.standard_normal((12, 30))
        self._A = rng.standard_normal((12, 12))
        self._b = rng.standard_normal(12)
        self.at, self.seconds = [], []
        for _ in range(3):  # first calls pay for lazy set-up in numpy
            self._kernel()

    def _kernel(self) -> float:
        """A mix like the program's: tableau pivots, small LAPACK calls, Python, JSON."""
        s = 0.0
        for _ in range(3):  # Gauss-Jordan with partial pivoting, row by row
            T = self._T.copy()
            rows = list(range(12))
            for j in range(12):
                r = rows[int(np.argmax(np.abs(T[rows, j])))]
                rows.remove(r)
                T[r] /= T[r, j]
                factors = T[:, j].copy()
                factors[r] = 0.0
                T -= np.outer(factors, T[r])
                s += float(np.count_nonzero(T[:, -1] > 0.0))
        for k in range(3):
            s += float(np.linalg.solve(self._A + k * np.eye(12), self._b)[0])
        s += float(np.linalg.eigh(self._A @ self._A.T)[0][-1])
        table = {}
        for i in range(600):
            table[i % 50] = i * i % 7
        return s + len(json.dumps({"x": self._b.tolist(), "t": list(table.values())}))

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t = time.perf_counter()
            self._kernel()
            self.at.append(t)
            self.seconds.append(time.perf_counter() - t)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def to_reference(self, at, seconds) -> np.ndarray:
        """Reference durations of wall ``seconds`` that started at times ``at``."""
        ref_at, ref_s = np.asarray(self.at), np.asarray(self.seconds)
        at, seconds = np.atleast_1d(at), np.atleast_1d(seconds)
        k = min(NEIGHBOURS, ref_s.size)
        first = np.clip(np.searchsorted(ref_at, at) - k // 2, 0, ref_s.size - k)
        windows = ref_s[first[:, None] + np.arange(k)]
        return seconds * NOMINAL_S / np.median(windows, axis=1)
