"""A machine-speed yardstick, so run-to-run drift of a shared machine cancels.

On the 2-core machine this benchmark was defined on, the same 9x9 `eigh`
runs at 14 us or at 23 us in phases of 0.5 s to minutes, as other tenants
come and go; raw latencies of one workload moved 20-45% between runs.  The
yardstick is a fixed slice of the work decomap does (small Hermitian
eigendecompositions and matrix products driven from a Python loop), timed
between verdict calls.  Each measured time is scaled by NOMINAL_S over the
yardstick time around it, which is the time the measured work would have
taken in the machine's fast phase.  Measured there, the scaled figures
spread 3-4 times less than the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# numpy's own functions, captured before a traced pass wraps them
_eigh = np.linalg.eigh

NOMINAL_S = 0.0033          # the slice's time in the fast phase of that machine
SLICE_ITERS = 200
EVERY_S = 0.25              # program time between two slices in a pass


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._start = g @ g.conj().T - 6 * np.eye(6)
        self._shift = 0.5 * np.eye(6)

    def measure(self) -> float:
        """Seconds for one slice: PSD clips of a drifting 6x6 Hermitian matrix."""
        x = self._start
        t0 = time.perf_counter()
        for _ in range(SLICE_ITERS):
            w, v = _eigh((x + x.conj().T) / 2)
            x = (v * np.maximum(w, 0.0)) @ v.conj().T - self._shift
        return time.perf_counter() - t0

    @staticmethod
    def scale(seconds, before, after):
        """seconds of work measured between two slices, at nominal speed."""
        return seconds * 2 * NOMINAL_S / (before + after)
