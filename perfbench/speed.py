"""Machine-speed sampling: wall times converted to reference seconds.

The 2-core sandbox this benchmark was defined on runs in speed phases: the
same ncball work took up to 1.7x longer from one half-minute to the next,
because the core is shared.  Whole runs land in one phase, so medians within
a run cannot remove it, and raw times of identical runs spread by a third.

While a job runs, a timer signal interrupts it every SAMPLE_PERIOD seconds
to time a short reference loop of interpreter and small-numpy work that
calls no ncball code.  The loop slows down with the machine.  A job's time
in reference seconds is its wall time, minus the time spent in the loops,
times REFERENCE_SECONDS over the mean loop time sampled during and right
after the job: the job's time on a machine where one loop takes
REFERENCE_SECONDS.  Faster ncball code lowers it; a slower phase of the
machine does not.  In a 90-second test of repeated identical probe jobs the
spread of raw times was 0.29 of their median and of reference times 0.08.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_PERIOD = 0.05
REFERENCE_REPS = 45
REFERENCE_SECONDS = 0.002  # about the loop's median time on the 2-core sandbox


def reference_loop() -> float:
    """Wall time of one fixed loop of small numpy calls and interpreter work.

    Each round makes a 2x2 Kronecker product and product, one rank-1 update
    of a 16x16 complex matrix, and a short generator sum: the operations
    ncball's evaluations are made of, at the sizes of levels 1 and 8.
    """
    eye = np.eye(2)
    block = np.arange(4.0).reshape(2, 2) + 1j
    col = np.linspace(0.0, 1.0, 16).reshape(16, 1) + 0.5j
    out = np.zeros((16, 16), dtype=complex)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        big = np.kron(eye, block)
        out += col * col.T
        acc += float(abs((big @ big)[0, 0])) + sum(j * 0.5 for j in range(10))
    elapsed = time.perf_counter() - start
    if not (acc > 0.0 and out[15, 15] != 0):
        raise RuntimeError("reference loop produced no result")
    return elapsed


class SpeedSampler:
    """Samples the reference loop on a timer while a job runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def stop(self) -> float:
        """Stop sampling; returns the seconds spent in the sampling handler."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.spent

    def to_reference(self, seconds: float) -> float:
        """``seconds`` of the job just sampled, in reference seconds."""
        return to_reference(seconds, self.samples + [reference_loop()])


def to_reference(seconds: float, samples: list[float]) -> float:
    """Wall ``seconds`` scaled by the reference loop times sampled over them."""
    return seconds * REFERENCE_SECONDS / statistics.mean(samples)
