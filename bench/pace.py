"""The host's pace, measured with fixed reference work beside each timed step.

On a shared host the same op can take 1.7 times as long from one minute to
the next, and CPU time moves with wall time, so process or thread clocks do
not help.  The benchmark therefore runs a short, fixed piece of reference
work between its timed steps (set-ups, ops and the baseline solve), and
reports each step in paced seconds: its wall time times the reference's
nominal time over the mean of its measured times just before and just
after the step.  A paced second is a second on a host where the reference
takes its nominal time.  The reference is made only of this
file's code, numpy and scipy, so a change to the library does not move it.

The reference has two parts, pure-Python heap and dict traffic and numeric
work (complex GEMM, an LU solve, streaming array arithmetic), because the
host's load slows them unequally: the Python part more than any workload's
ops, the numeric part less than most.  Their sum tracks the ops of every
workload, the pipeline's pure-Python event loop included, better than
either part alone.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np
import scipy.linalg

_rng = np.random.default_rng(0)
_gemm = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_lu = scipy.linalg.lu_factor(_gemm)
_stream = _rng.standard_normal(400_000)


def python_part() -> int:
    queue, seen = [], {}
    for i in range(20_000):
        heapq.heappush(queue, ((i * 7919) % 10007, i))
        seen[i % 977] = i
    total = 0
    while queue:
        total += heapq.heappop(queue)[1]
    return total + len(seen)


def numeric_part() -> float:
    acc = 0.0
    for _ in range(24):
        acc += abs((_gemm @ _gemm)[0, 0])
        acc += abs(scipy.linalg.lu_solve(_lu, _gemm[:, 0])[0])
        acc += float(np.multiply(_stream, 1.5).sum())
    return acc


def reference() -> None:
    python_part()
    numeric_part()


NOMINAL_S = 0.038  # about the reference's time on a quiet host (0.020 + 0.018 s)


class Pace:
    """Reference times of one run: sample k is taken just before step k,
    and one more after the last step."""

    def __init__(self):
        reference()  # the first call runs slow; keep it out of the samples
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)

    def paced(self, wall_s: float, k: int) -> float:
        """`wall_s` of step k in paced seconds."""
        return wall_s * NOMINAL_S * 2.0 / (self.samples[k] + self.samples[k + 1])

    def scale(self) -> float:
        """Paced seconds per wall second over the whole run."""
        return NOMINAL_S / statistics.median(self.samples)
