"""A fixed piece of work that times the host's current speed.

The 2-vCPU host this benchmark was tuned on runs the same code up to about
1.4x slower for seconds or minutes at a time, in both vCPUs alike, with no
steal time: the process's CPU time grows with its wall time. A run of 20 s
can sit wholly in either state, so raw op times spread across runs by more
than any useful regression bound (IQR/median 0.2-0.4 over ten runs).

``seconds()`` times one pass of work shaped like qeci's in-process hot paths:
a cyclic Jacobi sweep of plane rotations over a fixed 8x8 complex Hermitian
matrix (small-array numpy calls and float math, as in ``qeci.linalg``), then a
heap-driven greedy coupling of four fixed rows (pure-Python loops, as in
``qeci.coupling``). It is the benchmark's own code and never calls qeci, so a
change to the program cannot move it. Every time the benchmark reports is
scaled by ``REFERENCE_S`` over calibration time measured in the process that
did the work:

- in-process ops (measure.run_loop): one pass before the first op and one
  after every op; an op is scaled by the mean of the two passes around it.
  Op time over calibration time stayed within 1.5-6% across 20 s windows in
  which raw op time varied by 19%.
- child processes (cli ops, set-up): ``child_passes()`` once the child's work
  is done, whose time is then taken off the child's wall time. Passes timed
  in the parent after a child exits did not track the child (spread 0.13 and
  worse than unscaled); passes at the child's end cut the spread of cli op
  time across 20 s windows from 0.19 to 0.05, and did better than passes at
  its start (0.10).
"""

import heapq
import math
import statistics
import time

import numpy as np

# A round figure between one pass's time on the host the benchmark was tuned
# on (Intel Xeon, 2 vCPUs) in its fast state, 0.6-0.7 ms, and in its slow
# state, 1.2-1.3 ms. Scaled times are of the order of wall-clock times there.
REFERENCE_S = 0.001
CHILD_PASSES = 3

_rng = np.random.default_rng(20210223)
_g = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_MATRIX = _g @ _g.conj().T
_ROWS = [sorted(_rng.dirichlet(np.ones(32)).tolist(), reverse=True) for _ in range(4)]


def _work() -> float:
    w = _MATRIX.copy()
    n = w.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            beta = w[p, q]
            mag = abs(beta)
            phase = beta / mag
            tau = (w[q, q].real - w[p, p].real) / (2.0 * mag)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            wp, wq = w[:, p].copy(), w[:, q].copy()
            w[:, p] = c * wp - s * np.conj(phase) * wq
            w[:, q] = s * wp + c * np.conj(phase) * wq
    heaps = [[(-x, j) for j, x in enumerate(row)] for row in _ROWS]
    for h in heaps:
        heapq.heapify(h)
    total = 0.0
    while all(heaps):
        tops = [heapq.heappop(h) for h in heaps]
        m = min(-x for x, _ in tops)
        total -= m * math.log2(m)
        for h, (x, j) in zip(heaps, tops):
            if -x - m > 1e-12:
                heapq.heappush(h, (x + m, j))
    return total + float(w[0, 0].real)


def seconds() -> float:
    """Wall time of one calibration pass."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def child_passes() -> list[float]:
    """Times of the passes a child process runs once its work is done."""
    return [seconds() for _ in range(CHILD_PASSES)]


def child_time(wall_s: float, passes: list[float]) -> tuple[float, float]:
    """(seconds of work, scale) of a child whose wall time includes ``passes``."""
    return wall_s - sum(passes), REFERENCE_S / statistics.fmean(passes)
