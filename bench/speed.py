"""Machine speed probe: a fixed kernel timed right after each operation.

The shared machine this benchmark was built on changes speed by up to a
factor of two. It switches between a fast and a slow state several times a
second, and the share of time spent in each drifts over minutes, so a
drift can cover a whole run; no statistic over the run's own timings can
remove it. After every timed operation the run therefore times a fixed
kernel, which does not use hillmono, for SHARE of the operation's latency,
and scales the latency to the speed at which one kernel block takes
REFERENCE_BLOCK_S. Measured over ten minutes of `spectrum` scans, this cut
the spread of 28 s windows (interquartile range over median) from 0.29 to
0.074.
"""

import math
import time

import numpy as np

TAU = math.tau
# Kernel time per operation, as a share of the operation's latency.
SHARE = 0.15
# Block time that defines the reference speed: about the median on the
# machine this was built on (README, "Reference figures").
REFERENCE_BLOCK_S = 0.005
SCAN_STEPS = 4096
LOOP_STEPS = 6000
WARMUP_BLOCKS = 20


def block():
    """One block of the two kinds of work hillmono's operations are made of.

    A numpy prefix scan of 2x2 transfer matrices with argument unwrapping,
    as in fixed-step integration, and a scalar Runge-Kutta loop in Python,
    as in the per-call bookkeeping around it.
    """
    h = TAU / SCAN_STEPS
    t = np.linspace(0.0, TAU, SCAN_STEPS + 1)[:-1]
    q = 1.0 + 0.5 * np.cos(t) + 0.3 * np.sin(3.0 * t)
    mats = np.empty((SCAN_STEPS, 2, 2))
    mats[:, 0, 0] = 1.0
    mats[:, 0, 1] = h
    mats[:, 1, 0] = -q * h
    mats[:, 1, 1] = 1.0
    k = 1
    while k < SCAN_STEPS:
        mats[k:] = mats[k:] @ mats[:-k]
        k *= 2
    angle = float(np.unwrap(np.arctan2(mats[:, 0, 1], mats[:, 0, 0]))[-1])

    h = TAU / LOOP_STEPS
    y, v, s = 1.0, 0.0, 0.0
    for _ in range(LOOP_STEPS):
        q = 1.0 + 0.5 * math.cos(s)
        k1y, k1v = v, -q * y
        k2y, k2v = v + 0.5 * h * k1v, -q * (y + 0.5 * h * k1y)
        y += h * k2y
        v += h * k2v
        s += h
    return angle + y


class SpeedProbe:
    """Times kernel blocks after each operation and keeps their totals."""

    def __init__(self):
        for _ in range(WARMUP_BLOCKS):
            block()
        self.blocks = 0
        self.seconds = 0.0

    def scale(self, latency):
        """Factor that brings a latency just measured to the reference speed.

        Runs blocks for SHARE of the latency, at least one.
        """
        spent, n = 0.0, 0
        while n == 0 or spent < SHARE * latency:
            t0 = time.perf_counter()
            block()
            spent += time.perf_counter() - t0
            n += 1
        self.blocks += n
        self.seconds += spent
        return REFERENCE_BLOCK_S * n / spent

    def run_scale(self):
        """The same factor for the mean speed over every block so far."""
        return REFERENCE_BLOCK_S * self.blocks / self.seconds
