"""Job times scaled to a reference machine speed.

On a shared host the speed of one CPU drifts by up to a factor of two
over seconds, with whatever else runs on the machine.  The runner pins
itself, and so every job it starts, to one CPU, and times a fixed
pure-Python loop on that CPU.  While a job process runs, a sampler thread
of the runner times a short loop every 50 ms on the same CPU (taking
about 2 % of it); a job's wall time is scaled by the loop's nominal
speed over the mean sampled speed.  Jobs too short for three samples use the mean speed of the loops
just before and just after them instead, and the warm worker's short
in-process calls the mean of the few loops on each side of them.  Loop times are thread
CPU times, so a loop that loses the CPU to the job is not mistaken for a
slow machine.  The same benchmark code runs on the parent commit and the
change, so the scaling cancels out of every comparison.
"""

from __future__ import annotations

import os
import statistics
import threading
from contextlib import contextmanager
from time import thread_time

# nominal seconds per loop iteration: a 2-vCPU Xeon host, Python 3.11
NOMINAL_S_PER_ITER = 60e-9
# shortest loops: about 30 ms around a process (cold job or set-up sample),
# about 3 ms after an in-process call of the warm worker
PROCESS_LOOP_ITERS = 500_000
CALL_LOOP_ITERS = 50_000
# a loop lasts at least this share of the job it follows, so that long jobs
# get a proportionally better speed estimate
LOOP_SHARE = 0.03
SAMPLE_PERIOD_S = 0.05
SAMPLE_ITERS = 15_000
MIN_SAMPLES = 3
# loops on each side of an in-process call that set its speed
CALL_WINDOW = 4


def pin_to_one_cpu():
    """Run this process and its future children on one CPU of those allowed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _loop_s_per_iter(iters: int) -> float:
    t = thread_time()
    s = 0
    for i in range(iters):
        s += i & 1023
    return (thread_time() - t) / iters


class SpeedScale:
    """Scales wall times by the machine speed measured around each of them."""

    def __init__(self, iters: int):
        self.iters = iters
        self.samples: list[float] = []
        self.reset()

    def reset(self):
        """Measure the speed now, before a job after untimed work."""
        self.last = _loop_s_per_iter(self.iters)

    @contextmanager
    def sampling(self):
        """Sample this CPU's speed while a child process runs on it."""
        stop = threading.Event()

        def sample():
            while not stop.wait(SAMPLE_PERIOD_S):
                self.samples.append(_loop_s_per_iter(SAMPLE_ITERS))

        thread = threading.Thread(target=sample, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scale(self, seconds: float) -> float:
        """Scale a wall time measured since the previous call (or creation)."""
        after = _loop_s_per_iter(max(self.iters, int(seconds * LOOP_SHARE / NOMINAL_S_PER_ITER)))
        speeds = self.samples if len(self.samples) >= MIN_SAMPLES else [self.last, after]
        self.samples = []
        self.last = after
        return seconds * NOMINAL_S_PER_ITER / statistics.mean(speeds)


class CallSpeeds:
    """Loops between the in-process calls of the warm worker.

    Calls are short, so the pair of loops right around one is a noisy
    estimate of its speed; a call is scaled by the mean speed of the
    CALL_WINDOW loops on each side of it instead.
    """

    def __init__(self):
        self.speeds = [_loop_s_per_iter(CALL_LOOP_ITERS)]
        self.seconds: list[float] = []

    def add(self, seconds: float):
        """Record a call's wall time and time the loop that follows it."""
        self.seconds.append(seconds)
        self.speeds.append(_loop_s_per_iter(
            max(CALL_LOOP_ITERS, int(seconds * LOOP_SHARE / NOMINAL_S_PER_ITER))))

    def scaled(self) -> list[float]:
        """Every recorded wall time, scaled to the reference speed."""
        return [s * NOMINAL_S_PER_ITER
                / statistics.mean(self.speeds[max(0, i + 1 - CALL_WINDOW):i + 1 + CALL_WINDOW])
                for i, s in enumerate(self.seconds)]
