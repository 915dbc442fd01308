"""Machine speed, sampled while a timed pass runs.

On a few cores of a shared host, the speed of one core drifts by up to half
within seconds, with process time tracking wall time: the slowdown comes
from what other tenants run, not from this process waiting. A time taken
there says as much about the neighbours as about the program.

A `Speedometer` samples that speed during a pass. Every PERIOD_S of wall
time a SIGALRM handler runs `calibrate()`, a fixed piece of small-array
numpy work that stands apart from the program, and times it.
The pass time, less the time spent in the handler, is then scaled by
REF_SAMPLE_S over the mean sample: it becomes the time the pass would have
taken at a fixed reference speed. A program change moves the scaled time,
and a slower neighbour moves the pass time and the samples together.

Sampling happens between Python bytecodes, so a long call into compiled
code delays it; a pass that gets fewer than MIN_SAMPLES samples is topped up
right after it ends, outside its timing.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.01
MIN_SAMPLES = 8
# Mean duration of one calibrate() sample taken inside a pass, on an idle
# moment of a 2-core Intel Xeon KVM guest (Python 3, numpy). Any fixed value
# would do; this one makes scaled times read as seconds on that machine.
REF_SAMPLE_S = 0.00015

_A = np.linspace(0.0, 1.0, 300)
_B = np.arange(300) % 17


def calibrate() -> None:
    """Fixed work: many numpy calls on small arrays, where the program's
    solver spends most of its time. Of the mixes tried (pure-Python loops,
    a large working set, and this), this one's time tracked the pass times
    of all three workloads most nearly in proportion."""
    x = _A
    for _ in range(40):
        x = np.maximum(x * 0.5 - 0.1, 0.0) + _A
    np.add.at(x, _B, 1.0)


def _sample() -> float:
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


class Speedometer:
    """Context manager: samples machine speed while its block runs.

    After the block, `busy_s` is the wall time the samples took inside it and
    `samples` their durations.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        dt = _sample()
        self.samples.append(dt)
        self.busy_s += dt

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:  # outside the block's timing
            self.samples.append(_sample())


def scaled_time(wall_s: float, busy_s: float, samples: list[float]) -> float:
    """The program's share of `wall_s`, at the reference speed."""
    return (wall_s - busy_s) * REF_SAMPLE_S / statistics.fmean(samples)
