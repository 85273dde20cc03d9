"""A clock that runs at the speed of a reference kernel, not of the host.

The benchmark's 2-vCPU shared host changes speed as a whole, by up to
1.8x, in phases of a few seconds to minutes: the same pure-Python loop
then takes 1.8x as long on both CPUs, with thread CPU time equal to wall
time. Such a phase moves a whole run's throughput, whatever the run
measures or however it condenses it. The ratio of the program's time to
the time of a fixed reference kernel run in between moves much less.

So while the clock is running, a timer signal runs a fixed kernel every
SAMPLE_INTERVAL seconds and times it. ``now()`` advances like the wall
clock scaled by ``(REFERENCE_KERNEL_S / m) ** SENSITIVITY``, where ``m``
is the median kernel time over the last WINDOW samples: a second of
``now()`` is the time the host takes for a second's work when the kernel
takes ``REFERENCE_KERNEL_S``, about the fast phase of the 2-vCPU host the
figures below come from. The kernel's own time is left out. ``wall()`` is
the wall clock with the kernel's time left out, for reporting raw figures
next to the scaled ones.

The kernel's mix was chosen on one-minute runs of three workloads with
five candidate kernels timed side by side: numpy calls on one small
vector, small allocations, or gathers from a large array tracked the host
worse than the three parts kept. The program's own calls slow down more
than the kernel when the host does: over 100 units of 2 to 3 seconds in
18-second runs of ``prepare_corpus`` and ``prepare_kb`` (two kernel
variants, 13 seeds), log unit rate against log kernel speed had a slope
of 1.44 to 1.55 (correlation 0.91 to 0.99). SENSITIVITY carries that
slope, so that a run's scaled figures do not move with the host's phase.
"""

from __future__ import annotations

import gc
import signal
import statistics
from collections import deque
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SAMPLE_INTERVAL = 0.02     # seconds between kernel samples
WINDOW = 15                # samples in the running median
REFERENCE_KERNEL_S = 4e-4  # kernel time that counts as full speed
SENSITIVITY = 1.5          # program slowdown per kernel slowdown, in logs

_RNG = np.random.default_rng(0)
_KEYS = [f"k{i:03d}" for i in range(256)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}
_BIG_KEYS = [f"w{i:06d}" for i in range(100_000)]
_BIG_TABLE = {k: i for i, k in enumerate(_BIG_KEYS)}
_BIG_ORDER = _RNG.permutation(len(_BIG_KEYS)).tolist()
_BIG_STEP = 150
_MATRIX = _RNG.normal(size=(96, 96))


class RefClock:
    def __init__(self):
        self.kernel_times: list[float] = []
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self._scaled = 0.0      # scaled time up to self._since
        self._hidden = 0.0      # kernel time so far, left out of wall()
        self._since = perf_counter()
        self._rate = 1.0
        self._generation = 0
        self._big_at = 0

    def kernel(self) -> None:
        """Fixed work in three parts of about equal time: an interpreter
        loop of dict lookups that stay in cache, lookups at random in a
        table of 100,000 keys that miss it, and 96 x 96 matrix products."""
        s = 0
        for i in range(1500):
            s += _TABLE[_KEYS[i & 255]] ^ i
        at = self._big_at
        for j in _BIG_ORDER[at:at + _BIG_STEP]:
            s += _BIG_TABLE[_BIG_KEYS[j]]
        self._big_at = (at + _BIG_STEP) % (len(_BIG_ORDER) - _BIG_STEP)
        m = _MATRIX
        for _ in range(3):
            m = _MATRIX @ m * 0.01

    def _sample(self, *_):
        enter = perf_counter()
        enabled = gc.isenabled()
        gc.disable()            # no collection of the program's garbage here
        self.kernel()
        if enabled:
            gc.enable()
        leave = perf_counter()
        took = leave - enter
        self._scaled += (enter - self._since) * self._rate
        self._hidden += took
        self._since = leave
        self._recent.append(took)
        self._rate = (REFERENCE_KERNEL_S
                      / statistics.median(self._recent)) ** SENSITIVITY
        self.kernel_times.append(took)
        self._generation += 1

    def now(self) -> float:
        """Scaled seconds: wall time at the recently sampled host speed."""
        while True:
            generation = self._generation
            value = self._scaled + (perf_counter() - self._since) * self._rate
            if generation == self._generation:  # no sample ran in between
                return value

    def wall(self) -> float:
        """Wall seconds with the kernel's time left out."""
        while True:
            generation = self._generation
            value = perf_counter() - self._hidden
            if generation == self._generation:
                return value

    @contextmanager
    def running(self):
        """Sample the host's speed while the block runs; outside such a
        block ``now()`` advances at wall speed."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._scaled = self.now()
            self._since = perf_counter()
            self._rate = 1.0
            self._recent.clear()
            self._generation += 1


CLOCK = RefClock()
