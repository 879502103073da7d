"""Host speed calibration for the benchmark's timings.

On a shared host one core's speed can change by a factor of up to two from
one second or minute to the next (another tenant's work on the sibling
hyperthread, or on the package's frequency budget), and all kinds of code
slow down together. A fixed kernel timed on the same core sees the same
slowdown; one timed on the other core does not. So the benchmark keeps
itself and its children on one CPU (`one_cpu`) and samples this module's
pure-Python kernel just before and just after every timed operation, and
every INTERVAL_S while it runs, from a SIGALRM handler in the main thread.
Each stretch of the operation between two samples is scaled by REFERENCE_S
over the mean of the two kernel times. The sum is the operation's time at
the host speed at which the kernel takes REFERENCE_S; its raw time, without
the sampling, is kept beside it.

An operation that runs in a child process is sampled the same way from the
parent, which waits for the child on the same CPU: while the handler runs,
the child waits, and that time is left out as well. A cold command-line
process spends most of its time starting and importing, which a slow host
slows less than interpreted code, so its stretches are scaled by the
kernel's ratio to the power COLD_EXPONENT.

The samples belong to the benchmark and never call the code under test, so
a change to the library moves the scaled time as it moves the raw time at a
steady host speed. This module imports nothing that counts as set-up, so
set-up can be calibrated before numpy and the library are imported.
"""

import os
import signal
import time

# About the kernel's time on a 2-vCPU Intel Xeon virtual machine.
REFERENCE_S = 0.0015
# A sample is the fastest of this many back-to-back kernel runs, so that a
# single interrupt does not count as a slow host.
REPEATS = 2
# Over repeated runs of the query workload on that machine, exponents from
# 0.5 to 1 all cut the run-to-run spread of its times, and 0.75 cut it most.
COLD_EXPONENT = 0.75
# A sample taken less than this long ago also serves the next operation.
FRESH_S = 0.5
# Seconds between samples inside an operation: the kernel takes about 3% of
# the operation's wall time, and is left out of its raw and scaled times.
INTERVAL_S = 0.1


def _kernel() -> int:
    """Fixed interpreter work of the kinds the library does: integer and
    float arithmetic, tuples, dict updates, list appends and a sort."""
    acc = 0
    seen: dict[int, int] = {}
    pairs = []
    for i in range(1, 1600):
        key = (i * 7919) % 1013
        seen[key] = seen.get(key, 0) + i
        pairs.append((key, i & 7))
        acc += int((i * 0.5) ** 0.5 * 3.0) ^ key
    pairs.sort()
    return acc + len(seen) + pairs[0][0]


def sample() -> float:
    """Seconds of one kernel run: the fastest of REPEATS."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, before: float, after: float, exponent: float = 1.0) -> float:
    """`seconds` at reference speed, from the kernel samples around it."""
    return seconds * (2.0 * REFERENCE_S / (before + after)) ** exponent


def one_cpu() -> None:
    """Keep this process, and the children it starts from now on, on one
    CPU, so that every sample measures the CPU the timed work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Scaler:
    """Times operations with kernel samples around and inside them; keeps
    every sample in `samples`. `sampler` is there for tests to replace;
    `exponent` is COLD_EXPONENT for work in cold child processes."""

    def __init__(self, sampler=sample, exponent: float = 1.0) -> None:
        self.sampler = sampler
        self.exponent = exponent
        self.samples: list[float] = []
        self._stretches: list[tuple[float, float]] = []
        self._previous = self._resumed = self._sampled_at = 0.0
        self._inside = False
        self._handler = None

    def _sample(self) -> float:
        value = self.sampler()
        self.samples.append(value)
        self._sampled_at = time.perf_counter()
        return value

    def _on_alarm(self, signum, frame) -> None:
        paused = time.perf_counter()
        self._stretches.append((paused - self._resumed, self._sample()))
        self._resumed = time.perf_counter()

    def start(self, inside: bool = True) -> None:
        """Begin a timed stretch of work. With inside=False the kernel is
        sampled only at its ends."""
        fresh = self.samples and time.perf_counter() - self._sampled_at < FRESH_S
        self._previous = self.samples[-1] if fresh else self._sample()
        self._stretches = []
        self._inside = inside
        if inside:
            self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._resumed = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the stretch begun by `start`; returns (raw, scaled) seconds."""
        ended = time.perf_counter()
        if self._inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self._stretches.append((ended - self._resumed, self._sample()))
        raw = scaled = 0.0
        previous = self._previous
        for seconds, after in self._stretches:
            raw += seconds
            scaled += scale(seconds, previous, after, self.exponent)
            previous = after
        return raw, scaled

    def time(self, fn, *args, inside: bool = True):
        """Run fn(*args); returns (its result, raw seconds, scaled seconds)."""
        self.start(inside)
        try:
            result = fn(*args)
        finally:
            raw, scaled = self.stop()
        return result, raw, scaled
