"""Machine-speed normalization of measured times.

On a shared VM the vCPU's speed drifts by up to about +-30% over tens of
seconds to minutes, with no steal time reported: a pure-Python loop slows
down as much as gwcell does.  That drift swamps any per-run statistic, so
every time the benchmark reports is scaled to a fixed nominal speed: a
fixed kernel is timed next to the ops, and a time measured when the kernel
took `c` ms is multiplied by nominal / c.  In-process work is scaled by a
pure-Python kernel; CLI child processes by the start of a bare interpreter,
which tracks process start-up and imports where the pure-Python kernel does
not.  On a 2-core VM, across 10-second blocks, a cold `grassmann -d 10 -m 10`
varied by 9% (CV) and its ratio to the Python kernel by 2%; a
`python -m gwcell.cli` child varied by 5-9% and its ratio to a bare
interpreter start by 3-4% (its ratio to the Python kernel by 13-14%).
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time

NOMINAL_MS = 2.0  # the Python kernel's time at the nominal speed
INTERPRETER_NOMINAL_MS = 60.0  # a bare interpreter's start at the nominal speed
WINDOW = 5  # kernel samples around a time that set its speed


def kernel():
    """Interpreter-bound work of the kinds gwcell does: tuples, dicts, strings, calls, json."""
    table, out = {}, []
    for i in range(2500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        out.append(f"{i}:{key[0]}")
    return len(json.dumps(out)) + sum(table.values())


def sample_ms() -> float:
    """One kernel time in ms, with the garbage collector paused so the program's heap does not leak in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def setup_factor(samples) -> float:
    return NOMINAL_MS / statistics.median(samples)


class Speedometer:
    """Kernel samples over a measurement, and the speed factor at any moment of it.

    `sample` times one kernel run in ms; `min_gap_s` spaces the samples.
    """

    def __init__(self, sample=sample_ms, nominal_ms=NOMINAL_MS, min_gap_s=0.1):
        self.sample, self.nominal_ms, self.min_gap_s = sample, nominal_ms, min_gap_s
        sample()  # the first run pays for warming up
        self.times, self.samples = [], []

    def tick(self, force=False):
        now = time.monotonic()
        if force or not self.times or now - self.times[-1] >= self.min_gap_s:
            self.samples.append(self.sample())
            self.times.append(now)

    def factor(self, at: float) -> float:
        """Nominal over the median of the WINDOW samples nearest to monotonic time `at`."""
        j = bisect.bisect_left(self.times, at)
        lo = max(0, min(j - WINDOW // 2, len(self.times) - WINDOW))
        return self.nominal_ms / statistics.median(self.samples[lo : lo + WINDOW])
