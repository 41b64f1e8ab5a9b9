"""A fixed reference computation that end-to-end times are divided by.

The machine this benchmark was built on is a 2-vCPU virtual machine
whose speed drifts by up to a third over minutes: the host takes CPUs
away (which inflates wall time) and neighbours slow the ones it gives
(which inflates CPU time too). The same CLI call measured a few minutes
apart differed by 30%. A run therefore times this loop right before
every measured call, in the same process, and reports the call's CPU
time divided by the loop's, scaled by ``NOMINAL_S``: CPU seconds at the
machine speed at which the loop takes ``NOMINAL_S``. Slow phases stretch
both and cancel. The loop imitates the program's mix: sorting, many
numpy calls on small arrays, CSV parsing and plain interpreter work.

Changing this loop or ``NOMINAL_S`` changes the unit of every time the
benchmark reports, so neither may change without re-measuring the
baseline.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

NOMINAL_S = 0.027

_rng = np.random.default_rng(20260808)
_big = _rng.random(100_000)
_small = _rng.random(300)
_text = "".join(f"{t:.3f},{e},{g}\n" for t, e, g in zip(_rng.random(1500) * 10, [0, 1, 2] * 500, [0, 1] * 750))


def reference_cpu() -> float:
    """CPU seconds this process spends on one pass of the loop."""
    t0 = time.process_time()
    for _ in range(4):
        np.sort(_big)
    for _ in range(1000):
        np.cumsum(np.searchsorted(np.sort(_small), _small[:50]))
    rows = [(float(t), int(e), int(g)) for t, e, g in csv.reader(io.StringIO(_text))]
    acc, counts = 0.0, {}
    for i, (t, e, _) in enumerate(rows * 20):
        acc += t * 0.5
        counts[e] = counts.get(e, 0) + i % 3
    return time.process_time() - t0


def reference_passes(n: int = 5) -> list[float]:
    """CPU seconds of ``n`` passes, after one unrecorded warm-up pass."""
    return [reference_cpu() for _ in range(n + 1)][1:]
