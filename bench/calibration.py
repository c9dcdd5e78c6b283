"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs at two speeds about 1.6x apart: a
virtual CPU flips between them every fraction of a second, and the share
of time spent in the slow state drifts over minutes with the load of the
neighbours.  A wall-clock time taken alone then measures the host as much
as volgron.

Calibration loops of the same kind as a workload's hot code are timed
on either side of every timed call (request or set-up process): a
pure-Python loop for ``cli``, whose calls are mostly interpreter start
and import; elementwise passes over an L2-sized array for ``grid``,
whose time goes to vectorised m x m updates; and both, combined by a
geometric mean (``mixed``), for ``fractional``, which mixes Python-level
recursion with array code.  On a shared two-vCPU Xeon virtual machine,
each loop tracked its own workload across host swings better than the
other did (the pure-Python loop over-corrected ``grid`` by about 1.8x in
log terms), and in some phases the pure-Python loop slowed far more than
``fractional`` did while the array loop matched it.

A call's seconds convert to reference seconds, the time on a machine
where each loop takes its ``REF_S``, with the mean of the two samples.
A sample catches one state, so this corrects a call shorter than a state
(a set-up process, about 0.5 s) but not one that spans many.  Latencies
and batch times are therefore multiplied by a run-wide factor,
``Clock.scale``: reference seconds per raw second over all timed calls,
which weights each pair of samples by the time it stands for and keeps
the shape of the latency distribution.  Raw times and the factor are kept
in each run's record.

The process and the processes it starts are pinned to one CPU
(``pin_one_cpu``), so that the samples are taken on the CPU that runs the
timed code.
"""

from __future__ import annotations

import math
import os
import time

# loop time that defines the reference machine, per kind of loop
REF_S = {"python": 1.0e-3, "array": 0.6e-3}
_ARRAY = []


def _python() -> None:
    s = 0.0
    for i in range(10_000):
        s += math.sqrt(i) * 1.0001


def _array() -> None:
    if not _ARRAY:
        import numpy as np  # after the caller has pinned BLAS threads

        _ARRAY.extend([np, np.linspace(0.0, 1.0, 32768)])
    np, x = _ARRAY
    for _ in range(8):
        x = np.sqrt(x * 0.5 + 0.25)


LOOPS = {"python": _python, "array": _array}
KINDS = ("python", "array", "mixed")


def sample(kind: str) -> float:
    """Seconds one calibration loop of ``kind`` takes now."""
    loop = LOOPS[kind]
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def pin_one_cpu() -> None:
    """Keep this process and its children on the lowest CPU allowed."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except (AttributeError, OSError):
        pass


def _factor(kind: str, loop_factors: dict) -> float:
    """Reference seconds per raw second for ``kind``; ``mixed`` is the
    geometric mean of the two loops."""
    if kind == "mixed":
        return math.sqrt(loop_factors["python"] * loop_factors["array"])
    return loop_factors[kind]


class Clock:
    """Raw and reference seconds of the calls timed in a run.

    Every sample times both loops, so that the record shows the factor
    each kind would give; ``kind`` picks the one reported.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples = []
        self.raw = 0.0
        self.ref = dict.fromkeys(LOOPS, 0.0)
        for k in LOOPS:
            sample(k)  # warm-up: first-call imports and allocation

    def sample(self) -> dict:
        c = {k: sample(k) for k in LOOPS}
        self.samples.append(c)
        return c

    def add(self, seconds: float, before: dict, after: dict) -> float:
        """Count a call of ``seconds`` between two samples; its reference
        seconds."""
        f = {k: 2.0 * REF_S[k] / (before[k] + after[k]) for k in LOOPS}
        self.raw += seconds
        for k in LOOPS:
            self.ref[k] += seconds * f[k]
        return seconds * _factor(self.kind, f)

    @property
    def scales(self) -> dict:
        f = {k: ref / self.raw for k, ref in self.ref.items()}
        return {k: _factor(k, f) for k in KINDS}

    @property
    def scale(self) -> float:
        return self.scales[self.kind]
