"""Fixed reference work that measures how fast the host runs right now.

On a shared virtual machine the speed available to one process drifts by
tens of percent within seconds.  Reference work slows down with it, so
the benchmark times its own work in chunks of at least CHUNK_S, times
the reference after each chunk, and reports

    rescaled = wall * nominal / (mean reference time before and after the chunk),

the wall time the work would have taken had the reference taken exactly
its nominal time.  Neither reference touches cxpt, so no change to cxpt
can move them.  There are two, matched to the work they rescale:

* an in-process loop mixing mid-sized numpy array arithmetic (like a
  sphere mean over a few thousand nodes) with plain interpreter work,
  for library calls and set-up steps;
* a child process running ``python -c pass``, for ``cxpt`` CLI processes,
  whose time is mostly process start and imports.

perfbench/README.md has the measurements behind both.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Nominal reference times; they fix the unit of every rescaled time, so they never change.
LOOP_S = 1.5e-3
CHILD_S = 7.0e-2
#: Least wall time of work between two reference measurements.
CHUNK_S = 0.1

_rng = np.random.default_rng(0)
_NODES = _rng.normal(size=(2500, 5))
_FRAME = _rng.normal(size=(5, 3))
_WEIGHTS = _rng.random(2500)


def _loop() -> int:
    acc = 0j
    for r in (0.4, 0.8):                    # array arithmetic
        s = (0.1 * _FRAME[:, 0][None, :] + r * _NODES) @ _FRAME
        acc += np.dot(_WEIGHTS, np.exp(-s[:, 1] + 1j * s[:, 0]) * (1.0 + s[:, 2]))
    total = 0
    for i in range(15000):                  # interpreter work
        total += i % 7
    return total + int(acc.real > 0)


def loop_time(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` runs of the reference loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child_time() -> float:
    """Wall time of one ``python -c pass`` child process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


class Rescaler:
    """Times work and rescales it by a reference measured around it."""

    def __init__(self, reference=loop_time, nominal_s: float = LOOP_S) -> None:
        self._reference = reference
        self._nominal_s = nominal_s
        reference()             # the first run pays for lazy set-up
        self.first = self._before = reference()

    @classmethod
    def for_processes(cls) -> "Rescaler":
        return cls(child_time, CHILD_S)

    def run_all(self, thunks) -> list[tuple]:
        """(result, wall s, rescaled s) of each thunk, run in order."""
        done, chunk, chunk_wall = [], [], 0.0
        for thunk in thunks:
            start = time.perf_counter()
            out = thunk()
            wall = time.perf_counter() - start
            chunk.append((out, wall))
            chunk_wall += wall
            if chunk_wall >= CHUNK_S:
                done += self._rescale(chunk)
                chunk, chunk_wall = [], 0.0
        return done + (self._rescale(chunk) if chunk else [])

    def run(self, thunk) -> tuple:
        return self.run_all([thunk])[0]

    def _rescale(self, chunk) -> list[tuple]:
        after = self._reference()
        scale = self._nominal_s / (0.5 * (self._before + after))
        self._before = after
        return [(out, wall, wall * scale) for out, wall in chunk]
