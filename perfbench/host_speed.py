"""Host speed reference: a fixed kernel timed next to every measurement.

The machines this benchmark runs on are shared, and their speed changes
by up to 1.8x, for spells of a fraction of a second up to minutes
(``process_time`` tracks wall time, so it is the processor that slows,
not the scheduler).  No statistic taken inside one run removes a spell
that lasts the whole run.  So the benchmark times this kernel at most
0.1 s before every measured step.  The kernel never touches roleproj and
mixes the kinds of work the pipeline does: bracket parsing, frozenset
Jaccard arithmetic and a small-matrix shortest-augmenting-path assignment
in numpy.  A measured time t becomes ``t * NOMINAL_S / k``, where k is the
kernel's time next to it: seconds on a host at the reference speed.  A
faster roleproj lowers t and leaves k alone, so the scaled figure moves by
the same factor as the raw one.
"""

from __future__ import annotations

import re
import time

import numpy as np

# Kernel seconds on the reference host (2 vCPUs, Python 3.11, numpy 2.4)
# when it runs at full speed.  Only the scale of the reported figures
# depends on it.
NOMINAL_S = 0.0012

_TREE = ("(S (NP (DT the) (JJ quick) (NN fox)) (VP (VBZ jumps) (PP (IN over) "
         "(NP (DT the) (JJ lazy) (NN dog))) (, ,) (ADVP (RB again))) (. .))")
_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_SETS = [frozenset(range(k % 9, k % 9 + 1 + k % 5)) for k in range(32)]
_COST = -np.log(np.random.default_rng(0).random((20, 20)) * 0.9 + 0.05)


def _assignment(cost: np.ndarray) -> np.ndarray:
    n = cost.shape[0]
    u, v = np.zeros(n), np.zeros(n + 1)
    row_of = np.full(n + 1, -1)
    for i in range(n):
        row_of[n], j0 = i, n
        minv, way = np.full(n, np.inf), np.full(n, n)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of[j0]
            cur = cost[i0] - u[i0] - v[:n]
            better = ~used[:n] & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            free = np.flatnonzero(~used[:n])
            j1 = free[int(np.argmin(minv[free]))]
            delta = minv[j1]
            cols = np.flatnonzero(used)
            u[row_of[cols]] += delta
            v[cols] -= delta
            minv[free] -= delta
            j0 = j1
            if row_of[j0] == -1:
                break
        while j0 != n:
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    return row_of[:n]


def kernel() -> float:
    """Run the fixed work once; return a value so nothing is skipped."""
    depth = 0
    for tok in _TOKEN.findall(_TREE * 12):
        depth += (tok == "(") - (tok == ")")
    acc = 0.0
    for a in _SETS:
        for b in _SETS:
            acc += len(a & b) / len(a | b)
    return acc + depth + float(_assignment(_COST)[0])


def sample(repeats: int) -> float:
    """Seconds of the fastest of ``repeats`` kernel runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Converts measured seconds to reference-host seconds, using the
    kernel's time measured at most PERIOD_S before the measurement."""

    PERIOD_S = 0.1

    def __init__(self):
        self._probed_at = float("-inf")
        self._kernel_s = NOMINAL_S

    def scale(self) -> float:
        if time.perf_counter() - self._probed_at >= self.PERIOD_S:
            self._kernel_s = sample(repeats=2)
            self._probed_at = time.perf_counter()
        return NOMINAL_S / self._kernel_s

    def expire(self) -> None:
        """Make the next scale() probe the kernel again."""
        self._probed_at = float("-inf")

    def timed(self, fn, *args):
        """Run fn(*args); return (result, reference-host seconds it took),
        scaled by the kernel's time just before and just after."""
        before = self.scale()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.expire()
        return result, elapsed * (before + self.scale()) / 2
