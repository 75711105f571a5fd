"""Host time corrected for the shared machine's momentary speed.

On a machine shared with other tenants the same operation's CPU time
drifts by 20% and more within a minute.  Each measurement is therefore
bracketed by a fixed pure-Python calibration kernel (heap-based Dijkstra,
dict and list churn, small-object method calls, Fraction sums: the mix
the simulator runs) and scaled by REFERENCE_S over the mean of the two
calibrations.  The result reads as CPU seconds on a machine where the
kernel takes REFERENCE_S, and a change to congestsim moves it exactly as
much as it moves raw CPU time.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from fractions import Fraction

REFERENCE_S = 0.025


def _random_graph(nodes, seed):
    rng = random.Random(seed)
    adj = [[] for _ in range(nodes)]
    for u in range(nodes):
        for _ in range(4):
            v, w = rng.randrange(nodes), rng.randint(1, 50)
            if v != u:
                adj[u].append((v, w))
                adj[v].append((u, w))
    return adj


_NODES = 300
_ADJ = _random_graph(_NODES, 12345)


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, k):
        return _Cell(self.b, (self.a + k) % 1009)


def _kernel():
    total = 0
    for s in range(0, _NODES, 15):
        dist, heap = {s: 0}, [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist.get(v, nd + 1):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    pending = {}
    for r in range(3000):
        pending.setdefault(r % 97, []).append((r, 3 * r))
    cell = _Cell(1, 2)
    for k in range(20000):
        cell = cell.step(k)
    acc = Fraction(0)
    for k in range(1, 200):
        acc += Fraction(k, k + 7)
    return total, len(pending), cell.a, acc


def calibration_s():
    """CPU seconds of one kernel run, with the collector off so that the
    program's heap does not change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        _kernel()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Measures calls; consecutive calls share the calibration between them."""

    def __init__(self):
        self._last = calibration_s()

    def measure(self, fn, *args):
        """Returns (fn's result, corrected seconds, correction factor)."""
        start = time.process_time()
        result = fn(*args)
        cpu = time.process_time() - start
        before, self._last = self._last, calibration_s()
        factor = 2 * REFERENCE_S / (before + self._last)
        return result, cpu * factor, factor
