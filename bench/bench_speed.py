"""Machine-speed calibration for the timed runs.

On a shared machine, the speed of a single-threaded, CPU-bound Python
program drifts, and CPU time drifts with it: other load slows the core down
(shared caches, sibling hyperthreads), it does not only take it away. In one
measurement on a 2-vCPU machine, a fixed 0.6 s slice of solver work took
from 0.81 to 1.10 times its median over consecutive 15 s stretches, and the
search of the calibration task below moved along with it (0.88 to 1.11).
Divided by the search time measured next to it, the slice stayed within
0.95 to 1.03.

``run.py`` therefore runs the calibration task at intervals and scales every
time it reports by ``REFERENCE_S`` over the median calibration time measured
around it. The task is plain Python and uses nothing of the package, so a
change to the package cannot change it. It does the two kinds of work the
benchmark times: a heap-driven shortest-path search over a fixed random
graph (heap operations, set and dict lookups, float arithmetic and calls,
the mix of the solvers' inner loops) and a build of adjacency sets (the
allocations of set-up).
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import statistics
import time
from typing import List

# Reference speed: CPU seconds of one calibration() on a 2-vCPU VM with
# Python 3.11 when it was not loaded (loaded, it took up to twice as long).
# Scaled times are in seconds of a machine that runs the task this fast.
REFERENCE_S = 0.0035

_rng = random.Random(0)
_POINTS = [(_rng.random() * 100.0, _rng.random() * 100.0) for _ in range(300)]
_NEIGHBOURS = [frozenset(_rng.sample(range(300), 30)) for _ in range(300)]


def _shortest_paths() -> int:
    """Dijkstra from vertex 0 over the fixed graph; vertices reached."""
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        ux, uy = _POINTS[u]
        for v in _NEIGHBOURS[u]:
            if v in done:
                continue
            vx, vy = _POINTS[v]
            nd = d + math.hypot(ux - vx, uy - vy)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(done)


_EDGES = [(u, v) for u, neighbours in enumerate(_NEIGHBOURS) for v in neighbours]


def _adjacency() -> int:
    """Adjacency sets built from the fixed edge list; edges stored."""
    adj = {}
    for u, v in _EDGES:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return sum(len(members) for members in adj.values())


def calibration() -> float:
    """CPU seconds of one run of the calibration task: a search and an
    adjacency build, the kinds of work of queries and of set-up.

    The garbage collector is off meanwhile: a collection would scan the
    objects of the program under test, whose number the program decides.
    """
    gc.disable()
    try:
        start = time.thread_time()
        _shortest_paths()
        _adjacency()
        return time.thread_time() - start
    finally:
        gc.enable()


def scale(marks: List[float]) -> float:
    """Factor that turns CPU times measured among ``marks`` (calibration
    times) into times of the reference machine."""
    return REFERENCE_S / statistics.median(marks)
