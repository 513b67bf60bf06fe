"""Independent reference for the benchmark's denominators and cross-checks.

A deliberately plain re-implementation of one synchronous round and of
orbit detection, sharing no code with the package.  It gives every
workload its number of game rounds (the distinct states each orbit
visits, preperiod + period), which is a property of the games and not
of the engine, so ``rounds_per_s`` and ``parallel.step_redundancy`` keep
their meaning when the engine changes.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from math import comb


def adjacency_from_edges(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def diameter(adj) -> int:
    best = 0
    for src in range(len(adj)):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        best = max(best, max(dist.values()))
    return best


def step(adj, x: tuple[int, ...]) -> tuple[int, ...]:
    nxt = list(x)
    for v, nbrs in enumerate(adj):
        d = len(nbrs)
        if d and x[v] >= d:
            nxt[v] -= d
            for u in nbrs:
                nxt[u] += 1
    return tuple(nxt)


def orbit(adj, start: tuple[int, ...]) -> tuple[int, int, list[tuple[int, ...]]]:
    """(preperiod, period, cycle states) of the orbit from start."""
    seen = {start: 0}
    states = [start]
    x = start
    while True:
        x = step(adj, x)
        j = seen.get(x)
        if j is not None:
            return j, len(states) - j, states[j:]
        seen[x] = len(states)
        states.append(x)


def compositions(n: int, c: int):
    """Weak compositions of c into n parts, ascending lexicographic order."""
    if n == 1:
        yield (c,)
        return
    for first in range(c + 1):
        for rest in compositions(n - 1, c - first):
            yield (first,) + rest


def count_compositions(n: int, c: int) -> int:
    return comb(c + n - 1, n - 1)


_CYCLE6 = adjacency_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
_CALIBRATION_STARTS = list(islice(compositions(6, 18), 0, None, 64))


def calibration_unit() -> int:
    """A fixed amount of pure-Python work of the same kind as the package's.

    Its time tracks how fast the machine runs such code at the moment; it
    shares no code with the package, so a change to the package leaves it
    alone.  Returns the number of states walked.
    """
    return sum(sum(orbit(_CYCLE6, x)[:2]) for x in _CALIBRATION_STARTS)
