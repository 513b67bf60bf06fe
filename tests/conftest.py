"""Shared fixtures and an independent reference simulator.

The reference below is deliberately written in a different style from
the package (dict-of-sets adjacency, list rebuilding, no caching) so the
two implementations can only agree by both being correct.
"""

from math import comb

import pytest

import chipfire as cf
from chipfire import parallel
from chipfire.rng import mix64


def reference_coins(seed, p, count):
    """count chance(p) coins of the splitmix64 stream seeded with seed,
    drawn one scalar word at a time, and the state they leave behind."""
    state = seed % 2**64
    coins = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        coins.append(1 if (mix64(state) >> 11) < p * 2**53 else 0)
    return bytes(coins), state


def neighbor_map(g):
    return {v: set(g.adjacency[v]) for v in range(g.n)}


def naive_round(neighbors, candy):
    firing = {
        v
        for v, pile in enumerate(candy)
        if len(neighbors[v]) > 0 and pile >= len(neighbors[v])
    }
    out = []
    for v, pile in enumerate(candy):
        sent = len(neighbors[v]) if v in firing else 0
        received = sum(1 for u in neighbors[v] if u in firing)
        out.append(pile - sent + received)
    return out, firing


def naive_orbit(g, candy, limit=100_000):
    """(preperiod, period) by remembering every visited state."""
    neighbors = neighbor_map(g)
    seen = {}
    x = list(candy)
    t = 0
    while tuple(x) not in seen:
        seen[tuple(x)] = t
        x, _ = naive_round(neighbors, x)
        t += 1
        assert t <= limit, "orbit blew past the test limit"
    first = seen[tuple(x)]
    return first, t - first


def count_steps(monkeypatch):
    """Count the rounds stepped through parallel's module-global kernel."""
    calls = [0]
    kernel = parallel._step_raw

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(parallel, "_step_raw", counted)
    return calls


def reference_unrank(n, c, rank):
    """The rank-th weak composition of c into n parts, lexicographically.

    Counts every block afresh with math.comb, one binomial per candidate
    value, so it shares no update rule with the package's ranking.
    """
    parts = []
    left = c
    for later in range(n - 1, 0, -1):
        v = 0
        while rank >= comb(left - v + later - 1, later - 1):
            rank -= comb(left - v + later - 1, later - 1)
            v += 1
        parts.append(v)
        left -= v
    parts.append(left)
    return tuple(parts)


@pytest.fixture
def c3():
    return cf.generate("cycle", 3)


@pytest.fixture
def c4():
    return cf.generate("cycle", 4)


@pytest.fixture
def p3():
    return cf.generate("path", 3)


@pytest.fixture
def p4():
    return cf.generate("path", 4)


@pytest.fixture
def star4():
    # the 3-leaf star: center 0, leaves 1..3
    return cf.generate("star", 4)


@pytest.fixture
def k2():
    return cf.generate("path", 2)
