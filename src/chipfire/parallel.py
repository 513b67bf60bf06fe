"""Synchronous candy-passing engine.

One round: every vertex holding at least as much candy as its degree
fires, sending one candy along each incident edge; all firings in a round
are simultaneous.  A vertex of degree 0 never fires.  Rounds are
numbered from 1, the initial configuration is round 0.  A configuration
is stable once it will never change again; because the update is
deterministic, that is exactly "one round changes nothing".

All candy arithmetic is plain Python integers, so totals are exact at any
magnitude.  The inner loop works on bare tuples; the dataclass wrappers
appear only at the API boundary.

The round kernel, _step_raw, compares the configuration with the graph's
threshold tuple Graph.fire_at (the degree, or math.inf for a degree-0
vertex) in one C-level pass, so it picks the firing vertices without a
per-vertex Python test and the degree-0 rule costs nothing per round.
It then updates from the smaller side in Python.  A round where every
vertex fires changes nothing; when at most a quarter of the vertices do
not fire, it updates those and their neighbours, and otherwise the fired
vertices and theirs.

classify, the checks' record (_record_orbit) and the "stabilizes" and
battery scans read one walk, _walk: a visited map up to the first
repeated state, each state hashed once, past the state cap Brent's
constant-memory finder.  A "stabilizes" scan passes an orbit that ends
at a fixed point on the bare walk and classifies only one that does not.
Its scan (oracle._scan) calls the check in ascending lex order of the
compositions and stops at the first failure, so _walk takes a floor: the
walk stops, passed, at its first state below the composition it started
from, which the scan has already passed, before that state is hashed;
other walks pass no floor.  The record steps a capped walk on to its
first repeat and copies a cycle's second period (_complete_record, which
a battery scan applies to its own walk).  That record is the checks'
only input: a GameTrace, which run records for output, is never
checked, and it derives one view from its fired tuples, the pass counts
at a round (pass_at).  Every cap is checked once, in _default_state_cap.

trace_csv formats each distinct vertex index and candy value of a trace
once, into a string table its rows are joined from."""

from __future__ import annotations

import enum
import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from operator import ge, index, lt
from typing import Sequence, Union

from .errors import ResourceExhausted, SizeMismatch
from .graph import Graph

DEFAULT_STATE_CAP = 1_000_000
STATE_CAP_ENV = "CHIPFIRE_STATE_CAP"
_BRENT_BUDGET_FACTOR = 64


@dataclass(frozen=True)
class Configuration:
    """Per-vertex candy counts plus their (conserved) total."""

    candy: tuple[int, ...]
    total: int

    @classmethod
    def of(cls, values: Sequence[int]) -> "Configuration":
        """The configuration of these per-vertex counts.

        Each count must be an int, or of a type with __index__ (a numpy
        integer, say); a bool is taken as the int it is (True is 1).  A
        float, even an integral one, a string or None is refused with a
        ValueError naming it, never truncated, and so is a negative
        count.
        """
        try:
            candy = tuple(map(index, values))
        except TypeError:
            for v in values:
                try:
                    index(v)
                except TypeError:
                    raise ValueError(f"candy count {v!r} is not an integer") from None
            raise
        if min(candy, default=0) < 0:
            first = next(v for v in candy if v < 0)
            raise ValueError(f"negative candy count {first}")
        return cls(candy, sum(candy))

    def __len__(self) -> int:
        return len(self.candy)


class StopReason(enum.Enum):
    FIXED_POINT = "fixed_point"
    BUDGET = "budget"


@dataclass(frozen=True)
class RoundRecord:
    """Round t: the ascending tuple of vertices that fired, as _step_raw
    returns it, and the configuration after the round."""

    t: int
    fired: tuple[int, ...]
    config: Configuration


@dataclass(frozen=True)
class GameTrace:
    """Everything a run observed, each round once: its fired tuple and the
    configuration after it.  Pass counts (how often each vertex has fired
    by round t) are counted from the fired tuples by pass_at."""

    initial: Configuration
    rounds: tuple[RoundRecord, ...]
    stop: StopReason

    @property
    def n(self) -> int:
        return len(self.initial.candy)

    @property
    def final(self) -> Configuration:
        return self.rounds[-1].config if self.rounds else self.initial

    @property
    def stab_round(self) -> Union[int, None]:
        """First round index whose configuration equals all later ones.

        Only known when the run ended at a fixed point; the detecting
        round re-produced its predecessor, so stabilization happened one
        round earlier.
        """
        if self.stop is not StopReason.FIXED_POINT:
            return None
        return len(self.rounds) - 1

    def _round_index(self, t: int) -> int:
        if not 0 <= t <= len(self.rounds):
            raise IndexError(f"round {t} outside 0..{len(self.rounds)}")
        return t

    def config_at(self, t: int) -> Configuration:
        """The configuration after round t (0 is the start)."""
        return self.rounds[self._round_index(t) - 1].config if t else self.initial

    def pass_at(self, t: int) -> tuple[int, ...]:
        """How often each vertex has fired in rounds 1..t, counted from
        the fired tuples."""
        counts = Counter(chain.from_iterable(
            rec.fired for rec in self.rounds[:self._round_index(t)]))
        return tuple(map(counts.__getitem__, range(self.n)))


@dataclass(frozen=True)
class Stabilized:
    stab_round: int
    fixed: Configuration


@dataclass(frozen=True)
class EventuallyPeriodic:
    preperiod: int
    period: int  # always >= 2; period 1 is Stabilized


Outcome = Union[Stabilized, EventuallyPeriodic]


def _coerce(g: Graph, conf) -> tuple[int, ...]:
    candy = conf.candy if isinstance(conf, Configuration) else Configuration.of(conf).candy
    if len(candy) != g.n:
        raise SizeMismatch(f"configuration has {len(candy)} entries for n={g.n}")
    return candy


def _step_raw(adjacency, degree, fire_at, conf):
    """One synchronous round on a bare tuple; returns (next, fired tuple).

    fire_at is the graph's Graph.fire_at: vertex v fires when conf[v] >=
    fire_at[v], which is its degree, or math.inf for a degree-0 vertex so
    that it never fires.  The fired tuple is ascending.  conf itself comes
    back when nothing fires, and also when every vertex fires, since then
    each vertex sends and receives its degree.  When at most a quarter of
    the vertices do not fire, the round is applied from that side: against
    conf, which is the round where all fire, each vertex that does not fire
    keeps its degree and each of its neighbours misses one candy.  Listing
    those vertices costs a second pass, so that side is taken only when
    it is clearly the smaller.
    """
    n = len(conf)
    fired = tuple(compress(range(n), map(ge, conf, fire_at)))
    quiet = n - len(fired)
    if not fired or not quiet:
        return conf, fired
    nxt = list(conf)
    if 4 * quiet <= n:
        for v in compress(range(n), map(lt, conf, fire_at)):
            nxt[v] += degree[v]
            for u in adjacency[v]:
                nxt[u] -= 1
    else:
        for v in fired:
            nxt[v] -= degree[v]
            for u in adjacency[v]:
                nxt[u] += 1
    return tuple(nxt), fired


def step(g: Graph, conf) -> tuple[Configuration, tuple[int, ...]]:
    """Apply one round; returns the next configuration and the ascending
    tuple of vertices that fired, as _step_raw gives them."""
    candy = _coerce(g, conf)
    nxt, fired = _step_raw(g.adjacency, g.degree, g.fire_at, candy)
    return Configuration.of(nxt), fired


def run(g: Graph, init, max_rounds: int) -> GameTrace:
    """Simulate up to max_rounds rounds, stopping once a round changes nothing.

    The trace includes the detecting round, so a game that stabilizes at
    round s has s + 1 recorded rounds.  A trace holds at most as many
    rounds as the state cap (CHIPFIRE_STATE_CAP); a game that needs more
    raises ResourceExhausted before the first round past it is recorded.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    prev = _coerce(g, init)
    initial = Configuration.of(prev)
    total = initial.total
    cap = _default_state_cap()
    adjacency, degree, fire_at = g.adjacency, g.degree, g.fire_at
    rounds: list[RoundRecord] = []
    stop = StopReason.BUDGET
    for t in range(1, max_rounds + 1):
        if t > cap:
            raise ResourceExhausted(f"trace would exceed {cap} recorded rounds")
        nxt, fired = _step_raw(adjacency, degree, fire_at, prev)
        # a step from the validated start keeps the total and non-negative ints
        rounds.append(RoundRecord(t, fired, Configuration(nxt, total)))
        if nxt == prev:
            stop = StopReason.FIXED_POINT
            break
        prev = nxt
    return GameTrace(initial, tuple(rounds), stop)


def _default_state_cap(state_cap=None, step_cap=None) -> int:
    """state_cap, else CHIPFIRE_STATE_CAP, else the default, checked before
    any step: a cap below 1 or a negative step_cap is a ValueError."""
    if step_cap is not None and step_cap < 0:
        raise ValueError("step_cap must be >= 0")
    name = "state_cap"
    if state_cap is None:
        raw = os.environ.get(STATE_CAP_ENV)
        if raw is None:
            return DEFAULT_STATE_CAP
        try:
            state_cap = int(raw)
        except ValueError:
            raise ValueError(f"{STATE_CAP_ENV} must be an integer, got {raw!r}") from None
        name = STATE_CAP_ENV
    if state_cap < 1:
        raise ValueError(f"{name} must be >= 1")
    return state_cap


def _walk(g: Graph, candy, cap, budget, floor=()):
    """Step the orbit of candy once, up to its first repeated state.

    Returns (states, fired, preperiod, period, entry): states[t] is the
    state after t rounds, fired[t - 1] what fired in round t, and entry
    the state at round preperiod.  Each state is hashed once: setdefault
    maps a new state to its round and hands back the round of a repeated
    one.  Once cap states are mapped the walk stops at round cap and
    _brent, within budget steps, finds the rest.

    A walk with a floor returns None at the first state below it (plain
    tuple order), before that state is hashed; a "stabilizes" scan passes
    such a state's orbit already.  The default floor, (), is below every
    state, so a walk without one never stops there.
    """
    adjacency, degree, fire_at = g.adjacency, g.degree, g.fire_at
    seen = {candy: 0}  # insertion order is orbit order
    mark = seen.setdefault
    fired = []
    x = candy
    for t in range(1, cap + 1):
        x, f = _step_raw(adjacency, degree, fire_at, x)
        if x < floor:
            return None
        fired.append(f)
        preperiod = mark(x, t)
        if preperiod != t:
            period, entry = t - preperiod, x
            break
    else:
        seen.popitem()  # round cap's state: the map keeps cap states
        preperiod, period, entry = _brent(g, candy, budget)
    return [*seen, x], fired, preperiod, period, entry


def classify(g: Graph, init, state_cap=None, step_cap=None) -> Outcome:
    """Exact long-run behavior of the orbit: stabilizes or oscillates.

    One _walk: a visited map while the orbit fits under state_cap (at
    least 1; CHIPFIRE_STATE_CAP overrides the default), then constant-memory
    pointer chasing bounded by step_cap (at least 0, default 64x the state
    cap).  Either way preperiod and period are exact.
    """
    candy = _coerce(g, init)
    cap = _default_state_cap(state_cap, step_cap)
    budget = _BRENT_BUDGET_FACTOR * cap if step_cap is None else step_cap
    _, _, preperiod, period, entry = _walk(g, candy, cap, budget)
    if period == 1:
        # a step keeps the total and non-negative ints: no re-validation
        return Stabilized(stab_round=preperiod, fixed=Configuration(entry, sum(candy)))
    return EventuallyPeriodic(preperiod=preperiod, period=period)


def _record_orbit(g: Graph, init, state_cap=None):
    """classify's _walk, completed into the record the checks fold over."""
    candy = _coerce(g, init)
    cap = _default_state_cap(state_cap)
    return _complete_record(g, _walk(g, candy, cap, _BRENT_BUDGET_FACTOR * cap))


def _complete_record(g: Graph, walk):
    """The record the checks fold over, completed from one _walk in place.

    Returns (states, fired, preperiod, period) as _walk does, through the
    round that detects a fixed point or through preperiod plus two periods
    of a cycle: a walk stopped at the cap steps on to its first repeat,
    then a cycle's second period is copied from the first, not stepped.
    """
    states, fired, preperiod, period, _ = walk
    while len(fired) < preperiod + period:  # the walk stopped at the cap
        x, f = _step_raw(g.adjacency, g.degree, g.fire_at, states[-1])
        states.append(x)
        fired.append(f)
    if period > 1:
        states += states[preperiod + 1:]
        fired += fired[preperiod:]
    return states, fired, preperiod, period


def _brent(g: Graph, start, budget):
    """Constant-memory cycle detection; returns (preperiod, period, entry state)."""
    adjacency, degree, fire_at = g.adjacency, g.degree, g.fire_at
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        if evals > budget:
            raise ResourceExhausted(f"orbit walk exceeded {budget} steps")
        return _step_raw(adjacency, degree, fire_at, x)[0]

    power = lam = 1
    tortoise = start
    hare = f(start)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = f(hare)
        lam += 1
    tortoise = hare = start
    for _ in range(lam):
        hare = f(hare)
    mu = 0
    while tortoise != hare:
        tortoise = f(tortoise)
        hare = f(hare)
        mu += 1
    return mu, lam, tortoise


def trace_csv(trace: GameTrace) -> str:
    """Delimited trace: one row per round plus a t=0 row for the start.

    For n <= 64 the fired set is a hex bitmask (bit v set when v fired);
    larger graphs get a semicolon-joined index list instead.  Each
    distinct vertex index and candy value is formatted once, into a table
    the rows are joined from.
    """
    n = trace.n
    use_mask = n <= 64
    fired_col = "fired_bitmask_hex" if use_mask else "fired_list"
    header = ["t", "fired_count", fired_col] + [f"candy_{v}" for v in range(n)]
    values = set(range(n + 1)).union(
        trace.initial.candy, *[rec.config.candy for rec in trace.rounds])
    shown = dict(zip(values, map(str, values))).__getitem__
    bit = [1 << v for v in range(n)].__getitem__
    lines = [",".join(header)]
    rows = chain([(0, (), trace.initial.candy)],
                 ((rec.t, rec.fired, rec.config.candy) for rec in trace.rounds))
    for t, fired, candy in rows:
        if use_mask:
            column = hex(sum(map(bit, fired)))
        else:
            column = ";".join(map(shown, sorted(fired)))
        lines.append(",".join([str(t), shown(len(fired)), column, *map(shown, candy)]))
    lines.append("")  # the closing newline, without copying the joined text
    return "\n".join(lines)
