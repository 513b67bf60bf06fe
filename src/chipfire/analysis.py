"""Verification of the stabilization theory against simulated games.

Every check here turns one mathematical claim into a finite, exact test
over a recorded orbit:

- core invariants: candy conservation, firing never gains, the set of
  vertices holding at least twice their degree only shrinks;
- pass-count gaps: adjacent vertices' cumulative fire counts differ by at
  most c at every round, and any pair by at most dist(u, w) * c;
- always-firing battery (needs c >= 4m - n): every round fires someone,
  some vertex fires in every round, and whenever a vertex is short
  (<= 2deg - 2) another holds a surplus (>= 2deg);
- stabilization bound (same gate): the game reaches its fixed point
  within n * diameter * c rounds and no vertex idles more than
  diameter * c consecutive rounds before stabilization.

The checks have one way in, the battery.  It walks each orbit once
(parallel._record_orbit, or _complete_record over a scan's own _walk),
keeping the states 0..T and the ascending tuple each round fired: the
whole game for a stabilizing configuration, preperiod plus two periods
for an oscillating one.  Each check family is one fold over that record,
and _battery_fold, the folds' one caller, calls the four in report order
(CHECK_ORDER); below c = 4m - n it builds the firing and bound rows
(_ABOVE_THRESHOLD) as not_applicable itself.  A GameTrace from run is
not checked.

Each fold returns its finished rows and nothing else: a passing row
with its details (the always-firing witness vertex, the stab_round
within its bound), a failing row with its counterexample.  Nothing is
added to a row afterwards.  verify_battery's metadata is read off the
same record, with the bound, slack and witness from the helpers the
folds call (_bound_and_slack, _always_firing_witness) and the abundance
counts from _abundant_count.  A battery scan reads each composition's
verdict off its one walk (_battery_scan) and folds rows (_battery_fold)
only for a composition that fails or that the verdict loop cannot
settle.  sweep_experiment reads each row off one record of its orbit
with the same helpers and runs no fold, so a row says what the
battery's metadata would.  The per-graph constants the folds read (the
abundance bars 2 * deg, the short bars 2 * deg - 2, the edge endpoints
as two columns) are cached on the Graph (twice_degree, short_bar,
edge_ends).

verify_corpus, in both modes, and oracle.exhaustive_verify, and so
threshold_probe's scan of each total, run one scan loop, oracle._scan,
whose docstring states the scan contract.  Its checks are registered
here (_NAMED_SCANS), and there are two: each is set up once per scan
(the graph gate and the state cap) and trusts each composition it is
given.  "stabilizes" walks it once with the scan's caps (parallel._walk)
and classifies it only when it does not stabilize, and the battery walks
it once the same way and reads its verdict off the walk.  In a lex order
scan a "stabilizes" walk stops, passed, at its first state below its
composition (the lex-order exit).  NAMED_CHECKS[name](g, comp)
validates its one composition and runs the same set-up and check on it.
A name is resolved through _NAMED_SCANS, which NAMED_CHECKS is built
from, so replacing an entry of NAMED_CHECKS does not change what a scan
runs.

Checks report pass / fail / not_applicable; not_applicable means the
claim's precondition is unmet and is never silently folded into pass.
Traces are finite but sufficient: once an above-threshold game reaches
its fixed point every vertex fires every round, so rounds beyond the
recorded ones repeat the final state exactly.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from operator import attrgetter, ge, le, sub
from typing import Iterable, Optional, Sequence

from .errors import Disconnected, InvalidGraph
from .graph import Graph, stabilization_threshold
from .oracle import (
    DEFAULT_ENUM_CAP,
    _scan,
    compositions_count,
    enumerate_configs,
    exhaustive_verify,
    random_config,
)
from .parallel import (
    _BRENT_BUDGET_FACTOR,
    Configuration,
    _as_count,
    _coerce,
    _complete_record,
    _default_state_cap,
    _record_orbit,
    _step_raw,
    _walk,
    classify,
)
from .rng import SplitMix64, derive_seed


# the battery's rows in report order, one line per claim family
CHECK_ORDER = (
    "conservation", "no_gain", "abundant_monotone",
    "adjacent_pass_gap", "pairwise_pass_gap",
    "fired_nonempty", "always_firing", "surplus_pigeonhole",
    "stabilized_within_bound", "idle_gap",
    "stabilizes",
)

# the firing and bound rows need c >= 4m - n; below it they are not_applicable
_ABOVE_THRESHOLD = (
    "fired_nonempty", "always_firing", "surplus_pigeonhole", "stabilized_within_bound", "idle_gap"
)

FINITE_CHECK_NOTE = (
    "checked through stabilization: at the fixed point of an above-threshold "
    "game every vertex fires every round, so later rounds repeat the recorded "
    "final state"
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    counterexample: Optional[dict] = None
    detail: str = ""


_status = attrgetter("status")


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return FAIL not in map(_status, self.checks)

    def get(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "counterexample": c.counterexample,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "metadata": self.metadata,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def _gate(g: Graph) -> None:
    """All claim-level checks assume a validated, connected, non-degenerate graph.

    The verdict is g.validation, so a graph is validated once however many
    configurations are checked on it.
    """
    report = g.validation
    if not (report.simple and report.degree_sum_ok):
        raise InvalidGraph("graph failed structural validation")
    if not report.connected:
        raise Disconnected("analysis checks require a connected graph")
    if report.degenerate:
        raise InvalidGraph("analysis checks require n >= 2")


def _abundant_count(candy: Sequence[int], twice: Sequence[int]) -> int:
    return sum(map(ge, candy, twice))


# ---------------------------------------------------------------------------
# check families: folds over an orbit's states (states[t] after t rounds)
# and fired sets (fired[t - 1] fired in round t), with stab the round the
# orbit reached its fixed point (None if it never did); each returns its
# finished rows, a pass with its details and a failure with its
# counterexample


def _core_checks(g: Graph, c: int, states, fired, stab) -> list[CheckResult]:
    twice = g.twice_degree
    conservation = no_gain = monotone = None
    prev = None
    for t, cur in enumerate(states):
        if conservation is None and sum(cur) != c:
            conservation = CheckResult(
                "conservation",
                FAIL,
                {"round": t, "observed": sum(cur), "expected": c},
            )
        if t and no_gain is None:
            f = fired[t - 1]
            for v in f:  # ascending, so the lowest vertex that gained
                if cur[v] > prev[v]:
                    no_gain = CheckResult(
                        "no_gain",
                        FAIL,
                        {"round": t, "vertex": v, "before": prev[v], "after": cur[v]},
                    )
                    break
        if t and monotone is None:
            for v, bar in enumerate(twice):
                if cur[v] >= bar > prev[v]:
                    monotone = CheckResult(
                        "abundant_monotone",
                        FAIL,
                        {"round": t, "vertex": v, "before": prev[v], "after": cur[v]},
                    )
                    break
        if conservation and no_gain and monotone:
            break
        prev = cur
    return [
        conservation or CheckResult("conservation", PASS),
        no_gain or CheckResult("no_gain", PASS),
        monotone or CheckResult("abundant_monotone", PASS),
    ]


def _gap_checks(g: Graph, c: int, states, fired, stab) -> list[CheckResult]:
    """Cumulative fire-count gaps, read only at rounds that can fail.

    Along a shortest path a pair's gap is at most the sum of its edge
    gaps, so no pair exceeds dist * c in a round where every edge is
    within c; and an edge is itself a pair at distance 1.  Both checks
    therefore first fail in the same round, the first whose largest edge
    gap exceeds c, and the all-pairs scan runs only there: pairs in
    combinations order, with one BFS per source row it reaches.

    A vertex fires at most once a round, so no edge gap grows by more
    than 1 a round.  Rounds up to c cannot fail, and a record no longer
    than c is not read.  Otherwise the fold jumps between checkpoints:
    the first is round c + 1, and after a checkpoint t whose largest edge
    gap is G <= c no edge can exceed c before round t + c - G + 1, the
    next one.  The pass counts are advanced over the skipped rounds with
    one C-level count and the largest edge gap is one C-level max, so a
    checkpoint that exceeds c does so by exactly 1 and is the first
    failing round; the first edge over c is looked up only there.
    """
    if len(fired) > c:
        us, ws = g.edge_ends
        cum = Counter(dict.fromkeys(range(g.n), 0))
        count = cum.__getitem__
        rounds = iter(fired)
        t, nxt = 0, c + 1
        while nxt <= len(fired):
            cum.update(chain.from_iterable(islice(rounds, nxt - t)))
            t = nxt
            gap = max(map(abs, map(sub, map(count, us), map(count, ws))))
            if gap > c:
                eu, ew = next((u, w) for u, w in g.edges if abs(cum[u] - cum[w]) > c)
                u, w, bound = next(
                    (u, w, dist[w] * c)
                    for u in range(g.n)
                    for dist in (g.distances_from(u),)
                    for w in range(u + 1, g.n)
                    if abs(cum[u] - cum[w]) > dist[w] * c
                )
                return [
                    CheckResult(
                        "adjacent_pass_gap",
                        FAIL,
                        {
                            "round": t,
                            "pair": [eu, ew],
                            "observed": abs(cum[eu] - cum[ew]),
                            "bound": c,
                        },
                    ),
                    CheckResult(
                        "pairwise_pass_gap",
                        FAIL,
                        {
                            "round": t,
                            "pair": [u, w],
                            "observed": abs(cum[u] - cum[w]),
                            "bound": bound,
                        },
                    ),
                ]
            nxt = t + c - gap + 1
    return [CheckResult("adjacent_pass_gap", PASS), CheckResult("pairwise_pass_gap", PASS)]


def _always_firing_witness(n: int, fired) -> Optional[int]:
    """The always-firing witness: the least vertex in every fired tuple,
    None if there is none."""
    common = set(range(n)).intersection(*fired)
    return min(common) if common else None


def _firing_checks(g: Graph, c: int, states, fired, stab) -> list[CheckResult]:
    """The three above-threshold firing guarantees; a passing always_firing
    row names its witness vertex (_always_firing_witness).

    The first two are C-level passes over the fired sets; the round where
    one first fails is looked up only when it fails.
    """
    nonempty = CheckResult("fired_nonempty", PASS)
    if not all(fired):
        t = next(t for t, f in enumerate(fired, 1) if not f)
        nonempty = CheckResult("fired_nonempty", FAIL, {"round": t})
    witness = _always_firing_witness(g.n, fired)
    if witness is not None:
        always = CheckResult("always_firing", PASS, detail=f"witness vertex {witness}")
    else:
        common = set(range(g.n))
        for t, f in enumerate(fired, 1):
            common.intersection_update(f)
            if not common:
                break
        always = CheckResult("always_firing", FAIL, {"empty_after_round": t})
    twice, short = g.twice_degree, g.short_bar
    pigeonhole = CheckResult("surplus_pigeonhole", PASS)
    for t, candy in enumerate(states):
        if any(map(le, candy, short)) and not any(map(ge, candy, twice)):
            deficient = next(v for v in range(g.n) if candy[v] <= short[v])
            pigeonhole = CheckResult(
                "surplus_pigeonhole",
                FAIL,
                {"round": t, "deficient_vertex": deficient},
            )
            break
    return [nonempty, always, pigeonhole]


def _bound_and_slack(g: Graph, c: int, stab: Optional[int]) -> tuple[int, Optional[int]]:
    """The round bound n * d * c, and its slack over the stab round
    (None when the orbit did not stabilize)."""
    bound = g.n * g.diameter * c
    return bound, None if stab is None else bound - stab


def _bound_checks(g: Graph, c: int, states, fired, stab) -> list[CheckResult]:
    """Round bound n * d * c and idle gaps capped at d * c; a passing
    stabilized_within_bound row names the stab round and the bound.

    No vertex idles longer than stab rounds before round stab, so the
    idle runs are measured only when stab exceeds d * c.
    """
    bound = _bound_and_slack(g, c, stab)[0]
    gap_bound = g.diameter * c
    if stab is None or stab > bound:
        fail = {
            "config": list(states[0]),
            "stab_round": stab,
            "bound": bound,
        }
        return [
            CheckResult("stabilized_within_bound", FAIL, fail),
            CheckResult("idle_gap", FAIL, fail),
        ]
    within = CheckResult("stabilized_within_bound", PASS, detail=f"stab_round {stab} <= {bound}")
    idle = CheckResult("idle_gap", PASS)
    if stab <= gap_bound:
        return [within, idle]
    # longest run of idle rounds per vertex within rounds 1..stab, in one pass
    last = [0] * g.n  # round each vertex last fired, 0 before the first round
    longest = [0] * g.n
    for t, f in enumerate(islice(fired, stab), 1):
        for v in f:
            gap = t - last[v] - 1
            if gap > longest[v]:
                longest[v] = gap
            last[v] = t
    for v in range(g.n):
        gap = max(longest[v], stab - last[v])
        if gap > gap_bound:
            idle = CheckResult(
                "idle_gap",
                FAIL,
                {"vertex": v, "observed": gap, "bound": gap_bound},
            )
            break
    return [within, idle]


# ---------------------------------------------------------------------------
# the full battery: one walk of the orbit, every check folded over it


def _battery_fold(g: Graph, c: int, threshold: int, states, fired, preperiod, period):
    """The battery's rows, in CHECK_ORDER, folded over one record of an
    orbit; below threshold (4m - n) the firing and bound rows are
    not_applicable and their folds do not run.  Each fold is called by its
    module-global name, looked up at each call, so a fold rebound on the
    module (a tracing wrapper, say) is the one that runs.
    """
    stab = preperiod if period == 1 else None
    rows = _core_checks(g, c, states, fired, stab) + _gap_checks(g, c, states, fired, stab)
    if c >= threshold:
        rows += _firing_checks(g, c, states, fired, stab)
        rows += _bound_checks(g, c, states, fired, stab)
    else:
        detail = f"c={c} below threshold {threshold}"
        rows += [CheckResult(row, NOT_APPLICABLE, detail=detail) for row in _ABOVE_THRESHOLD]
    if period == 1:
        rows.append(CheckResult("stabilizes", PASS))
    else:
        cycle_min = min(states[preperiod:preperiod + period])
        rows.append(
            CheckResult(
                "stabilizes",
                FAIL,
                {
                    "config": list(states[0]),
                    "preperiod": preperiod,
                    "period": period,
                    "cycle_min": list(cycle_min),
                },
            )
        )
    return rows


def verify_battery(g: Graph, config, state_cap: Optional[int] = None) -> VerificationReport:
    """Classify one configuration exactly and run every check on its orbit.

    The orbit is walked once.  Its record is the whole game for
    stabilizing configurations and preperiod + two full periods for
    oscillating ones, which exercises every reachable state of the orbit.
    state_cap bounds the walk's visited map as it bounds classify's.  The
    rows are the folds' own; the metadata is read off the same record, the
    bound, slack and witness (at c >= 4m - n only) as sweep_experiment's.
    """
    _gate(g)
    initial = config if isinstance(config, Configuration) else Configuration.of(config)
    c = initial.total
    threshold = stabilization_threshold(g)
    states, fired, preperiod, period = _record_orbit(g, initial, state_cap)
    rows = _battery_fold(g, c, threshold, states, fired, preperiod, period)
    stabilized = period == 1
    bound = gap_bound = slack = witness = None
    if c >= threshold:
        bound, slack = _bound_and_slack(g, c, preperiod if stabilized else None)
        gap_bound = g.diameter * c
        witness = _always_firing_witness(g.n, fired)
    metadata = {
        "graph": {"n": g.n, "m": g.m, "diameter": g.diameter, "connected": g.connected},
        "c": c,
        "threshold": threshold,
        "bound": bound,
        "gap_bound": gap_bound,
        "outcome": "stabilized" if stabilized else "periodic",
        "stab_round": preperiod if stabilized else None,
        "preperiod": None if stabilized else preperiod,
        "period": None if stabilized else period,
        "slack": slack,
        "always_firing_witness": witness,
        "abundant_start": _abundant_count(initial.candy, g.twice_degree),
        "abundant_end": _abundant_count(states[-1], g.twice_degree),
        "rounds_recorded": len(fired),
        "finite_check_note": FINITE_CHECK_NOTE,
    }
    return VerificationReport(tuple(rows), metadata)


def _cycle_states(g: Graph, entry: tuple[int, ...], period: int):
    """The period states of a cycle, stepped from its entry state."""
    adjacency, degree, fire_at = g.adjacency, g.degree, g.fire_at
    x = entry
    states = []
    for _ in range(period):
        states.append(x)
        x, _f = _step_raw(adjacency, degree, fire_at, x)
    return states


# ---------------------------------------------------------------------------
# named checks for oracle.exhaustive_verify: each is set up once per scan
# (_NAMED_SCANS) into a check of one enumerated composition, and
# NAMED_CHECKS[name](g, comp) is a scan of the one validated composition


def _stabilizes_scan(g: Graph, c: int):
    """The set-up of a "stabilizes" scan, whose check walks each orbit once
    with the scan's caps (_walk) and passes it when the walk ends at a fixed
    point, with no Configuration and no outcome built.  An orbit that does
    not stabilize is classified as a Configuration of c, and its witness is
    the least state of its cycle, stepped from the walk's cycle entry.

    Lex-order exit: once the check has been called on the lex-least
    composition (0, ..., 0, c), it is taken to be called in a lex order
    scan (oracle._scan's contract), and each walk passes at its first
    state below the composition it started from.  Every state has total
    c, so that state is a composition the scan has already passed.  A
    state on a cycle is never one, so a failing composition's walk, and
    its witness, are the same as without the exit, and the walk holds its
    cycle entry.  A check called first on any other composition walks
    every orbit whole."""
    cap = _default_state_cap()
    budget = _BRENT_BUDGET_FACTOR * cap
    least = (0,) * (g.n - 1) + (c,)
    scanning = False

    def check(comp) -> Optional[dict]:
        nonlocal scanning
        scanning = scanning or comp == least
        walk = _walk(g, comp, cap, budget, comp if scanning else ())
        if walk is None or walk[3] == 1:
            return None
        outcome = classify(g, Configuration(comp, c), cap, budget)
        return {
            "kind": "periodic",
            "preperiod": outcome.preperiod,
            "period": outcome.period,
            "witness_config": min(_cycle_states(g, walk[4], outcome.period)),
        }

    return check


def _battery_scan(g: Graph, c: int, state_cap: Optional[int] = None):
    """The set-up of a battery scan, whose check gives the first failing
    row of the whole battery on each orbit.  state_cap, when given,
    overrides CHIPFIRE_STATE_CAP as in verify_corpus.

    The check walks each composition once (_walk, with the scan's cap and
    budget) and reads its verdict off that walk in one loop over its
    states and fired tuples: conservation, no_gain and abundant_monotone
    at every c; at c >= 4m - n also fired_nonempty, a nonempty
    intersection of the fired sets (always_firing) and
    surplus_pigeonhole.  A walk it passes ended at a fixed point
    (stabilizes) within c rounds, so no pass-count gap can exceed c, and
    its stab round is below c <= d * c (d >= 1 on a gated graph), so both
    bound rows pass: that walk passes the whole battery.  Rows are built
    only for a composition the loop does not settle: one that fails a
    predicate, is periodic, stopped at the state cap or ran more than c
    rounds.  They are the battery's folds over the record its one walk
    completes (_complete_record), so the check walks no composition
    twice, and it returns their first failure.
    """
    _gate(g)
    threshold = stabilization_threshold(g)
    cap = _default_state_cap(state_cap)
    budget = _BRENT_BUDGET_FACTOR * cap
    above = c >= threshold
    twice, short = g.twice_degree, g.short_bar
    vertices = range(g.n)
    everyone = set(vertices)

    def passes(states, fired) -> bool:
        prev = states[0]
        if sum(prev) != c:
            return False
        for cur, f in zip(islice(states, 1, None), fired):
            if sum(cur) != c:
                return False
            # only a vertex that gained can break no_gain (if it fired) or
            # abundant_monotone (if it reached its bar)
            for v in vertices:
                if cur[v] > prev[v] and (v in f or cur[v] >= twice[v] > prev[v]):
                    return False
            prev = cur
        if not above:
            return True
        # an empty round empties the intersection: fired_nonempty with it
        if not everyone.intersection(*fired):
            return False
        # the abundant sets only shrink, so a surplus in the last state is
        # one in every state
        return any(map(ge, prev, twice)) or not any(
            any(map(le, s, short)) and not any(map(ge, s, twice)) for s in states
        )

    def check(comp) -> Optional[dict]:
        walk = _walk(g, comp, cap, budget)
        states, fired, preperiod, period, _ = walk
        # a walk stopped at the cap holds fewer rounds than preperiod + 1
        if period == 1 and len(fired) == preperiod + 1 <= c and passes(states, fired):
            return None
        return _first_failure(_battery_fold(g, c, threshold, *_complete_record(g, walk)))

    return check


def _first_failure(checks: Iterable[CheckResult]) -> Optional[dict]:
    for c in checks:
        if c.status == FAIL:
            out = {"check": c.name, **(c.counterexample or {})}
            if c.name == "stabilizes" and "cycle_min" in out:
                out["witness_config"] = tuple(out["cycle_min"])
            return out
    return None


def _one_composition(prepare):
    """The named check of one composition: validated (a negative part is a
    ValueError, a wrong length SizeMismatch), then checked as a scan of one."""

    def check(g: Graph, comp) -> Optional[dict]:
        candy = _coerce(g, comp)
        return prepare(g, sum(candy))(candy)

    return check


_NAMED_SCANS = {
    "stabilizes": _stabilizes_scan,
    "battery": _battery_scan,
}

NAMED_CHECKS = {name: _one_composition(prepare) for name, prepare in _NAMED_SCANS.items()}


# ---------------------------------------------------------------------------
# corpus-level drivers


def verify_corpus(
    g: Graph,
    c: int,
    mode: str = "exhaustive",
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
    state_cap: Optional[int] = None,
) -> dict:
    """Run the full battery over a configuration corpus; JSON-ready result.

    mode "exhaustive" scans every composition in lexicographic order and
    stops at the first failing configuration (hence reports the minimal
    one); mode "sampled" draws `trials` seeded configurations and stops
    at the first failing draw.  Both are oracle._scan with the battery
    scan as the check.  A row's aggregate is read off the failing
    configuration's rows (verify_battery), or, when none fails, off c
    alone: not_applicable is only ever the threshold refusal of the firing
    and bound rows, which depends on c alone.
    """
    _gate(g)
    threshold = stabilization_threshold(g)
    d = g.diameter
    if mode == "exhaustive":
        total = compositions_count(g.n, c)
        configs: Iterable = enumerate_configs(g.n, c, cap=enum_cap)
    elif mode == "sampled":
        if trials is None or seed is None:
            raise ValueError("sampled mode needs trials and seed")
        total = trials = _as_count(trials, "trials")
        configs = (random_config(g.n, c, derive_seed(seed, i)).candy for i in range(trials))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    checked, failing, _ = _scan(g, c, configs, partial(_battery_scan, state_cap=state_cap))
    if failing is None:
        # with nothing checked every row is not_applicable; otherwise a row
        # is not_applicable only by the threshold refusal
        below = c < threshold
        statuses = [
            NOT_APPLICABLE if not checked or (below and name in _ABOVE_THRESHOLD) else PASS
            for name in CHECK_ORDER
        ]
        rows = map(CheckResult, CHECK_ORDER, statuses)
    else:
        rows = verify_battery(g, Configuration(failing, c), state_cap).checks
    agg = []
    for row in rows:
        ce = None
        if row.status == FAIL:
            ce = {"config": list(failing), "index": checked - 1, **(row.counterexample or {})}
        agg.append({"name": row.name, "status": row.status, "first_counterexample": ce})
    return {
        "graph": {"n": g.n, "m": g.m, "diameter": d, "connected": g.connected},
        "c": c,
        "threshold": threshold,
        "round_bound": g.n * d * c if c >= threshold else None,
        "mode": mode,
        "trials": trials,
        "seed": seed,
        "configs_total": total,
        "configs_checked": checked,
        "ok": failing is None,
        "first_failing_config": None if failing is None else list(failing),
        "checks": agg,
        "finite_check_note": FINITE_CHECK_NOTE,
    }


SWEEP_COLUMNS = (
    "n",
    "m",
    "d",
    "c",
    "threshold",
    "trial",
    "outcome",
    "stab_round_or_period",
    "bound",
    "slack",
    "v_star",
    "abundant_start",
    "abundant_end",
)


def sweep_experiment(
    g: Graph,
    c_values: Sequence[int],
    trials: int,
    seed: int,
    state_cap: Optional[int] = None,
) -> list[dict]:
    """One row per (c, trial) with a seeded random configuration, read
    off one record of its orbit: the record verify_battery folds over
    (parallel._complete_record of one _walk), with no fold run and no
    report built.

    The row holds the outcome, the stab round or the period and the round
    bound n * d * c.  Its slack (_bound_and_slack) is -1 for a periodic
    orbit or below 4m - n, and its v_star (_always_firing_witness) is -1
    below 4m - n or when no vertex fired in every round, as in
    verify_battery's metadata.  The abundant counts come from the
    record's first and last states.  The state cap is resolved once,
    after the first draw, as in the scans; a negative trials is a
    ValueError before any draw.

    Output order is fixed by the (c index, trial) key, so identical
    arguments reproduce identical rows byte for byte; trials may in
    principle run concurrently without changing that order.
    """
    _gate(g)
    trials = _as_count(trials, "trials")
    threshold = stabilization_threshold(g)
    d = g.diameter
    twice = g.twice_degree
    rows = []
    cap = budget = None
    for ci, c in enumerate(c_values):
        c = _as_count(c, "c")
        above = c >= threshold
        for trial in range(trials):
            cfg = random_config(g.n, c, derive_seed(seed, ci, trial))
            if cap is None:
                cap = _default_state_cap(state_cap)
                budget = _BRENT_BUDGET_FACTOR * cap
            walk = _walk(g, cfg.candy, cap, budget)
            states, fired, preperiod, period = _complete_record(g, walk)
            stabilized = period == 1
            bound, slack = _bound_and_slack(g, c, preperiod if stabilized else None)
            witness = _always_firing_witness(g.n, fired) if above else None
            rows.append(
                {
                    "n": g.n,
                    "m": g.m,
                    "d": d,
                    "c": c,
                    "threshold": threshold,
                    "trial": trial,
                    "outcome": "stabilized" if stabilized else "periodic",
                    "stab_round_or_period": preperiod if stabilized else period,
                    "bound": bound,
                    "slack": slack if above and stabilized else -1,
                    "v_star": witness if witness is not None else -1,
                    "abundant_start": _abundant_count(cfg.candy, twice),
                    "abundant_end": _abundant_count(states[-1], twice),
                }
            )
    return rows


def _csv(columns: Sequence[str], rows: Iterable[dict]) -> str:
    """A header line of columns, then one line per row, each newline-ended."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row[col]) for col in columns))
    lines.append("")  # the closing newline, without copying the joined text
    return "\n".join(lines)


def sweep_csv(rows: list[dict]) -> str:
    return _csv(SWEEP_COLUMNS, rows)


@dataclass(frozen=True)
class ProbeVerdict:
    c: int
    all_stabilize: bool
    n_configs: int
    counterexample: Optional[dict]


@dataclass(frozen=True)
class ProbeResult:
    """Exhaustive stabilization verdict for every total c <= c_max."""

    verdicts: tuple[ProbeVerdict, ...]
    c_star: Optional[int]  # least c whose whole suffix up to c_max stabilizes
    threshold: int
    c_star_within_threshold: Optional[bool]  # None when c_max < threshold
    monotone: bool

    def to_dict(self) -> dict:
        return {
            "c_star": self.c_star,
            "threshold": self.threshold,
            "c_star_within_threshold": self.c_star_within_threshold,
            "monotone": self.monotone,
            "verdicts": [
                {
                    "c": v.c,
                    "all_stabilize": v.all_stabilize,
                    "n_configs": v.n_configs,
                    "counterexample": v.counterexample,
                }
                for v in self.verdicts
            ],
        }


def threshold_probe(g: Graph, c_max: int, cap: int = DEFAULT_ENUM_CAP) -> ProbeResult:
    """Find the empirical stabilization threshold by exhaustive scan per c.

    c_star is the least c such that every total in [c, c_max] stabilizes
    exhaustively (None when c_max itself fails).  Whether stabilization
    is monotone in c is reported rather than assumed; it genuinely is
    not on small cycles.
    """
    _gate(g)
    c_max = _as_count(c_max, "c_max")
    verdicts = []
    for c in range(c_max + 1):
        res = exhaustive_verify(g, c, "stabilizes", cap=cap)
        ce = None
        if res.counterexample is not None:
            ce = {
                "config": list(res.counterexample.config),
                "initial": list(res.counterexample.initial),
                **res.counterexample.detail,
            }
        verdicts.append(
            ProbeVerdict(
                c=c,
                all_stabilize=res.passed,
                n_configs=res.configs_checked if res.passed else compositions_count(g.n, c),
                counterexample=ce,
            )
        )
    c_star: Optional[int] = None
    for v in reversed(verdicts):
        if not v.all_stabilize:
            break
        c_star = v.c
    threshold = stabilization_threshold(g)
    within: Optional[bool]
    if c_max < threshold:
        within = None
    else:
        within = c_star is not None and c_star <= threshold
    monotone = True
    seen_pass = False
    for v in verdicts:
        if v.all_stabilize:
            seen_pass = True
        elif seen_pass:
            monotone = False
            break
    return ProbeResult(tuple(verdicts), c_star, threshold, within, monotone)


SUITE_COLUMNS = (
    "instance",
    "kind",
    "n",
    "m",
    "d",
    "c",
    "stab_round",
    "bound",
    "slack",
    "v_star",
) + CHECK_ORDER


@dataclass(frozen=True)
class SuiteResult:
    rows: tuple[dict, ...]
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def suite_csv(rows: Sequence[dict]) -> str:
    return _csv(SUITE_COLUMNS, rows)


def random_instance_suite(
    count: int,
    seed: int,
    n_max: int = 12,
    state_cap: Optional[int] = None,
) -> SuiteResult:
    """Battery over `count` random (graph, configuration) instances.

    Each instance draws a generator kind, a size, seeds for the graph and
    the configuration, and sets c to the threshold 4m - n exactly, so the
    above-threshold guarantees must all hold.  A pure function of
    (count, seed, n_max): rerunning reproduces identical rows.
    """
    from .graph import generate  # local import keeps module deps one-way

    kinds = ("cycle", "path", "complete", "star", "random_tree", "random_connected")
    p_choices = (0.3, 0.4, 0.5, 0.6, 0.7)
    rows = []
    violations = []
    cap = None
    for i in range(count):
        rng = SplitMix64(derive_seed(seed, i))
        kind = kinds[rng.below(len(kinds))]
        if kind in ("cycle", "random_connected"):
            n = 3 + rng.below(n_max - 2)
        else:
            n = 2 + rng.below(n_max - 1)
        p = p_choices[rng.below(len(p_choices))] if kind == "random_connected" else None
        g = generate(kind, n, p=p, seed=rng.next_u64())
        _gate(g)
        c = stabilization_threshold(g)
        cfg = random_config(g.n, c, rng.next_u64())
        if cap is None:
            cap = _default_state_cap(state_cap)
        report = verify_battery(g, cfg, cap)
        md = report.metadata
        row = {
            "instance": i,
            "kind": kind,
            "n": g.n,
            "m": g.m,
            "d": md["graph"]["diameter"],
            "c": c,
            "stab_round": md["stab_round"] if md["stab_round"] is not None else -1,
            "bound": md["bound"],
            "slack": md["slack"] if md["slack"] is not None else -1,
            "v_star": md["always_firing_witness"]
            if md["always_firing_witness"] is not None
            else -1,
        }
        for result in report.checks:
            row[result.name] = result.status
            if result.status == FAIL:
                violations.append(
                    {
                        "instance": i,
                        "check": result.name,
                        "kind": kind,
                        "n": g.n,
                        "config": list(cfg.candy),
                        "counterexample": result.counterexample,
                    }
                )
        rows.append(row)
    return SuiteResult(tuple(rows), tuple(violations))
