"""Sequential candy-passing: one vertex fires per move.

A vertex is firable while it holds at least deg(v) candy; firing sends one
candy to each neighbor.  A vertex of degree 0 is never firable, as in the
synchronous engine.  Which firable vertex moves next is the policy's
choice.  The classical order-independence property says the initial
configuration alone decides whether play ever terminates, and for
terminating games both the final configuration and the number of moves
are the same under every play order; check_abelian probes exactly that.

Deterministic policies (lowest_index, highest_candy) detect infinite play
soundly by configuration revisit: a revisit loops that policy forever,
and order-independence then rules out termination under any other order.
Random play cannot reuse that argument, so it runs under a move budget
and reports Unknown beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import ResourceExhausted
from .graph import Graph
from .parallel import Configuration, _coerce, _default_state_cap
from .rng import derive_seed, keyed_u64

POLICIES = ("lowest_index", "highest_candy", "random")

DEFAULT_RANDOM_BUDGET = 10_000


@dataclass(frozen=True)
class Terminated:
    final: Configuration
    length: int


@dataclass(frozen=True)
class Infinite:
    witness: Configuration  # the revisited configuration


@dataclass(frozen=True)
class Unknown:
    moves: int  # budget spent without termination or proof


SeqOutcome = Union[Terminated, Infinite, Unknown]


def _firable(candy, degree, n):
    return [v for v in range(n) if degree[v] and candy[v] >= degree[v]]


def _pick(policy: str, firable, candy, seed, move_index: int) -> int:
    if policy == "lowest_index":
        return firable[0]
    if policy == "highest_candy":
        best = firable[0]
        for v in firable[1:]:
            if candy[v] > candy[best]:
                best = v
        return best
    if policy == "random":
        return firable[keyed_u64(seed, move_index) % len(firable)]
    raise ValueError(f"unknown policy {policy!r}")


def seq_run(
    g: Graph,
    init,
    policy: str = "lowest_index",
    seed: Optional[int] = None,
    move_budget: Optional[int] = None,
    state_cap: Optional[int] = None,
    _log: Optional[list] = None,
) -> SeqOutcome:
    """Play one sequential game to termination, revisit, or budget.

    Deterministic policies ignore move_budget and use revisit detection
    (bounded by state_cap states, CHIPFIRE_STATE_CAP overriding the
    default); the random policy requires a seed, draws one keyed value
    per move index, and returns Unknown(moves) once move_budget (default
    10000) is spent.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "random" and seed is None:
        raise ValueError("random policy needs a seed")
    start = _coerce(g, init)
    degree, adjacency, n = g.degree, g.adjacency, g.n
    candy = list(start)
    deterministic = policy != "random"
    cap = _default_state_cap(state_cap)
    budget = DEFAULT_RANDOM_BUDGET if move_budget is None else move_budget
    seen = {tuple(candy)} if deterministic else None
    if _log is not None:
        _log.append((0, -1, tuple(candy)))
    moves = 0
    while True:
        firable = _firable(candy, degree, n)
        if not firable:
            return Terminated(Configuration.of(candy), moves)
        if not deterministic and moves >= budget:
            return Unknown(moves)
        v = _pick(policy, firable, candy, seed, moves)
        candy[v] -= degree[v]
        for u in adjacency[v]:
            candy[u] += 1
        moves += 1
        if _log is not None:
            _log.append((moves, v, tuple(candy)))
        if deterministic:
            state = tuple(candy)
            if state in seen:
                return Infinite(Configuration.of(state))
            if len(seen) >= cap:
                raise ResourceExhausted(f"sequential orbit store exceeded {cap} states")
            seen.add(state)


def move_log_csv(
    g: Graph,
    init,
    policy: str = "lowest_index",
    seed: Optional[int] = None,
    move_budget: Optional[int] = None,
) -> str:
    """Replay a game and render its move log as CSV.

    Row 0 is the initial snapshot with fired_vertex -1; each later row is
    one move with the configuration after it.
    """
    log: list = []
    seq_run(g, init, policy=policy, seed=seed, move_budget=move_budget, _log=log)
    header = ["move_index", "fired_vertex"] + [f"candy_{v}" for v in range(g.n)]
    lines = [",".join(header)]
    for idx, vertex, snap in log:
        lines.append(",".join([str(idx), str(vertex)] + [str(c) for c in snap]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AbelianReport:
    """Outcome of replaying one instance under many seeded random orders."""

    applicable: bool  # reference play terminated, so the property bites
    passed: bool
    reference: SeqOutcome
    n_orders: int
    move_budget: int
    divergences: tuple[dict, ...]
    budget_exceeded: tuple[int, ...]  # order indices that hit Unknown: hard failures

    @property
    def status(self) -> str:
        if not self.applicable:
            return "not_applicable"
        return "pass" if self.passed else "fail"


def check_abelian(g: Graph, init, n_orders: int = 10, seed: int = 0) -> AbelianReport:
    """Assert order-independence on one instance.

    The reference play is lowest_index.  If it terminates with length L,
    every seeded random order must terminate with the identical (final
    configuration, length).  Every terminating order has length exactly L
    (Bjorner-Lovasz-Shor), so each random order gets a budget of exactly
    L moves: seq_run tests for termination before the budget, so a
    correct order still ends Terminated, and an order that would make a
    move past L is reported distinctly (budget_exceeded): it contradicts
    the property rather than merely diverging.
    """
    reference = seq_run(g, init, policy="lowest_index")
    if not isinstance(reference, Terminated):
        return AbelianReport(
            applicable=False,
            passed=True,
            reference=reference,
            n_orders=n_orders,
            move_budget=0,
            divergences=(),
            budget_exceeded=(),
        )
    budget = reference.length
    divergences: list[dict] = []
    exceeded: list[int] = []
    for i in range(n_orders):
        got = seq_run(
            g,
            init,
            policy="random",
            seed=derive_seed(seed, i),
            move_budget=budget,
        )
        if isinstance(got, Unknown):
            exceeded.append(i)
        elif isinstance(got, Infinite):
            divergences.append({"order": i, "outcome": "infinite"})
        elif (got.final, got.length) != (reference.final, reference.length):
            divergences.append(
                {
                    "order": i,
                    "final": list(got.final.candy),
                    "length": got.length,
                }
            )
    return AbelianReport(
        applicable=True,
        passed=not divergences and not exceeded,
        reference=reference,
        n_orders=n_orders,
        move_budget=budget,
        divergences=tuple(divergences),
        budget_exceeded=tuple(exceeded),
    )
