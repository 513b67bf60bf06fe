"""Exhaustive and sampled coverage of configuration space.

A configuration with total c on n vertices is a weak composition of c
into n parts.  Everything here fixes one enumeration convention
(ascending lexicographic order on the candy tuples, so (0, 0, c) is
rank 0 and (c, 0, 0) is the last) and builds counting, enumeration,
unranking, uniform sampling, and exhaustive verification on top of it.  Counting is
exact stars-and-bars: C(c + n - 1, n - 1).  Ranking and unranking walk the
blocks of that order with one binomial per call, then exact updates by
small integers (C(N - 1, k) = C(N, k) * (N - k) / N within a position,
C(N - 1, k - 1) = C(N, k) * k / N to the next) instead of one binomial
per candidate value.  A part larger than _WALK is not walked value by
value: skipping v values at a position skips
C(top + 1, k + 1) - C(top + 1 - v, k + 1) compositions (the hockey-stick
sum of the blocks), so ranking counts it in closed form and unranking
bisects on that sum.  Either way the cost is O(n) updates plus
O(n log c) binomials at most, however large c is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, Optional, Union

from .errors import ResourceExhausted
from .graph import Graph
from .parallel import Configuration
from .rng import SplitMix64

DEFAULT_ENUM_CAP = 10_000_000
_WALK = 1_000  # values a part is walked one by one before the closed form takes over


def compositions_count(n: int, c: int) -> int:
    """Number of weak compositions of c into n parts."""
    if n < 1 or c < 0:
        raise ValueError("need n >= 1 and c >= 0")
    return comb(c + n - 1, n - 1)


def enumerate_configs(n: int, c: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every composition in lexicographic order.

    Raises ResourceExhausted on the first next() when the count exceeds
    cap, so a caller never starts a scan it cannot finish.
    """
    total = compositions_count(n, c)
    if total > cap:
        raise ResourceExhausted(f"{total} compositions exceed the cap of {cap}")
    if n == 1:
        yield (c,)
        return
    x = [0] * (n - 1) + [c]
    last = n - 1
    while True:
        yield tuple(x)
        if x[last]:  # move one candy from the last part to the one before
            x[last - 1] += 1
            x[last] -= 1
            continue
        # otherwise raise the part before the rightmost nonzero one, whose
        # value less one becomes the last part
        q = last - 1
        while q and not x[q]:
            q -= 1
        if not q:
            return
        x[q - 1] += 1
        x[last] = x[q] - 1
        x[q] = 0


def _shrink(block: int, top: int, factor: int) -> int:
    """C(top - 1, .) from block = C(top, k), exactly.

    factor = top - k keeps the lower index: C(top - 1, k), the block of
    the next value at the same position.  factor = k lowers it:
    C(top - 1, k - 1), the block of value 0 at the next position.  Both
    products are top times the smaller binomial, so the division is exact.
    """
    return block * factor // top


def _skipped(top: int, k: int, v: int) -> int:
    """Compositions skipped by the first v values at a position whose
    value-0 block is C(top, k): C(top, k) + ... + C(top - v + 1, k)."""
    return comb(top + 1, k + 1) - comb(top + 1 - v, k + 1)


def rank_composition(comp) -> int:
    """Lexicographic rank of a composition (inverse of unrank_composition).

    Raises ValueError for a negative part.
    """
    for v in comp:
        if v < 0:
            raise ValueError(f"negative part {v} in composition")
    n = len(comp)
    if n < 2:
        return 0
    # block = C(top, k): the compositions of what is left after the value
    # under consideration into the k + 1 later parts
    top, k = sum(comp) + n - 2, n - 2
    block = comb(top, k)
    rank = 0
    for part in comp[:-1]:
        if part > _WALK:
            rank += _skipped(top, k, part)
            top -= part
            block = comb(top, k)
        else:
            for _ in range(part):
                rank += block
                block = _shrink(block, top, top - k)
                top -= 1
        if k:
            block = _shrink(block, top, k)
            top, k = top - 1, k - 1
    return rank


def unrank_composition(n: int, c: int, rank: int) -> tuple[int, ...]:
    """The rank-th composition of c into n parts, lexicographically.

    Costs one binomial, then exact updates by small integers; a part
    that passes _WALK values is finished by bisection on _skipped.
    """
    total = compositions_count(n, c)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    out = []
    rem = c
    # as in rank_composition; the first block follows from total = C(top + 1, k + 1)
    top, k = c + n - 2, n - 2
    block = _shrink(total, top + 1, k + 1) if n > 1 else 1
    for _ in range(n - 1):
        for v in range(_WALK):
            if rank < block:
                break
            rank -= block
            block = block * (top - k) // top  # _shrink(block, top, top - k), inlined: once per candy
            top -= 1
        else:
            # the largest s with _skipped(top, k, s) <= rank; s = top - k + 1
            # would skip every composition left, which is more than rank
            lo, hi = 0, top - k + 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _skipped(top, k, mid) <= rank:
                    lo = mid
                else:
                    hi = mid
            rank -= _skipped(top, k, lo)
            top -= lo
            v = _WALK + lo
            block = comb(top, k)
        out.append(v)
        rem -= v
        if k:
            block = _shrink(block, top, k)
            top, k = top - 1, k - 1
    out.append(rem)
    return tuple(out)


def random_config(n: int, c: int, seed: int) -> Configuration:
    """Uniformly random configuration with total exactly c.

    Draws a uniform rank (rejection-sampled, so exactly uniform) and
    unranks it; a pure function of (n, c, seed).
    """
    rng = SplitMix64(seed)
    rank = rng.below(compositions_count(n, c))
    return Configuration.of(unrank_composition(n, c, rank))


@dataclass(frozen=True)
class Counterexample:
    """First failure found by an exhaustive scan.

    initial is the failing composition in enumeration order; config is
    the check's witness configuration.  For the stabilization check that
    is the lexicographically smallest state of the limit cycle the orbit
    falls into; for other checks it coincides with initial.
    """

    config: tuple[int, ...]
    initial: tuple[int, ...]
    rank: int
    detail: dict


@dataclass(frozen=True)
class ExhaustiveResult:
    passed: bool
    configs_checked: int
    counterexample: Optional[Counterexample]


CheckFn = Callable[[Graph, tuple[int, ...]], Optional[dict]]


def _resolve_check(check: Union[str, CheckFn]) -> CheckFn:
    if callable(check):
        return check
    from .analysis import NAMED_CHECKS  # deferred: analysis imports this module

    try:
        return NAMED_CHECKS[check]
    except KeyError:
        known = ", ".join(sorted(NAMED_CHECKS))
        raise ValueError(f"unknown check {check!r}; known: {known}") from None


def exhaustive_verify(
    g: Graph,
    c: int,
    check: Union[str, CheckFn],
    cap: int = DEFAULT_ENUM_CAP,
) -> ExhaustiveResult:
    """Apply a check to every composition of c on g, in lexicographic order.

    check is a registered name (see analysis.NAMED_CHECKS) or a callable
    returning None on pass and a detail dict on failure.  Scanning stops
    at the first failure, which is therefore the minimal-rank one.
    """
    fn = _resolve_check(check)
    checked = 0
    for comp in enumerate_configs(g.n, c, cap=cap):
        detail = fn(g, comp)
        checked += 1
        if detail is not None:
            witness = detail.get("witness_config", comp)
            rest = {k: v for k, v in detail.items() if k != "witness_config"}
            return ExhaustiveResult(
                passed=False,
                configs_checked=checked,
                counterexample=Counterexample(
                    config=tuple(witness),
                    initial=comp,
                    rank=checked - 1,
                    detail=rest,
                ),
            )
    return ExhaustiveResult(passed=True, configs_checked=checked, counterexample=None)
