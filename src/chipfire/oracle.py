"""Exhaustive and sampled coverage of configuration space.

A configuration with total c on n vertices is a weak composition of c
into n parts.  Everything here fixes one enumeration convention
(ascending lexicographic order on the candy tuples, so (0, 0, c) is
rank 0 and (c, 0, 0) is the last) and builds counting, enumeration,
unranking, uniform sampling, and exhaustive verification on top of it.
Counting is exact stars-and-bars: C(c + n - 1, n - 1).

Ranking and unranking rest on one count per position.  With r candies
left for this part and the `later` parts after it, top = r + later, and
tail(v) = C(top - v, later) compositions have a part of at least v here
(the hockey-stick sum of the blocks of each value); block = tail(0)
counts them all.  tail comes from whichever closed form has fewer
factors: block * perm(top - later, v) // perm(top, v) while v <= later,
else comb(top - v, later).  Ranking adds block - tail(part) per
position.  Unranking guesses each part from floats (the tail's
near-geometric decay for a short part, an integer root for a long one)
and settles it exactly: the guess v is right when tail(v + 1) < need <=
tail(v), and otherwise galloping and bisection on tail find the part.
Either way the cost per part is a few big-integer products and
quotients, however large c is.

exhaustive_verify and analysis.verify_corpus share one scan loop, _scan,
whose docstring states the scan contract (lex order from (0, ..., 0, c)
over an enumeration, stop at the first failure, set up after the first
draw).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb, factorial, log, log1p, log2, perm
from typing import Callable, Iterator, Optional, Union

from .errors import ResourceExhausted
from .graph import Graph
from .parallel import Configuration, _as_count
from .rng import SplitMix64

DEFAULT_ENUM_CAP = 10_000_000


def compositions_count(n: int, c: int) -> int:
    """Number of weak compositions of c into n parts."""
    n, c = _as_count(n, "n", 1), _as_count(c, "c")
    return comb(c + n - 1, n - 1)


def enumerate_configs(n: int, c: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every composition in lexicographic order.

    Raises ValueError on the first next() when cap is negative, and
    ResourceExhausted when the count exceeds cap, so a caller never
    starts a scan it cannot finish.
    """
    cap = _as_count(cap, "enumeration cap")
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


def _tail(block: int, top: int, later: int, v: int) -> int:
    """C(top - v, later): the compositions whose part at this position is
    at least v, given block = C(top, later), all of them.

    Each closed form costs about as many factors as it has: while
    v <= later the ratio of two v-factor falling products, exactly
    divisible because it is a binomial, else comb's later factors."""
    if v <= later:
        return block * perm(top - later, v) // perm(top, v)
    return comb(top - v, later)


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1 / k)) for x >= 1, by Newton's method on integers from
    just above the float root, which is scaled by a power of two so that
    x may be past the float range."""
    if k == 1:
        return x
    bits = log2(x) / k
    shift = max(0, int(bits) - 60)
    y = int(2 ** (bits - shift) * (1 + 2.0**-30) + 1) << shift
    while True:
        z = ((k - 1) * y + x // y ** (k - 1)) // k
        if z >= y:
            return y
        y = z


def _guess(need: int, block: int, top: int, later: int) -> int:
    """An estimate, in 0..top - later, of the largest v with
    _tail(block, top, later, v) >= need.

    A short part follows from the tail's near-geometric decay, a factor
    1 - later / top per value, refined once with the factor at the middle
    of the run.  A longer part leaves M = top - v at the least M with
    C(M, later) * later! >= need * later!.  That product of later factors
    is about (M - (later - 1) / 2) ** later, so M is the later-th root x
    of need * later!, plus (later - 1) / 2, rounded up; the root is taken
    of 2 ** later times as much, so it is 2x to the nearest half below.
    """
    drop = log(need) - log(block)
    rate = log1p(-later / top)
    if rate and drop / rate <= later:  # rate is 0.0 only once later / top underflows
        rate = log1p(-later / (top - min(int(drop / rate), top - later) // 2))
        return min(int(drop / rate), top - later)
    return max(top - (_iroot(need * factorial(later) << later, later) + later + 1) // 2, 0)


def _settle(need: int, block: int, top: int, later: int, v: int, t: int) -> tuple[int, int, int]:
    """(w, tail(w), tail(w + 1)) for the largest w with tail(w) >= need,
    where tail is _tail(block, top, later, .), 1 <= need <= block, and
    t = tail(v) for a guess v in 0..top - later: galloping from the guess
    brackets w, and bisection finds it."""
    # tail(lo) = at_lo >= need > tail(hi) = at_hi, from tail(top - later + 1) = 0
    lo, hi, at_lo, at_hi = 0, top - later + 1, block, 0
    step = 1
    if t >= need:
        lo, at_lo = v, t
        while lo + step < hi:
            t = _tail(block, top, later, lo + step)
            if t < need:
                hi, at_hi = lo + step, t
                break
            lo, at_lo = lo + step, t
            step *= 2
    else:
        hi, at_hi = v, t
        while hi - step > lo:
            t = _tail(block, top, later, hi - step)
            if t >= need:
                lo, at_lo = hi - step, t
                break
            hi, at_hi = hi - step, t
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = _tail(block, top, later, mid)
        if t >= need:
            lo, at_lo = mid, t
        else:
            hi, at_hi = mid, t
    return lo, at_lo, at_hi


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
    # block = C(top, later): the compositions of what is left into this
    # part and the later ones; the block - tail(part) with a smaller part
    # here come first
    top, later = sum(comp) + n - 1, n - 1
    block = comb(top, later)
    rank = 0
    for part in comp[:-1]:
        tail = _tail(block, top, later, part)
        rank += block - tail
        block = tail * later // (top - part)  # C(top - part - 1, later - 1)
        top, later = top - part - 1, later - 1
    return rank


def unrank_composition(n: int, c: int, rank: int) -> tuple[int, ...]:
    """The rank-th composition of c into n parts, lexicographically.

    Costs one binomial, then per part a guessed value checked exactly
    against two tail counts, which settles almost every part.
    """
    total = compositions_count(n, c)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    out = []
    rem = c
    # as in rank_composition; need = block - rank counts the compositions
    # from the rank-th on, so the part is the largest v with tail(v) >= need
    top, later, block = c + n - 1, n - 1, total
    while later and rem:
        need = block - rank
        v = _guess(need, block, top, later)
        tail = _tail(block, top, later, v)
        after = tail * (top - later - v) // (top - v)  # tail(v + 1), one exact factor on
        if not after < need <= tail:
            v, tail, after = _settle(need, block, top, later, v, tail)
        out.append(v)
        rem -= v
        rank = tail - need
        block = tail - after  # C(top - v - 1, later - 1): the compositions with v here
        top, later = top - v - 1, later - 1
    out += [0] * later
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
# a check's set-up for one scan: (g, c) -> the check of one composition of
# c on g, returning None on pass and a detail dict on failure; _scan's
# docstring states what the scan promises the check
ScanFn = Callable[[Graph, int], Callable[[tuple[int, ...]], Optional[dict]]]


def _resolve_scan(check: Union[str, CheckFn]) -> ScanFn:
    if callable(check):
        return lambda g, c: partial(check, g)
    from .analysis import _NAMED_SCANS  # deferred: analysis imports this module

    try:
        return _NAMED_SCANS[check]
    except KeyError:
        known = ", ".join(sorted(_NAMED_SCANS))
        raise ValueError(f"unknown check {check!r}; known: {known}") from None


def _scan(g: Graph, c: int, configs, prepare) -> tuple[int, Optional[tuple], Optional[dict]]:
    """Check the compositions of c on g that configs yields, in turn.

    Returns (configs checked, the failing composition, its detail), the
    last two None when none fails.  This is the one scan loop, and its
    contract is the one every check relies on:

    - prepare(g, c) sets the check up once per scan (its threshold
      refusal, graph gate and state cap), after the first composition is
      drawn, so that an enumeration error comes first and a scan that
      draws nothing sets nothing up;
    - the check is called on each composition as drawn, trusting it as
      valid, and returns None on pass and a detail dict on failure;
    - the scan stops at the first failure.

    Over enumerate_configs the compositions come in ascending lex order,
    from the lex-least (0, ..., 0, c) on, so the first failure is the
    minimal-rank one and every composition below the current one has
    passed: a "stabilizes" walk stops, passed, at its first state below
    its composition (the lex-order exit).  A sampled stream is not in lex
    order, and its check must not rely on that.
    """
    check = None
    checked = 0
    for comp in configs:
        if check is None:
            check = prepare(g, c)
        checked += 1
        detail = check(comp)
        if detail is not None:
            return checked, comp, detail
    return checked, None, None


def exhaustive_verify(
    g: Graph,
    c: int,
    check: Union[str, CheckFn],
    cap: int = DEFAULT_ENUM_CAP,
) -> ExhaustiveResult:
    """Apply a check to every composition of c on g, in lexicographic order.

    check is a registered name (one of analysis.NAMED_CHECKS) or a
    callable returning None on pass and a detail dict on failure.  The
    scan is _scan over enumerate_configs, whose docstring states the scan
    contract: lex order from (0, ..., 0, c), stop at the first failure,
    set up after the first draw.  A registered name is resolved through
    analysis._NAMED_SCANS, the registry NAMED_CHECKS is built from, so
    replacing an entry of NAMED_CHECKS does not change a scan.
    """
    checked, comp, detail = _scan(
        g, c, enumerate_configs(g.n, c, cap=cap), _resolve_scan(check))
    if comp is None:
        return ExhaustiveResult(passed=True, configs_checked=checked, counterexample=None)
    witness = detail.get("witness_config", comp)
    rest = {k: v for k, v in detail.items() if k != "witness_config"}
    return ExhaustiveResult(
        passed=False,
        configs_checked=checked,
        counterexample=Counterexample(
            config=tuple(witness), initial=comp, rank=checked - 1, detail=rest),
    )
