"""Known-answer and distribution tests for the seeded RNG."""

import subprocess
import sys

from hypothesis import example, given, settings, strategies as st

import pytest

from chipfire.rng import CHUNK, SplitMix64, derive_seed, keyed_u64, mix64
from conftest import reference_coins


def test_splitmix64_seed0_vectors():
    # first three outputs of the reference stream for seed 0
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_keyed_matches_stream():
    r = SplitMix64(123)
    stream = [r.next_u64() for _ in range(5)]
    assert stream == [keyed_u64(123, i) for i in range(5)]
    assert stream[0] == 13032462758197477675


def test_mix64_zero_fixed_point():
    # the finalizer maps 0 to 0; documented so nobody seeds key streams
    # with raw zeros and expects decorrelation
    assert mix64(0) == 0


def test_derive_seed_frozen_values():
    assert derive_seed(0, 1) == 538020821241227815
    assert derive_seed(0, 1, 2) == 10392176082764252608
    assert derive_seed(42, 7) == 3946045432723756557


def test_derive_seed_order_sensitive():
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
    assert derive_seed(5, 1) != derive_seed(6, 1)


def test_below_one_is_always_zero():
    r = SplitMix64(7)
    assert all(r.below(1) == 0 for _ in range(100))


def test_below_rejects_nonpositive():
    r = SplitMix64(7)
    with pytest.raises(ValueError):
        r.below(0)


def test_below_handles_ranges_wider_than_a_word():
    r = SplitMix64(11)
    n = 2**200 + 12345
    draws = [r.below(n) for _ in range(50)]
    assert all(0 <= d < n for d in draws)
    assert len(set(draws)) > 1


def test_below_is_roughly_uniform():
    r = SplitMix64(2024)
    buckets = [0, 0, 0]
    trials = 60_000
    for _ in range(trials):
        buckets[r.below(3)] += 1
    for b in buckets:
        assert abs(b / trials - 1 / 3) < 0.01


def test_chance_extremes():
    r = SplitMix64(3)
    assert not any(r.chance(0.0) for _ in range(20))
    assert all(r.chance(1.0) for _ in range(20))


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=10**9))
def test_below_in_range(seed, n):
    assert 0 <= SplitMix64(seed).below(n) < n


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_stays_in_word(z):
    assert 0 <= mix64(z) < 2**64


# every float, plus the values whose bar sits on an edge: NaN, the
# infinities, negatives, p > 1, the smallest subnormal and 1 - 2^-53
PROBABILITIES = st.floats() | st.sampled_from(
    [0.0, -0.0, 1.0, 0.03, 0.5, 1e-9, -0.5, 1.5, 5e-324, 1 - 2**-53, 2**-53, 3 * 2**-54]
)
SEEDS = st.integers(min_value=-(2**70), max_value=2**70)


@settings(max_examples=60, deadline=None)
@given(
    SEEDS,
    PROBABILITIES,
    st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]) | st.integers(0, 40),
)
@example(seed=2**64 + 7, p=float("nan"), count=CHUNK + 1)
@example(seed=-1, p=float("inf"), count=3 * CHUNK + 5)
@example(seed=0, p=float("-inf"), count=CHUNK)
def test_chances_match_scalar_coins(seed, p, count):
    # a run longer than CHUNK is drawn chunk by chunk, as graph.generate does
    coins, state = reference_coins(seed, p, count)
    batched = SplitMix64(seed)
    drawn = b"".join(
        batched.chances(p, min(CHUNK, count - done)) for done in range(0, count, CHUNK)
    )
    assert drawn == coins
    scalar = SplitMix64(seed)
    for _ in range(count):
        scalar.next_u64()
    assert batched.next_u64() == scalar.next_u64() == mix64(state + 0x9E3779B97F4A7C15)


@given(SEEDS, PROBABILITIES)
def test_chance_is_one_reference_coin(seed, p):
    coins, _ = reference_coins(seed, p, 1)
    assert SplitMix64(seed).chance(p) is (coins == b"\x01")


@pytest.mark.parametrize("count", [-1, CHUNK + 1])
def test_chances_rejects_counts_outside_one_chunk(count):
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        rng.chances(0.5, count)
    assert rng.next_u64() == SplitMix64(5).next_u64()


def test_lane_constants_are_built_at_the_first_draw():
    # a process that draws no coins (an exhaustive scan, a long game) does
    # not hold the three 64 KB lane constants
    code = ("import chipfire, chipfire.rng as rng; assert rng._lanes.cache_info().currsize == 0; "
            "rng.SplitMix64(1).chances(0.5, 3); assert rng._lanes.cache_info().currsize == 1")
    subprocess.run([sys.executable, "-c", code], check=True)
