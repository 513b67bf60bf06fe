"""Composition enumeration, ranking, sampling, and exhaustive verification."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire.errors import ResourceExhausted
from conftest import reference_unrank


def brute_force_compositions(n, c):
    """All length-n nonnegative tuples summing to c, in tuple order."""
    return sorted(
        t for t in itertools.product(range(c + 1), repeat=n) if sum(t) == c
    )


class TestCounting:
    def test_known_counts(self):
        assert cf.compositions_count(3, 9) == 55
        assert cf.compositions_count(4, 12) == 455
        assert cf.compositions_count(3, 5) == 21
        assert cf.compositions_count(1, 7) == 1
        assert cf.compositions_count(4, 0) == 1

    def test_matches_binomial(self):
        for n in range(1, 6):
            for c in range(8):
                assert cf.compositions_count(n, c) == comb(c + n - 1, n - 1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            cf.compositions_count(0, 3)


class TestEnumeration:
    def test_order_and_extremes(self):
        got = list(cf.enumerate_configs(3, 2))
        assert got == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]

    def test_matches_brute_force(self):
        for n in range(1, 5):
            for c in range(7):
                assert list(cf.enumerate_configs(n, c)) == brute_force_compositions(n, c)

    def test_cap_enforced_before_work(self):
        with pytest.raises(ResourceExhausted):
            list(cf.enumerate_configs(10, 40, cap=1000))


class TestRanking:
    def test_hand_example(self):
        assert cf.rank_composition((1, 0, 1)) == 3
        assert cf.unrank_composition(3, 2, 3) == (1, 0, 1)

    def test_bijection(self):
        for n in range(1, 5):
            for c in range(7):
                total = cf.compositions_count(n, c)
                seen = set()
                for r in range(total):
                    comp = cf.unrank_composition(n, c, r)
                    assert cf.rank_composition(comp) == r
                    seen.add(comp)
                assert len(seen) == total

    @pytest.mark.parametrize("comp", [(-1, 3), (2, -1, 1), (-1,)])
    def test_rank_rejects_negative_parts(self, comp):
        with pytest.raises(ValueError):
            cf.rank_composition(comp)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            cf.unrank_composition(3, 2, 6)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=20),
        st.data(),
    )
    def test_round_trip_random(self, n, c, data):
        r = data.draw(st.integers(min_value=0, max_value=cf.compositions_count(n, c) - 1))
        assert cf.rank_composition(cf.unrank_composition(n, c, r)) == r


class TestRankingAtScale:
    """Ranking at sweep scale, pinned against the per-step-comb reference."""

    @pytest.mark.parametrize("n,c", [(300, 5_000), (400, 6_000)])
    def test_matches_reference(self, n, c):
        total = cf.compositions_count(n, c)
        rng = cf.SplitMix64(n * c)
        for r in [0, total - 1] + [rng.below(total) for _ in range(3)]:
            comp = reference_unrank(n, c, r)
            assert cf.unrank_composition(n, c, r) == comp
            assert cf.rank_composition(comp) == r

    @pytest.mark.parametrize("c", [2_475, 4_950])
    def test_random_config_matches_reference(self, c):
        total = cf.compositions_count(300, c)
        for seed in (1, 2):
            rank = cf.SplitMix64(seed).below(total)
            assert cf.random_config(300, c, seed).candy == reference_unrank(300, c, rank)


class TestLongParts:
    """Long parts and huge totals: the comb form of the tail count, the
    root guess for a long part, and the exact correction of a guess."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=1_001, max_value=2_500), st.data())
    def test_matches_reference(self, n, c, data):
        total = cf.compositions_count(n, c)
        # the last compositions_count(n, c - 1 001) ranks start with a part of at least 1 001
        long_first = st.integers(min_value=total - cf.compositions_count(n, c - 1_001), max_value=total - 1)
        r = data.draw(st.integers(min_value=0, max_value=total - 1) | long_first)
        comp = reference_unrank(n, c, r)
        assert cf.unrank_composition(n, c, r) == comp
        assert cf.rank_composition(comp) == r

    @pytest.mark.parametrize("part", [999, 1_000, 1_001, 1_002])
    def test_parts_at_the_walk_boundary(self, part):
        for comp in [(part, 0, 7), (3, part, 2), (0, 0, part), (part, part + 1, 0, 1)]:
            r = cf.rank_composition(comp)
            assert cf.unrank_composition(len(comp), sum(comp), r) == comp
            assert reference_unrank(len(comp), sum(comp), r) == comp

    @pytest.mark.parametrize("n", [3, 6, 40])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_parts_at_the_closed_form_switch(self, n, shift):
        # the part at position i has n - 1 - i parts after it; the tail
        # count switches from the perm ratio to comb just past that many
        for stride in (1, 2, 3):
            comp = [2] * n
            for i in range(0, n - 1, stride):
                comp[i] = max(n - 1 - i + shift, 0)
            r = cf.rank_composition(comp)
            assert reference_unrank(n, sum(comp), r) == tuple(comp)
            assert cf.unrank_composition(n, sum(comp), r) == tuple(comp)

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 100])
    def test_round_trip_at_ten_to_the_thirty(self, n):
        c = 10**30
        total = cf.compositions_count(n, c)
        rng = cf.SplitMix64(n)
        ranks = [0, 1, total // 2, total - 2, total - 1] + [rng.below(total) for _ in range(5)]
        for r in ranks:
            comp = cf.unrank_composition(n, c, r)
            assert len(comp) == n and sum(comp) == c and min(comp) >= 0
            assert cf.rank_composition(comp) == r
        assert cf.unrank_composition(n, c, total - 1) == (c,) + (0,) * (n - 1)
        assert cf.unrank_composition(n, c, 1) == (0,) * (n - 2) + (1, c - 1)

    def test_random_config_at_a_million(self):
        c = 10**6
        cfg = cf.random_config(50, c, 7)
        assert cfg.total == c and len(cfg) == 50
        assert cf.rank_composition(cfg.candy) == cf.SplitMix64(7).below(cf.compositions_count(50, c))

    def test_random_config_at_ten_to_the_thirty(self):
        cfg = cf.random_config(3, 10**30, 0)
        assert cfg.total == 10**30
        assert cf.rank_composition(cfg.candy) == cf.SplitMix64(0).below(cf.compositions_count(3, 10**30))


class TestRandomConfig:
    def test_deterministic(self):
        a = cf.random_config(5, 9, seed=42)
        b = cf.random_config(5, 9, seed=42)
        assert a == b and a.total == 9

    def test_roughly_uniform_over_small_space(self):
        from collections import Counter

        counts = Counter()
        trials = 100_000
        for i in range(trials):
            counts[cf.random_config(3, 2, cf.derive_seed(99, i)).candy] += 1
        assert len(counts) == 6
        for comp, hits in counts.items():
            assert abs(hits / trials - 1 / 6) < 0.01, comp


class TestExhaustiveVerify:
    def test_all_pass(self, c3):
        res = cf.exhaustive_verify(c3, 9, "stabilizes")
        assert res.passed and res.configs_checked == 55
        assert res.counterexample is None

    def test_reports_lex_minimal_failure(self, c4):
        res = cf.exhaustive_verify(c4, 4, "stabilizes")
        assert not res.passed
        ce = res.counterexample
        # the first composition in enumeration order that fails
        assert ce.initial == (0, 0, 0, 4)
        assert ce.rank == cf.rank_composition((0, 0, 0, 4)) == 0
        # and the canonical witness inside its limit cycle
        assert ce.config == (0, 2, 0, 2)
        assert ce.detail["period"] == 2 and ce.detail["preperiod"] == 2

    def test_stops_early_on_failure(self, c4):
        res = cf.exhaustive_verify(c4, 4, "stabilizes")
        assert res.configs_checked == res.counterexample.rank + 1

    def test_custom_callable_check(self, c3):
        res = cf.exhaustive_verify(
            c3, 2, lambda g, comp: None if sum(comp) == 2 else {"bad": True}
        )
        assert res.passed and res.configs_checked == 6

    def test_unknown_named_check(self, c3):
        with pytest.raises(ValueError):
            cf.exhaustive_verify(c3, 2, "sparkles")

    def test_threshold_gated_check_refuses_low_c(self, c3):
        with pytest.raises(ValueError):
            cf.exhaustive_verify(c3, 2, "bound")

    def test_cap(self, c3):
        with pytest.raises(ResourceExhausted):
            cf.exhaustive_verify(c3, 200, "stabilizes", cap=10)
