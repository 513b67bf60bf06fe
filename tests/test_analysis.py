"""Claim-level checks, the battery, corpus drivers, and experiment CSVs."""

from collections import deque
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire import analysis, graph, parallel
from chipfire.analysis import (
    CHECK_ORDER,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    SUITE_COLUMNS,
    SWEEP_COLUMNS,
)
from chipfire.errors import (
    ChipfireError,
    Disconnected,
    InvalidGraph,
    ResourceExhausted,
    SizeMismatch,
)
from conftest import count_steps, naive_orbit, naive_round, neighbor_map


def test_check_order_covers_battery(c3):
    report = cf.verify_battery(c3, [9, 0, 0])
    assert tuple(r.name for r in report.checks) == CHECK_ORDER


def _family(name, g, config):
    """One family's (rows, found values), folded over the battery's record
    of config's orbit."""
    record = parallel._record_orbit(g, cf.Configuration.of(config))
    return analysis._fold(name, g, sum(config), cf.stabilization_threshold(g), *record)


def _hand_fold(name, g, c, states, fired):
    """One family's (rows, found values), folded over a record built by
    hand, with ascending fired tuples, that reached no fixed point, under
    a threshold of 0, so every row is in force."""
    return analysis._fold(name, g, c, 0, states, fired, None, None)


class TestCoreInvariants:
    def test_pass_on_real_trace(self, c3):
        rows, found = _family("core", c3, [9, 0, 0])
        assert [(r.name, r.status) for r in rows] == [
            ("conservation", PASS),
            ("no_gain", PASS),
            ("abundant_monotone", PASS),
        ]
        assert found == {}

    def test_abundant_set_shrinks_along_suite_traces(self, c4):
        # spot check on a below-threshold oscillator too
        rows, _ = _family("core", c4, [2, 0, 2, 0])
        assert {r.status for r in rows} == {PASS}

    def test_failure_reports_are_pinned(self):
        """No real game fails these rows, so a record is built by hand.

        Round 2 breaks conservation and lets vertices 1 and 8 both gain by
        firing; round 3 lets both enter the abundant set.  Each row
        reports its first failing round and, within it, the lowest vertex.
        """
        g = cf.generate("cycle", 10)  # every degree 2, abundant at >= 4
        ones = (1,) * 10
        states = [
            ones,
            ones,
            (1, 2, 1, 1, 1, 1, 1, 1, 3, 1),
            (1, 5, 1, 1, 1, 1, 1, 1, 4, 1),
            (2, 5, 1, 1, 1, 1, 1, 1, 4, 1),
        ]
        fired = [(), (1, 8), (3,), (0,)]
        rows, found = _hand_fold("core", g, 10, states, fired)
        assert [(r.name, r.status, r.counterexample) for r in rows] == [
            ("conservation", FAIL, {"round": 2, "observed": 13, "expected": 10}),
            ("no_gain", FAIL, {"round": 2, "vertex": 1, "before": 1, "after": 2}),
            ("abundant_monotone", FAIL, {"round": 3, "vertex": 1, "before": 2, "after": 5}),
        ]
        assert found == {}


class TestPassCountGaps:
    def test_adjacent_and_pairwise(self, c3):
        rows, _ = _family("pass_gaps", c3, [9, 0, 0])
        assert [(r.name, r.status) for r in rows] == [
            ("adjacent_pass_gap", PASS),
            ("pairwise_pass_gap", PASS),
        ]

    def test_gate_rejects_disconnected(self):
        g = cf.Graph.build(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            cf.verify_battery(g, [1, 0, 0, 0])
        with pytest.raises(Disconnected):
            cf.exhaustive_verify(g, 1, "battery")

    def test_gate_rejects_single_vertex(self):
        g = cf.Graph.build(1, [])
        with pytest.raises(InvalidGraph):
            cf.verify_battery(g, [3])
        with pytest.raises(InvalidGraph):
            cf.exhaustive_verify(g, 3, "battery")


def _hand_record(initial, fired_sets):
    """A record built by hand: only its fired tuples (ascending) are
    meaningful, every state is the initial one."""
    fired = [tuple(sorted(f)) for f in fired_sets]
    return [tuple(initial)] * (len(fired) + 1), fired


def _brute_force_gaps(g, c, fired):
    """First violation of each gap claim, scanning every round and every
    pair with distances from a fresh BFS; None where the claim holds."""
    neighbors = neighbor_map(g)
    dist = []
    for src in range(g.n):
        d = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in neighbors[u]:
                if w not in d:
                    d[w] = d[u] + 1
                    queue.append(w)
        dist.append(d)
    adjacent = pairwise = None
    p = [0] * g.n
    for t in range(len(fired) + 1):
        if t:
            for v in fired[t - 1]:
                p[v] += 1
        for u in range(g.n):
            for w in range(u + 1, g.n):
                gap = abs(p[u] - p[w])
                if adjacent is None and dist[u][w] == 1 and gap > c:
                    adjacent = {"round": t, "pair": [u, w], "observed": gap, "bound": c}
                if pairwise is None and gap > dist[u][w] * c:
                    pairwise = {"round": t, "pair": [u, w], "observed": gap,
                                "bound": dist[u][w] * c}
    return adjacent, pairwise


def _gap_counterexamples(g, c, record):
    rows, _ = _hand_fold("pass_gaps", g, c, *record)
    return tuple(row.counterexample for row in rows)


class TestPairwiseShortcut:
    """The all-pairs scan runs only in the first round with an edge gap above c.

    An edge is a pair at distance 1, so no pair can first exceed
    dist * c later than that round; what the shortcut must get right is
    which pair it reports there, and that rounds whose large gaps are all
    between non-adjacent vertices within dist * c never fail.
    """

    def test_first_violating_pair_is_not_the_edge(self, p4):
        # c = 1; pass counts (1,0,0,0), (2,1,0,0), (3,2,0,0), (3,2,1,1):
        # in round 2 pair (0, 2) sits exactly at its bound 2; in round 3
        # edge (1, 2) exceeds c, but pair (0, 2) comes first in pair order
        record = _hand_record([1, 0, 0, 0], [{0}, {0, 1}, {0, 1}, {2, 3}])
        adjacent, pairwise = _gap_counterexamples(p4, 1, record)
        assert adjacent == {"round": 3, "pair": [1, 2], "observed": 2, "bound": 1}
        assert pairwise == {"round": 3, "pair": [0, 2], "observed": 3, "bound": 2}
        assert (adjacent, pairwise) == _brute_force_gaps(p4, 1, record[1])

    def test_wide_gaps_within_distance_bound_pass(self, p4):
        # every edge gap stays at c = 1 while pair (0, 3) reaches 3 = dist * c
        record = _hand_record([1, 0, 0, 0], [{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}])
        rows, _ = _hand_fold("pass_gaps", p4, 1, *record)
        assert {r.status for r in rows} == {PASS}
        assert _gap_counterexamples(p4, 1, record) == (None, None)
        assert _brute_force_gaps(p4, 1, record[1]) == (None, None)

    def test_random_traces_match_brute_force(self):
        rng = cf.SplitMix64(2024)
        for i in range(300):
            n = 3 + rng.below(5)
            g = cf.generate("random_connected", n, p=0.5, seed=rng.next_u64())
            initial = [0] * n
            initial[0] = rng.below(3)
            fired_sets = [{v for v in range(n) if rng.chance(0.4)}
                          for _ in range(1 + rng.below(12))]
            record = _hand_record(initial, fired_sets)
            c = initial[0]
            assert _gap_counterexamples(g, c, record) == _brute_force_gaps(g, c, record[1]), i


class TestGapCheckpoints:
    """The gap fold reads the pass counts only at checkpoints: round c + 1,
    then t + c - G + 1 after a checkpoint t whose largest edge gap is G.

    No edge gap grows by more than 1 a round, so no round between two
    checkpoints can fail.  Each hand trace here is checked against the
    brute-force scan of every round and every pair.
    """

    @staticmethod
    def _found(g, c, fired_sets):
        record = _hand_record([c] + [0] * (g.n - 1), fired_sets)
        found = _gap_counterexamples(g, c, record)
        assert found == _brute_force_gaps(g, c, record[1])
        return found

    def test_climb_from_a_plateau(self, p3):
        # vertex 0 fires alone for `lead` rounds, everyone for `plateau`
        # rounds (the gap of edge (0, 1) stays at lead, and checkpoints
        # come every c - lead + 1 rounds), then vertex 0 alone again: the
        # gap climbs by one a round and first exceeds c at round
        # plateau + c + 1, whichever checkpoint offset the climb starts at
        for c in range(3, 9):
            for lead in (0, 1, c - 2, c - 1):
                for plateau in range(16, 16 + c - lead + 1):
                    fired = [{0}] * lead + [{0, 1, 2}] * plateau + [{0}] * (c + 4 - lead)
                    assert 20 <= len(fired) <= 120
                    failure = {"round": plateau + c + 1, "pair": [0, 1],
                               "observed": c + 1, "bound": c}
                    assert self._found(p3, c, fired) == (failure, failure), (c, lead, plateau)

    def test_gap_held_at_c_checks_every_round(self, p4):
        # edge (0, 1) sits at exactly c from round c on, so every round is a
        # checkpoint; a dip to c - 1 and back, then one more round of
        # vertex 0 alone, fails only in the very last round
        for c in range(3, 9):
            held = [{0}] * c + [{0, 1, 2, 3}] * 40 + [{1, 2, 3}, {0}] + [{0, 1, 2, 3}] * 30
            assert self._found(p4, c, held) == (None, None)
            failure = {"round": len(held) + 1, "pair": [0, 1], "observed": c + 1, "bound": c}
            assert self._found(p4, c, held + [{0}]) == (failure, failure)

    def test_random_long_traces_match_brute_force(self):
        # each vertex fires with its own probability, so edge gaps drift;
        # some rounds fire everyone, which holds every gap where it is
        rng = cf.SplitMix64(715)
        outcomes = set()
        for i in range(120):
            n = 3 + rng.below(5)
            g = cf.generate("random_connected", n, p=0.5, seed=rng.next_u64())
            c = 3 + rng.below(6)
            odds = [0.3 + 0.7 * rng.below(8) / 7 for _ in range(n)]
            fired = [set(range(n)) if rng.chance(0.3)
                     else {v for v in range(n) if rng.chance(odds[v])}
                     for _ in range(20 + rng.below(101))]
            outcomes.add(self._found(g, c, fired) == (None, None))
        assert outcomes == {True, False}

    def test_path70_threshold_game(self):
        g = cf.generate("path", 70)
        c = cf.stabilization_threshold(g)
        init = [c] + [0] * (g.n - 1)
        report = cf.verify_battery(g, init)
        rows = [report.get(name) for name in ("adjacent_pass_gap", "pairwise_pass_gap")]
        assert [(r.status, r.counterexample, r.detail) for r in rows] == [(PASS, None, "")] * 2
        trace = cf.run(g, init, g.n * g.diameter * c + 1)
        assert len(trace.rounds) == 6733
        fired = [rec.fired for rec in trace.rounds]
        assert _gap_counterexamples(g, c, _hand_record(init, fired)) == (None, None)
        # the same 6 733 fired tuples against smaller bounds, with the first
        # failing round and edge found from running counts round by round
        counts = [0] * g.n
        widest = []
        for f in fired:
            for v in f:
                counts[v] += 1
            widest.append(max(abs(counts[u] - counts[w]) for u, w in g.edges))
        assert max(widest) == 137
        for bound in (3, 20, 50, 100, 136):
            t = next(t for t, gap in enumerate(widest, 1) if gap > bound)
            p = trace.pass_at(t)
            edge = next([u, w] for u, w in g.edges if abs(p[u] - p[w]) > bound)
            pair = next([u, w] for u in range(g.n) for w in range(u + 1, g.n)
                        if abs(p[u] - p[w]) > (w - u) * bound)
            adjacent, pairwise = _gap_counterexamples(
                g, bound, _hand_record([bound] + [0] * (g.n - 1), fired))
            assert adjacent == {"round": t, "pair": edge, "observed": bound + 1,
                                "bound": bound}
            assert pairwise["round"] == t and pairwise["pair"] == pair


class TestAlwaysFiring:
    def test_above_threshold(self, c3):
        rows, found = _family("always_firing", c3, [9, 0, 0])
        assert {r.status for r in rows} == {PASS}
        assert found == {"always_firing_witness": 0}

    def test_below_threshold_is_not_applicable(self, c3):
        rows, found = _family("always_firing", c3, [1, 0, 0])
        assert [(r.status, r.detail) for r in rows] == [
            (NOT_APPLICABLE, "c=1 below threshold 9")] * 3
        assert found == {}
        # not_applicable still counts as "no failure"
        assert analysis.VerificationReport(tuple(rows)).ok


class TestStabilizationBound:
    def test_triangle_within_bound(self, c3):
        report = cf.verify_battery(c3, [9, 0, 0])
        rows = [report.get(name) for name in ("stabilized_within_bound", "idle_gap")]
        assert [r.status for r in rows] == [PASS, PASS]
        md = report.metadata
        assert md["bound"] == 27 and md["stab_round"] == 2 and md["slack"] == 25

    def test_below_threshold_not_applicable(self, c4):
        rows, found = _family("bound", c4, [2, 0, 2, 0])
        assert all(r.status == NOT_APPLICABLE for r in rows) and found == {}
        report = cf.verify_battery(c4, [2, 0, 2, 0])
        assert report.get("stabilized_within_bound").status == NOT_APPLICABLE
        assert report.get("idle_gap").status == NOT_APPLICABLE

    @pytest.mark.parametrize("config", [[1, 2], [1, 2, 30], [0, 0, 3, 0, 0]])
    def test_length_is_checked_below_and_above_the_threshold(self, c4, config):
        # totals 3, 33 and 3 against the threshold 12: the same error at
        # every c, from the battery and from its check of one composition
        message = f"configuration has {len(config)} entries for n=4"
        for check in (cf.verify_battery, cf.NAMED_CHECKS["battery"]):
            with pytest.raises(SizeMismatch, match=message):
                check(c4, config)


class TestBattery:
    def test_stabilizing_instance_all_pass(self, c3):
        report = cf.verify_battery(c3, [9, 0, 0])
        assert report.ok
        assert all(r.status == PASS for r in report.checks)
        assert report.metadata["outcome"] == "stabilized"

    def test_oscillator_fails_only_where_expected(self, c4):
        report = cf.verify_battery(c4, [2, 0, 2, 0])
        assert not report.ok
        stab = report.get("stabilizes")
        assert stab.status == FAIL
        assert stab.counterexample["period"] == 2
        assert stab.counterexample["cycle_min"] == [0, 2, 0, 2]
        # below threshold, the firing and bound claims are gated off,
        # and the unconditional ones still hold
        for name in ("conservation", "no_gain", "abundant_monotone",
                      "adjacent_pass_gap", "pairwise_pass_gap"):
            assert report.get(name).status == PASS
        for name in ("fired_nonempty", "always_firing", "surplus_pigeonhole",
                      "stabilized_within_bound", "idle_gap"):
            assert report.get(name).status == NOT_APPLICABLE

    @pytest.mark.parametrize(
        "spec, config, witness, stab, bound",
        [(("cycle", 3), [9, 0, 0], 0, 2, 27),
         (("path", 4), [10, 0, 0, 0], 0, 12, 120),
         (("star", 4), [0, 3, 3, 3], 1, 1, 72)],
    )
    def test_pass_details_are_pinned(self, spec, config, witness, stab, bound):
        # the folds return bare pass rows; every returned report adds these two
        g = cf.generate(*spec)
        always = f"witness vertex {witness}"
        within = f"stab_round {stab} <= {bound}"
        details = {"always_firing": always, "stabilized_within_bound": within}
        battery = cf.verify_battery(g, config)
        assert {r.name: r.detail for r in battery.checks if r.detail} == details
        assert [(r.name, r.status, r.detail) for r in battery.checks[5:10]] == [
            ("fired_nonempty", PASS, ""),
            ("always_firing", PASS, always),
            ("surplus_pigeonhole", PASS, ""),
            ("stabilized_within_bound", PASS, within),
            ("idle_gap", PASS, ""),
        ]

    def test_report_round_trips_to_json(self, c3):
        import json

        report = cf.verify_battery(c3, [9, 0, 0])
        parsed = json.loads(report.to_json())
        assert parsed["ok"] is True
        assert [c["name"] for c in parsed["checks"]] == list(CHECK_ORDER)


@pytest.mark.parametrize("spec", [("cycle", 4), ("path", 4), ("star", 4)])
def test_battery_walk_matches_reference_at_any_cap(spec):
    g = cf.generate(*spec)
    for c in range(cf.stabilization_threshold(g) + 1):
        for comp in cf.enumerate_configs(g.n, c):
            report = cf.verify_battery(g, comp)
            md = report.metadata
            mu, lam = naive_orbit(g, comp)
            stabilized = lam == 1
            assert md["outcome"] == ("stabilized" if stabilized else "periodic"), comp
            assert md["stab_round"] == (mu if stabilized else None), comp
            assert md["preperiod"] == (None if stabilized else mu), comp
            assert md["period"] == (None if stabilized else lam), comp
            assert md["rounds_recorded"] == (mu + 1 if stabilized else mu + 2 * lam), comp
            # shrinking the cap moves the walk onto the cycle finder, never the answer
            try:
                small = cf.verify_battery(g, comp, state_cap=2)
            except ResourceExhausted:
                continue
            assert small.to_json() == report.to_json(), comp


@st.composite
def small_connected_graphs(draw, max_n=5, dense_n=4):
    """A random connected graph on 2 to max_n vertices: a random tree, plus
    any other edges when n <= dense_n.  By default a tree keeps n = 5
    cheap: it has 6 188 compositions of the totals up to 4m - n + 1,
    against 20 349 for a 5-vertex cycle."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    others = [(u, w) for u in range(n) for w in range(u + 1, n) if (u, w) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if n <= dense_n and others else []
    return cf.Graph.build(n, tree + extra)


def _corpus_from_batteries(g, c):
    """verify_corpus's verdict, rebuilt from one verify_battery report per
    composition in lex order, up to the first report that fails."""
    seen = {name: set() for name in CHECK_ORDER}
    failing = None
    for index, comp in enumerate(cf.enumerate_configs(g.n, c)):
        report = cf.verify_battery(g, comp)
        for row in report.checks:
            seen[row.name].add(row.status)
        if not report.ok:
            failing = (index, list(comp), report)
            break
    checks = []
    for name in CHECK_ORDER:
        status = (FAIL if FAIL in seen[name] else
                  PASS if PASS in seen[name] else NOT_APPLICABLE)
        first = None
        if failing and failing[2].get(name).status == FAIL:
            index, config, report = failing
            first = {"config": config, "index": index, **report.get(name).counterexample}
        checks.append({"name": name, "status": status, "first_counterexample": first})
    return {
        "ok": failing is None,
        "first_failing_config": failing and failing[1],
        "configs_checked": failing[0] + 1 if failing else cf.compositions_count(g.n, c),
        "checks": checks,
    }


class TestVerifyCorpus:
    @given(small_connected_graphs())
    @settings(max_examples=12, deadline=None)
    def test_matches_batteries_in_lex_order(self, g):
        for c in range(cf.stabilization_threshold(g) + 2):
            out = cf.verify_corpus(g, c)
            rebuilt = _corpus_from_batteries(g, c)
            assert {key: out[key] for key in rebuilt} == rebuilt, (g.edges, c)

    def test_triangle_exhaustive(self, c3):
        out = cf.verify_corpus(c3, 9)
        assert out["ok"] and out["configs_checked"] == 55
        assert out["configs_total"] == 55
        assert out["first_failing_config"] is None
        by_name = {c["name"]: c for c in out["checks"]}
        assert by_name["stabilizes"]["status"] == PASS
        assert by_name["stabilized_within_bound"]["status"] == PASS

    def test_counterexample_is_lex_minimal(self, c4):
        out = cf.verify_corpus(c4, 4)
        assert not out["ok"]
        assert out["first_failing_config"] == [0, 0, 0, 4]
        assert out["configs_checked"] == 1
        by_name = {c["name"]: c for c in out["checks"]}
        ce = by_name["stabilizes"]["first_counterexample"]
        assert ce["cycle_min"] == [0, 2, 0, 2]

    def test_sampled_mode(self, c3):
        out = cf.verify_corpus(c3, 9, mode="sampled", trials=25, seed=3)
        assert out["ok"] and out["configs_checked"] == 25
        assert out["mode"] == "sampled"

    @pytest.mark.parametrize("c", [4, 12])
    def test_nothing_checked_is_not_applicable(self, c4, c):
        # no draw: every row not_applicable, below and at the threshold
        out = cf.verify_corpus(c4, c, mode="sampled", trials=0, seed=0)
        assert out["ok"] and out["configs_checked"] == 0
        assert [row["status"] for row in out["checks"]] == [NOT_APPLICABLE] * len(CHECK_ORDER)

    def test_sampled_failure_after_the_first_draw(self, c4):
        out = cf.verify_corpus(c4, 4, mode="sampled", trials=12, seed=1)
        assert not out["ok"] and out["configs_checked"] == 3
        assert out["first_failing_config"] == [2, 0, 1, 1]
        by_name = {c["name"]: c for c in out["checks"]}
        assert [row["name"] for row in out["checks"] if row["status"] == FAIL] == ["stabilizes"]
        assert by_name["stabilizes"]["first_counterexample"]["index"] == 2

    def test_sampled_needs_seed_and_trials(self, c3):
        with pytest.raises(ValueError):
            cf.verify_corpus(c3, 9, mode="sampled")

    def test_negative_trials_is_refused_before_any_draw(self, c3, monkeypatch):
        monkeypatch.setattr(analysis, "random_config", _no_draw)
        with pytest.raises(ValueError, match="trials must be >= 0"):
            cf.verify_corpus(c3, 9, mode="sampled", trials=-2, seed=0)

    def test_unknown_mode(self, c3):
        with pytest.raises(ValueError):
            cf.verify_corpus(c3, 9, mode="creative")

    def test_negative_enum_cap_is_refused(self, c3):
        with pytest.raises(ValueError, match="^enumeration cap must be >= 0, got -3$"):
            cf.verify_corpus(c3, 9, enum_cap=-3)
        # a sampled scan enumerates nothing and reads no enumeration cap
        assert cf.verify_corpus(c3, 9, "sampled", trials=2, seed=0, enum_cap=-3)["ok"]


def _no_draw(*args):
    raise AssertionError("drew a configuration")


class TestThresholdProbe:
    def test_negative_cap_is_refused(self, c3):
        with pytest.raises(ValueError, match="^enumeration cap must be >= 0, got -1$"):
            cf.threshold_probe(c3, 2, cap=-1)

    def test_negative_c_max_is_refused_before_any_scan(self, c3, monkeypatch):
        monkeypatch.setattr(analysis, "exhaustive_verify", _no_draw)
        with pytest.raises(ValueError, match="c_max must be >= 0"):
            cf.threshold_probe(c3, -1)
        # c_max = 0 is one scan of the empty total
        monkeypatch.undo()
        assert [v.c for v in cf.threshold_probe(c3, 0).verdicts] == [0]

    def test_triangle_landscape(self, c3):
        probe = cf.threshold_probe(c3, 9)
        flags = [v.all_stabilize for v in probe.verdicts]
        assert flags == [True, True, True, False, False, False, False, True, True, True]
        assert probe.c_star == 7
        assert probe.threshold == 9
        assert probe.c_star_within_threshold is True
        assert probe.monotone is False

    def test_counterexamples_carry_witnesses(self, c3):
        probe = cf.threshold_probe(c3, 4)
        failing = [v for v in probe.verdicts if not v.all_stabilize]
        assert failing and all(v.counterexample is not None for v in failing)
        assert probe.c_star_within_threshold is None  # c_max below 4m-n

    def test_to_dict_shape(self, c3):
        d = cf.threshold_probe(c3, 3).to_dict()
        assert set(d) == {
            "c_star",
            "threshold",
            "c_star_within_threshold",
            "monotone",
            "verdicts",
        }


def _sweep_rows_from_batteries(g, c_values, trials, seed, state_cap=None):
    """sweep_experiment's rows as they were once built: from the metadata of
    one verify_battery report per sampled configuration."""
    analysis._gate(g)
    threshold = cf.stabilization_threshold(g)
    d = g.diameter
    rows = []
    cap = None
    for ci, c in enumerate(c_values):
        for trial in range(trials):
            cfg = cf.random_config(g.n, c, cf.derive_seed(seed, ci, trial))
            if cap is None:
                cap = analysis._default_state_cap(state_cap)
            md = cf.verify_battery(g, cfg, cap).metadata
            stabilized = md["outcome"] == "stabilized"
            rows.append({
                "n": g.n,
                "m": g.m,
                "d": d,
                "c": c,
                "threshold": threshold,
                "trial": trial,
                "outcome": md["outcome"],
                "stab_round_or_period": md["stab_round"] if stabilized else md["period"],
                "bound": g.n * d * c,
                "slack": md["slack"] if md["slack"] is not None else -1,
                "v_star": md["always_firing_witness"]
                if md["always_firing_witness"] is not None else -1,
                "abundant_start": md["abundant_start"],
                "abundant_end": md["abundant_end"],
            })
    return rows


def _outcome(fn, *args):
    """fn's result, or the type and message of the package error or
    ValueError it raised."""
    try:
        return fn(*args)
    except (ChipfireError, ValueError) as e:
        return type(e), str(e)


class TestSweep:
    def test_rows_and_csv(self, c4):
        rows = cf.sweep_experiment(c4, [4, 12], trials=3, seed=5)
        assert len(rows) == 6
        text = cf.sweep_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 7

    def test_deterministic(self, c4):
        a = cf.sweep_csv(cf.sweep_experiment(c4, [4, 8, 12], trials=4, seed=11))
        b = cf.sweep_csv(cf.sweep_experiment(c4, [4, 8, 12], trials=4, seed=11))
        assert a == b

    def test_zero_trials_gives_header_only(self, c4):
        text = cf.sweep_csv(cf.sweep_experiment(c4, [4], trials=0, seed=0))
        assert text == ",".join(SWEEP_COLUMNS) + "\n"

    def test_negative_trials_is_refused_before_any_draw(self, c4, monkeypatch):
        monkeypatch.setattr(analysis, "random_config", _no_draw)
        with pytest.raises(ValueError, match="trials must be >= 0"):
            cf.sweep_experiment(c4, [4, 12], trials=-1, seed=0)

    @given(small_connected_graphs(max_n=6, dense_n=6), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**64 - 1), st.sampled_from([None, 0, 1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_the_battery_metadata(self, g, trials, seed, state_cap):
        self._assert_rows_match(g, trials, seed, state_cap)

    @pytest.mark.parametrize("state_cap", [None, 1, 2])
    @pytest.mark.parametrize("trials", [1, 3])
    def test_rows_match_the_battery_metadata_on_a_wider_graph(self, trials, state_cap):
        g = cf.generate("random_connected", 40, p=0.1, seed=3)
        self._assert_rows_match(g, trials, 11, state_cap)

    @staticmethod
    def _assert_rows_match(g, trials, seed, state_cap):
        # each c where a row can differ: below m (every orbit stabilizes),
        # half the threshold, 3m - n (the last total with a periodic
        # orbit), and the threshold and one past it, where slack and v_star
        # come into force
        top = 4 * g.m - g.n
        c_values = [0, g.m - 1, top // 2, 3 * g.m - g.n, top, top + 1]
        args = (g, c_values, trials, seed, state_cap)
        assert _outcome(cf.sweep_experiment, *args) == _outcome(_sweep_rows_from_batteries, *args)

    def test_above_threshold_rows_stabilize(self, c3):
        rows = cf.sweep_experiment(c3, [9, 10], trials=5, seed=2)
        assert all(r["outcome"] == "stabilized" for r in rows)
        assert all(r["stab_round_or_period"] <= r["bound"] for r in rows)
        assert all(r["v_star"] >= 0 for r in rows)


class TestRandomInstanceSuite:
    def test_small_suite_clean(self):
        suite = cf.random_instance_suite(40, seed=123)
        assert suite.ok and len(suite.rows) == 40
        assert not suite.violations

    def test_rows_have_all_columns(self):
        suite = cf.random_instance_suite(5, seed=9)
        for row in suite.rows:
            assert list(row) == list(SUITE_COLUMNS)

    def test_csv_deterministic(self):
        a = cf.suite_csv(cf.random_instance_suite(30, seed=77).rows)
        b = cf.suite_csv(cf.random_instance_suite(30, seed=77).rows)
        assert a == b

    def test_c_is_threshold_everywhere(self):
        suite = cf.random_instance_suite(25, seed=5)
        for row in suite.rows:
            assert row["c"] == 4 * row["m"] - row["n"]


def test_named_checks_registry(c3):
    assert set(cf.NAMED_CHECKS) == {"stabilizes", "battery"}
    for name in ("stabilizes", "battery"):
        assert cf.NAMED_CHECKS[name](c3, (9, 0, 0)) is None
    # the check families are reached through the battery only
    for name in ("core", "pass_gaps", "always_firing", "bound"):
        with pytest.raises(ValueError, match=f"unknown check '{name}'"):
            cf.exhaustive_verify(c3, 9, name)


class TestGateOncePerGraph:
    def test_one_validate_across_scans(self, monkeypatch):
        calls = []
        real = graph.validate

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(graph, "validate", counting)
        g = cf.generate("cycle", 4)
        for _ in range(2):
            result = cf.exhaustive_verify(g, 12, "battery")
            assert result.passed and result.configs_checked == 455
        assert cf.verify_corpus(g, 12)["ok"]
        assert cf.verify_corpus(g, 12, "sampled", trials=20, seed=1)["ok"]
        assert calls == [g]

    def test_exception_order(self):
        split = cf.Graph.build(4, [(0, 1), (2, 3)])  # threshold 4
        single = cf.Graph.build(1, [])
        for _ in range(2):  # a kept verdict raises as the first one did
            # the enumeration cap comes before any check runs
            with pytest.raises(ResourceExhausted):
                cf.exhaustive_verify(split, 3, "battery", cap=2)
            for c in (3, 4):  # below the threshold as above it
                with pytest.raises(Disconnected):
                    cf.exhaustive_verify(split, c, "battery")
            with pytest.raises(InvalidGraph):
                cf.exhaustive_verify(single, 2, "battery")


def test_named_checks_agree_with_battery_rows(c4, p4, star4):
    # the battery's check of one composition gives the first failing row
    # of verify_battery's report, and a periodic orbit's cycle witness
    for g in (c4, p4, star4):
        for c in range(cf.stabilization_threshold(g) + 2):
            for comp in cf.enumerate_configs(g.n, c):
                report = cf.verify_battery(g, comp)
                failing = [r for r in report.checks if r.status == FAIL]
                expected = None
                if failing:
                    expected = {"check": failing[0].name, **failing[0].counterexample}
                    if failing[0].name == "stabilizes":
                        expected["witness_config"] = tuple(expected["cycle_min"])
                assert cf.NAMED_CHECKS["battery"](g, comp) == expected, (g.edges, comp)


def _scan_verdict(check, comp):
    """check(comp), or the type and message of what it raised."""
    try:
        return check(comp)
    except ResourceExhausted as e:
        return ResourceExhausted, str(e)


def _battery_verdicts(g, c, comps, state_cap, threshold=None):
    """(battery scan check, first failing battery row) verdicts of each
    composition, both under the same threshold: the graph's, or a lower
    one that puts the always-firing and bound rows in force at small c,
    where they can fail."""
    if threshold is None:
        threshold = cf.stabilization_threshold(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "stabilization_threshold", lambda g: threshold)
        check = analysis._battery_scan(g, c, state_cap)
    cap = analysis._default_state_cap(state_cap)

    def rows(comp):
        initial = cf.Configuration(comp, c)
        return analysis._first_failure(analysis._battery_rows(g, initial, threshold, cap)[0])

    return [(_scan_verdict(check, comp), _scan_verdict(rows, comp)) for comp in comps]


class TestBatteryScanVerdict:
    """The battery scan's check settles most compositions off their one
    walk; its verdict must be the first failing row of the battery."""

    @given(small_connected_graphs(max_n=6, dense_n=6), st.sampled_from([1, 2, None]),
           st.booleans(),
           st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_first_failing_row(self, g, state_cap, lowered, seeds):
        threshold = cf.stabilization_threshold(g) // 2 if lowered else None
        for c in range(4 * g.m - g.n + 3):
            comps = [cf.random_config(g.n, c, seed).candy for seed in seeds]
            comps += [(0,) * (g.n - 1) + (c,), (c,) + (0,) * (g.n - 1)]
            for got, expected in _battery_verdicts(g, c, comps, state_cap, threshold):
                assert got == expected, (g.edges, c, state_cap, threshold)

    @pytest.mark.parametrize("spec", [("cycle", 4), ("path", 4), ("star", 4)])
    @pytest.mark.parametrize("state_cap", [2, None])
    def test_matches_on_every_composition(self, spec, state_cap):
        # a threshold of 0 puts every row in force at every total, so each
        # predicate of the check fails on some composition here
        g = cf.generate(*spec)
        failing = set()
        for threshold in (0, None):
            for c in range(cf.stabilization_threshold(g) + 3):
                comps = list(cf.enumerate_configs(g.n, c))
                for got, expected in _battery_verdicts(g, c, comps, state_cap, threshold):
                    assert got == expected, (spec, c, state_cap, threshold)
                    if isinstance(expected, dict):
                        failing.add(expected["check"])
        assert {"fired_nonempty", "always_firing", "surplus_pigeonhole",
                "stabilizes"} <= failing

    @given(small_connected_graphs())
    @settings(max_examples=5, deadline=None)
    def test_walks_each_orbit_once(self, g):
        # every composition is stepped once along its orbit, up to its first
        # repeat, whether the check settles it or folds its rows
        for c in range(cf.stabilization_threshold(g) + 2):
            check = analysis._battery_scan(g, c)
            for comp in cf.enumerate_configs(g.n, c):
                with pytest.MonkeyPatch.context() as mp:
                    calls = count_steps(mp)
                    check(comp)
                assert calls[0] == sum(naive_orbit(g, comp)), (g.edges, comp)

    @pytest.mark.parametrize("c, states, fired, failing", [
        (9, [(3, 3, 3), (3, 3, 3)], [(0, 1, 2)], set()),
        (9, [(3, 3, 4), (3, 3, 3), (3, 3, 3)], [(2,), (0, 1, 2)], {"conservation"}),
        (9, [(4, 3, 2), (4, 3, 2), (4, 2, 2)], [(0, 1), (0, 1)], {"conservation"}),
        (9, [(4, 3, 2), (5, 2, 2), (5, 2, 2)], [(0,), (0,)], {"no_gain"}),
        (9, [(3, 3, 3), (4, 3, 2), (4, 3, 2)], [(1, 2), (1, 2)], {"abundant_monotone"}),
        (9, [(3, 3, 3), (3, 3, 3)], [()], {"fired_nonempty", "always_firing"}),
        (9, [(3, 3, 3), (3, 3, 3), (3, 3, 3)], [(0, 1), (2,)], {"always_firing"}),
        (6, [(2, 2, 2), (2, 2, 2)], [(0, 1, 2)], {"surplus_pigeonhole"}),
    ], ids=["passes", "conservation-start", "conservation-later", "no_gain",
            "abundant_monotone", "fired_nonempty", "always_firing", "surplus_pigeonhole"])
    def test_each_predicate_on_a_made_up_walk(self, c3, c, states, fired, failing):
        # a stabilizing walk of fewer than c rounds that fails one predicate,
        # so no other rule sends it to the folds; a real kernel cannot
        # produce most of these, and a threshold of 0 puts every row in force
        preperiod = len(fired) - 1
        rows, _ = analysis._battery_fold(c3, c, 0, states, fired, preperiod, 1)
        assert {r.name for r in rows if r.status == FAIL} == failing
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "stabilization_threshold", lambda g: 0)
            check = analysis._battery_scan(c3, c)
            mp.setattr(analysis, "_walk", lambda *args: (
                list(states), list(fired), preperiod, 1, states[-1]))
            assert check(states[0]) == analysis._first_failure(rows)

    def test_budget_exhaustion_matches_the_walk(self):
        # path:5's all-on-one-end composition at 4m - n outruns the 64-step
        # walk a state cap of 1 allows, in the scan as in verify_battery
        g = cf.generate("path", 5)
        c = cf.stabilization_threshold(g)
        comp = (0, 0, 0, 0, c)
        [(got, expected)] = _battery_verdicts(g, c, [comp], 1)
        assert got == expected
        assert got[0] is ResourceExhausted
        with pytest.raises(ResourceExhausted, match=got[1]):
            cf.verify_battery(g, comp, state_cap=1)


@pytest.mark.parametrize("spec", [("cycle", 4), ("path", 4), ("star", 4)])
def test_stabilization_bound_matches_battery(spec):
    # the bound fold's rows and values are the battery's rows and metadata
    g = cf.generate(*spec)
    threshold = cf.stabilization_threshold(g)
    names = ("stabilized_within_bound", "idle_gap")
    keys = ("bound", "gap_bound", "stab_round", "slack")
    for c in range(threshold, threshold + 3):
        for comp in cf.enumerate_configs(g.n, c):
            rows, found = _family("bound", g, comp)
            battery = cf.verify_battery(g, comp)
            assert [(r.name, r.status, r.counterexample) for r in rows] == [
                (r, battery.get(r).status, battery.get(r).counterexample) for r in names], comp
            assert set(found) == set(keys), comp
            assert [found[k] for k in keys] == [battery.metadata[k] for k in keys], comp


def test_enumeration_cap_before_state_cap(monkeypatch):
    # an over-cap scan fails on the enumeration cap before the state cap is read
    monkeypatch.setenv("CHIPFIRE_STATE_CAP", "soon")
    with pytest.raises(ResourceExhausted):
        cf.verify_corpus(cf.generate("cycle", 6), 18, enum_cap=10)


def _lex_compositions(n, c):
    """Every composition of c into n parts in lex order, by recursion on the
    first part, independent of the package's enumeration."""
    if n == 1:
        yield (c,)
        return
    for first in range(c + 1):
        for rest in _lex_compositions(n - 1, c - first):
            yield (first, *rest)


def _scan_one_at_a_time(g, c, name):
    """exhaustive_verify's fields, rebuilt from NAMED_CHECKS[name] called on
    each composition in lex order, up to the first that fails."""
    check = cf.NAMED_CHECKS[name]
    checked = 0
    for rank, comp in enumerate(_lex_compositions(g.n, c)):
        detail = check(g, comp)
        checked += 1
        if detail is not None:
            witness = tuple(detail.pop("witness_config", comp))
            return False, checked, (witness, comp, rank, detail)
    return True, checked, None


class TestNamedScans:
    @given(small_connected_graphs())
    @settings(max_examples=6, deadline=None)
    def test_scan_matches_one_check_per_composition(self, g):
        threshold = cf.stabilization_threshold(g)
        for c in range(threshold + 2):
            for name in cf.NAMED_CHECKS:
                res = cf.exhaustive_verify(g, c, name)
                ce = res.counterexample
                got = (res.passed, res.configs_checked,
                       ce and (ce.config, ce.initial, ce.rank, ce.detail))
                assert got == _scan_one_at_a_time(g, c, name), (name, g.edges, c)

    def test_malformed_state_cap_env(self, monkeypatch, c3):
        monkeypatch.setenv("CHIPFIRE_STATE_CAP", "soon")
        with pytest.raises(ValueError, match="CHIPFIRE_STATE_CAP"):
            cf.exhaustive_verify(c3, 3, "stabilizes")
        with pytest.raises(ValueError, match="CHIPFIRE_STATE_CAP"):
            cf.threshold_probe(c3, 3)
        # an over-cap enumeration fails before the state cap is read
        with pytest.raises(ResourceExhausted):
            cf.exhaustive_verify(c3, 200, "stabilizes", cap=10)
        with pytest.raises(ResourceExhausted):
            cf.threshold_probe(c3, 3, cap=0)

    def test_state_cap_env_is_read_per_scan(self, monkeypatch):
        # path:5 at c = 4m - n: its first composition, all candy on one end,
        # takes more than the 64-step walk that a state cap of 1 allows
        g = cf.generate("path", 5)
        c = cf.stabilization_threshold(g)
        for _ in range(2):
            monkeypatch.setenv("CHIPFIRE_STATE_CAP", "1")
            with pytest.raises(ResourceExhausted):
                cf.exhaustive_verify(g, c, "stabilizes")
            monkeypatch.setenv("CHIPFIRE_STATE_CAP", "soon")
            with pytest.raises(ValueError):
                cf.exhaustive_verify(g, c, "stabilizes")
            monkeypatch.delenv("CHIPFIRE_STATE_CAP")
            assert cf.exhaustive_verify(g, c, "stabilizes").passed


def _naive_stabilizes_scan(g, c):
    """exhaustive_verify(g, c, "stabilizes")'s fields, rebuilt from the
    reference simulator alone: naive_orbit classifies each composition in
    lex order, up to the first whose period exceeds 1, and naive_round
    steps its cycle for the least state."""
    neighbors = neighbor_map(g)
    for rank, comp in enumerate(_lex_compositions(g.n, c)):
        preperiod, period = naive_orbit(g, comp)
        if period > 1:
            x = list(comp)
            for _ in range(preperiod):
                x, _fired = naive_round(neighbors, x)
            cycle = []
            for _ in range(period):
                cycle.append(tuple(x))
                x, _fired = naive_round(neighbors, x)
            detail = {"kind": "periodic", "preperiod": preperiod, "period": period}
            return False, rank + 1, (min(cycle), comp, rank, detail)
    return True, cf.compositions_count(g.n, c), None


@given(small_connected_graphs())
@settings(max_examples=10, deadline=None)
def test_stabilizes_scan_matches_the_reference_simulator(g):
    # TestNamedScans compares the scan with NAMED_CHECKS, which walks with
    # the same code; this compares it with a simulator that shares none
    for c in range(cf.stabilization_threshold(g) + 2):
        res = cf.exhaustive_verify(g, c, "stabilizes")
        ce = res.counterexample
        got = (res.passed, res.configs_checked,
               ce and (ce.config, ce.initial, ce.rank, ce.detail))
        assert got == _naive_stabilizes_scan(g, c), (g.edges, c)


def _steps_to_a_passed_state(g, comp):
    """The rounds a scan's walk of comp steps, by the reference simulator:
    up to its first state below comp, or else to its first repeat."""
    neighbors = neighbor_map(g)
    seen = {comp}
    x, t = comp, 0
    while True:
        x, _fired = naive_round(neighbors, list(x))
        x, t = tuple(x), t + 1
        if x < comp or x in seen:
            return t
        seen.add(x)


@given(small_connected_graphs())
@settings(max_examples=6, deadline=None)
def test_scan_walks_stop_at_the_first_passed_state(g):
    # each walk after the lex-least composition's stops at its first state
    # below the composition, which the scan has passed; the failing
    # composition is walked whole and then classified, so walked twice
    for c in range(cf.stabilization_threshold(g) + 2):
        with pytest.MonkeyPatch.context() as mp:
            calls = count_steps(mp)
            res = cf.exhaustive_verify(g, c, "stabilizes")
        comps = list(islice(_lex_compositions(g.n, c), res.configs_checked))
        expected = sum(_steps_to_a_passed_state(g, comp) for comp in comps)
        if not res.passed:
            expected += sum(naive_orbit(g, comps[-1]))
        assert calls[0] == expected, (g.edges, c)


def test_one_composition_check_walks_its_whole_orbit(c4):
    # (2, 0, 2, 0) steps to (0, 2, 0, 2), a lower state; only a scan that
    # began at (0, 0, 0, 4) has passed it, so a check of the one
    # composition must not stop there
    assert cf.NAMED_CHECKS["stabilizes"](c4, (2, 0, 2, 0)) == {
        "kind": "periodic", "preperiod": 0, "period": 2, "witness_config": (0, 2, 0, 2)}


@given(small_connected_graphs(max_n=6, dense_n=6), st.data())
@settings(max_examples=40, deadline=None)
def test_outcomes_are_invariant_under_relabelling(g, data):
    # vertex v of g is vertex pi[v] of h: the same game under other names
    pi = data.draw(st.permutations(range(g.n)))
    h = cf.Graph.build(g.n, [(pi[u], pi[w]) for u, w in g.edges])
    c = data.draw(st.integers(min_value=0, max_value=4 * g.m - g.n + 2))
    candy = cf.random_config(g.n, c, data.draw(st.integers(0, 2**64 - 1))).candy
    moved = [0] * g.n
    for v, x in enumerate(candy):
        moved[pi[v]] = x
    before, after = cf.classify(g, candy), cf.classify(h, moved)
    if isinstance(before, cf.Stabilized):
        fixed = [0] * g.n
        for v, x in enumerate(before.fixed.candy):
            fixed[pi[v]] = x
        assert after == cf.Stabilized(before.stab_round, cf.Configuration.of(fixed))
    else:
        assert after == before
    statuses = [(r.name, r.status) for r in cf.verify_battery(g, candy).checks]
    assert [(r.name, r.status) for r in cf.verify_battery(h, moved).checks] == statuses


def _higher_end_outdegrees(g):
    """The outdegrees of the acyclic orientation that points each edge at
    its higher end: total m."""
    return [sum(u > v for u in g.adjacency[v]) for v in range(g.n)]


class TestThresholdTheory:
    """The statements that bracket the tight threshold 3m - n + 1 on a
    connected graph with n >= 2, checked on the engine's own scans."""

    @given(small_connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_fewer_than_m_candies_stabilize(self, g):
        # a parallel round is a legal sequence of single firings, and a
        # chip-firing game with fewer chips than edges is finite
        # (Bjorner-Lovasz-Shor), so every total below m stabilizes
        for c in range(g.m):
            assert cf.exhaustive_verify(g, c, "stabilizes").passed, (g.edges, c)

    @pytest.mark.parametrize("g", [
        cf.generate("cycle", 300),
        cf.generate("complete", 30),
        cf.generate("random_tree", 250, seed=1),
        cf.generate("random_connected", 200, p=0.05, seed=3),
    ], ids=lambda g: f"n{g.n}m{g.m}")
    def test_orientation_witnesses_at_m_and_3m_minus_n(self, g):
        self._assert_witness_pair(g)

    @given(small_connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_orientation_witnesses_on_small_graphs(self, g):
        self._assert_witness_pair(g)
        # so the least failing total is m: below it every scan passes
        assert not cf.exhaustive_verify(g, g.m, "stabilizes").passed

    @pytest.mark.parametrize("g", [
        cf.Graph.build(2, [(0, 1)]),
        cf.Graph.build(3, [(0, 1), (1, 2)]),
        cf.Graph.build(3, [(0, 1), (1, 2), (0, 2)]),
        cf.Graph.build(4, [(0, 1), (1, 2), (2, 3)]),
        cf.Graph.build(4, [(0, 1), (0, 2), (0, 3)]),
        cf.Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        cf.Graph.build(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        cf.Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        cf.Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        cf.generate("cycle", 5),
        cf.generate("path", 5),
        cf.generate("star", 5),
        cf.generate("random_connected", 5, p=0.5, seed=2),
    ], ids=lambda g: f"n{g.n}m{g.m}-" + "-".join(f"{u}{w}" for u, w in g.edges))
    def test_tight_threshold_on_small_graphs(self, g):
        # every connected graph on 2 to 4 vertices, and four on 5: every
        # total from 3m - n + 1 up to 4m - n stabilizes, and 3m - n does not.
        # Stabilization is not monotone in c on any of them, so that is
        # not asserted
        top = 4 * g.m - g.n
        probe = cf.threshold_probe(g, top)
        assert probe.c_star == 3 * g.m - g.n + 1
        # by L3 and L4 the complement 2d - 1 - sigma of a cycle state is a
        # cycle state of total 4m - n - c, so the failing totals are
        # symmetric about (4m - n) / 2
        failing = {v.c for v in probe.verdicts if not v.all_stabilize}
        assert failing == {top - c for c in failing}

    @given(small_connected_graphs(max_n=6, dense_n=6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_periodic_orbit_lemmas(self, g, data):
        # on every periodic orbit, stepped with the reference simulator:
        # every vertex fires equally often over a period (L2), no cycle
        # state holds 2d(v) or more at any vertex (L3), and the complement
        # 2d - 1 - sigma of the cycle entry sigma fires, round by round
        # for a period, exactly the vertices the cycle does not (L4)
        neighbors = neighbor_map(g)
        twice = [2 * d for d in g.degree]
        c = data.draw(st.integers(min_value=0, max_value=4 * g.m - g.n), label="c")
        seeds = data.draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                                   min_size=1, max_size=8), label="seeds")
        # the outdegrees of an acyclic orientation always start a periodic orbit
        starts = [_higher_end_outdegrees(g)]
        starts += [cf.random_config(g.n, c, seed).candy for seed in seeds]
        for start in starts:
            preperiod, period = naive_orbit(g, start)
            if period == 1:
                continue
            x = list(start)
            for _ in range(preperiod):
                x, _fired = naive_round(neighbors, x)
            complement = [t - 1 - s for t, s in zip(twice, x)]
            fires = dict.fromkeys(range(g.n), 0)
            for _ in range(period):
                assert all(map(int.__lt__, x, twice)), (g.edges, start, x)  # L3
                x, fired = naive_round(neighbors, x)
                complement, complement_fired = naive_round(neighbors, complement)
                assert complement_fired == set(range(g.n)) - fired, (g.edges, start)  # L4
                for v in fired:
                    fires[v] += 1
            assert len(set(fires.values())) == 1, (g.edges, start, fires)  # L2

    SEQUENTIAL_GRAPHS = [cf.generate(kind, n) for kind in ("cycle", "path", "star")
                         for n in (4, 5)] + [cf.generate("complete", n) for n in (3, 4)]

    @pytest.mark.parametrize("g", SEQUENTIAL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_fewer_than_m_candies_terminate_sequentially(self, g):
        # L5 through seq_run: a game with fewer candies than edges is finite
        # (Bjorner-Lovasz-Shor), and, the sequential game being abelian, it
        # ends where the parallel game does after as many single firings as
        # the parallel game's passes
        for c in range(g.m):
            for comp in cf.enumerate_configs(g.n, c):
                outcome = cf.seq_run(g, comp, "lowest_index")
                assert isinstance(outcome, cf.Terminated), (g.edges, comp)
                fixed = cf.classify(g, comp)
                trace = cf.run(g, comp, max_rounds=fixed.stab_round + 1)
                assert outcome.final == fixed.fixed == trace.final, (g.edges, comp)
                assert outcome.length == sum(trace.pass_at(len(trace.rounds))), (g.edges, comp)

    @pytest.mark.parametrize("g", SEQUENTIAL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_more_than_2m_minus_n_candies_never_terminate(self, g):
        # a game with more than 2m - n candies is infinite (Bjorner-Lovasz-Shor)
        for c in (2 * g.m - g.n + 1, 2 * g.m - g.n + 2):
            for comp in cf.enumerate_configs(g.n, c):
                assert isinstance(cf.seq_run(g, comp, "lowest_index"), cf.Infinite), (g.edges, comp)

    @staticmethod
    def _assert_witness_pair(g):
        # the outdegrees of an acyclic orientation fire by edge reversal,
        # where every vertex fires infinitely often and the schedule is
        # periodic (Barbosa-Gafni); the complement 2d - 1 - sigma fires on
        # exactly the complementary rounds, so its orbit has the same
        # preperiod and period
        m = g.m
        sigma = _higher_end_outdegrees(g)
        complement = [2 * d - 1 - s for d, s in zip(g.degree, sigma)]
        assert (sum(sigma), sum(complement)) == (m, 3 * m - g.n)
        outcome = cf.classify(g, sigma)
        assert isinstance(outcome, cf.EventuallyPeriodic)
        assert cf.classify(g, complement) == outcome


def test_library_writes_nothing_to_stdout(capsys, c3, c4):
    for kind in cf.GENERATOR_KINDS:
        cf.generate(kind, 300 if kind == "random_connected" else 5, p=0.03, seed=1)
    cf.random_config(300, 5_000, 1)
    cf.random_config(3, 10**30, 1)
    cf.verify_corpus(c4, 12)
    cf.verify_corpus(c4, 4)
    cf.threshold_probe(c3, 9)
    cf.sweep_experiment(c4, [4, 12], 2, 1)
    cf.verify_battery(c3, [9, 0, 0])
    cf.run(c3, [9, 0, 0], 10)
    assert capsys.readouterr().out == ""


def test_firing_failure_reports_are_pinned(c3):
    # no real game above the threshold fails these rows, so a record is built
    # by hand: nobody fires in round 3, and no vertex fires in both rounds 1 and 2
    record = _hand_record([9, 0, 0], [{0}, {1}, set(), {0, 1, 2}])
    rows, found = _hand_fold("always_firing", c3, 9, *record)
    assert [(r.name, r.status, r.counterexample) for r in rows] == [
        ("fired_nonempty", FAIL, {"round": 3}),
        ("always_firing", FAIL, {"empty_after_round": 2}),
        ("surplus_pigeonhole", PASS, None),
    ]
    assert found == {"always_firing_witness": None}
    # every vertex of (2, 2, 2) is short and none holds a surplus
    rows, found = _hand_fold("always_firing", c3, 6, [(2, 2, 2)] * 2, [(0, 1, 2)])
    assert [(r.name, r.status, r.counterexample) for r in rows] == [
        ("fired_nonempty", PASS, None),
        ("always_firing", PASS, None),
        ("surplus_pigeonhole", FAIL, {"round": 0, "deficient_vertex": 0}),
    ]
    assert found == {"always_firing_witness": 0}


def test_idle_gap_fold_past_d_times_c(p3):
    # path:3 has d = 2; with c = 1 the idle cap d * c = 2 is below stab = 5,
    # so the idle runs are measured: vertex 0 idles in rounds 2-4
    states = [(1, 0, 0)]  # read only when the game fails to stabilize in time
    fired = [(0,), (), (), (), (0, 1, 2)]
    rows, meta = analysis._fold("bound", p3, 1, 0, states, fired, 5, 1)
    assert [(r.name, r.status, r.counterexample) for r in rows] == [
        ("stabilized_within_bound", PASS, None),
        ("idle_gap", FAIL, {"vertex": 0, "observed": 3, "bound": 2}),
    ]
    assert meta == {"bound": 6, "gap_bound": 2, "stab_round": 5, "slack": 1}
    rows, _ = analysis._fold("bound", p3, 1, 0, states, [(0, 1, 2)] * 5, 5, 1)
    assert rows[1].status == PASS


@pytest.mark.parametrize("preperiod, period, slack", [(7, 1, -1), (3, 2, None)])
def test_bound_failure_reports_are_pinned(p3, preperiod, period, slack):
    # a stab round past n * d * c = 6, or a periodic orbit, fails both rows
    # with the same counterexample
    states = [(1, 0, 0)]
    rows, meta = analysis._fold("bound", p3, 1, 0, states, [(0, 1, 2)] * 7, preperiod, period)
    stab = preperiod if period == 1 else None
    fail = {"config": [1, 0, 0], "stab_round": stab, "bound": 6}
    assert [(r.name, r.status, r.counterexample) for r in rows] == [
        ("stabilized_within_bound", FAIL, fail),
        ("idle_gap", FAIL, fail),
    ]
    assert meta == {"bound": 6, "gap_bound": 2, "stab_round": stab, "slack": slack}
