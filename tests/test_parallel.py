"""The synchronous engine: stepping, traces, orbit classification, CSV."""

import tracemalloc
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire import parallel
from chipfire.errors import ResourceExhausted, SizeMismatch
from chipfire.parallel import DEFAULT_STATE_CAP, _default_state_cap, _record_orbit
from chipfire.sequential import seq_run

from conftest import count_steps, naive_orbit, naive_round, neighbor_map


def test_configuration_rejects_negative():
    with pytest.raises(ValueError):
        cf.Configuration.of([1, -1])


def test_configuration_names_first_negative():
    with pytest.raises(ValueError, match=r"^negative candy count -2$"):
        cf.Configuration.of([1, -2, -5])


class _Count:
    """An integer type of its own: it has __index__ and is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_configuration_takes_bools_and_refuses_floats():
    conf = cf.Configuration.of([True, _Count(2), False, 3])
    assert conf.candy == (1, 2, 0, 3) and conf.total == 6
    assert all(type(v) is int for v in conf.candy)
    for bad in (2.9, 2.0, "3", None):
        with pytest.raises(ValueError, match=f"^candy count {bad!r} is not an integer$"):
            cf.Configuration.of([1, bad, 0])


NOT_INTEGERS = (st.floats(allow_nan=True) | st.just(float("nan")) | st.text(max_size=3)
                | st.none() | st.sampled_from(["1", "0x2", 1.7, 0.0]))


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4),
       st.integers(min_value=0, max_value=3), NOT_INTEGERS)
@settings(max_examples=60, deadline=None)
def test_non_integer_candy_is_refused_everywhere(candy, at, bad):
    # a truncated answer or a bare TypeError would both be wrong
    g = cf.generate("cycle", 4)
    config = list(candy)
    config[at] = bad
    entry_points = (
        lambda: cf.classify(g, config),
        lambda: cf.run(g, config, 10),
        lambda: cf.verify_battery(g, config),
        lambda: seq_run(g, config, "lowest_index"),
    )
    for call in entry_points:
        with pytest.raises(ValueError, match="is not an integer"):
            call()


def test_configuration_empty_and_generator_inputs():
    assert cf.Configuration.of(()) == cf.Configuration((), 0)
    conf = cf.Configuration.of(v for v in (3, 0, 1))
    assert conf.candy == (3, 0, 1) and conf.total == 4


def test_step_hand_example(c3):
    conf, fired = cf.step(c3, [9, 0, 0])
    assert conf.candy == (7, 1, 1)
    assert fired == (0,)


def test_step_size_mismatch(c3):
    with pytest.raises(SizeMismatch):
        cf.step(c3, [1, 2])


def test_isolated_vertex_never_fires():
    g = cf.Graph.build(2, [])
    conf, fired = cf.step(g, [5, 0])
    assert conf.candy == (5, 0) and fired == ()
    assert cf.run(g, [5, 0], 1).stop is cf.StopReason.FIXED_POINT


class TestRun:
    def test_triangle_concentration(self, c3):
        trace = cf.run(c3, [9, 0, 0], 50)
        assert [tuple(r.config.candy) for r in trace.rounds] == [
            (7, 1, 1),
            (5, 2, 2),
            (5, 2, 2),
        ]
        assert trace.stop is cf.StopReason.FIXED_POINT
        assert trace.stab_round == 2
        assert trace.final.candy == (5, 2, 2)
        # the detecting round is part of the trace
        assert trace.rounds[-1].config == trace.rounds[-2].config

    def test_path_five_candies(self, p3):
        trace = cf.run(p3, [5, 0, 0], 50)
        assert trace.stab_round == 5
        assert trace.final.candy == (2, 2, 1)

    def test_budget_stop(self, c4):
        trace = cf.run(c4, [2, 0, 2, 0], 10)
        assert trace.stop is cf.StopReason.BUDGET
        assert len(trace.rounds) == 10
        assert trace.stab_round is None

    def test_rounds_numbered_from_one(self, c3):
        trace = cf.run(c3, [9, 0, 0], 50)
        assert [r.t for r in trace.rounds] == [1, 2, 3]
        assert trace.config_at(0).candy == (9, 0, 0)

    def test_zero_candy_is_immediately_fixed(self, c3):
        trace = cf.run(c3, [0, 0, 0], 5)
        assert trace.stab_round == 0
        assert len(trace.rounds) == 1

    def test_pass_counts_cumulative(self, c3):
        trace = cf.run(c3, [9, 0, 0], 50)
        assert trace.pass_at(0) == (0, 0, 0)
        assert trace.pass_at(2) == (2, 0, 0)
        assert trace.pass_at(3) == (3, 1, 1)

    def test_pass_counts_are_counted_from_the_fired_tuples(self, c4):
        trace = cf.run(c4, [5, 0, 3, 1], 40)
        counts = [0] * c4.n
        for t, rec in enumerate(trace.rounds, 1):
            assert rec.fired == tuple(sorted(rec.fired))
            for v in rec.fired:
                counts[v] += 1
            assert trace.pass_at(t) == tuple(counts)

    def test_running_pass_counts_match_pass_at(self):
        # games that stabilize, that oscillate, and that stop on their
        # budget, from a few seeded starts at totals below and above 4m - n:
        # pass_at(t) is the running count of each vertex's firings
        for g in GRAPH_POOL:
            for c in (g.m, 3 * g.m, 4 * g.m - g.n):
                for seed, budget in ((0, 0), (1, 5), (2, 200)):
                    trace = cf.run(g, cf.random_config(g.n, c, seed), budget)
                    counts = [0] * g.n
                    assert trace.pass_at(0) == tuple(counts)
                    for t, rec in enumerate(trace.rounds, 1):
                        for v in rec.fired:
                            counts[v] += 1
                        assert trace.pass_at(t) == tuple(counts)

    def test_trace_keeps_no_pass_count_column(self):
        assert [f.name for f in fields(cf.GameTrace)] == ["initial", "rounds", "stop"]

    def test_rounds_outside_the_trace_raise(self, c3):
        trace = cf.run(c3, [9, 0, 0], 50)  # rounds 0..3
        for t in (-1, -3, -4, 4):
            with pytest.raises(IndexError):
                trace.config_at(t)
            with pytest.raises(IndexError):
                trace.pass_at(t)
        assert trace.config_at(3) == trace.final

    def test_long_game_trace_memory(self):
        # path:70 at the threshold runs 6 733 rounds; each is held once, as
        # its fired tuple and configuration (about 1.2 KB), so the trace
        # stays near 8 MB
        g = cf.generate("path", 70)
        c = cf.stabilization_threshold(g)
        tracemalloc.start()
        try:
            trace = cf.run(g, [c] + [0] * (g.n - 1), g.n * g.diameter * c + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.rounds) == 6733
        assert peak < 12_000_000

    def test_max_rounds_validation(self, c3):
        with pytest.raises(ValueError):
            cf.run(c3, [1, 1, 1], -1)

    def test_trace_capped_by_state_cap(self, monkeypatch, c4):
        monkeypatch.setenv("CHIPFIRE_STATE_CAP", "50")
        # an oscillator under a large budget stops at the cap; the budget
        # is 2000x the cap, not unbounded, so a missing cap fails in ~65 MB
        with pytest.raises(ResourceExhausted):
            cf.run(c4, [2, 0, 2, 0], 10**5)
        assert len(cf.run(c4, [2, 0, 2, 0], 50).rounds) == 50
        # a game whose trace is exactly the cap (stab_round 49) still returns
        trace = cf.run(cf.generate("path", 7), [0, 0, 0, 0, 0, 1, 16], 10**5)
        assert trace.stab_round == 49 and len(trace.rounds) == 50


def _fixed(g, conf):
    """run's fixed-point rule: the first round changes nothing."""
    return cf.run(g, conf, 1).stop is cf.StopReason.FIXED_POINT


class TestFixedPoint:
    def test_all_firing_is_fixed(self, c3):
        assert _fixed(c3, [5, 2, 2])

    def test_none_firing_is_fixed(self, c3):
        assert _fixed(c3, [1, 1, 0])

    def test_partial_firing_is_not(self, c3):
        assert not _fixed(c3, [9, 0, 0])

    def test_disconnected_componentwise(self):
        g = cf.Graph.build(4, [(0, 1), (2, 3)])
        # one component all-firing, the other all-idle: still fixed
        assert _fixed(g, [1, 1, 0, 0])
        assert not _fixed(g, [2, 0, 0, 0])


class TestClassify:
    def test_stabilizing(self, c3):
        out = cf.classify(c3, [9, 0, 0])
        assert out == cf.Stabilized(2, cf.Configuration.of([5, 2, 2]))

    def test_oscillator(self, c4):
        out = cf.classify(c4, [2, 0, 2, 0])
        assert out == cf.EventuallyPeriodic(preperiod=0, period=2)

    def test_preperiodic_oscillator(self, c4):
        out = cf.classify(c4, [0, 0, 0, 4])
        assert out == cf.EventuallyPeriodic(preperiod=2, period=2)

    def test_brent_fallback_agrees(self, c3, c4):
        # a cap of 1 or 2 forces the constant-memory path immediately
        assert cf.classify(c3, [9, 0, 0], state_cap=2) == cf.classify(c3, [9, 0, 0])
        assert cf.classify(c4, [2, 0, 2, 0], state_cap=1) == cf.classify(c4, [2, 0, 2, 0])

    def test_step_cap_exhaustion(self):
        g = cf.generate("cycle", 5)
        with pytest.raises(ResourceExhausted):
            cf.classify(g, [50, 0, 0, 0, 0], state_cap=1, step_cap=3)

    def test_env_cap_override(self, monkeypatch, c3):
        monkeypatch.setenv("CHIPFIRE_STATE_CAP", "2")
        assert _default_state_cap() == 2
        # exactness survives the tiny cap through the fallback
        assert cf.classify(c3, [9, 0, 0]) == cf.Stabilized(2, cf.Configuration.of([5, 2, 2]))

    def test_env_cap_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("CHIPFIRE_STATE_CAP", "soon")
        with pytest.raises(ValueError):
            _default_state_cap()


# every entry point that walks an orbit, called with an explicit state cap
CAPPED_CALLS = {
    "classify": lambda g, cap: cf.classify(g, [1, 1, 1, 1], state_cap=cap),
    "verify_battery": lambda g, cap: cf.verify_battery(g, [2, 0, 2, 0], state_cap=cap),
    "verify_corpus": lambda g, cap: cf.verify_corpus(g, 4, state_cap=cap),
    "sweep_experiment": lambda g, cap: cf.sweep_experiment(g, [4], 1, 1, state_cap=cap),
    "random_instance_suite": lambda g, cap: cf.random_instance_suite(1, 1, state_cap=cap),
    "seq_run": lambda g, cap: seq_run(g, [2, 2, 2, 2], state_cap=cap),
}


@pytest.mark.parametrize("cap", [0, -5])
@pytest.mark.parametrize("entry", list(CAPPED_CALLS))
def test_state_cap_below_one_is_a_value_error(entry, cap, c4, monkeypatch):
    # rejected before any step, even where the first step would decide the orbit
    monkeypatch.setattr(parallel, "_step_raw", None)
    with pytest.raises(ValueError, match=rf"^state_cap must be >= 1, got {cap}$"):
        CAPPED_CALLS[entry](c4, cap)


def test_negative_step_cap_is_a_value_error(c4):
    with pytest.raises(ValueError, match=r"^step_cap must be >= 0, got -1$"):
        cf.classify(c4, [1, 1, 1, 1], step_cap=-1)
    # a step cap of 0 is a budget, spent at the first step past the state cap
    with pytest.raises(ResourceExhausted):
        cf.classify(c4, [2, 0, 2, 0], state_cap=1, step_cap=0)


# every other count or cap an entry point takes, where None is no default
COUNTED_CALLS = {
    "run max_rounds": lambda g, x: cf.run(g, [2, 2, 2, 2], x),
    "random_config n": lambda g, x: cf.random_config(x, 4, 1),
    "random_config c": lambda g, x: cf.random_config(4, x, 1),
    "compositions_count n": lambda g, x: cf.compositions_count(x, 4),
    "compositions_count c": lambda g, x: cf.compositions_count(4, x),
    "enumerate_configs cap": lambda g, x: next(cf.enumerate_configs(4, 2, cap=x)),
    "exhaustive_verify cap": lambda g, x: cf.exhaustive_verify(g, 2, "stabilizes", cap=x),
    "verify_corpus c": lambda g, x: cf.verify_corpus(g, x),
    "verify_corpus trials": lambda g, x: cf.verify_corpus(g, 4, "sampled", trials=x, seed=0),
    "sweep_experiment c": lambda g, x: cf.sweep_experiment(g, [x], 1, 1),
    "sweep_experiment trials": lambda g, x: cf.sweep_experiment(g, [4], x, 1),
    "threshold_probe c_max": lambda g, x: cf.threshold_probe(g, x),
    "threshold_probe cap": lambda g, x: cf.threshold_probe(g, 2, cap=x),
}
NOT_INTEGERS = [2.5, "3", None, float("nan")]


@pytest.mark.parametrize("entry, value", [
    *((entry, value) for entry in COUNTED_CALLS for value in NOT_INTEGERS),
    # None is the default state cap and step cap, so it is left out there
    *((entry, value) for entry in [*CAPPED_CALLS, "classify step_cap"]
      for value in NOT_INTEGERS if value is not None),
])
def test_a_count_that_is_not_an_integer_is_a_value_error(entry, value, c4, monkeypatch):
    # refused before any step, never a TypeError from range or a comparison
    calls = {**COUNTED_CALLS, **CAPPED_CALLS,
             "classify step_cap": lambda g, x: cf.classify(g, [1, 1, 1, 1], step_cap=x)}
    monkeypatch.setattr(parallel, "_step_raw", None)
    with pytest.raises(ValueError, match=r"must be an integer, got |sampled mode needs"):
        calls[entry](c4, value)


def test_a_bool_count_is_taken_as_an_int(c4):
    assert len(cf.run(c4, [2, 2, 2, 2], True).rounds) == 1
    assert cf.compositions_count(True, 5) == 1
    assert [row["trial"] for row in cf.sweep_experiment(c4, [4], True, 1)] == [0]
    assert cf.verify_corpus(c4, 4, "sampled", trials=True, seed=0)["configs_checked"] == 1


@pytest.mark.parametrize("walk", [cf.classify, cf.verify_battery], ids=lambda f: f.__name__)
def test_one_walk_per_configuration(walk, monkeypatch, c3, c4):
    calls = count_steps(monkeypatch)
    walk(c4, [2, 0, 2, 0])  # preperiod 0, period 2: the second period is copied
    assert calls[0] == 2
    calls[0] = 0
    walk(c3, [9, 0, 0])  # stabilizes at round 2, detected in round 3
    assert calls[0] == 3


def test_run_steps_each_recorded_round_once(monkeypatch, c3):
    calls = count_steps(monkeypatch)
    for max_rounds in range(6):
        calls[0] = 0
        cf.run(c3, [9, 0, 0], max_rounds)
        assert calls[0] == min(max_rounds, 3)


GRAPH_POOL = [
    cf.generate("cycle", 3),
    cf.generate("cycle", 4),
    cf.generate("cycle", 5),
    cf.generate("path", 2),
    cf.generate("path", 4),
    cf.generate("star", 5),
    cf.generate("complete", 4),
    cf.generate("random_tree", 6, seed=2),
    cf.generate("random_connected", 6, p=0.5, seed=9),
]


@st.composite
def graph_and_config(draw, max_candy=30):
    g = draw(st.sampled_from(GRAPH_POOL))
    candy = draw(
        st.lists(st.integers(min_value=0, max_value=max_candy), min_size=g.n, max_size=g.n)
    )
    return g, candy


class TestAgainstReference:
    """The packaged engine must match the independent simulator exactly."""

    @given(graph_and_config())
    @settings(max_examples=200)
    def test_single_step_matches(self, gc):
        g, candy = gc
        ours, fired = cf.step(g, candy)
        ref, ref_fired = naive_round(neighbor_map(g), list(candy))
        assert list(ours.candy) == ref
        assert set(fired) == ref_fired

    @given(graph_and_config())
    @settings(max_examples=100, deadline=None)
    def test_classification_matches(self, gc):
        g, candy = gc
        pre, period = naive_orbit(g, candy)
        out = cf.classify(g, candy)
        if period == 1:
            assert isinstance(out, cf.Stabilized) and out.stab_round == pre
        else:
            assert out == cf.EventuallyPeriodic(pre, period)

    @given(graph_and_config())
    @settings(max_examples=100, deadline=None)
    def test_brent_matches_map(self, gc):
        # cap of 1 forces the fallback immediately; the explicit step
        # budget keeps this a correctness test, not a budget-sizing one
        g, candy = gc
        forced = cf.classify(g, candy, state_cap=1, step_cap=100_000)
        assert forced == cf.classify(g, candy)

    @given(graph_and_config(max_candy=6))
    @settings(max_examples=150, deadline=None)
    def test_record_past_the_cap_matches_the_map(self, gc):
        # caps below the record's L rounds stop the visited map early, so
        # the record is completed past _brent; small totals fall below
        # 4m - n, where periodic orbits exercise the copied second period.
        # A wide step budget keeps this a correctness test, as above.
        g, candy = gc
        full = _record_orbit(g, candy)
        rounds = len(full[1])
        with mock.patch.object(parallel, "_BRENT_BUDGET_FACTOR", 100_000):
            for cap in {1, 2, max(1, rounds // 2), rounds, rounds + 1}:
                assert _record_orbit(g, candy, cap) == full

    @given(graph_and_config(max_candy=6))
    @settings(max_examples=150, deadline=None)
    def test_walk_at_the_cap_boundary(self, gc):
        # the orbit has L = preperiod + period distinct states: a cap of L
        # or more maps them all and meets the repeat, a smaller cap stops
        # the walk at round cap with cap states mapped and hands over to
        # _brent; neither moves the outcome or the record
        g, candy = gc
        candy = tuple(candy)
        preperiod, period = naive_orbit(g, candy)
        size = preperiod + period
        budget = 100_000
        states, fired, *found = parallel._walk(g, candy, DEFAULT_STATE_CAP, budget)
        assert found[:2] == [preperiod, period]
        assert len(states) == size + 1 and states[-1] == found[2] == states[preperiod]
        with mock.patch.object(parallel, "_BRENT_BUDGET_FACTOR", budget):
            record = _record_orbit(g, candy)
            for cap in {1, size - 1, size, size + 1} - {0}:
                walk = parallel._walk(g, candy, cap, budget)
                rounds = min(cap, size)
                assert walk == (states[:rounds + 1], fired[:rounds], *found), cap
                assert cf.classify(g, candy, cap, budget) == cf.classify(g, candy), cap
                assert _record_orbit(g, candy, cap) == record, cap

    @given(graph_and_config(max_candy=6))
    @settings(max_examples=150, deadline=None)
    def test_walk_stops_at_the_first_state_below_its_floor(self, gc):
        # with its start as the floor, the walk gives None exactly when a
        # state it steps to, before the cap, is below the start; otherwise
        # it is the walk without a floor.  A walk stopped there hands
        # nothing to _brent, so a step budget of 0 is never spent
        g, candy = gc
        candy = tuple(candy)
        size = sum(naive_orbit(g, candy))
        states = parallel._walk(g, candy, DEFAULT_STATE_CAP, 100_000)[0]
        for cap in {1, size - 1, size, size + 1} - {0}:
            below = any(x < candy for x in states[1:min(cap, size) + 1])
            walk = parallel._walk(g, candy, cap, 100_000, candy)
            if below:
                assert walk is None, cap
                assert parallel._walk(g, candy, cap, 0, candy) is None, cap
            else:
                assert walk == parallel._walk(g, candy, cap, 100_000), cap

    @given(graph_and_config())
    @settings(max_examples=100)
    def test_candy_is_conserved(self, gc):
        g, candy = gc
        trace = cf.run(g, candy, 30)
        for t in range(len(trace.rounds) + 1):
            assert sum(trace.config_at(t).candy) == sum(candy)


@st.composite
def isolated_graph_and_config(draw):
    """A graph with at least one degree-0 vertex, and candy up to 10**30."""
    n = draw(st.integers(min_value=1, max_value=12))
    alone = draw(st.integers(min_value=0, max_value=n - 1))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n) if alone not in (u, w)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    pile = st.one_of(st.integers(0, 12), st.integers(0, 10**30))
    return cf.Graph.build(n, edges), draw(st.lists(pile, min_size=n, max_size=n))


@given(isolated_graph_and_config())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_with_isolated_vertices(gc):
    """Degree-0 vertices never fire, and huge piles compare exactly."""
    g, candy = gc
    ours, fired = cf.step(g, candy)
    ref, ref_fired = naive_round(neighbor_map(g), list(candy))
    assert list(ours.candy) == ref and set(fired) == ref_fired
    pre, period = naive_orbit(g, candy)
    out = cf.classify(g, candy)
    if period == 1:
        assert isinstance(out, cf.Stabilized) and out.stab_round == pre
    else:
        assert out == cf.EventuallyPeriodic(pre, period)
    _, fired_seq, _, _ = _record_orbit(g, candy)
    for f in fired_seq:
        assert list(f) == sorted(set(f))
        assert all(g.degree[v] for v in f)


# graphs for both sides of the round kernel; the last two have degree-0 vertices
KERNEL_GRAPHS = {
    "cycle4": cf.generate("cycle", 4),
    "complete4": cf.generate("complete", 4),
    "gnp12": cf.generate("random_connected", 12, p=0.4, seed=3),
    "path7+isolated": cf.Graph.build(8, [(v, v + 1) for v in range(6)] + [(0, 6)]),
    "ring10+2isolated": cf.Graph.build(12, [(v, (v + 1) % 10) for v in range(10)] + [(0, 5), (2, 7)]),
}


def _isolated(g):
    return [v for v in range(g.n) if not g.degree[v]]


def _kernel_state(g, quiet, seed):
    """Piles on g, from 0 up to about 10**30, under which exactly the
    vertices in quiet do not fire."""
    rng = cf.SplitMix64(seed)
    candy = []
    for v, d in enumerate(g.degree):
        pile = rng.below(10**30) if rng.below(2) else rng.below(5)
        candy.append((rng.below(d) if d else pile) if v in quiet else d + pile)
    return tuple(candy)


def _assert_kernel_matches(g, candy):
    nxt, fired = parallel._step_raw(g.adjacency, g.degree, g.fire_at, candy)
    ref, ref_fired = naive_round(neighbor_map(g), list(candy))
    assert list(nxt) == ref and fired == tuple(sorted(ref_fired))
    return nxt, fired


class TestKernelSides:
    """The round kernel against the reference round when every vertex
    fires, all but one, or all but exactly a quarter.  A degree-0 vertex
    never fires, so it is always among those that do not."""

    @pytest.mark.parametrize("name", [k for k, g in KERNEL_GRAPHS.items() if not _isolated(g)])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_vertex_fires(self, name, seed):
        g = KERNEL_GRAPHS[name]
        candy = _kernel_state(g, (), seed)
        nxt, fired = _assert_kernel_matches(g, candy)
        assert nxt is candy and len(fired) == g.n

    @pytest.mark.parametrize("name", [k for k, g in KERNEL_GRAPHS.items() if len(_isolated(g)) < 2])
    def test_all_but_one_fire(self, name):
        g = KERNEL_GRAPHS[name]
        for v in _isolated(g) or range(g.n):
            _assert_kernel_matches(g, _kernel_state(g, {v}, v))

    @pytest.mark.parametrize("name", [k for k, g in KERNEL_GRAPHS.items() if g.n % 4 == 0])
    @pytest.mark.parametrize("seed", range(8))
    def test_a_quarter_do_not_fire(self, name, seed):
        g = KERNEL_GRAPHS[name]
        quiet = set(_isolated(g))
        rng = cf.SplitMix64(seed)
        others = [v for v in range(g.n) if v not in quiet]
        while len(quiet) < g.n // 4:
            quiet.add(others.pop(rng.below(len(others))))
        _assert_kernel_matches(g, _kernel_state(g, quiet, seed))


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.booleans(),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_trees_have_period_at_most_two(n, tree_seed, above, data):
    """Bitar-Goles: parallel chip-firing on a tree has period 1 or 2."""
    g = cf.generate("random_tree", n, seed=tree_seed)
    t = max(cf.stabilization_threshold(g), 0)  # 4m - n = 3n - 4
    c = data.draw(st.integers(t, 2 * t + 8) if above or t == 0 else st.integers(0, t - 1))
    candy = cf.random_config(g.n, c, data.draw(st.integers(0, 2**64 - 1)))
    out = cf.classify(g, candy)
    assert isinstance(out, cf.Stabilized) or out.period == 2


def test_trace_csv_golden(c3):
    trace = cf.run(c3, [9, 0, 0], 50)
    assert cf.trace_csv(trace) == (
        "t,fired_count,fired_bitmask_hex,candy_0,candy_1,candy_2\n"
        "0,0,0x0,9,0,0\n"
        "1,1,0x1,7,1,1\n"
        "2,1,0x1,5,2,2\n"
        "3,3,0x7,5,2,2\n"
    )


def test_trace_csv_wide_graph_uses_list_column():
    g = cf.generate("path", 70)
    trace = cf.run(g, [3] + [0] * 69, 2)
    text = cf.trace_csv(trace)
    header = text.splitlines()[0]
    assert "fired_list" in header and "bitmask" not in header
    # vertex 0 fires alone in round 1
    assert text.splitlines()[2].split(",")[2] == "0"


def _reference_trace_csv(trace):
    """trace_csv as a plain formatter: str of every cell, one cell at a time."""
    n = trace.n
    use_mask = n <= 64
    header = ["t", "fired_count", "fired_bitmask_hex" if use_mask else "fired_list"]
    lines = [",".join(header + [f"candy_{v}" for v in range(n)])]
    rows = [(0, (), trace.initial)] + [(r.t, r.fired, r.config) for r in trace.rounds]
    for t, fired, config in rows:
        if use_mask:
            mask = 0
            for v in fired:
                mask |= 1 << v
            shown = hex(mask)
        else:
            shown = ";".join([str(v) for v in sorted(fired)])
        lines.append(",".join([str(t), str(len(fired)), shown] + [str(c) for c in config.candy]))
    return "\n".join(lines) + "\n"


class TestTraceCsvTable:
    """trace_csv formats each distinct number once; the bytes are those of
    a per-cell formatter on every shape of trace."""

    def test_single_vertex(self):
        g = cf.Graph.build(1, [])
        trace = cf.run(g, [5], 3)
        assert cf.trace_csv(trace) == _reference_trace_csv(trace) == (
            "t,fired_count,fired_bitmask_hex,candy_0\n0,0,0x0,5\n1,0,0x0,5\n"
        )

    def test_zero_rounds(self, c4):
        trace = cf.run(c4, [3, 0, 2, 1], 0)
        assert trace.rounds == ()
        assert cf.trace_csv(trace) == _reference_trace_csv(trace) == (
            "t,fired_count,fired_bitmask_hex,candy_0,candy_1,candy_2,candy_3\n"
            "0,0,0x0,3,0,2,1\n"
        )

    def test_huge_piles(self):
        g = cf.generate("star", 5)
        big = 10**30
        trace = cf.run(g, [big, 7, big + 1, 0, 3], 12)
        text = cf.trace_csv(trace)
        assert text == _reference_trace_csv(trace)
        assert text.splitlines()[1] == f"0,0,0x0,{big},7,{big + 1},0,3"

    def test_wide_hand_trace_with_frozensets(self):
        # n > 64 and fired sets whose iteration order is not ascending
        n = 80
        candy = [10**30 - v for v in range(n)]
        fired = [frozenset({70, 3, 64, 9, 79}), frozenset(), frozenset(range(n)),
                 frozenset({33, 1})]
        assert list(fired[0]) != sorted(fired[0])
        rounds = tuple(
            cf.RoundRecord(t, f, cf.Configuration.of(candy[t:] + candy[:t]))
            for t, f in enumerate(fired, 1)
        )
        trace = cf.GameTrace(cf.Configuration.of(candy), rounds, cf.StopReason.BUDGET)
        text = cf.trace_csv(trace)
        assert text == _reference_trace_csv(trace)
        assert [line.split(",")[2] for line in text.splitlines()[1:4]] == [
            "", "3;9;64;70;79", "",
        ]

    @pytest.mark.parametrize("spec", ["cycle:6", "path:64", "complete:5", "star:9"])
    def test_narrow_games(self, spec):
        kind, size = spec.split(":")
        g = cf.generate(kind, int(size))
        c = cf.stabilization_threshold(g)
        trace = cf.run(g, cf.random_config(g.n, c, 11), g.n * g.diameter * c + 1)
        assert cf.trace_csv(trace) == _reference_trace_csv(trace)
