"""Sequential (one vertex per move) games and the order-independence check."""

import itertools

import pytest

import chipfire as cf
from chipfire.errors import ResourceExhausted
from chipfire.sequential import move_log_csv, seq_run


def test_single_move_termination(p3):
    out = seq_run(p3, [1, 0, 0], "lowest_index")
    assert out == cf.Terminated(cf.Configuration.of([0, 1, 0]), 1)


def test_already_terminal(p3):
    out = seq_run(p3, [0, 1, 0], "lowest_index")
    assert isinstance(out, cf.Terminated) and out.length == 0


def test_k2_single_candy_never_terminates(k2):
    # one candy bounces between the endpoints forever
    out = seq_run(k2, [1, 0], "lowest_index")
    assert isinstance(out, cf.Infinite)


def test_isolated_vertex_alone_terminates():
    # a degree-0 vertex is never firable, so there is no move to make
    g = cf.Graph.build(1, [])
    out = seq_run(g, [0], "lowest_index")
    assert out == cf.Terminated(cf.Configuration.of([0]), 0)


def test_engines_share_the_degree_zero_rule():
    g = cf.Graph.build(3, [(0, 1)])  # vertex 2 is isolated
    for c in range(7):
        for comp in cf.enumerate_configs(g.n, c):
            log = []
            out = seq_run(g, comp, "lowest_index", _log=log)
            _, fired = cf.step(g, comp)
            assert 2 not in fired and all(v != 2 for _, v, _ in log), comp
            # nobody can fire in one engine exactly when nobody can in the other
            assert (out == cf.Terminated(cf.Configuration.of(comp), 0)) == (not fired), comp
    start = cf.Configuration.of([0, 0, 5])
    assert seq_run(g, start) == cf.Terminated(start, 0)
    assert cf.classify(g, start) == cf.Stabilized(0, start)
    assert cf.check_abelian(g, start).status == "pass"


def test_policies_agree_on_termination(p3, c3, p4, star4):
    """Terminating instances end identically under every deterministic policy."""
    for g in (p3, c3, p4, star4):
        for c in range(4):
            for comp in cf.enumerate_configs(g.n, c):
                ref = seq_run(g, comp, "lowest_index")
                other = seq_run(g, comp, "highest_candy")
                assert isinstance(ref, type(other))
                if isinstance(ref, cf.Terminated):
                    assert ref == other


def test_random_policy_terminating(p3):
    for seed in range(5):
        out = seq_run(p3, [1, 0, 0], "random", seed=seed, move_budget=100)
        assert out == cf.Terminated(cf.Configuration.of([0, 1, 0]), 1)


def test_random_policy_needs_seed(p3):
    with pytest.raises(ValueError):
        seq_run(p3, [1, 0, 0], "random")


def test_random_policy_budget_unknown(k2):
    out = seq_run(k2, [5, 5], "random", seed=1, move_budget=20)
    assert out == cf.Unknown(moves=20)


def test_unknown_policy_rejected(p3):
    with pytest.raises(ValueError):
        seq_run(p3, [1, 0, 0], "alphabetical")


def test_deterministic_state_cap(k2):
    with pytest.raises(ResourceExhausted):
        seq_run(k2, [10**6, 0], "lowest_index", state_cap=3)


def test_move_log_golden(p3):
    assert move_log_csv(p3, [1, 0, 0], "lowest_index") == (
        "move_index,fired_vertex,candy_0,candy_1,candy_2\n"
        "0,-1,1,0,0\n"
        "1,0,0,1,0\n"
    )


def test_move_log_stops_at_revisit(p3):
    text = move_log_csv(p3, [3, 0, 0], "lowest_index")
    lines = text.strip().splitlines()
    assert lines[0] == "move_index,fired_vertex,candy_0,candy_1,candy_2"
    assert lines[1] == "0,-1,3,0,0"
    # the walk is infinite; the log ends the move after a state repeats
    states = [tuple(map(int, l.split(",")[2:])) for l in lines[1:]]
    assert len(set(states)) == len(states) - 1


class TestAbelian:
    def test_terminating_instance_passes(self, p3):
        rep = cf.check_abelian(p3, [1, 0, 0], n_orders=10, seed=0)
        assert rep.applicable and rep.passed
        assert rep.status == "pass"
        assert rep.reference == cf.Terminated(cf.Configuration.of([0, 1, 0]), 1)
        assert rep.divergences == ()

    def test_move_budget_is_the_reference_length(self, p4):
        # every terminating order has the reference's length L, so the
        # random orders get exactly L moves and still terminate
        rep = cf.check_abelian(p4, [0, 0, 0, 2], n_orders=10, seed=5)
        assert rep.reference.length == 4
        assert rep.move_budget == 4
        assert rep.passed and rep.budget_exceeded == ()

    def test_infinite_instance_not_applicable(self, k2):
        rep = cf.check_abelian(k2, [5, 5], n_orders=3, seed=3)
        assert not rep.applicable
        assert rep.status == "not_applicable"

    def test_brute_force_cross_check(self, p3):
        """Every maximal firing sequence of a tiny instance ends the same way.

        Enumerates all move orders by depth-first search, no policies
        involved, and compares against the policy-driven outcome.
        """

        def explore(candy, depth):
            assert depth < 50, "instance picked for this test must terminate"
            firable = [
                v for v in range(p3.n) if candy[v] >= p3.degree[v]
            ]
            if not firable:
                return {(tuple(candy), depth)}
            results = set()
            for v in firable:
                nxt = list(candy)
                nxt[v] -= p3.degree[v]
                for u in p3.adjacency[v]:
                    nxt[u] += 1
                results |= explore(nxt, depth + 1)
            return results

        for init in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            endings = explore(list(init), 0)
            ref = seq_run(p3, init, "lowest_index")
            assert isinstance(ref, cf.Terminated)
            assert endings == {(tuple(ref.final.candy), ref.length)}

    def test_exhaustive_small_corpus(self, p3, c3, p4, star4):
        for g in (p3, c3, p4, star4):
            for c in range(6):
                for comp in cf.enumerate_configs(g.n, c):
                    rep = cf.check_abelian(g, comp, n_orders=10, seed=7)
                    if rep.applicable:
                        assert rep.passed, (g.edges, comp, rep)
