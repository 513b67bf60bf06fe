"""Graph construction, parsing, generation, and validation."""

from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

import chipfire as cf
from chipfire import graph as graph_module
from chipfire.errors import (
    Disconnected,
    EmptyGraph,
    InvalidGraph,
    ParseError,
    Unsatisfiable,
)
from chipfire.graph import _reach_diameter


def floyd_warshall(n, edges):
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


class TestBuild:
    def test_normalizes_and_counts(self):
        g = cf.Graph.build(3, [(2, 1), (0, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.m == 2
        assert g.degree == (1, 2, 1)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraph):
            cf.Graph.build(2, [(0, 0)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(InvalidGraph):
            cf.Graph.build(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidGraph):
            cf.Graph.build(2, [(0, 2)])

    def test_rejects_empty(self):
        with pytest.raises(EmptyGraph):
            cf.Graph.build(0, [])

    def test_isolated_vertices_allowed(self):
        g = cf.Graph.build(3, [(0, 1)])
        assert not g.connected
        assert g.degree[2] == 0


class TestDistances:
    def test_cycle_distances(self, c4):
        assert c4.distances_from(0)[2] == 2
        assert c4.distances_from(1)[3] == 2
        assert c4.diameter == 2

    def test_matches_floyd_warshall_on_samples(self):
        cases = [
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]),
            (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
        ]
        for n, edges in cases:
            g = cf.Graph.build(n, edges)
            ref = floyd_warshall(n, edges)
            for i in range(n):
                assert g.distances_from(i) == ref[i]

    def test_disconnected_marks_unreachable(self):
        g = cf.Graph.build(4, [(0, 1), (2, 3)])
        assert g.distances_from(0)[2] == -1
        for _ in range(2):  # a failed read caches nothing
            with pytest.raises(Disconnected):
                g.diameter


@st.composite
def small_graphs(draw):
    """(n, edges) with n <= 25 and at most 2n edges, so sparse, long and
    disconnected graphs, isolated vertices and n = 1 all turn up."""
    n = draw(st.integers(min_value=1, max_value=25))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return n, []
    return n, sorted(draw(st.sets(st.sampled_from(pairs), max_size=2 * n)))


class TestReachBuild:
    @given(small_graphs())
    @example((1, []))
    @example((4, [(0, 1), (0, 2), (1, 2)]))  # an isolated vertex
    def test_matches_floyd_warshall(self, graph):
        n, edges = graph
        g = cf.Graph.build(n, edges)
        ref = floyd_warshall(n, edges)
        expected = [[-1 if d == float("inf") else d for d in row] for row in ref]
        connected = all(d >= 0 for row in expected for d in row)
        assert g.connected == connected
        assert cf.validate(g).connected == connected
        if connected:
            assert g.diameter == max(max(row) for row in expected)
        else:
            with pytest.raises(Disconnected):
                g.diameter
        assert [g.distances_from(src) for src in range(n)] == expected

    def test_build_keeps_no_distance_matrix(self):
        g = cf.generate("random_connected", 300, p=0.03, seed=1)
        assert g.connected and g.diameter >= max(g.distances_from(0))
        # a BFS per source row gives the distances, and none is kept
        assert g.diameter == max(max(g.distances_from(src)) for src in range(g.n))
        assert not hasattr(g, "distance")


def _build_matches_references(n, edges):
    """Graph.build's connectivity and diameter, and validate's
    connectivity, equal the reach pass's and Floyd-Warshall's."""
    g = cf.Graph.build(n, edges)
    ref = floyd_warshall(n, edges)
    connected = all(d < float("inf") for row in ref for d in row)
    reach = _reach_diameter(n, g.edges)
    assert g.connected == connected == (reach is not None)
    assert cf.validate(g).connected == connected
    if connected:
        assert g.diameter == reach == max(max(row) for row in ref)
    else:
        with pytest.raises(Disconnected):
            g.diameter
    return g


def _relabel(draw, n, edges):
    perm = draw(st.permutations(range(n)))
    return n, [(perm[u], perm[v]) for u, v in edges]


@st.composite
def labelled_trees(draw, least=1, most=40):
    """A random labelled tree: each vertex v >= 1 hangs from one of 0..v-1,
    then the labels are shuffled."""
    n = draw(st.integers(min_value=least, max_value=most))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return _relabel(draw, n, edges)


def _cycle_edges(sizes, start=0):
    edges = []
    for size in sizes:
        ring = range(start, start + size)
        edges += [(v, ring[(i + 1) % size]) for i, v in enumerate(ring)]
        start += size
    return edges


@st.composite
def cycle_unions(draw):
    """A disjoint union of one to three cycles, relabelled: 2-regular,
    connected only when it is one cycle."""
    sizes = draw(st.lists(st.integers(min_value=3, max_value=12), min_size=1, max_size=3))
    return _relabel(draw, sum(sizes), _cycle_edges(sizes))


@st.composite
def disconnected_tree_counts(draw):
    """n - 1 edges on n vertices, yet disconnected: a tree (down to one
    isolated vertex) beside a union of cycles, relabelled."""
    t, edges = draw(labelled_trees(most=15))
    sizes = draw(st.lists(st.integers(min_value=3, max_value=8), min_size=1, max_size=2))
    return _relabel(draw, t + sum(sizes), edges + _cycle_edges(sizes, start=t))


class TestStructuralDiameter:
    @given(st.one_of(labelled_trees(), cycle_unions(), disconnected_tree_counts(), small_graphs()))
    def test_matches_reach_pass_and_floyd_warshall(self, graph):
        _build_matches_references(*graph)

    @given(disconnected_tree_counts())
    def test_n_minus_one_edges_can_be_disconnected(self, graph):
        n, edges = graph
        assert len(edges) == n - 1
        assert not _build_matches_references(n, edges).connected

    @pytest.mark.parametrize("n, edges, diameter", [
        (1, [], 0),
        (2, [], None),
        (2, [(0, 1)], 1),
        (3, [(0, 1), (1, 2), (0, 2)], 1),  # the triangle: 2-regular, d = 3 // 2
        (3, [(0, 1)], None),
        (4, [(0, 1), (1, 2), (0, 2)], None),  # a triangle and an isolated vertex
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], None),  # two triangles
    ])
    def test_pinned_small_cases(self, n, edges, diameter):
        g = _build_matches_references(n, edges)
        assert g.connected == (diameter is not None)
        if diameter is not None:
            assert g.diameter == diameter

    def test_trees_and_cycles_skip_the_reach_pass(self, monkeypatch):
        def refused(n, edges):
            raise AssertionError("reach pass run")

        monkeypatch.setattr(graph_module, "_reach_diameter", refused)
        assert cf.generate("path", 10_000).diameter == 9_999
        assert cf.generate("cycle", 10_001).diameter == 5_000
        assert cf.generate("star", 50).diameter == 2
        assert cf.generate("random_tree", 500, seed=3).connected
        assert not cf.Graph.build(6, _cycle_edges([3, 3])).connected
        # every other graph keeps the reach pass
        with pytest.raises(AssertionError, match="reach pass run"):
            cf.generate("complete", 4)
        with pytest.raises(AssertionError, match="reach pass run"):
            cf.Graph.build(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


class TestGenerate:
    def test_cycle(self):
        g = cf.generate("cycle", 5)
        assert g.m == 5 and all(d == 2 for d in g.degree)
        assert g.connected

    def test_cycle_too_small(self):
        with pytest.raises(InvalidGraph):
            cf.generate("cycle", 2)

    def test_path(self):
        g = cf.generate("path", 4)
        assert g.m == 3 and g.degree == (1, 2, 2, 1)
        assert g.diameter == 3

    def test_complete(self):
        g = cf.generate("complete", 5)
        assert g.m == 10 and all(d == 4 for d in g.degree)
        assert g.diameter == 1

    def test_star_center_zero(self, star4):
        assert star4.degree == (3, 1, 1, 1)
        assert star4.m == 3
        assert star4.diameter == 2

    def test_star_too_small(self):
        with pytest.raises(InvalidGraph):
            cf.generate("star", 1)

    def test_random_tree_is_a_tree(self):
        for seed in (0, 1, 17):
            g = cf.generate("random_tree", 8, seed=seed)
            assert g.m == 7
            assert g.connected

    def test_random_tree_deterministic(self):
        a = cf.generate("random_tree", 10, seed=3)
        b = cf.generate("random_tree", 10, seed=3)
        assert a.edges == b.edges
        c = cf.generate("random_tree", 10, seed=4)
        assert a.edges != c.edges

    def test_random_connected(self):
        g = cf.generate("random_connected", 12, p=0.3, seed=5)
        assert g.n == 12 and g.connected
        again = cf.generate("random_connected", 12, p=0.3, seed=5)
        assert g.edges == again.edges

    def test_random_connected_needs_p(self):
        with pytest.raises(InvalidGraph):
            cf.generate("random_connected", 5)

    def test_random_connected_bad_p(self):
        with pytest.raises(InvalidGraph):
            cf.generate("random_connected", 5, p=1.5)

    @pytest.mark.parametrize("p", ["x", "0.5", 1 + 0j, float("nan"), -0.1])
    def test_random_connected_p_not_a_real_in_range(self, p):
        # refused with the documented error, never a TypeError from <=
        with pytest.raises(InvalidGraph, match=r"^edge probability .* outside \[0, 1\]$"):
            cf.generate("random_connected", 5, p=p, seed=1)

    def test_random_connected_hopeless_p(self):
        # p = 0 can never connect three vertices, so retries must give up
        with pytest.raises(Unsatisfiable):
            cf.generate("random_connected", 3, p=0.0, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidGraph):
            cf.generate("torus", 4)

    def test_kinds_registry_round_trip(self):
        for kind in cf.GENERATOR_KINDS:
            n = 4 if kind != "cycle" else 5
            p = 0.5 if kind == "random_connected" else None
            g = cf.generate(kind, n, p=p, seed=1)
            assert g.n == n


class TestParseEdgeList:
    def test_with_header(self):
        g = cf.parse_edge_list("# triangle\nn 3\n0 1\n1 2\n0 2\n")
        assert g.n == 3 and g.m == 3

    def test_without_header_infers_n(self):
        g = cf.parse_edge_list("0 1\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_header_allows_isolated_tail_vertices(self):
        g = cf.parse_edge_list("n 4\n0 1\n")
        assert g.n == 4 and not g.connected

    def test_header_must_come_first(self):
        with pytest.raises(ParseError):
            cf.parse_edge_list("0 1\nn 4\n")

    def test_comments_and_blank_lines(self):
        g = cf.parse_edge_list("\n# c\n0 1\n\n# d\n1 2\n")
        assert g.m == 2

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            cf.parse_edge_list("0 x\n")

    def test_rejects_three_tokens(self):
        with pytest.raises(ParseError):
            cf.parse_edge_list("0 1 2\n")

    def test_rejects_negative_ids(self):
        with pytest.raises(ParseError):
            cf.parse_edge_list("-1 0\n")

    def test_rejects_empty_input(self):
        with pytest.raises(EmptyGraph):
            cf.parse_edge_list("# nothing here\n")

    def test_rejects_id_beyond_header(self):
        with pytest.raises(InvalidGraph):
            cf.parse_edge_list("n 2\n0 5\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidGraph):
            cf.parse_edge_list("0 1\n1 0\n")


def test_threshold_values(c3, c4, p3, star4):
    assert cf.stabilization_threshold(c3) == 9
    assert cf.stabilization_threshold(c4) == 12
    assert cf.stabilization_threshold(p3) == 5
    assert cf.stabilization_threshold(star4) == 8


def test_validate_good_graph(c4):
    report = cf.validate(c4)
    assert report.simple and report.connected and report.degree_sum_ok
    assert not report.degenerate


def test_validate_flags_degenerate_and_disconnected():
    single = cf.Graph.build(1, [])
    rep = cf.validate(single)
    assert rep.degenerate and rep.connected
    split = cf.Graph.build(4, [(0, 1), (2, 3)])
    rep2 = cf.validate(split)
    assert not rep2.connected and not rep2.degenerate


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**32))
def test_random_tree_always_connected_with_right_size(n, seed):
    g = cf.generate("random_tree", n, seed=seed)
    assert g.m == n - 1 and g.connected
