"""Finite simple undirected graphs: construction, parsing, generation, metrics.

Vertices are always 0..n-1.  Graph.build computes connectivity and the
diameter in one word-parallel pass and keeps nothing of size n^2: each
vertex's reach set is an int bitmask, and every pass ORs in the
neighbours' masks, growing each set by one hop, in O(d * m) big-int ORs
(the masks, n^2 bits in all, are dropped once build returns).  A Graph
has no distance matrix: pairwise distances come from a BFS per source
row (Graph.distances_from), which the pairwise pass-count gap check runs
only in the one round where it scans every pair.

generate("random_connected", n, p, seed) is G(n, p) conditioned on
connectivity by retrying: attempt a draws from the splitmix64 stream
seeded with derive_seed(seed, a), one coin per vertex pair (i < j) in
lexicographic order, the pair an edge when its coin is 1.  The coins
come from SplitMix64.chances, at most rng.CHUNK per call, so an
attempt's working memory is one chunk plus the edges it keeps.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, islice
from typing import Iterable, Optional

from .errors import Disconnected, EmptyGraph, InvalidGraph, ParseError, Unsatisfiable
from .rng import CHUNK, SplitMix64, derive_seed

GENERATOR_KINDS = ("cycle", "path", "complete", "star", "random_tree", "random_connected")

_GNP_RETRIES = 200


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with its connectivity and diameter.

    edges are normalized (u < v) and sorted; adjacency lists are sorted.
    _diameter is the diameter of a connected graph and None otherwise;
    read it through the diameter property.  Pairwise distances are
    never stored: distances_from runs a BFS per call.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    degree: tuple[int, ...]
    connected: bool
    _diameter: Optional[int]

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def diameter(self) -> int:
        """Largest pairwise distance; raises Disconnected when undefined."""
        if not self.connected:
            raise Disconnected("diameter requires a connected graph")
        return self._diameter

    def distances_from(self, src: int) -> list[int]:
        """BFS distances from src to every vertex, -1 where unreachable."""
        adjacency = self.adjacency
        dist = [-1] * self.n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            du = dist[u] + 1
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = du
                    q.append(w)
        return dist

    @cached_property
    def fire_at(self) -> tuple[float, ...]:
        """Per-vertex firing threshold for the synchronous step: the degree,
        or math.inf for a degree-0 vertex, which never fires.  Built on
        first access and kept."""
        return tuple(d if d else math.inf for d in self.degree)

    @cached_property
    def twice_degree(self) -> tuple[int, ...]:
        """2 * deg(v) per vertex, the abundance bar: v is abundant when it
        holds at least this much.  Built on first access and kept."""
        return tuple(2 * d for d in self.degree)

    @cached_property
    def short_bar(self) -> tuple[int, ...]:
        """2 * deg(v) - 2 per vertex: v is short when it holds at most this
        much.  Built on first access and kept."""
        return tuple(2 * d - 2 for d in self.degree)

    @cached_property
    def edge_ends(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The edges as two columns (us, ws), edge i joining us[i] and ws[i],
        for C-level maps over every edge.  Built on first access and kept."""
        return tuple(u for u, _ in self.edges), tuple(w for _, w in self.edges)

    @cached_property
    def validation(self) -> "ValidationReport":
        """validate(self), run on first access and kept: a Graph is immutable."""
        return validate(self)

    @staticmethod
    def build(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Validate and assemble a Graph from a vertex count and edge pairs."""
        if n <= 0:
            raise EmptyGraph("graph needs at least one vertex")
        norm: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraph(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidGraph(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise InvalidGraph(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        norm.sort()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        adjacency = tuple(tuple(sorted(a)) for a in adj)
        degree = tuple(len(a) for a in adjacency)
        diameter = _reach_diameter(n, norm)
        return Graph(n, tuple(norm), adjacency, degree, diameter is not None, diameter)


def _reach_diameter(n: int, edges) -> Optional[int]:
    """The diameter, or None when the graph is disconnected.

    reach[v] is a bitmask of the vertices within `hops` hops of v, and
    each pass ORs every neighbour's mask into it.  Every mask is full
    after exactly diameter passes; a pass that changes no mask shows a
    pair that no path joins.
    """
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    hops = 0
    while reach.count(full) < n:
        grown = reach[:]
        for u, v in edges:
            grown[u] |= reach[v]
            grown[v] |= reach[u]
        if grown == reach:
            return None
        reach = grown
        hops += 1
    return hops


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Format: one "u v" pair per line, ids 0-based; '#' starts a comment
    that runs to end of line; blank lines are ignored.  The first
    non-comment line may be a header "n <count>" declaring the vertex
    count (needed for isolated trailing vertices); without it the count
    is max id + 1.

    Raises ParseError for malformed tokens, InvalidGraph for self-loops,
    duplicate edges, or ids outside a declared count, EmptyGraph when no
    vertices are described.
    """
    return Graph.build(*_parse_edge_list(text))


def _parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """parse_edge_list's (vertex count, edges), before the graph is built,
    so a caller can refuse a count too large to build."""
    declared: Optional[int] = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if saw_content or declared is not None:
                raise ParseError(f"line {lineno}: header must be the first content line")
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: header is 'n <count>'")
            try:
                declared = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {tokens[1]!r}") from None
            if declared < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            saw_content = True
            continue
        saw_content = True
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: vertex ids are non-negative")
        max_id = max(max_id, u, v)
        edges.append((u, v))
    if declared is None:
        if max_id < 0:
            raise EmptyGraph("no vertices in input")
        n = max_id + 1
    else:
        if declared == 0:
            raise EmptyGraph("header declares zero vertices")
        if max_id >= declared:
            raise InvalidGraph(f"vertex id {max_id} exceeds declared count {declared}")
        n = declared
    return n, edges


def generate(kind: str, n: int, p: Optional[float] = None, seed: int = 0) -> Graph:
    """Build a named graph deterministically.

    kind is one of cycle | path | complete | star | random_tree |
    random_connected; the random kinds are pure functions of (n, p, seed).
    Raises InvalidGraph for size constraints a kind cannot meet and
    Unsatisfiable when random_connected exhausts its retry budget.
    """
    if n <= 0:
        raise EmptyGraph("generation needs n >= 1")
    if kind == "cycle":
        if n < 3:
            raise InvalidGraph("a simple cycle needs n >= 3")
        return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "path":
        return Graph.build(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "complete":
        return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "star":
        if n < 2:
            raise InvalidGraph("a star needs n >= 2")
        return Graph.build(n, [(0, i) for i in range(1, n)])
    if kind == "random_tree":
        return Graph.build(n, _random_tree_edges(n, seed))
    if kind == "random_connected":
        if p is None:
            raise InvalidGraph("random_connected needs an edge probability p")
        if not (0.0 <= p <= 1.0):
            raise InvalidGraph(f"edge probability {p} outside [0, 1]")
        return _random_connected(n, p, seed)
    raise InvalidGraph(f"unknown generator kind {kind!r}")


def _random_tree_edges(n: int, seed: int) -> list[tuple[int, int]]:
    # Uniform labeled tree via a random Pruefer sequence.
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    # smallest-leaf-first decode keeps the tree a pure function of seq
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def _random_connected(n: int, p: float, seed: int) -> Graph:
    # Retry G(n, p) draws until one is connected; each attempt has its own
    # derived stream so the sequence of attempts is reproducible.
    total = n * (n - 1) // 2
    for attempt in range(_GNP_RETRIES):
        rng = SplitMix64(derive_seed(seed, attempt))
        pairs = combinations(range(n), 2)
        edges: list[tuple[int, int]] = []
        for done in range(0, total, CHUNK):
            k = min(CHUNK, total - done)
            edges.extend(compress(islice(pairs, k), rng.chances(p, k)))
        g = Graph.build(n, edges)
        if g.connected:
            return g
    raise Unsatisfiable(
        f"no connected G({n}, {p}) within {_GNP_RETRIES} attempts for seed {seed}"
    )


def stabilization_threshold(g: Graph) -> int:
    """Candy total 4m - n above which every game on g must stabilize."""
    return 4 * g.m - g.n


@dataclass(frozen=True)
class ValidationReport:
    simple: bool
    connected: bool
    degree_sum_ok: bool
    degenerate: bool


def validate(g: Graph) -> ValidationReport:
    """Re-verify structural invariants from the raw fields.

    Deliberately recomputes everything (including a fresh BFS) instead of
    trusting the constructor, so a hand-built or tampered instance is
    caught here.  Graph.validation keeps one report per instance.
    """
    simple = True
    seen = set()
    for u, v in g.edges:
        if u == v or not (0 <= u < g.n and 0 <= v < g.n) or u > v:
            simple = False
            break
        if (u, v) in seen:
            simple = False
            break
        seen.add((u, v))
    if simple:
        # adjacency must match the edge set exactly, both directions
        pairs = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
        listed = {(u, w) for u in range(g.n) for w in g.adjacency[u]}
        simple = pairs == listed
    degree_sum_ok = sum(g.degree) == 2 * g.m and all(
        g.degree[v] == len(g.adjacency[v]) for v in range(g.n)
    )
    reach = 1
    if g.n > 0:
        reach = sum(1 for d in g.distances_from(0) if d >= 0)
    return ValidationReport(
        simple=simple,
        connected=reach == g.n,
        degree_sum_ok=degree_sum_ok,
        degenerate=g.n < 2,
    )
