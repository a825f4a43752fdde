"""Small graph builders shared across the test modules."""

from __future__ import annotations

import itertools
import random

from isoclique import Graph


def graph_from_edges(n: int, edges) -> Graph:
    g = Graph.from_edges(n, edges)
    g.validate()
    return g


def triangle() -> Graph:
    return graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])


def triangle_pendant() -> Graph:
    # vertices a=0, b=1, c=2, d=3; triangle abc plus pendant edge a-d
    return graph_from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    # center is vertex 0
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def empty_graph(n: int = 0) -> Graph:
    return graph_from_edges(n, [])


def complete_multipartite(sizes) -> Graph:
    parts = []
    nxt = 0
    for size in sizes:
        parts.append(range(nxt, nxt + size))
        nxt += size
    edges = []
    for a, b in itertools.combinations(parts, 2):
        edges.extend((u, v) for u in a for v in b)
    return graph_from_edges(nxt, edges)


def moon_moser(parts: int) -> Graph:
    """Complete multipartite graph with `parts` classes of size 3; it attains
    the 3^(n/3) maximal-clique maximum."""
    return complete_multipartite([3] * parts)


def complete_binary_tree(levels: int) -> Graph:
    n = 2**levels - 1
    edges = []
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                edges.append((i, child))
    return graph_from_edges(n, edges)


def erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def bitset_view(g: Graph, vertices) -> tuple[int, list[int], list[int]]:
    """The bounds' view of the candidate set ``vertices``: its bitset p over
    all of g (bit v stands for vertex v), the members' popcount degrees in
    bit order, and every vertex's neighbourhood row."""
    masks = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
    members = sorted(set(vertices))
    p = sum(1 << v for v in members)
    return p, [(masks[v] & p).bit_count() for v in members], masks
