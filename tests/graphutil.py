"""Small graph builders shared across the test modules, set-based references
for the package's graph builder and edge-list loader, edge-list references
for its two generators, the reference count of a vertex set's external edges,
a counter of the engine's search nodes, and the value forms of the pruning
bounds that the engine's threshold tests are checked against."""

from __future__ import annotations

import itertools
import random

from isoclique import BAConfig, EdgeListParseError, FeatureModelConfig, Graph, enumeration
from isoclique.pruning import bit_indices


def graph_from_edges(n: int, edges) -> Graph:
    g = Graph.from_edges(n, edges)
    g.validate()
    return g


def reference_adjacency(n: int, edges) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Graph.from_edges's adjacency and edge count through a set of edge
    tuples; raises its ValueError on an edge outside [0, n)."""
    unique = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references a vertex outside [0, {n})")
        if u != v:
            unique.add((min(u, v), max(u, v)))
    rows = [[] for _ in range(n)]
    for u, v in sorted(unique):
        rows[u].append(v)
        rows[v].append(u)
    return tuple(tuple(sorted(row)) for row in rows), len(unique)


def reference_load(lines) -> tuple[Graph, int, int]:
    """load_edge_list_report's graph, self_loops_dropped and
    duplicate_edges_dropped from a plain parser: it collects the edge list
    and dedups it through reference_adjacency. Raises the loader's
    EdgeListParseError on a line with fewer than two tokens."""
    ids: dict[str, int] = {}
    edges = []
    self_loops = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise EdgeListParseError(f"line {lineno}: expected two vertex labels, got {line!r}")
        known_before = tokens[0] in ids
        a = ids.setdefault(tokens[0], len(ids))
        b = ids.setdefault(tokens[1], len(ids))
        if a == b:
            if known_before:
                self_loops += 1
            continue
        edges.append((a, b))
    labels = [""] * len(ids)
    for text, vid in ids.items():
        labels[vid] = text
    adjacency, m = reference_adjacency(len(ids), edges)
    return Graph(len(ids), m, adjacency, tuple(labels)), self_loops, len(edges) - m


def reference_generate_ba(cfg: BAConfig) -> Graph:
    """generate_ba through a full edge list: the same draws in the same order,
    with every edge collected as a tuple before Graph.from_edges builds."""
    rng = random.Random(cfg.seed)
    n, m = cfg.n, cfg.m
    edges: list[tuple[int, int]] = []
    pool: list[int] = []
    seed_size = m + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            edges.append((u, v))
        pool.extend([u] * m)
    for v in range(seed_size, n):
        targets: set[int] = set()
        while len(targets) < m:
            t = pool[rng.randrange(len(pool))]
            if t not in targets:
                targets.add(t)
        for t in sorted(targets):
            edges.append((t, v))
            pool.append(t)
        pool.extend([v] * m)
    return Graph.from_edges(n, edges)


def reference_generate_feature_model(cfg: FeatureModelConfig) -> Graph:
    """generate_feature_model through a full edge list: every pair of every
    feature class as a tuple, repeats included, before Graph.from_edges."""
    rng = random.Random(cfg.seed)
    classes: list[list[int]] = [[] for _ in range(cfg.m)]
    for v in range(cfg.n):
        for f in range(cfg.m):
            if rng.random() < cfg.p:
                classes[f].append(v)
    edges = [
        (u, w) for members in classes for i, u in enumerate(members) for w in members[i + 1 :]
    ]
    return Graph.from_edges(cfg.n, edges)


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


def external_degree(g: Graph, vertices) -> int:
    """Number of edges with exactly one endpoint in ``vertices``."""
    members = set(vertices)
    count = 0
    for v in vertices:
        for u in g.adjacency[v]:
            if u not in members:
                count += 1
    return count


def count_search_nodes(monkeypatch) -> list:
    """Record one entry per SearchNode the engine constructs from now on;
    every visited node is constructed once, so the count must equal the
    runs' summed ``recursive_calls``."""
    constructed = []
    real_node = enumeration.SearchNode

    def counted(*args, **kwargs):
        constructed.append(1)
        return real_node(*args, **kwargs)

    monkeypatch.setattr(enumeration, "SearchNode", counted)
    return constructed


def bitset_view(g: Graph, vertices) -> tuple[int, list[int], list[int]]:
    """The bounds' view of the candidate set ``vertices``: its bitset p over
    all of g (bit v stands for vertex v), the members' popcount degrees in
    bit order, and every vertex's neighbourhood row."""
    masks = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
    members = sorted(set(vertices))
    p = sum(1 << v for v in members)
    return p, [(masks[v] & p).bit_count() for v in members], masks


def ub_size(p: int) -> int:
    """Candidate count: the weakest clique-size bound."""
    return p.bit_count()


def ub_degree(counts) -> int:
    """Maximum degree inside the candidate subgraph, plus one."""
    return max(counts) + 1


def ub_softcore(counts) -> int:
    """Largest k such that at least k candidates have induced degree >= k-1,
    by a counting sort over the degree values."""
    n = len(counts)
    count = [0] * n  # induced degrees lie in [0, n-1]
    for d in counts:
        count[d] += 1
    at_or_above = 0
    for k in range(n, 0, -1):
        at_or_above += count[k - 1]
        if at_or_above >= k:
            return k
    return 0


def ub_degeneracy(p: int, counts, masks) -> int:
    """Peeling bound: degeneracy plus one, by an exact k-core peel on bitsets.

    Each round drops at once every candidate with at most k neighbours among
    those left. A round that would drop nothing leaves a core of higher
    order, so k first rises to the least degree left. When a round drops
    everything, no (k+1)-core exists and k is the degeneracy.
    """
    live = bit_indices(p)
    degs = counts
    k = 0
    while True:
        k = max(k, min(degs))
        keep = []
        for i, d in zip(live, degs):
            if d > k:
                keep.append(i)
            else:
                p ^= 1 << i
        if not keep:
            return k + 1
        live = keep
        degs = [(masks[i] & p).bit_count() for i in live]


def prune_test(c_size: int, p_size: int, ext_cp: int, omega_bar: int, ell: int) -> bool:
    """True when no clique grown from the node can meet the isolation cut.

    Growing the node's clique by w <= omega_bar candidates strands at least
    p_size - w candidates, each adding c_size external edges on top of
    ext_cp, so the best reachable case still violates isolation whenever

        ext_cp + c_size * p_size - ell * c_size >= omega_bar * (ell + c_size)
    """
    return ext_cp + c_size * p_size - ell * c_size >= omega_bar * (ell + c_size)
