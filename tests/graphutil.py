"""Small graph builders shared across the test modules, which build from a
set-based reference adjacency and not through the package, a structural
check, the edges and the canonical text of a graph, a shortcut to the
package's edge-list loader and a set-based reference for it, edge-list
references for its two generators, the oracle-sized graph corpus of the
acceptance suite, the reference count of a vertex set's external edges and
of a child node's external-edge counter, a flag-based reference of the
root's split, a counter of the engine's search nodes, the per-node recount
the engine's runs are checked under, a bitset's set bits, and the value
forms of the pruning bounds and the isolation threshold that the engine's
threshold tests are checked against."""

from __future__ import annotations

import io
import itertools
import random
from contextlib import contextmanager

from isoclique import (
    BAConfig,
    EdgeListParseError,
    FeatureModelConfig,
    Graph,
    enumeration,
    load_edge_list_report,
    write_edge_list,
)


def validate(g: Graph) -> None:
    """Check a graph's structural invariants; raises AssertionError on a
    violation."""
    assert len(g.adjacency) == g.vertex_count
    total = 0
    for v, nbrs in enumerate(g.adjacency):
        total += len(nbrs)
        for i, u in enumerate(nbrs):
            assert 0 <= u < g.vertex_count, f"neighbor {u} of {v} out of range"
            assert u != v, f"self-loop at {v}"
            assert i == 0 or nbrs[i - 1] < u, f"adjacency of {v} not strictly ascending"
            assert v in g.adjacency[u], f"edge {v}-{u} not symmetric"
    assert total == 2 * g.edge_count, "edge_count does not match adjacency"
    if g.labels is not None:
        assert len(g.labels) == g.vertex_count


def canonical_edge_list(g: Graph, header_comments=()) -> str:
    """write_edge_list's canonical serialization as a single string."""
    buf = io.StringIO()
    write_edge_list(g, buf, header_comments)
    return buf.getvalue()


def edges(g: Graph):
    """Yield each edge of ``g`` once as (u, v) with u < v, ascending."""
    for u, nbrs in enumerate(g.adjacency):
        for v in nbrs:
            if v > u:
                yield u, v


def graph_from_edges(n: int, edges, labels=None) -> Graph:
    """The graph on vertices 0..n-1 with ``edges``, built from
    reference_adjacency, not by the package; self-loops and repeats are
    dropped."""
    adjacency, m = reference_adjacency(n, edges)
    g = Graph(n, m, adjacency, tuple(labels) if labels is not None else None)
    validate(g)
    return g


def load(lines) -> Graph:
    """The graph that load_edge_list_report reads from ``lines``."""
    return load_edge_list_report(lines).graph


def reference_adjacency(n: int, edges) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The adjacency rows and edge count of the simple graph on 0..n-1 with
    ``edges``, through a set of edge tuples; raises ValueError on an edge
    outside [0, n)."""
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
    with every edge collected as a tuple before graph_from_edges builds."""
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
    return graph_from_edges(n, edges)


def reference_generate_feature_model(cfg: FeatureModelConfig) -> Graph:
    """generate_feature_model through a full edge list: every pair of every
    feature class as a tuple, repeats included, before graph_from_edges."""
    rng = random.Random(cfg.seed)
    classes: list[list[int]] = [[] for _ in range(cfg.m)]
    for v in range(cfg.n):
        for f in range(cfg.m):
            if rng.random() < cfg.p:
                classes[f].append(v)
    edges = [
        (u, w) for members in classes for i, u in enumerate(members) for w in members[i + 1 :]
    ]
    return graph_from_edges(cfg.n, edges)


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


CORPUS_SEED = 0x5EED
CORPUS_SIZE = 500


def oracle_corpus() -> list[Graph]:
    """The acceptance suite's CORPUS_SIZE seeded random graphs, of 4 to 12
    vertices each, small enough for the brute-force oracle."""
    rng = random.Random(CORPUS_SEED)
    graphs = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(4, 12)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        graphs.append(erdos_renyi(n, p, rng))
    return graphs


def external_degree(g: Graph, vertices) -> int:
    """Number of edges with exactly one endpoint in ``vertices``."""
    members = set(vertices)
    count = 0
    for v in vertices:
        for u in g.adjacency[v]:
            if u not in members:
                count += 1
    return count


def from_scratch_ext_cp(g: Graph, c, p) -> int:
    """Recount the edges from ``c`` to vertices outside ``c`` and ``p``: the
    external-edge counter the engine keeps at a node (C, P)."""
    blocked = set(c)
    blocked.update(p)
    count = 0
    for v in c:
        for u in g.adjacency[v]:
            if u not in blocked:
                count += 1
    return count


def child_ext_cp(ext_cp: int, c_size: int, p_size: int, p_child_size: int, degree: int) -> int:
    """External edge count of the child node (C + v, P ∩ N(v)).

    ``ext_cp``, ``c_size`` and ``p_size`` describe the parent, ``degree`` is
    v's degree in the graph. Every candidate that drops out of P is adjacent
    to all of C and so adds c_size newly external edges; v itself adds its
    edges that leave C and the child's candidate set. The engine's loop
    keeps an equivalent form inline.
    """
    return ext_cp + c_size * (p_size - p_child_size - 1) + (degree - c_size - p_child_size)


def _members(bits: int, universe) -> list:
    # decoded from the binary string, in linear time: the root's P has n bits
    return [universe[i] for i, b in enumerate(bin(bits)[:1:-1]) if b == "1"]


def check_node(g: Graph, node, universe) -> None:
    """Recount a search node's invariants; bit i of its P and X stands for
    ``universe[i]``. Its counter must equal from_scratch_ext_cp, C, P and X
    must be disjoint, and every vertex of P and X adjacent to all of C."""
    c = node.c
    p = _members(node.p, universe)
    x = _members(node.x, universe)
    expected = from_scratch_ext_cp(g, c, p)
    if node.ext_cp != expected:
        raise AssertionError(
            f"incremental external-edge counter {node.ext_cp} != recount {expected} "
            f"at C={c} P={p}"
        )
    c_set = set(c)
    p_set = set(p)
    x_set = set(x)
    if c_set & p_set or c_set & x_set or p_set & x_set:
        raise AssertionError(f"C/P/X overlap at C={c} P={p} X={x}")
    for v in p + x:
        if not c_set.issubset(g.adjacency[v]):
            raise AssertionError(f"vertex {v} in P or X is not adjacent to all of C={c}")


def local_rows(g: Graph, v: int) -> list[int]:
    """Every neighbour's full row within N(v), bit j standing for N(v)[j]."""
    universe = g.adjacency[v]
    rows = []
    for u in universe:
        adjacent = set(g.adjacency[u])
        rows.append(sum(1 << j for j, w in enumerate(universe) if w in adjacent))
    return rows


def reference_root_children(g: Graph) -> list:
    """The root's children ``(v, P, X, masks, branch)`` that _root_children
    yields, from one retired flag per vertex: the root pivot by select_pivot
    over P = V, each root child's X its neighbours flagged so far, every row
    by brute force and each pivot as check_root_child picks it."""
    n = g.vertex_count
    if not n:
        return []
    skip = set(g.adjacency[enumeration.select_pivot(g, range(n), [])])
    retired = bytearray(n)
    children = []
    for v in range(n):
        if v in skip:
            continue
        universe = g.adjacency[v]
        x = sum(1 << i for i, u in enumerate(universe) if retired[u])
        retired[v] = 1
        p = ((1 << len(universe)) - 1) ^ x
        masks = None
        branch = 0
        if p:
            rows = local_rows(g, v)
            masks = [row if p >> i & 1 else row & p for i, row in enumerate(rows)]
            bits = _members(p | x, range(len(universe)))
            pivot = min(bits, key=lambda i: (-(rows[i] & p).bit_count(), i))
            branch = p & ~rows[pivot]
        children.append((v, p, x, masks, branch))
    return children


def check_root_child(g: Graph, v: int, p: int, x: int, masks, branch: int) -> None:
    """Check a root child ``(v, P, X, masks, branch)``, as the engine's
    _root_children yields it and a RootSplit stores it, against the
    adjacency lists, bit i standing for the i-th neighbour of v.

    A root child without candidates has no rows and no branch. Otherwise
    ``masks[i]`` is N(N(v)[i]) within N(v) for a bit i of P, and that row
    cut to P for a bit of X, and ``branch`` is P outside the row of the
    pivot: the bit of P | X whose row meets P most often, ties to the
    lowest bit."""
    if not p:
        if masks is not None or branch:
            raise AssertionError(f"root child {v} has no candidates but rows or a branch")
        return
    universe = g.adjacency[v]
    rows = local_rows(g, v)
    for i, row in enumerate(rows):
        if masks[i] != (row if p >> i & 1 else row & p):
            raise AssertionError(f"mask row of vertex {universe[i]} does not match its adjacency")
    bits = _members(p | x, range(len(universe)))
    pivot = min(bits, key=lambda i: (-(rows[i] & p).bit_count(), i))
    if branch != p & ~rows[pivot]:
        raise AssertionError(f"stored branch of root child {v} does not match its pivot")


class Recount:
    """What recounted has checked so far: ``nodes`` search nodes and
    ``root_children`` root children, ``node``, the last checked node, and
    ``universe``, the vertices that the bits of its P and X stand for."""

    def __init__(self) -> None:
        self.nodes = 0
        self.root_children = 0
        self.node = None
        self.universe = ()


@contextmanager
def recounted(g: Graph):
    """Within the block, check every search node and every root child that
    the engine builds while it runs on ``g``, and yield the Recount.

    It wraps the two names the engine looks up. The engine builds a
    SearchNode only while that name is rebound, and then calls it once per
    visited node, before the node's prune test: each node goes through
    check_node there, over range(n) when its C is empty and over N(C[0])
    below the root. Each call of
    _search_subproblem, with or without a shared split, gets its root
    children through a generator that puts each through check_root_child
    as the search takes it, before any node below it is built. Both names
    are restored on exit, so the block nests with count_search_nodes and
    with perfbench's tracer."""
    recount = Recount()
    real_node = enumeration.SearchNode
    real_search = enumeration._search_subproblem
    root = range(g.vertex_count)

    def node(*args, **kwargs):
        built = real_node(*args, **kwargs)
        recount.universe = g.adjacency[built.c[0]] if built.c else root
        check_node(g, built, recount.universe)
        recount.node = built
        recount.nodes += 1
        return built

    def checked(children):
        for child in children:
            check_root_child(g, *child)
            recount.root_children += 1
            yield child

    def search(setup, children, *rest):
        return real_search(setup, checked(children), *rest)

    enumeration.SearchNode = node
    enumeration._search_subproblem = search
    try:
        yield recount
    finally:
        enumeration.SearchNode = real_node
        enumeration._search_subproblem = real_search


def count_search_nodes(monkeypatch) -> list:
    """Record one entry per SearchNode the engine constructs from now on.
    Rebinding the name makes the engine construct one per visited node, so
    the count must equal the runs' summed ``recursive_calls``."""
    constructed = []
    real_node = enumeration.SearchNode

    def counted(*args, **kwargs):
        constructed.append(1)
        return real_node(*args, **kwargs)

    monkeypatch.setattr(enumeration, "SearchNode", counted)
    return constructed


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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


def isolation_threshold(c_size: int, p_size: int, ext_cp: int, ell: int) -> int:
    """The threshold t that the engine tests a node's bounds against:
    prune_test(..., omega_bar, ...) holds exactly when omega_bar <= t."""
    return (ext_cp + c_size * (p_size - ell)) // (ell + c_size)


def prune_test(c_size: int, p_size: int, ext_cp: int, omega_bar: int, ell: int) -> bool:
    """True when no clique grown from the node can meet the isolation cut.

    Growing the node's clique by w <= omega_bar candidates strands at least
    p_size - w candidates, each adding c_size external edges on top of
    ext_cp, so the best reachable case still violates isolation whenever

        ext_cp + c_size * p_size - ell * c_size >= omega_bar * (ell + c_size)
    """
    return ext_cp + c_size * p_size - ell * c_size >= omega_bar * (ell + c_size)
