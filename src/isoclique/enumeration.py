"""Backtracking maximal-clique search with pivoting and pruning hooks.

Each search node owns the classic triple: C, the clique under
construction; P, the candidates that are adjacent to all of C and may
still extend it; and X, the vertices adjacent to all of C whose maximal
cliques were already reported. Branching only on candidates outside the
pivot's neighborhood keeps the tree small, and a per-node counter of the
edges leaving C (ignoring P) is maintained incrementally so pruning
tests and the final isolation filter never rescan the graph.

Below a root child v everything lies inside N(v), so the root child and
its subtree run on bitsets over N(v) (see _search_subproblem), on an
explicit stack, so deep cliques cannot hit the interpreter recursion
limit. The root splits each child's P and X off the child's adjacency
list and only the root itself holds vertex lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

# The search no longer calls intersect_with_neighbors. perfbench's tracer hooks
# it under this module, so it stays importable here and its graph.intersect
# span reads zero calls until the benchmark drops that hook.
from .graph import Graph, intersect_with_neighbors  # noqa: F401
from .pruning import IsolationParams, Stages, bit_indices, evaluate_strategy, get_strategy


@dataclass(slots=True)
class SearchNode:
    """One live node of the search tree plus its child-iteration state.

    At the root P and X are ascending vertex lists. Everywhere else they are
    bitsets over a root child's neighbourhood (see _search_subproblem), and
    ``branch`` holds the bits of P outside the pivot's neighbourhood not yet
    branched on.
    ``ext_cp`` counts the edges from C to vertices outside C and P; it always
    equals the from-scratch recount (see from_scratch_ext_cp) and is kept
    current as candidates retire into X.
    """

    c: list[int]
    p: list[int] | int
    x: list[int] | int
    ext_cp: int
    branch: int = 0


@dataclass
class RunStats:
    """Counters for one enumeration run; deterministic except wall_time."""

    recursive_calls: int = 0
    prune_firings: Counter = field(default_factory=Counter)
    emitted: int = 0
    filtered_at_leaf: int = 0
    wall_time: float = 0.0
    induced_degree_evals: int = 0

    @property
    def total_prune_firings(self) -> int:
        return sum(self.prune_firings.values())


@dataclass(frozen=True)
class CliqueReport:
    """An emitted maximal clique with its external edge count."""

    vertices: tuple[int, ...]
    external_degree: int

    @property
    def size(self) -> int:
        return len(self.vertices)


Sink = Callable[[CliqueReport], None]


def select_pivot(g: Graph, p: Sequence[int], x: Sequence[int]) -> int:
    """Vertex of P ∪ X with the most neighbors inside P; ties go to the
    smallest id, which keeps runs reproducible."""
    if not p and not x:
        raise ValueError("pivot selection needs a non-empty candidate pool")
    members = set(p)
    best = -1
    best_v = -1
    for pool in (p, x):
        for v in pool:
            count = 0
            for u in g.adjacency[v]:
                if u in members:
                    count += 1
            if count > best or (count == best and v < best_v):
                best = count
                best_v = v
    return best_v


def _local_pivot(
    masks: Sequence[int], p: int, p_bits: Sequence[int] | None, counts: Sequence[int] | None, x: int
) -> int:
    """select_pivot on bitsets: the bit of P | X whose row meets P most often,
    ties to the lowest bit. ``p_bits`` and ``counts``, if given, list P's bits
    ascending and their popcounts against P; both are read only together."""
    if counts is None:
        p_bits = bit_indices(p)
        counts = [(masks[i] & p).bit_count() for i in p_bits]
    best = max(counts)
    pivot = p_bits[counts.index(best)]
    if x:
        x_bits = bit_indices(x)
        x_counts = [(masks[i] & p).bit_count() for i in x_bits]
        best_x = max(x_counts)
        first_x = x_bits[x_counts.index(best_x)]
        if best_x > best or (best_x == best and first_x < pivot):
            pivot = first_x
    return pivot


def child_ext_cp(ext_cp: int, c_size: int, p_size: int, p_child_size: int, degree: int) -> int:
    """External edge count of the child node (C + v, P ∩ N(v)).

    ``ext_cp``, ``c_size`` and ``p_size`` describe the parent, ``degree`` is
    v's degree in the graph. Every candidate that drops out of P is adjacent
    to all of C and so adds c_size newly external edges; v itself adds its
    edges that leave C and the child's candidate set. O(1).
    """
    return ext_cp + c_size * (p_size - p_child_size - 1) + (degree - c_size - p_child_size)


def from_scratch_ext_cp(g: Graph, c: Sequence[int], p: Sequence[int]) -> int:
    """Recount the edges from ``c`` to vertices outside ``c`` and ``p``.

    Reference implementation for the incrementally maintained counter;
    enabled per node via the engine's debug flag.
    """
    blocked = set(c)
    blocked.update(p)
    count = 0
    for v in c:
        for u in g.adjacency[v]:
            if u not in blocked:
                count += 1
    return count


def _check_node(g: Graph, node: SearchNode, universe: Sequence[int] | None = None) -> None:
    """Recount the node's invariants; P and X are bitsets over ``universe``
    when it is given, and vertex lists otherwise."""
    c, p, x = node.c, node.p, node.x
    if universe is not None:
        p = [universe[i] for i in bit_indices(p)]
        x = [universe[i] for i in bit_indices(x)]
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


def _handle_leaf(
    node: SearchNode, params: IsolationParams | None, sink: Sink | None, stats: RunStats
) -> None:
    size = len(node.c)
    if params is None:
        # plain maximal-clique mode; the empty root of a vertexless graph
        # is the only leaf that is not a clique
        keep = size > 0
    else:
        # P is empty here, so ext_cp is the clique's full external degree
        keep = node.ext_cp < params.ell * size
    if keep:
        stats.emitted += 1
        if sink is not None:
            sink(CliqueReport(tuple(sorted(node.c)), node.ext_cp))
    else:
        stats.filtered_at_leaf += 1


def _run(
    g: Graph,
    sink: Sink | None,
    ell: int | None,
    stages: Stages,
    debug: bool,
) -> RunStats:
    params = IsolationParams(ell) if ell is not None else None
    if params is None and stages:
        raise ValueError("pruning strategies need an isolation factor")
    stats = RunStats()
    start = perf_counter()
    adjacency = g.adjacency
    root = SearchNode(c=[], p=list(range(g.vertex_count)), x=[], ext_cp=0)
    stats.recursive_calls += 1
    if debug:
        _check_node(g, root)
    if not root.p:
        _handle_leaf(root, params, sink, stats)
        stats.wall_time = perf_counter() - start
        return stats

    # At the root C is empty, so P and X partition V: one retired flag per
    # vertex stands in for both lists, and each root child is split off its
    # own adjacency list in O(deg). With C empty the prune test reduces to
    # 0 >= omega_bar * ell, which no bound can meet, so the root is never
    # evaluated.
    pivot = select_pivot(g, root.p, root.x)
    skip = set(adjacency[pivot])
    retired = bytearray(g.vertex_count)
    bit = [0] * g.vertex_count  # work buffer of _search_subproblem, all zero between calls
    for v in root.p:
        if v in skip:
            continue
        universe = adjacency[v]
        # bit i stands for universe[i]: the retired neighbours form X, the rest
        # P, and with C empty child_ext_cp reduces to deg(v) - |P|
        x = sum(1 << i for i, u in enumerate(universe) if retired[u])
        p = ((1 << len(universe)) - 1) ^ x
        stats.recursive_calls += 1
        node = SearchNode(c=[v], p=p, x=x, ext_cp=len(universe) - p.bit_count())
        if debug:
            _check_node(g, node, universe)
        retired[v] = 1  # the child's sets are split off already
        if not p:
            if not x:
                _handle_leaf(node, params, sink, stats)
            continue
        _search_subproblem(g, node, bit, params, stages, sink, stats, debug)
    stats.wall_time = perf_counter() - start
    return stats


def _search_subproblem(
    g: Graph,
    top: SearchNode,
    bit: list[int],
    params: IsolationParams | None,
    stages: Stages,
    sink: Sink | None,
    stats: RunStats,
    debug: bool,
) -> None:
    """Test a root child and search below it, on local bitsets.

    Everything below root child v lies inside N(v), so P and X are ints
    over ``universe`` = N(v): bit i stands for ``universe[i]``, and as the
    adjacency list is sorted, bit order is vertex-id order. ``masks[i]`` is
    N(universe[i]) within the universe. A child's sets are ``P & masks[i]``
    and ``X & masks[i]``; retiring i moves its bit from P to X. One popcount
    per vertex, ``(masks[i] & P).bit_count()``, serves both the pivot and
    the induced degrees the bounds read. Children are tested (leaf, prune,
    pivot) when they are created, so only nodes with branches to walk go on
    the stack. The root child's own prune test builds only the rows of P,
    and only past the free ``size`` stage, so a pruned root child builds no
    more than its test reads; ``bit`` is all zero on entry and on return.
    """
    adjacency = g.adjacency
    universe = adjacency[top.c[0]]
    masks = [0] * len(universe)
    stack: list[SearchNode] = []

    def build_rows(rows: Sequence[int]) -> None:
        for i, w in enumerate(universe):
            bit[w] = 1 << i
        lookup = bit.__getitem__
        for i in rows:
            masks[i] = sum(map(lookup, adjacency[universe[i]]))
        for w in universe:
            bit[w] = 0

    def induced() -> list[int]:
        # the popcount degrees of the node under test, kept for its pivot
        nonlocal p_bits, counts
        p_bits = bit_indices(p)
        if not stack:  # only the root child is tested with nothing stacked
            build_rows(p_bits)
        counts = [(masks[i] & p).bit_count() for i in p_bits]
        return counts

    def expand(node: SearchNode) -> None:
        node.branch = p & ~masks[_local_pivot(masks, p, p_bits, counts, node.x)]
        stack.append(node)

    p = top.p
    p_bits = counts = None
    if stages:
        fired = evaluate_strategy(stages, 1, p, masks, top.ext_cp, params, stats, induced)
        if fired is not None:
            stats.prune_firings[fired] += 1
            return
    # the survivor builds the rows its test did not
    build_rows(range(len(universe)) if counts is None else bit_indices(top.x))
    expand(top)
    while stack:
        node = stack[-1]
        branch = node.branch
        if not branch:
            stack.pop()
            continue
        low = branch & -branch
        node.branch = branch ^ low
        i = low.bit_length() - 1
        v = universe[i]
        parent_p = node.p
        p = parent_p & masks[i]
        x = node.x & masks[i]
        c_size = len(node.c)
        ext = child_ext_cp(
            node.ext_cp, c_size, parent_p.bit_count(), p.bit_count(), len(adjacency[v])
        )
        # retire i into X at once: the child's sets are already split off
        node.p = parent_p ^ low
        node.x |= low
        node.ext_cp += c_size
        c = node.c + [v]
        stats.recursive_calls += 1
        child = SearchNode(c=c, p=p, x=x, ext_cp=ext)
        if debug:
            _check_node(g, child, universe)
        if not p:
            if not x:
                _handle_leaf(child, params, sink, stats)
            continue
        counts = None
        if stages:
            fired = evaluate_strategy(stages, len(c), p, masks, ext, params, stats, induced)
            if fired is not None:
                stats.prune_firings[fired] += 1
                continue
        expand(child)


def enumerate_isolated(
    g: Graph,
    ell: int,
    strategy: str | Stages,
    sink: Sink | None = None,
    *,
    debug: bool = False,
) -> RunStats:
    """Report every maximal clique of ``g`` whose external edge count is
    strictly below ``ell`` times its size.

    The sink is invoked exactly once per qualifying clique, with sorted
    vertices, in a deterministic depth-first order. ``strategy`` names
    the chain of bounds in ``STRATEGIES`` that vetoes sterile subtrees,
    or is such a chain of ``(name, bound)`` stages itself; with strategy
    "none" every maximal clique is still visited and merely filtered at
    the leaves. ``debug`` recounts the external-edge counter and the
    adjacency invariants at every node.
    """
    stages = get_strategy(strategy) if isinstance(strategy, str) else strategy
    return _run(g, sink, ell=ell, stages=stages, debug=debug)


def enumerate_all_maximal(
    g: Graph, sink: Sink | None = None, *, debug: bool = False
) -> RunStats:
    """Report every maximal clique of ``g`` exactly once."""
    return _run(g, sink, ell=None, stages=(), debug=debug)
