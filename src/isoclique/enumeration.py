"""Backtracking maximal-clique search with pivoting and pruning hooks.

Each search node owns the classic triple: C, the clique under
construction; P, the candidates that are adjacent to all of C and may
still extend it; and X, the vertices adjacent to all of C whose maximal
cliques were already reported. Branching only on candidates outside the
pivot's neighborhood keeps the tree small, and a per-node counter of the
edges leaving C (ignoring P) is maintained incrementally so pruning
tests and the final isolation filter never rescan the graph.

The walk is run on an explicit stack, so deep cliques cannot hit the
interpreter recursion limit.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

from .graph import Graph, intersect_with_neighbors
from .pruning import IsolationParams, Stages, evaluate_strategy, get_strategy


@dataclass
class SearchNode:
    """One live node of the search tree plus its child-iteration state.

    ``ext_cp`` counts the edges from C to vertices outside C and P; it
    always equals the from-scratch recount (see from_scratch_ext_cp) and
    is kept current as candidates retire into X.
    """

    c: list[int]
    p: list[int]
    x: list[int]
    ext_cp: int
    branch: list[int] | None = None  # snapshot of P minus the pivot's neighbors
    cursor: int = 0
    pending: int | None = None  # branch vertex whose child is on the stack


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


def child_ext_cp(parent: SearchNode, v: int, p_child_size: int, g: Graph) -> int:
    """External edge count of the child node (C + v, P ∩ N(v)).

    Every candidate that drops out of P is adjacent to all of C and so
    adds len(C) newly external edges; v itself adds its edges that leave
    C and the child's candidate set. O(1) given the child candidate count.
    """
    c_size = len(parent.c)
    p_size = len(parent.p)
    return (
        parent.ext_cp
        + c_size * (p_size - p_child_size - 1)
        + (len(g.adjacency[v]) - c_size - p_child_size)
    )


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


def _difference_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # a \ b for ascending sequences
    out = []
    j = 0
    len_b = len(b)
    for item in a:
        while j < len_b and b[j] < item:
            j += 1
        if j < len_b and b[j] == item:
            continue
        out.append(item)
    return out


def _check_node(g: Graph, node: SearchNode) -> None:
    expected = from_scratch_ext_cp(g, node.c, node.p)
    if node.ext_cp != expected:
        raise AssertionError(
            f"incremental external-edge counter {node.ext_cp} != recount {expected} "
            f"at C={node.c} P={node.p}"
        )
    c_set = set(node.c)
    p_set = set(node.p)
    x_set = set(node.x)
    if c_set & p_set or c_set & x_set or p_set & x_set:
        raise AssertionError(f"C/P/X overlap at C={node.c} P={node.p} X={node.x}")
    for v in node.p + node.x:
        if not c_set.issubset(g.adjacency[v]):
            raise AssertionError(f"vertex {v} in P or X is not adjacent to all of C={node.c}")


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
    pruning_active = params is not None and bool(stages)

    # At the root C is empty, so P and X partition V: one retired flag per
    # vertex stands in for both lists, and each root child is split off its
    # own adjacency list in O(deg) instead of merged against all of V. The
    # root's own P and X lists go stale once its branch is taken.
    root = SearchNode(c=[], p=list(range(g.vertex_count)), x=[], ext_cp=0)
    retired = bytearray(g.vertex_count)
    stack = [root]
    while stack:
        node = stack[-1]
        if node.branch is None:
            # first visit
            stats.recursive_calls += 1
            if debug:
                _check_node(g, node)
            if not node.p:
                if not node.x:
                    _handle_leaf(node, params, sink, stats)
                stack.pop()
                continue
            # with C empty the prune test reduces to 0 >= omega_bar * ell,
            # which no bound can meet, so the root is never evaluated
            if pruning_active and node.c:
                fired = evaluate_strategy(
                    g, stages, len(node.c), node.p, node.ext_cp, params, stats
                )
                if fired is not None:
                    stats.prune_firings[fired] += 1
                    stack.pop()
                    continue
            pivot = select_pivot(g, node.p, node.x)
            node.branch = _difference_sorted(node.p, adjacency[pivot])
        elif node.pending is not None:
            # the child spawned for `pending` has finished: retire the vertex
            # from P into X; its edges into C become external
            v = node.pending
            node.pending = None
            if node is root:
                retired[v] = 1
            else:
                node.p.remove(v)
                insort(node.x, v)
                node.ext_cp += len(node.c)
        if node.cursor < len(node.branch):
            v = node.branch[node.cursor]
            node.cursor += 1
            if node is root:
                nbrs = adjacency[v]
                child_p = [u for u in nbrs if not retired[u]]
                child_x = [u for u in nbrs if retired[u]]
                ext = len(nbrs) - len(child_p)  # child_ext_cp with C empty
            else:
                child_p = intersect_with_neighbors(g, node.p, v)
                child_x = intersect_with_neighbors(g, node.x, v)
                ext = child_ext_cp(node, v, len(child_p), g)
            node.pending = v
            stack.append(SearchNode(c=node.c + [v], p=child_p, x=child_x, ext_cp=ext))
        else:
            stack.pop()
    stats.wall_time = perf_counter() - start
    return stats


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
