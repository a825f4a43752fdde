"""Backtracking maximal-clique search with pivoting and pruning hooks.

Each search node owns the classic triple: C, the clique under
construction; P, the candidates that are adjacent to all of C and may
still extend it; and X, the vertices adjacent to all of C whose maximal
cliques were already reported. Branching only on candidates outside the
pivot's neighborhood keeps the tree small, and a per-node counter of the
edges leaving C (ignoring P) is maintained incrementally so pruning
tests and the final isolation filter never rescan the graph. There is
one search: listing every maximal clique (enumerate_all_maximal) is the
isolated search at factor n + 1 under strategy "none", for n vertices,
whose leaf filter keeps every clique.

P and X are bitsets everywhere: over V at the root, bit v standing for
vertex v, and over N(v) at and below a root child v, since everything
there lies inside N(v). One generator, _root_children, picks the root
pivot, splits each root child's P and X off the child's adjacency list,
builds its local rows, X's from P's by symmetry and a hub's by
filtering N(v) through the hub's neighbours, and picks its pivot, in
root order.
_search_subproblem visits the root child and every node below it with
one block (count, leaf, prune test, pivot), on an explicit stack,
so deep cliques cannot hit the interpreter recursion limit. A pivot
counts X's bits first, then those of P's bits that the node's prune test
did not count, and stops at a count no later bit can beat: |P| for a bit
of X, |P| - 1 for a bit of P, whose row lacks its own bit.

A run consumes that generator one root child at a time. Several runs on
one graph can share its output instead, a RootSplit (see split_root). A
run handed one picks no root pivot, splits nothing, builds no rows and
picks no pivot at a root child.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Sequence

# The search no longer calls intersect_with_neighbors. perfbench's tracer hooks
# it under this module, so it stays importable here and its graph.intersect
# span reads zero calls until the benchmark drops that hook.
from .graph import Graph, intersect_with_neighbors  # noqa: F401
from .pruning import Stages, bit_indices, evaluate_strategy, get_strategy


@dataclass(slots=True)
class SearchNode:
    """One live node of the search tree plus its child-iteration state.

    P and X are bitsets: over V at the root, and over a root child's
    neighbourhood below it (see _search_subproblem). ``branch`` holds the
    bits of P outside the pivot's neighbourhood not yet branched on.
    ``ext_cp`` counts the edges from C to vertices outside C and P; it is
    kept current as candidates retire into X, and the tests recount it from
    scratch at every node they wrap (see recounted in tests/graphutil.py).
    """

    c: list[int]
    p: int
    x: int
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
    ties to the lowest bit. ``counts``, if given, are the popcounts against P
    of P's bits ``p_bits``, and then only X's bits are counted here.

    The scan stops as soon as no later bit can beat its leader, under two
    ceilings. X comes first, in ascending order: no row meets P more than
    |P| times, so the first X bit at |P| is the pivot, and its node has
    nothing to branch on. P's bits come next, in ascending order, unless
    ``counts`` holds them: a row of P never holds its own bit, so no P bit
    counts more than |P| - 1. A P bit that takes the lead at |P| - 1 is
    the pivot, since a later bit could only tie it at a higher index, and
    an X leader at |P| - 1 leaves only the P bits below it to scan. The
    exit tests run only when the lead changes.
    """
    ceiling = p.bit_count()
    best = pivot = -1
    while x:
        low = x & -x
        x ^= low
        i = low.bit_length() - 1
        d = (masks[i] & p).bit_count()
        if d > best:
            best = d
            pivot = i
            if d == ceiling:
                return i
    if counts is not None:
        d = max(counts)
        i = p_bits[counts.index(d)]
        return i if d > best or d == best and i < pivot else pivot
    ceiling -= 1
    rest = p if best < ceiling else p & ((1 << pivot) - 1)
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        d = (masks[i] & p).bit_count()
        if d >= best and (d > best or i < pivot):
            best = d
            pivot = i
            if d == ceiling:
                return i
    return pivot


def child_ext_cp(ext_cp: int, c_size: int, p_size: int, p_child_size: int, degree: int) -> int:
    """External edge count of the child node (C + v, P ∩ N(v)).

    ``ext_cp``, ``c_size`` and ``p_size`` describe the parent, ``degree`` is
    v's degree in the graph. Every candidate that drops out of P is adjacent
    to all of C and so adds c_size newly external edges; v itself adds its
    edges that leave C and the child's candidate set. O(1).
    """
    return ext_cp + c_size * (p_size - p_child_size - 1) + (degree - c_size - p_child_size)


# A P member u with more than this many times deg(v) neighbours gets its row
# within N(v) by filtering N(v) through a set of N(u), not by scanning N(u).
_HUB_FACTOR = 4


def _root_children(g: Graph) -> Iterator[tuple[int, int, int, list[int] | None, int]]:
    """The root's children ``(v, P, X, masks, branch)`` in root order, P
    and X as bitsets over N(v), where bit i stands for N(v)[i].

    At the root C is empty, so P and X partition V: one retired flag per
    vertex stands in for both sets, and each root child is split off its
    own adjacency list in O(deg): the retired neighbours form X, the rest P.
    ``masks`` holds the rows _search_subproblem reads, or is None when P is
    empty: ``masks[i]`` is N(N(v)[i]) within N(v) for i in P, and within P
    for i in X, filled from P's rows one step per edge between P and X,
    since below the root child an X row is only read against a subset of P.
    The row of u in P scans N(u), unless u is a hub of more than
    _HUB_FACTOR·deg(v) neighbours: its row filters N(v) through a set of
    N(u), built once per hub and kept while the generator runs. A row then
    costs at most _HUB_FACTOR·min(deg(u), deg(v)) lookups, and the rows of
    a run _HUB_FACTOR·Σ min(deg) over edges, not Σ deg² over vertices;
    Chiba and Nishizeki (SIAM J. Comput. 1985) bound that sum by
    2·arboricity·m. ``branch`` is the bits of P the root child branches on,
    ``P & ~masks[pivot]`` for its local pivot, or 0 when P is empty. Each
    child's rows are built when it is reached, so a consumer that drops
    them before the next holds one child's rows at a time.
    """
    n = g.vertex_count
    if not n:
        return
    adjacency = g.adjacency
    skip = set(adjacency[select_pivot(g, range(n), [])])
    retired = bytearray(n)
    bit = [0] * n  # bit[w] is w's bit in the current N(v), else 0
    lookup = bit.__getitem__
    hubs: dict[int, frozenset[int]] = {}  # N(u) of each hub u met so far
    for v in range(n):
        if v in skip:
            continue
        universe = adjacency[v]
        x = sum(1 << i for i, u in enumerate(universe) if retired[u])
        retired[v] = 1
        p = ((1 << len(universe)) - 1) ^ x
        masks = None
        branch = 0
        if p:
            for i, w in enumerate(universe):
                bit[w] = 1 << i
            masks = [0] * len(universe)
            p_bits = bit_indices(p)
            hub_degree = _HUB_FACTOR * len(universe)
            for i in p_bits:
                u = universe[i]
                nbrs = adjacency[u]
                if len(nbrs) > hub_degree:
                    members = hubs.get(u)
                    if members is None:
                        members = hubs[u] = frozenset(nbrs)
                    nbrs = filter(members.__contains__, universe)
                masks[i] = sum(map(lookup, nbrs))
            for w in universe:
                bit[w] = 0
            for i in p_bits:
                for j in bit_indices(masks[i] & x):
                    masks[j] |= 1 << i
            branch = p & ~masks[_local_pivot(masks, p, None, None, x)]
        yield v, p, x, masks, branch


@dataclass(frozen=True, slots=True)
class RootSplit:
    """The root's split of one graph, shared by every run handed it.

    ``children`` lists every root child ``(v, P, X, masks, branch)`` as
    _root_children yields it. Runs only read them.
    """

    graph: Graph
    children: list[tuple[int, int, int, list[int] | None, int]]


def split_root(g: Graph) -> RootSplit:
    """Pick the root pivot of ``g``, split every root child, build its rows
    and pick its pivot, once for any number of runs. The split holds all of
    them at once: one list slot per vertex of each root child's
    neighbourhood, at most 2m for m edges, each row as an int of up to
    deg(v) bits, and one branch int of up to deg(v) bits per root child."""
    return RootSplit(g, list(_root_children(g)))


def _search_subproblem(
    g: Graph,
    v: int,
    p: int,
    x: int,
    masks: list[int] | None,
    branch: int,
    ell: int,
    stages: Stages,
    sink: Sink | None,
    stats: RunStats,
) -> None:
    """Visit root child v, given as _root_children yields it, and every node
    below it, on local bitsets. ``branch`` stands in for the root child's
    pivot if its prune test keeps it.

    Everything below v lies inside N(v), so P and X are ints over
    ``universe`` = N(v): bit i stands for ``universe[i]``, in vertex-id
    order. ``masks[i]`` is N(universe[i]) within the universe for i in the
    root child's P, and within that P for i in its X, as every P below lies
    inside it. A child's sets are ``P & masks[i]`` and ``X & masks[i]``;
    retiring i moves its bit from P to X. One popcount per vertex,
    ``(masks[i] & P).bit_count()``, serves both the pivot and the bounds.
    Each pass of the loop visits one node (leaf, prune test, pivot), stacks
    it if it has branches to walk, and splits off the next child of the
    deepest stacked node. ``masks`` is only read.
    """
    adjacency = g.adjacency
    universe = adjacency[v]
    stack: list[SearchNode] = []

    def induced() -> tuple[list[int], list[int]]:
        # P's bits and popcount degrees at the node under test, kept for its pivot
        nonlocal p_bits, counts
        p_bits = []
        counts = []
        rest = p
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            p_bits.append(i)
            counts.append((masks[i] & p).bit_count())
        return p_bits, counts

    # with C empty child_ext_cp reduces to deg(v) - |P|
    c = [v]
    ext = len(universe) - p.bit_count()
    while True:
        stats.recursive_calls += 1
        node = SearchNode(c, p, x, ext)
        if not p:
            # a leaf when X is empty too; ext is then the clique's full cut
            if not x:
                if ext < ell * len(c):
                    stats.emitted += 1
                    if sink is not None:
                        sink(CliqueReport(tuple(sorted(c)), ext))
                else:
                    stats.filtered_at_leaf += 1
        else:
            p_bits = counts = fired = None
            if stages:
                fired = evaluate_strategy(stages, len(c), p, masks, ext, ell, stats, induced)
            if fired is None:
                # only the root child, the one node with C = [v], comes with its branch
                if len(c) > 1:
                    branch = p & ~masks[_local_pivot(masks, p, p_bits, counts, x)]
                node.branch = branch
                stack.append(node)
            else:
                stats.prune_firings[fired] += 1
        # the next node is the next unbranched bit of the deepest open node
        while stack and not stack[-1].branch:
            stack.pop()
        if not stack:
            return
        node = stack[-1]
        rest = node.branch
        low = rest & -rest
        node.branch = rest ^ low
        i = low.bit_length() - 1
        w = universe[i]
        parent_p = node.p
        p = parent_p & masks[i]
        x = node.x & masks[i]
        c_size = len(node.c)
        ext = child_ext_cp(
            node.ext_cp, c_size, parent_p.bit_count(), p.bit_count(), len(adjacency[w])
        )
        # retire i into X at once: the child's sets are already split off
        node.p = parent_p ^ low
        node.x |= low
        node.ext_cp += c_size
        c = node.c + [w]


def enumerate_isolated(
    g: Graph,
    ell: int,
    strategy: str | Stages,
    sink: Sink | None = None,
    *,
    split: RootSplit | None = None,
) -> RunStats:
    """Report every maximal clique of ``g`` whose external edge count is
    strictly below ``ell`` times its size.

    The sink is invoked exactly once per qualifying clique, with sorted
    vertices, in a deterministic depth-first order. ``strategy`` names
    the chain of bounds in ``STRATEGIES`` that vetoes sterile subtrees,
    or is such a chain of ``(name, bound)`` stages itself; with strategy
    "none" every maximal clique is still visited and merely filtered at
    the leaves. ``split``, from split_root(g), replaces the run's own root
    split and row building; output and counters are the same either way.
    """
    stages = get_strategy(strategy) if isinstance(strategy, str) else strategy
    if not isinstance(ell, int) or isinstance(ell, bool) or ell < 1:
        raise ValueError("isolation factor must be an integer >= 1")
    if split is not None and split.graph is not g:
        raise ValueError("the root split was prepared for another graph")
    stats = RunStats()
    start = perf_counter()
    # With C empty the prune test reduces to 0 >= omega_bar * ell, which no
    # bound can meet, so the root is never evaluated.
    n = g.vertex_count
    stats.recursive_calls += 1
    # built only so each counted node is one SearchNode: perfbench's tracer and tests count them
    SearchNode(c=[], p=(1 << n) - 1, x=0, ext_cp=0)
    if not n:
        # the root of a vertexless graph is its only leaf, and 0 < ell * 0 fails
        stats.filtered_at_leaf += 1
    children = _root_children(g) if split is None else split.children
    for v, p, x, masks, branch in children:
        _search_subproblem(g, v, p, x, masks, branch, ell, stages, sink, stats)
    stats.wall_time = perf_counter() - start
    return stats


def enumerate_all_maximal(
    g: Graph, sink: Sink | None = None, *, split: RootSplit | None = None
) -> RunStats:
    """Report every maximal clique of ``g`` exactly once; ``split`` as for
    enumerate_isolated.

    This is the isolated search at factor n + 1 under strategy "none", for
    n vertices: a clique of k vertices has at most k·(n - k) edges leaving
    it, which is below k·(n + 1), so every maximal clique passes the leaf
    filter. Only the empty root of a vertexless graph is filtered.
    """
    return enumerate_isolated(g, g.vertex_count + 1, "none", sink, split=split)
