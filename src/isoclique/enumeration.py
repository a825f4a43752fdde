"""Backtracking maximal-clique search with pivoting and pruning hooks.

Each search node owns the classic triple: C, the clique under
construction; P, the candidates that are adjacent to all of C and may
still extend it; and X, the vertices adjacent to all of C whose maximal
cliques were already reported. Branching only on candidates outside the
pivot's neighborhood keeps the tree small, and each node's cut, the
edges with exactly one end in C, is kept incrementally so pruning tests
and the final isolation filter never rescan the graph. There is
one search: listing every maximal clique (enumerate_all_maximal) is the
isolated search at factor n + 1 under strategy "none", for n vertices,
whose leaf filter keeps every clique.

P and X are bitsets everywhere: over V at the root, bit v standing for
vertex v, and over N(v) at and below a root child v, since everything
there lies inside N(v). One generator, _root_children, takes the root
pivot, the lowest id of top degree, splits each root child's P and X
off the child's adjacency list at the child's own position in it,
builds its local rows, X's from P's by symmetry and a hub's by
filtering N(v) through the hub's neighbours, and picks its pivot, in
root order. A root child with no edge inside P branches on all of P,
which is what its pivot gives, with no X rows filled and no pivot scan.

One call of _search_subproblem per run visits every root child and
every node below it, on an explicit stack of tuples, one per ancestor
of the open node with branches left, so deep cliques cannot hit the
interpreter recursion limit. A root child is prune-tested and opens
with the branch it came with. Below it, a child with candidates goes
through one block (count, prune test, pivot); a child without
candidates, a leaf or a dead end, is counted, observed and emitted or
filtered by the branching step that splits it off. It builds a
SearchNode per node only for an observer that rebinds that name. It
computes each node's isolation threshold t and asks the bounds only
when t >= 1. A pivot counts X's bits first, then those of
P's bits that the node's prune test did not count, and stops at a count
no later bit can beat: |P| for a bit of X, |P| - 1 for a bit of P,
whose row lacks its own bit. A node with one candidate a scans no
pivot: it branches on a unless a bit of X is adjacent to a, which is
the branch the full scan picks. The sink gets each clique as a
CliqueReport tuple built without a Python frame. Most maximal cliques of
a sparse graph are edges, each a leaf {v, w} one level below its root
child v, so such a leaf's sorted vertex tuple takes one comparison of v
and w (w lies below v when it is a neighbour of the root pivot). A
deeper leaf's tuple sorts C + w, which is built as a list only for the
sink or an observer.

A run gets its root children from a RootSplit of the whole root or of
a range of vertex ids, so that processes can share one run by ranges.
A split without children makes each run handed it stream them from that
generator, one root child at a time; split_root fills them once for
several runs, which then pick no root pivot and build no rows.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from time import perf_counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# The search no longer calls intersect_with_neighbors. perfbench's tracer hooks
# it under this module, so it stays importable here and its graph.intersect
# span reads zero calls until the benchmark drops that hook.
from .graph import Graph, intersect_with_neighbors  # noqa: F401
from .pruning import Stages, evaluate_strategy, get_strategy


@dataclass(slots=True)
class SearchNode:
    """One visited node of the search tree, as an observer sees it.

    P and X are bitsets: over V at the root, and over a root child's
    neighbourhood below it (see _search_subproblem). ``ext_cp``, C's cut
    less |C|·|P|, counts the edges from C to vertices outside C and P; the
    tests recount it at every node they observe (see recounted in
    tests/graphutil.py).

    The search builds none for its own use. When this module's name
    SearchNode is rebound to another callable of ``(c, p, x, ext_cp)``, such
    as a wrapper of this class, every run calls it once per visited node,
    the root included, before the node's prune test.
    """

    c: list[int]
    p: int
    x: int
    ext_cp: int


# The class itself, to tell an observer rebound at the name SearchNode. The
# hook is that name, not a separate _visit global, because perfbench's tracer
# (NODE_HOOK) and its node-count test count constructions of SearchNode, and
# the benchmark changes only on its own. An explicit hook can take this one's
# place once the benchmark counts nodes from RunStats.
_NODE = SearchNode


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


class CliqueReport(NamedTuple):
    """An emitted maximal clique with its external edge count.

    A tuple, so it is immutable, its fields read by name or by index, and
    it compares equal to a plain ``(vertices, external_degree)`` tuple.
    """

    vertices: tuple[int, ...]
    external_degree: int

    @property
    def size(self) -> int:
        return len(self.vertices)


Sink = Callable[[CliqueReport], None]


# The engine calls no select_pivot: the root's pivot, with P = V and X empty,
# is the lowest id of top degree (see _root_children). perfbench's tracer hooks
# it under this module and the tests check _local_pivot against it, so it stays
# until the benchmark drops that hook.
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


# A P member u with more than this many times deg(v) neighbours gets its row
# within N(v) by filtering N(v) through a set of N(u), not by scanning N(u).
_HUB_FACTOR = 4


class RootSetup:
    """What every root child of one graph shares, set up once for any
    number of runs and splits over ranges of it in one process: the degree
    list ``degrees``, the root pivot's neighbours ``skip``, which are never
    root children, and ``hubs``, N(u) as a frozenset for each hub u that a
    root child has met so far (see _root_children). A forked process fills
    its own copy of ``hubs``."""

    __slots__ = ("graph", "degrees", "skip", "hubs")

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self.degrees = degrees = list(map(len, g.adjacency))
        # select_pivot(g, range(n), []): with P = V a vertex's count is its degree
        self.skip = set(g.adjacency[degrees.index(max(degrees))]) if degrees else set()
        self.hubs: dict[int, frozenset[int]] = {}


def _root_children(
    setup: RootSetup, roots: range | None = None
) -> Iterator[tuple[int, int, int, list[int] | None, int]]:
    """The root's children ``(v, P, X, masks, branch)`` of the graph of
    ``setup``, in root order, P and X as bitsets over N(v), where bit i
    stands for N(v)[i]; only those with v in ``roots``, a range of vertex
    ids, if it is given. A child's P and X depend on the root order alone,
    so a range is split as the whole root splits it.

    At the root C is empty and X starts empty, so P = V and the root pivot
    is the lowest id of top degree; its neighbours ``skip`` are never root
    children. The others are visited in id order, each retiring into X as it
    is left, so the retired neighbours of v are its neighbours below v
    outside ``skip``. N(v) is ascending, so they fill the prefix of N(v)
    below position k = bisect_left(N(v), v), except where members of
    ``skip`` sit in it: X is that prefix less those held positions, and P
    the held positions plus every position from k on. ``masks`` holds the
    rows _search_subproblem reads, or is None when P is empty: ``masks[i]``
    is N(N(v)[i]) within N(v) for i in P, and within P for i in X, filled
    from P's rows one step per edge between P and X, since below the root
    child an X row is only read against a subset of P. The row of u in P
    scans N(u), unless u is a hub of more than _HUB_FACTOR·deg(v)
    neighbours: its row filters N(v) through a set of N(u), built once per
    hub and kept in ``setup.hubs``. A row then costs at most
    _HUB_FACTOR·min(deg(u), deg(v)) lookups, and the rows of a run
    _HUB_FACTOR·Σ min(deg) over edges, not Σ deg² over vertices; Chiba and
    Nishizeki (SIAM J. Comput. 1985) bound that sum by 2·arboricity·m.
    ``branch`` is the bits of P the root child branches on,
    ``P & ~masks[pivot]`` for its local pivot, or 0 when P is empty. When
    every row of P is 0, so are X's, every count is 0 and the pivot is the
    lowest bit of P | X, whose empty row leaves all of P: such a child
    gets ``branch = P`` with no X rows filled and no pivot scan. Each
    child's rows are built when it is reached, so a consumer that drops
    them before the next holds one child's rows at a time.
    """
    g = setup.graph
    n = g.vertex_count
    if not n:
        return
    adjacency = g.adjacency
    skip = setup.skip
    held = skip.__contains__
    shift = (1).__lshift__
    bit = [0] * n  # bit[w] is w's bit in the current N(v), else 0
    lookup = bit.__getitem__
    hubs = setup.hubs
    for v in range(n) if roots is None else roots:
        if v in skip:
            continue
        universe = adjacency[v]
        size = len(universe)
        k = bisect_left(universe, v)
        # the positions below k held by skip, ascending, then the rest of P
        p_bits = list(compress(range(k), map(held, universe)))
        x = ((1 << k) - 1) ^ sum(map(shift, p_bits))
        if k == size and not p_bits:
            yield v, 0, x, None, 0
            continue
        p_bits.extend(range(k, size))
        p = ((1 << size) - 1) ^ x
        for i, w in enumerate(universe):
            bit[w] = 1 << i
        masks = [0] * size
        hub_degree = _HUB_FACTOR * size
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
        if not any(masks):
            # no edge within P, so X's rows, filled from P's, are 0 as well:
            # every count is 0, the pivot is the lowest bit of P | X, and its
            # empty row leaves all of P to branch on
            yield v, p, x, masks, p
            continue
        if x:
            for i in p_bits:
                hits = masks[i] & x
                while hits:
                    low = hits & -hits
                    hits ^= low
                    masks[low.bit_length() - 1] |= 1 << i
        if len(p_bits) == 1:
            # as in _search_subproblem: no pivot scan for one candidate
            branch = 0 if masks[p_bits[0]] & x else p
        else:
            counts = [(masks[i] & p).bit_count() for i in p_bits]
            branch = p & ~masks[_local_pivot(masks, p, p_bits, counts, x)]
        yield v, p, x, masks, branch


@dataclass(frozen=True, slots=True)
class RootSplit:
    """The root children of the graph of ``setup`` that a run visits:
    every one when ``roots`` is None, else those with v in ``roots``, a
    range of vertex ids. ``children`` lists them ``(v, P, X, masks,
    branch)`` as _root_children yields them, shared by every run handed
    the split, which only reads them; if it is None, each such run
    streams them from _root_children, one root child's rows at a time.
    Splits over many ranges of one graph can share its ``setup``.
    """

    setup: RootSetup
    roots: range | None = None
    children: list[tuple[int, int, int, list[int] | None, int]] | None = None


def split_root(g: Graph, roots: range | None = None, *, setup: RootSetup | None = None) -> RootSplit:
    """Pick the root pivot of ``g``, split every root child, or only those
    in ``roots``, a range of vertex ids, build its rows and pick its pivot,
    once for any number of runs; ``setup``, a RootSetup of ``g``, if given,
    saves setting up the root again. The split holds all of them at once:
    one list slot per vertex of each root child's neighbourhood, at most 2m
    for m edges over the whole root, each row as an int of up to deg(v)
    bits, and one branch int of up to deg(v) bits per root child."""
    if setup is None:
        setup = RootSetup(g)
    elif setup.graph is not g:
        raise ValueError("the root setup was prepared for another graph")
    return RootSplit(setup, roots, list(_root_children(setup, roots)))


def _search_subproblem(
    setup: RootSetup,
    children: Iterable[tuple[int, int, int, list[int] | None, int]],
    ell: int,
    stages: Stages,
    sink: Sink | None,
    stats: RunStats,
) -> None:
    """Visit each root child ``(v, P, X, masks, branch)`` of ``children``,
    given as _root_children yields it for ``setup``, and every node below
    it, on local bitsets. ``branch`` stands in for the root child's pivot
    if its prune test keeps it. One call serves a whole run: its locals are
    set up, and its counters added to ``stats``, once.

    Everything below v lies inside N(v), so P and X are ints over
    ``universe`` = N(v): bit i stands for ``universe[i]``, in vertex-id
    order. ``masks[i]`` is N(universe[i]) within the universe for i in the
    root child's P, and within that P for i in its X, as every P below lies
    inside it. A child's sets are ``P & masks[i]`` and ``X & masks[i]``;
    retiring i moves its bit from P to X. One popcount per vertex,
    ``(masks[i] & P).bit_count()``, serves both the pivot and the bounds.
    ``masks`` is only read.

    A root child is counted, observed and finished where it is visited if
    it has no candidates, its prune test fires or its branch is empty;
    otherwise it opens with its ``branch``. Each pass of the loop below it
    is one branching step: it splits off the next child of the open node,
    the deepest node with branches left. A child without candidates is
    finished there: it is counted, observed with the ``(C + w, 0, X,
    cut)`` a node block would see, and emitted or filtered if X is empty
    too. C + w is built only for an observer or, below the root child,
    for the sink, which gets an edge {v, w} as ``(v, w)`` or ``(w, v)``.
    A child with candidates goes through the node block (count, prune
    test, pivot).

    A node keeps C's cut, not ``ext_cp``: adding s candidates to C removes
    at most |C|·s edges from it, so the threshold t, the leaf filter and
    the next child's cut need no |P|, which only an observer pays for. The
    open node's frame lives in locals (``top_*``): a pruned node or one
    without branches is finished where it is visited, and a sibling only
    retires its bit into those locals. When a child with branches opens
    below it, the open node goes on the stack as the tuple of those locals
    if it has branches left, and they are unpacked from it when that
    child's subtree is done. The root child is done when no open node is
    left. A SearchNode is built for a visited node only when the name is
    rebound to an observer (see SearchNode).
    """
    adjacency = setup.graph.adjacency
    degree = setup.degrees
    nodes = emitted = filtered = 0
    visit = SearchNode if SearchNode is not _NODE else None
    # builds a CliqueReport from its fields' tuple, without a Python frame
    new = tuple.__new__
    # (C, |C|, P, X, base, branch) of each ancestor of the open node with branches left
    stack = []

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

    for v, p, x, masks, branch in children:
        nodes += 1
        if not p:
            # a dead end, or a leaf when v has no neighbours at all: then {v}
            # has no cut and qualifies at every factor
            if visit is not None:
                visit([v], 0, x, degree[v])
            if not x:
                emitted += 1
                if sink is not None:
                    sink(new(CliqueReport, ((v,), 0)))
            continue
        if visit is not None:
            visit([v], p, x, degree[v] - p.bit_count())
        if stages:
            # the prune test below, at |C| = 1, where C's cut is deg(v)
            t = (degree[v] - ell) // (ell + 1)
            if t >= 1:
                if evaluate_strategy(stages, p, masks, t, stats, induced) is not None:
                    continue
        if not branch:
            continue
        universe = adjacency[v]
        # the root child is the open node, with the branch it came with
        top_c = [v]
        top_c_size = 1
        top_p = p
        top_x = x
        top_base = degree[v] - 2
        top_branch = branch
        while True:
            # the branching step: split off the next unbranched bit of the
            # deepest open node
            if not top_branch:
                if not stack:
                    # no open node is left: the root child's subtree is done
                    break
                # a stacked node always has a branch left
                top_c, top_c_size, top_p, top_x, top_base, top_branch = stack.pop()
            low = top_branch & -top_branch
            top_branch ^= low
            i = low.bit_length() - 1
            w = universe[i]
            row = masks[i]
            p = top_p & row
            x = top_x & row
            # retire i into X at once: the child's sets are already split off
            top_p ^= low
            top_x |= low
            nodes += 1
            # C + w's cut: C's, less the 2|C| edge ends between C and w, plus deg(w)
            cut = top_base + degree[w]
            if not p:
                # a child without candidates is finished here, with no pass
                # through the node block: a leaf when X is empty too, else a
                # dead end; C + w is built only for an observer or the sink
                if visit is not None:
                    visit(top_c + [w], 0, x, cut)
                if not x:
                    if cut < ell * (top_c_size + 1):
                        emitted += 1
                        if sink is not None:
                            if top_c_size == 1:
                                # an edge {v, w} below the root child v; w lies
                                # below v when it is a root pivot neighbour
                                sink(new(CliqueReport, ((v, w) if v < w else (w, v), cut)))
                            else:
                                sink(new(CliqueReport, (tuple(sorted(top_c + [w])), cut)))
                    else:
                        filtered += 1
                continue
            # the node block, for a child with candidates
            c = top_c + [w]
            c_size = top_c_size + 1
            if visit is not None:
                visit(c, p, x, cut - c_size * p.bit_count())
            p_bits = counts = None
            if stages:
                # Growing C by s <= omega_bar candidates leaves at least
                # cut - |C|·s edges against a budget of ell·(|C| + s), so the
                # subtree is sterile exactly when omega_bar <= t (floor division
                # is exact for a negative numerator too, as ell + |C| >= 2).
                t = (cut - c_size * ell) // (ell + c_size)
                if t >= 1:
                    if evaluate_strategy(stages, p, masks, t, stats, induced) is not None:
                        continue
            if not p & (p - 1):
                # the pivot is an X bit next to P's one bit a if there is one,
                # else a bit whose row lacks a, as rows are symmetric
                branch = 0 if masks[p.bit_length() - 1] & x else p
            else:
                branch = p & ~masks[_local_pivot(masks, p, p_bits, counts, x)]
            if branch:
                if top_branch:
                    stack.append((top_c, top_c_size, top_p, top_x, top_base, top_branch))
                top_c = c
                top_c_size = c_size
                top_p = p
                top_x = x
                # C's cut less 2|C|, shared by every child of C
                top_base = cut - 2 * c_size
                top_branch = branch
    stats.recursive_calls += nodes
    stats.emitted += emitted
    stats.filtered_at_leaf += filtered


def enumerate_isolated(
    g: Graph, ell: int, strategy: str | Stages, sink: Sink | None = None, *, split: RootSplit | None = None
) -> RunStats:
    """Report every maximal clique of ``g`` whose external edge count is
    strictly below ``ell`` times its size.

    The sink is invoked exactly once per qualifying clique, with sorted
    vertices, in a deterministic depth-first order. ``strategy`` names
    the chain of bounds in ``STRATEGIES`` that vetoes sterile subtrees,
    or is such a chain of ``(name, bound)`` stages itself; with strategy
    "none" every maximal clique is still visited and merely filtered at
    the leaves.

    ``split``, a RootSplit of ``g``, hands the run its root children;
    without one the run streams every root child. A split's ``roots``, a
    range of vertex ids, limits the run to the root children in it and
    their subtrees, and the root itself is counted, and observed, only
    when the range starts at 0. Runs over contiguous ranges that cover
    0..n-1 thus emit the whole run's cliques between them, each its part
    in the whole run's order, and their counters add up to the whole
    run's. Output and counters are the same whether a split's children
    are streamed or built by split_root.
    """
    stages = get_strategy(strategy) if isinstance(strategy, str) else strategy
    if not isinstance(ell, int) or isinstance(ell, bool) or ell < 1:
        raise ValueError("isolation factor must be an integer >= 1")
    stats = RunStats()
    start = perf_counter()
    if split is None:
        split = RootSplit(RootSetup(g))
    elif split.setup.graph is not g:
        raise ValueError("the root split was prepared for another graph")
    setup, roots = split.setup, split.roots
    # With C empty the prune test reduces to 0 >= omega_bar * ell, which no
    # bound can meet, so the root is never evaluated.
    n = g.vertex_count
    if roots is None or roots.start == 0:
        stats.recursive_calls += 1
        if SearchNode is not _NODE:  # an observer sees the root too
            SearchNode([], (1 << n) - 1, 0, 0)
        if not n:
            # the root of a vertexless graph is its only leaf, and 0 < ell * 0 fails
            stats.filtered_at_leaf += 1
    children = _root_children(setup, roots) if split.children is None else split.children
    _search_subproblem(setup, children, ell, stages, sink, stats)
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
