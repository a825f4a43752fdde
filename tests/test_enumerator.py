import random
from collections import Counter

import pytest

import oracle
from isoclique import (
    STRATEGIES,
    CliqueReport,
    cli,
    enumerate_all_maximal,
    enumerate_isolated,
    enumeration,
    generate,
    parse_generator_spec,
)
from isoclique.enumeration import (
    RootSetup,
    RootSplit,
    SearchNode,
    _local_pivot,
    _root_children,
    select_pivot,
    split_root,
)
from graphutil import (
    bit_indices,
    bitset_view,
    check_node,
    check_root_child,
    child_ext_cp,
    complete_graph,
    complete_multipartite,
    count_search_nodes,
    empty_graph,
    erdos_renyi,
    external_degree,
    from_scratch_ext_cp,
    graph_from_edges,
    moon_moser,
    path_graph,
    recounted,
    star_graph,
    triangle,
    triangle_pendant,
)


def omega_over_masks(p, masks):
    """Clique number of the candidates ``p``: the lowest candidate is in the
    largest clique or it is not."""
    if not p:
        return 0
    low = p & -p
    row = masks[low.bit_length() - 1]
    return max(1 + omega_over_masks(p & row, masks), omega_over_masks(p ^ low, masks))


# The exact clique number as a bound: the tightest there is, and exponential,
# so it lives here as a stage chain rather than in the package.
OMEGA = (("omega", lambda p, bits, counts, masks, t: omega_over_masks(p, masks) <= t),)
ALL_STRATEGIES = {**{name: name for name in STRATEGIES}, "omega": OMEGA}


def test_omega_over_masks_matches_oracle():
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randint(1, 11)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        p_mask, _, masks = bitset_view(g, p)
        assert omega_over_masks(p_mask, masks) == oracle.clique_number_bruteforce(g, p)


def collect(g, ell, strategy, **kwargs):
    got = []
    stats = enumerate_isolated(g, ell, strategy, got.append, **kwargs)
    return got, stats


def test_select_pivot_triangle_tie_breaks_low():
    assert select_pivot(triangle(), [0, 1, 2], []) == 0


def test_select_pivot_star_center_dominates():
    g = star_graph(4)
    assert select_pivot(g, [0, 1, 2, 3, 4], []) == 0


def test_select_pivot_considers_excluded_vertices():
    g = star_graph(4)
    assert select_pivot(g, [1, 2, 3, 4], [0]) == 0


def test_select_pivot_matches_exhaustive_argmax():
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(2, 12)
        g = erdos_renyi(n, 0.5, rng)
        pool = sorted(rng.sample(range(n), rng.randint(1, n)))
        split = rng.randint(0, len(pool))
        p, x = pool[:split], pool[split:]
        if not p and not x:
            continue
        p_set = set(p)
        best = min(
            (v for v in pool),
            key=lambda v: (-sum(1 for u in g.adjacency[v] if u in p_set), v),
        )
        assert select_pivot(g, p, x) == best


class RowLog(list):
    """Adjacency rows that log every index read, to pin where a scan stops."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def local_pivots(g, p, x):
    """_local_pivot on ``g``'s rows over all of V (bit i stands for vertex i),
    with ``counts`` None and given, each checked against select_pivot; returns
    the pivot and, per call, the rows the scan read."""
    expected = select_pivot(g, p, x)
    p_mask = sum(1 << v for v in p)
    x_mask = sum(1 << v for v in x)
    assert bit_indices(p_mask) == p
    rows = [sum(1 << u for u in g.adjacency[v]) for v in range(g.vertex_count)]
    counts = [(rows[v] & p_mask).bit_count() for v in p]
    read = []
    for given in (None, counts):
        masks = RowLog(rows)
        assert _local_pivot(masks, p_mask, p, given, x_mask) == expected
        read.append(masks.read)
    return expected, read[0], read[1]


def random_pivot_instances(seed, density):
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(2, 12)
        g = erdos_renyi(n, density(rng), rng)
        pool = rng.sample(range(n), rng.randint(1, n))
        split = rng.randint(1, len(pool))
        yield g, sorted(pool[:split]), sorted(pool[split:])


def test_local_pivot_matches_select_pivot():
    for g, p, x in random_pivot_instances(71, lambda rng: rng.random()):
        local_pivots(g, p, x)


def test_local_pivot_matches_select_pivot_on_dense_graphs():
    # at edge probability 0.7 to 1 an X bit often meets all of P and a P bit
    # all the rest of P, so the scan's exits fire on most instances
    exits = 0
    for g, p, x in random_pivot_instances(73, lambda rng: rng.uniform(0.7, 1.0)):
        _, read, _ = local_pivots(g, p, x)
        exits += len(read) < len(p) + len(x)
    assert exits > 100


@pytest.mark.parametrize(
    "n, edges, p, x, pivot, read, read_counted",
    [
        # an X bit adjacent to all of P, below P's first bit, then above it:
        # it is the pivot, and no row after it is read
        (5, [(0, 1), (0, 3), (0, 4), (1, 3)], [1, 3, 4], [0], 0, [0], [0]),
        (5, [(2, 0), (2, 1), (2, 3), (0, 1)], [0, 1, 3], [2, 4], 2, [2], [2]),
        # two X bits adjacent to all of P: the lower wins, the higher is unread
        (5, [(v, u) for v in (1, 3) for u in (0, 2, 4)], [0, 2, 4], [1, 3], 1, [1], [1]),
        # a P bit adjacent to the rest of P: the scan stops at it
        (4, [(1, 0), (1, 2), (1, 3)], [0, 1, 2, 3], [], 1, [0, 1], []),
        # P bit 0 and X bit 3 tied at |P| - 1: the lower P bit wins, and the
        # scan stops at it, before rows 1 and 2
        (4, [(0, 1), (0, 2), (3, 0), (3, 1)], [0, 1, 2], [3], 0, [3, 0], [3]),
        # X bit 0 and P bit 1 tied at |P| - 1: no P bit lies below the X bit,
        # so no row of P is read
        (4, [(0, 1), (0, 2), (1, 2), (1, 3)], [1, 2, 3], [0], 0, [0], [0]),
        # |P| = 1: alone, under an adjacent X bit below or above it, and tied
        # at 0 with a non-adjacent X bit below or above it
        (2, [], [1], [], 1, [1], []),
        (2, [(0, 1)], [1], [0], 0, [0], [0]),
        (2, [(0, 1)], [0], [1], 1, [1], [1]),
        (2, [], [1], [0], 0, [0], [0]),
        (2, [], [0], [1], 0, [1, 0], [1]),
    ],
    ids=[
        "x-below-p",
        "x-above-p",
        "two-x",
        "p-adjacent-to-rest-of-p",
        "tie-p-below-x",
        "tie-x-below-p",
        "single-p",
        "single-p-adjacent-x-below",
        "single-p-adjacent-x-above",
        "single-p-tie-x-below",
        "single-p-tie-x-above",
    ],
)
def test_local_pivot_exits(n, edges, p, x, pivot, read, read_counted):
    assert local_pivots(graph_from_edges(n, edges), p, x) == (pivot, read, read_counted)


def no_single_candidate_scan(monkeypatch):
    """Make _local_pivot fail on a candidate set of one bit: the engine
    gives such a node its branch without a pivot scan."""
    real = enumeration._local_pivot

    def scan(masks, p, p_bits, counts, x):
        assert p.bit_count() > 1, "pivot scanned for a single candidate"
        return real(masks, p, p_bits, counts, x)

    monkeypatch.setattr(enumeration, "_local_pivot", scan)


def hub_and(edges):
    # vertex 3 with leaves 4..8 is the root pivot, so 0, 1, 2 and 3 are the
    # root children, in that order
    return graph_from_edges(9, edges + [(3, leaf) for leaf in range(4, 9)])


@pytest.mark.parametrize(
    "edges, branch",
    [
        # root child 1: P = {2} (bit 1), X = {0} (bit 0), and 0-2 is an edge:
        # the pivot is 0, whose row holds 2, so there is nothing to branch on
        ([(0, 1), (1, 2), (0, 2)], 0),
        # the path 0-1-2: no X bit is adjacent to 2, so root child 1 branches on it
        ([(0, 1), (1, 2)], 0b10),
    ],
    ids=["x-neighbour", "no-x-neighbour"],
)
def test_single_candidate_root_child(edges, branch, monkeypatch):
    no_single_candidate_scan(monkeypatch)
    g = hub_and(edges)
    children = {child[0]: child for child in _root_children(RootSetup(g))}
    assert sorted(children) == [0, 1, 2, 3]
    v, p, x, masks, got = children[1]
    assert (p, x, got) == (0b10, 0b01, branch)
    for child in children.values():
        check_root_child(g, *child)  # the branch the full pivot scan gives


def single_candidate_nodes(g, monkeypatch):
    """Each node below a root child with one candidate a, as ``(C, a, X,
    branched)``, when g runs under strategy "none": it branched on a exactly
    when the next node built is C + a, as the search is depth-first."""
    built = []
    real = enumeration.SearchNode

    def node(c, p, x, ext_cp):
        built.append((c, p, x))
        return real(c, p, x, ext_cp)

    monkeypatch.setattr(enumeration, "SearchNode", node)
    enumerate_isolated(g, g.vertex_count + 1, "none")
    monkeypatch.setattr(enumeration, "SearchNode", real)
    found = []
    for k, (c, p, x) in enumerate(built):
        if len(c) > 1 and p.bit_count() == 1:
            universe = g.adjacency[c[0]]
            a = universe[p.bit_length() - 1]
            xs = [universe[i] for i in bit_indices(x)]
            branched = k + 1 < len(built) and built[k + 1][0] == c + [a]
            found.append((c, a, xs, branched))
    return found


@pytest.mark.parametrize(
    "n, edges, case",
    [
        # two K4s sharing vertex 6: at C = [6, 2], P = {5} and X = {1}, which
        # is adjacent to 5, so the node is a dead end
        (
            7,
            [(0, 3), (0, 4), (3, 4), (1, 2), (1, 5), (2, 5)] + [(6, u) for u in range(6)],
            ([6, 2], 5, [1], False),
        ),
        # at C = [5, 4], P = {2} and X = {1}, which is not adjacent to 2
        (
            6,
            [(0, 2), (0, 3), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5), (4, 5)],
            ([5, 4], 2, [1], True),
        ),
    ],
    ids=["x-neighbour", "no-x-neighbour"],
)
def test_single_candidate_below_root_child(n, edges, case, monkeypatch):
    no_single_candidate_scan(monkeypatch)
    g = graph_from_edges(n, edges)
    assert case in single_candidate_nodes(g, monkeypatch)


def test_single_candidate_branch_matches_full_pivot(monkeypatch):
    # below root children of random graphs, a node with one candidate a
    # branches on it exactly when select_pivot's pick is not adjacent to a
    no_single_candidate_scan(monkeypatch)
    rng = random.Random(113)
    seen = set()
    for _ in range(300):
        g = erdos_renyi(rng.randint(5, 10), rng.uniform(0.3, 0.8), rng)
        for c, a, xs, branched in single_candidate_nodes(g, monkeypatch):
            pivot = select_pivot(g, [a], xs)
            assert branched == (a not in g.adjacency[pivot])
            seen.add((branched, bool(xs)))
    assert seen == {(True, False), (True, True), (False, True)}


def test_select_pivot_requires_candidates():
    with pytest.raises(ValueError):
        select_pivot(triangle(), [], [])


def test_enumerate_triangle_pendant():
    g = triangle_pendant()
    with recounted(g):
        got, stats = collect(g, 1, "combo")
        assert [r.vertices for r in got] == [(0, 1, 2)]
        assert stats.emitted == 1
        assert stats.filtered_at_leaf + stats.emitted >= 1

        got, _ = collect(g, 2, "combo")
        assert [r.vertices for r in got] == [(0, 1, 2), (0, 3)]


def test_enumerate_reports_external_degrees():
    rng = random.Random(53)
    for _ in range(20):
        g = erdos_renyi(rng.randint(1, 12), 0.5, rng)
        got, _ = collect(g, 3, "none")
        for report in got:
            assert report.external_degree == external_degree(g, report.vertices)
            assert report.size == len(report.vertices)
            assert report.vertices == tuple(sorted(report.vertices))


def test_clique_report_is_an_immutable_named_pair():
    report = CliqueReport((0, 1, 2), 4)
    assert report.vertices == report[0] == (0, 1, 2)
    assert report.external_degree == report[1] == 4
    assert report.size == 3
    assert report == ((0, 1, 2), 4)
    with pytest.raises(AttributeError):
        report.vertices = (0,)
    with pytest.raises(AttributeError):
        report.size = 1
    # the engine builds its reports without CliqueReport's own constructor
    got = []
    enumerate_isolated(triangle_pendant(), 2, "combo", got.append)
    assert all(type(r) is CliqueReport for r in got)
    assert [(r.vertices, r.external_degree, r.size) for r in got] == [
        ((0, 1, 2), 1, 3),
        ((0, 3), 2, 2),
    ]


# The star 0-1, 0-2, 0-3, the edge 1-4, the triangle 5-6-7 and the lone
# vertex 8. The root pivot is 0, so 1, 2 and 3 are no root children: the
# edges {0, w} are leaves below root child 0 with w > 0, the edge {4, 1} a
# leaf below root child 4 with 1 held in 4's P below 4's own position, the
# triangle a leaf below 5 at |C| = 2, and {8} a root child without
# neighbours. Every maximal clique, in search order, with its cut.
REPORT_SHAPES = graph_from_edges(9, [(0, 1), (0, 2), (0, 3), (1, 4), (5, 6), (5, 7), (6, 7)])
REPORT_SHAPES_MAXIMAL = [((0, 1), 3), ((0, 2), 2), ((0, 3), 2), ((1, 4), 1), ((5, 6, 7), 0), ((8,), 0)]


@pytest.mark.parametrize("observed", [False, True])
def test_reports_of_every_shape(observed, monkeypatch):
    # with an observer bound, every node of every run is seen once
    nodes = count_search_nodes(monkeypatch) if observed else None
    got = []
    calls = enumerate_all_maximal(REPORT_SHAPES, got.append).recursive_calls
    runs = [(got, REPORT_SHAPES_MAXIMAL)]
    for ell in (1, 2, 3):
        expected = [(c, cut) for c, cut in REPORT_SHAPES_MAXIMAL if cut < ell * len(c)]
        for strategy in ALL_STRATEGIES.values():
            got, stats = collect(REPORT_SHAPES, ell, strategy)
            calls += stats.recursive_calls
            runs.append((got, expected))
    for got, expected in runs:
        assert got == expected
        assert all(type(r) is CliqueReport and type(r.vertices) is tuple for r in got)
    if observed:
        assert len(nodes) == calls


def test_huge_ell_equals_plain_maximal_enumeration():
    rng = random.Random(59)
    graphs = [erdos_renyi(rng.randint(1, 10), 0.5, rng) for _ in range(20)]
    # cuts are largest relative to n on these two
    graphs += [moon_moser(4), star_graph(8)]
    for g in graphs:
        everything = set()
        enumerate_all_maximal(g, lambda r: everything.add(r.vertices))
        cuts = {clique: external_degree(g, clique) for clique in everything}
        n = g.vertex_count
        # a clique of k vertices has at most k * (n - k) external edges
        assert all(cut < (n + 1) * len(clique) for clique, cut in cuts.items())
        for ell in (1 + max(cuts.values(), default=0), n + 1):
            got, stats = collect(g, ell, "none")
            assert {r.vertices for r in got} == everything
            assert stats.filtered_at_leaf == 0


def test_child_ext_cp_at_root():
    g = triangle_pendant()
    # root: C empty, P={0,1,2,3}, ext_cp 0; |C| = 0 collapses the update to
    # degree(v) minus the surviving candidates
    assert child_ext_cp(0, 0, 4, 3, len(g.adjacency[0])) == len(g.adjacency[0]) - 3


def test_child_ext_cp_worked_example():
    g = triangle_pendant()
    # C={0}, P={1,2}: one edge (0-3) already leaves the pair
    assert from_scratch_ext_cp(g, [0], [1, 2]) == 1
    # the parent (ext_cp 1, |C| 1, |P| 2) branches on 1, keeping one candidate
    assert child_ext_cp(1, 1, 2, 1, len(g.adjacency[1])) == 1
    assert from_scratch_ext_cp(g, [0, 1], [2]) == 1


def test_debug_mode_recounts_every_node():
    rng = random.Random(61)
    for _ in range(30):
        g = erdos_renyi(rng.randint(1, 12), rng.random(), rng)
        with recounted(g):
            for ell in (1, 3):
                collect(g, ell, "combo")  # raises on any mismatch


def test_debug_checker_detects_corruption():
    # P and X are bitsets over a universe, bit i standing for universe[i]; over
    # range(n), as at the root, bit v is vertex v
    g = triangle_pendant()
    bad = SearchNode(c=[0], p=0b0110, x=0, ext_cp=7)
    with pytest.raises(AssertionError, match="external-edge counter"):
        check_node(g, bad, range(4))
    # ext_cp consistent (N(1) minus {1, 3} is {0, 2}) but vertex 3 is not
    # adjacent to the clique, so the adjacency invariant fires
    not_adjacent = SearchNode(c=[1], p=0b1000, x=0, ext_cp=2)
    with pytest.raises(AssertionError, match="not adjacent"):
        check_node(g, not_adjacent, range(4))
    # the same nodes over a root child's universe
    universe = [1, 2, 3]
    check_node(g, SearchNode(c=[0], p=0b011, x=0, ext_cp=1), universe)
    with pytest.raises(AssertionError, match="external-edge counter"):
        check_node(g, SearchNode(c=[0], p=0b011, x=0, ext_cp=7), universe)
    with pytest.raises(AssertionError, match="not adjacent"):
        check_node(g, SearchNode(c=[1], p=0b100, x=0, ext_cp=2), universe)


def test_enumerate_all_maximal_examples():
    assert enumerate_all_maximal(moon_moser(3)).emitted == 27
    single_edge = graph_from_edges(2, [(0, 1)])
    got = []
    enumerate_all_maximal(single_edge, got.append)
    assert [r.vertices for r in got] == [(0, 1)]


def test_enumerate_all_maximal_matches_oracle():
    rng = random.Random(67)
    g = erdos_renyi(12, 0.5, rng)
    got = set()
    enumerate_all_maximal(g, lambda r: got.add(r.vertices))
    assert got == oracle.all_maximal_cliques_bruteforce(g)


@pytest.mark.parametrize(
    "make",
    [lambda: star_graph(6), lambda: path_graph(8), lambda: complete_multipartite([3, 4])],
    ids=["star", "path", "k34"],
)
def test_triangle_free_graphs_match_oracle(make):
    # no root child has an edge inside its P, and no node below one has a
    # candidate: every maximal clique is an edge
    g = make()
    for ell in range(1, 7):
        expected = oracle.l_isolated_maximal_cliques_bruteforce(g, ell)
        for name, strategy in ALL_STRATEGIES.items():
            got, _ = collect(g, ell, strategy)
            assert {r.vertices for r in got} == expected, (name, ell)
            for report in got:
                assert report.external_degree == external_degree(g, report.vertices)
    everything = set()
    enumerate_all_maximal(g, lambda r: everything.add(r.vertices))
    assert everything == oracle.all_maximal_cliques_bruteforce(g)
    assert all(len(clique) == 2 for clique in everything)


def test_empty_graph_runs_and_emits_nothing(monkeypatch):
    # the root is the only node, and a leaf
    nodes = count_search_nodes(monkeypatch)
    g = empty_graph()
    got, stats = collect(g, 1, "combo")
    assert got == []
    assert stats.recursive_calls == 1 == len(nodes)
    assert stats.emitted == 0
    # the root is a leaf but no clique: 0 external edges < ell * 0 fails
    assert stats.filtered_at_leaf == 1
    plain = enumerate_all_maximal(g)
    assert plain.emitted == 0
    assert plain.filtered_at_leaf == 1
    assert len(nodes) == stats.recursive_calls + plain.recursive_calls


def test_leaf_accounting_for_unpruned_runs():
    rng = random.Random(71)
    for _ in range(20):
        g = erdos_renyi(rng.randint(1, 11), 0.5, rng)
        total = enumerate_all_maximal(g).emitted
        for ell in (1, 2, 5):
            _, stats = collect(g, ell, "none")
            # without pruning, every maximal clique reaches a leaf
            assert stats.emitted + stats.filtered_at_leaf == total


def test_all_strategies_emit_identical_sets():
    rng = random.Random(73)
    for _ in range(25):
        g = erdos_renyi(rng.randint(1, 11), 0.5, rng)
        for ell in (1, 2, 4):
            sets = {}
            for name, strategy in ALL_STRATEGIES.items():
                got, _ = collect(g, ell, strategy)
                sets[name] = frozenset(r.vertices for r in got)
            assert len(set(sets.values())) == 1, sets


def test_call_count_dominance_chain():
    rng = random.Random(79)
    for _ in range(25):
        g = erdos_renyi(rng.randint(2, 11), 0.5, rng)
        for ell in (1, 3):
            calls = {
                name: collect(g, ell, strategy)[1].recursive_calls
                for name, strategy in ALL_STRATEGIES.items()
            }
            assert calls["omega"] <= calls["degeneracy"]
            assert calls["degeneracy"] <= calls["softcore"]
            assert calls["softcore"] == calls["combo"]
            assert calls["softcore"] <= calls["degree"]
            assert calls["degree"] <= calls["size"]
            assert calls["size"] <= calls["none"]


def test_isolation_monotone_in_ell():
    rng = random.Random(83)
    for _ in range(15):
        g = erdos_renyi(rng.randint(1, 11), 0.5, rng)
        previous = set()
        for ell in range(1, 8):
            got, _ = collect(g, ell, "combo")
            current = {r.vertices for r in got}
            assert previous <= current
            previous = current


def test_runs_are_deterministic():
    rng = random.Random(89)
    g = erdos_renyi(11, 0.5, rng)
    first, stats_a = collect(g, 2, "combo")
    second, stats_b = collect(g, 2, "combo")
    assert [r.vertices for r in first] == [r.vertices for r in second]
    assert stats_a.recursive_calls == stats_b.recursive_calls
    assert stats_a.prune_firings == stats_b.prune_firings
    assert stats_a.emitted == stats_b.emitted
    assert stats_a.filtered_at_leaf == stats_b.filtered_at_leaf


def test_prune_firings_recorded_per_stage():
    # dense-ish graph with a strict budget so combo fires on both stages
    rng = random.Random(97)
    fired_stages = set()
    for _ in range(40):
        g = erdos_renyi(rng.randint(4, 12), 0.7, rng)
        _, stats = collect(g, 1, "combo")
        fired_stages.update(stats.prune_firings)
        assert set(stats.prune_firings) <= {"size", "softcore"}
    assert "size" in fired_stages or "softcore" in fired_stages


def test_root_is_not_evaluated_for_pruning(monkeypatch):
    # every child of the root is a leaf, with P and X both empty, so only the
    # root could have needed induced degrees, and its prune test cannot fire
    nodes = count_search_nodes(monkeypatch)
    stats = enumerate_isolated(empty_graph(3), 1, "degeneracy")
    assert stats.induced_degree_evals == 0
    assert stats.emitted == 3
    assert stats.recursive_calls == 4 == len(nodes)


def test_complete_graph_single_clique():
    g = complete_graph(6)
    got, stats = collect(g, 1, "degeneracy")
    assert [r.vertices for r in got] == [(0, 1, 2, 3, 4, 5)]
    assert stats.emitted == 1


def test_deep_clique_does_not_depend_on_recursion_limit():
    # search depth equals the clique size; make it far exceed the interpreter
    # limit so a call-stack implementation would blow up
    import inspect
    import sys

    current_depth = len(inspect.stack(0))
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(current_depth + 80)
        g = complete_graph(current_depth + 200)
        assert enumerate_all_maximal(g).emitted == 1
    finally:
        sys.setrecursionlimit(saved)


def test_invalid_ell_rejected():
    for ell in (0, -3, 1.5, True):
        with pytest.raises(ValueError, match="isolation factor must be an integer >= 1"):
            enumerate_isolated(triangle(), ell, "none")


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        enumerate_isolated(triangle(), 1, "fastest")


def test_root_setup_of_another_graph_rejected():
    g = triangle()
    setup = RootSetup(triangle())
    with pytest.raises(ValueError, match="root split was prepared for another graph"):
        enumerate_isolated(g, 1, "none", split=RootSplit(setup, range(1, 3)))
    with pytest.raises(ValueError, match="root setup was prepared for another graph"):
        split_root(g, setup=setup)


def counters(runs) -> tuple:
    """Every RunStats counter of ``runs``, all but wall_time, added up."""
    return (
        sum(stats.recursive_calls for stats in runs),
        sum((stats.prune_firings for stats in runs), Counter()),
        sum(stats.emitted for stats in runs),
        sum(stats.filtered_at_leaf for stats in runs),
        sum(stats.induced_degree_evals for stats in runs),
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate(parse_generator_spec("ba:n=300,m=4,seed=1")),
        lambda: generate(parse_generator_spec("gnmp:n=60,m=8,p=0.3,seed=2")),
        lambda: generate(parse_generator_spec("ba:n=200,m=1,seed=1")),
        lambda: complete_graph(8),
        lambda: star_graph(6),
        lambda: empty_graph(1),
        empty_graph,
    ],
    ids=["ba", "gnmp", "tree", "K8", "star", "one-vertex", "no-vertex"],
)
def test_range_splits_add_up_to_the_whole_split(make, monkeypatch):
    g = make()
    whole = split_root(g)
    passes = [(name, ell) for name in STRATEGIES for ell in (1, 5)] + [("all", None)]
    for chunks in (2, 3, 16):
        ranges = cli._root_ranges(g, chunks)
        # one root setup serves every range, as it serves a command's chunks
        setup = RootSetup(g)
        splits = [split_root(g, roots, setup=setup) for roots in ranges]
        assert [s.roots for s in splits] == ranges
        assert [child for s in splits for child in s.children] == whole.children
        # splits without children: every run handed one streams its root
        # children afresh, so two runs over them give what the built ones give
        streaming = [RootSplit(setup, roots) for roots in ranges]
        for name, ell in passes:

            def run(split):
                got = []
                if name == "all":
                    stats = enumerate_all_maximal(g, got.append, split=split)
                else:
                    stats = enumerate_isolated(g, ell, name, got.append, split=split)
                return got, stats

            expected, stats = run(whole)
            for shared in (splits, streaming, streaming):
                parts = [run(split) for split in shared]
                assert counters([part for _, part in parts]) == counters([stats])
                assert [report for got, _ in parts for report in got] == expected
        # the root is observed, and counted, in the range that starts at 0 only
        observed = []
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "SearchNode", lambda c, *rest: observed.append(c))
            for split in splits:
                enumerate_all_maximal(g, split=split)
        assert observed.count([]) == 1
