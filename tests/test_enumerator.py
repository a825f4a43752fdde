import random

import pytest

from isoclique import STRATEGIES, enumerate_all_maximal, enumerate_isolated, oracle
from isoclique.enumeration import (
    SearchNode,
    _check_node,
    _local_pivot,
    child_ext_cp,
    from_scratch_ext_cp,
    select_pivot,
)
from isoclique.pruning import bit_indices, external_degree
from graphutil import (
    bitset_view,
    complete_graph,
    empty_graph,
    erdos_renyi,
    graph_from_edges,
    moon_moser,
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
OMEGA = (("omega", lambda p, counts, masks: omega_over_masks(p, masks)),)
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


def test_local_pivot_matches_select_pivot():
    # masks over the whole vertex set, so bit i stands for vertex i
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(2, 12)
        g = erdos_renyi(n, rng.random(), rng)
        masks = [sum(1 << u for u in g.adjacency[v]) for v in range(n)]
        pool = rng.sample(range(n), rng.randint(1, n))
        split = rng.randint(1, len(pool))
        p, x = sorted(pool[:split]), sorted(pool[split:])
        p_mask = sum(1 << v for v in p)
        x_mask = sum(1 << v for v in x)
        assert bit_indices(p_mask) == p
        counts = [(masks[v] & p_mask).bit_count() for v in p]
        expected = select_pivot(g, p, x)
        assert _local_pivot(masks, p_mask, p, None, x_mask) == expected
        assert _local_pivot(masks, p_mask, p, counts, x_mask) == expected


def test_select_pivot_requires_candidates():
    with pytest.raises(ValueError):
        select_pivot(triangle(), [], [])


def test_enumerate_triangle_pendant():
    g = triangle_pendant()
    got, stats = collect(g, 1, "combo", debug=True)
    assert [r.vertices for r in got] == [(0, 1, 2)]
    assert stats.emitted == 1
    assert stats.filtered_at_leaf + stats.emitted >= 1

    got, _ = collect(g, 2, "combo", debug=True)
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


def test_huge_ell_equals_plain_maximal_enumeration():
    rng = random.Random(59)
    for _ in range(20):
        g = erdos_renyi(rng.randint(1, 10), 0.5, rng)
        everything = set()
        enumerate_all_maximal(g, lambda r: everything.add(r.vertices))
        cuts = [external_degree(g, clique) for clique in everything]
        ell = 1 + max(cuts, default=0)
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
        for ell in (1, 3):
            collect(g, ell, "combo", debug=True)  # raises on any mismatch


def test_debug_checker_detects_corruption():
    g = triangle_pendant()
    bad = SearchNode(c=[0], p=[1, 2], x=[], ext_cp=7)
    with pytest.raises(AssertionError, match="external-edge counter"):
        _check_node(g, bad)
    # ext_cp consistent (N(1) minus {1, 3} is {0, 2}) but vertex 3 is not
    # adjacent to the clique, so the adjacency invariant fires
    not_adjacent = SearchNode(c=[1], p=[3], x=[], ext_cp=2)
    with pytest.raises(AssertionError, match="not adjacent"):
        _check_node(g, not_adjacent)
    # the same nodes with P and X as bitsets over a universe: bit i is universe[i]
    universe = [1, 2, 3]
    _check_node(g, SearchNode(c=[0], p=0b011, x=0, ext_cp=1), universe)
    with pytest.raises(AssertionError, match="external-edge counter"):
        _check_node(g, SearchNode(c=[0], p=0b011, x=0, ext_cp=7), universe)
    with pytest.raises(AssertionError, match="not adjacent"):
        _check_node(g, SearchNode(c=[1], p=0b100, x=0, ext_cp=2), universe)


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


def test_empty_graph_runs_and_emits_nothing():
    g = empty_graph()
    got, stats = collect(g, 1, "combo")
    assert got == []
    assert stats.recursive_calls == 1
    assert stats.emitted == 0
    assert enumerate_all_maximal(g).emitted == 0


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


def test_root_is_not_evaluated_for_pruning():
    # every child of the root is a leaf, so only the root could have
    # needed induced degrees, and its prune test cannot fire
    stats = enumerate_isolated(empty_graph(3), 1, "degeneracy")
    assert stats.induced_degree_evals == 0
    assert stats.emitted == 3


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
    with pytest.raises(ValueError):
        enumerate_isolated(triangle(), 0, "none")


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        enumerate_isolated(triangle(), 1, "fastest")
