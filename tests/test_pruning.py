import itertools
import random

import pytest

from isoclique import enumerate_isolated, enumeration, oracle
from isoclique.enumeration import RunStats
from isoclique.graph import induced_degrees
from isoclique.pruning import (
    STRATEGIES,
    IsolationParams,
    bit_indices,
    evaluate_strategy,
    external_degree,
    get_strategy,
    is_l_isolated,
    prune_test,
    ub_degeneracy,
    ub_degree,
    ub_size,
    ub_softcore,
)
from graphutil import (
    bitset_view,
    complete_binary_tree,
    complete_graph,
    erdos_renyi,
    graph_from_edges,
    path_graph,
    star_graph,
    triangle,
    triangle_pendant,
)


def evaluate(g, stages, c_size, vertices, ext_cp, params, stats):
    """evaluate_strategy on the bitset view of ``vertices``."""
    p, counts, masks = bitset_view(g, vertices)
    return evaluate_strategy(stages, c_size, p, masks, ext_cp, params, stats, lambda: counts)


def brute_softcore(counts):
    degs = list(counts)
    for k in range(len(degs), 0, -1):
        if sum(1 for d in degs if d >= k - 1) >= k:
            return k
    return 0


def brute_degeneracy(g, p):
    # largest minimum degree over all non-empty induced subgraphs
    adj = {v: set(g.adjacency[v]) for v in p}
    best = 0
    for r in range(1, len(p) + 1):
        for sub in itertools.combinations(p, r):
            inside = set(sub)
            best = max(best, min(len(adj[v] & inside) for v in sub))
    return best


def test_external_degree_examples():
    assert external_degree(triangle(), [0, 1, 2]) == 0
    assert external_degree(triangle_pendant(), [0, 1, 2]) == 1
    assert external_degree(star_graph(4), [0]) == 4


def test_is_l_isolated_strictness():
    g = triangle_pendant()
    assert is_l_isolated(g, [0, 1, 2], IsolationParams(1))  # 1 < 3
    # exactly ell * size external edges does not qualify
    assert not is_l_isolated(g, [0, 3], IsolationParams(1))  # 2 >= 2
    assert is_l_isolated(g, [0, 3], IsolationParams(2))  # 2 < 4


def test_is_l_isolated_zero_cut_always_qualifies():
    g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    for ell in range(1, 5):
        assert is_l_isolated(g, [3, 4], IsolationParams(ell))


def test_is_l_isolated_rejects_empty_set():
    with pytest.raises(ValueError):
        is_l_isolated(triangle(), [], IsolationParams(1))


def test_isolation_params_validation():
    with pytest.raises(ValueError):
        IsolationParams(0)
    with pytest.raises(ValueError):
        IsolationParams(-3)
    with pytest.raises(ValueError):
        IsolationParams(1.5)


def test_ub_size():
    assert ub_size(bitset_view(graph_from_edges(12, []), [3, 5, 8, 9, 11])[0]) == 5
    assert ub_size(1 << 2) == 1


def test_ub_degree_examples():
    g = triangle()
    assert ub_degree(bitset_view(g, [0, 1, 2])[1]) == 3
    independent = graph_from_edges(4, [])
    assert ub_degree(bitset_view(independent, [0, 1, 2, 3])[1]) == 1


def test_ub_softcore_binary_tree():
    g = complete_binary_tree(4)
    assert ub_softcore(bitset_view(g, range(15))[1]) == 4


def test_ub_softcore_complete_graph():
    for t in (1, 2, 5, 8):
        g = complete_graph(t)
        assert ub_softcore(bitset_view(g, range(t))[1]) == t


def test_ub_softcore_matches_naive_scan():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        counts = bitset_view(g, p)[1]
        assert ub_softcore(counts) == brute_softcore(counts)


def test_popcount_degrees_match_induced_degrees(monkeypatch):
    # the helper's view, and the engine's own popcounts at every tested node
    # (root children included), equal the adjacency-list recount in bit order
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 14)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        ind = induced_degrees(g, p)
        assert bitset_view(g, p)[1] == [ind[v] for v in p]

    universe = []
    real_check = enumeration._check_node

    def check(g, node, local=None):
        universe[:] = local or []  # debug checks each node before it is tested
        real_check(g, node, local)

    monkeypatch.setattr(enumeration, "_check_node", check)
    tested = 0

    def recording_bound(p, counts, masks):
        nonlocal tested
        members = [universe[i] for i in bit_indices(p)]
        ind = induced_degrees(g, members)
        assert counts == [ind[v] for v in members]
        tested += 1
        return ub_size(p)

    for _ in range(30):
        g = erdos_renyi(rng.randint(2, 14), rng.random(), rng)
        enumerate_isolated(g, 1, (("record", recording_bound),), debug=True)
    assert tested > 100


def test_ub_degeneracy_binary_tree():
    assert ub_degeneracy(*bitset_view(complete_binary_tree(4), range(15))) == 2


def test_ub_degeneracy_complete_graph():
    for t in (1, 2, 4, 7):
        assert ub_degeneracy(*bitset_view(complete_graph(t), range(t))) == t


def test_ub_degeneracy_matches_subgraph_oracle():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 10)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        assert ub_degeneracy(*bitset_view(g, p)) == brute_degeneracy(g, p) + 1
    # paths and binary trees peel a few vertices per round, so they take the
    # most rounds
    graphs = [path_graph(n) for n in range(1, 13)] + [complete_binary_tree(k) for k in (1, 2, 3, 4)]
    for g in graphs:
        n = g.vertex_count
        subsets = [range(n)] + [rng.sample(range(n), rng.randint(1, n)) for _ in range(5)]
        for p in subsets:
            assert ub_degeneracy(*bitset_view(g, p)) == brute_degeneracy(g, p) + 1


def test_prune_test_never_fires_at_root():
    for omega_bar in (1, 3, 10):
        for ell in (1, 2, 9):
            assert not prune_test(0, 5, 0, omega_bar, IsolationParams(ell))


def test_prune_test_arithmetic():
    # 50 + 1*10 - 5*1 = 55 >= 3*(5+1) = 18
    assert prune_test(1, 10, 50, 3, IsolationParams(5))
    # negative left side near the root cannot prune
    assert not prune_test(1, 2, 0, 1, IsolationParams(5))


def test_prune_test_monotone_in_bound():
    rng = random.Random(31)
    for _ in range(300):
        c = rng.randint(0, 6)
        p = rng.randint(1, 12)
        ext = rng.randint(0, 40)
        ell = rng.randint(1, 8)
        params = IsolationParams(ell)
        bound1 = rng.randint(1, p)
        bound2 = rng.randint(1, bound1)
        if prune_test(c, p, ext, bound1, params):
            assert prune_test(c, p, ext, bound2, params)


def test_prune_fires_only_on_sterile_subtrees():
    # hub 0 with candidates {1,2,3,4} (1-2-3 a triangle) and eight pendants:
    # the softcore bound prunes the node reached by taking the hub, and the
    # brute-force check confirms the graph has no qualifying clique at all
    edges = [(0, v) for v in range(1, 13)] + [(1, 2), (2, 3), (1, 3)]
    g = graph_from_edges(13, edges)
    params = IsolationParams(2)
    fired = evaluate(g, get_strategy("softcore"), 1, [1, 2, 3, 4], 8, params, RunStats())
    assert fired == "softcore"
    assert oracle.l_isolated_maximal_cliques_bruteforce(g, 2) == set()
    stats = enumerate_isolated(g, 2, "softcore")
    assert stats.emitted == 0
    assert stats.prune_firings["softcore"] >= 1


def test_combo_short_circuits_induced_degrees():
    g = star_graph(3)
    params = IsolationParams(1)
    stats = RunStats()
    # huge ext_cp makes even the size bound prune immediately
    assert evaluate(g, get_strategy("combo"), 2, [1, 2], 100, params, stats) == "size"
    assert stats.induced_degree_evals == 0


def test_combo_falls_through_to_softcore():
    g = star_graph(3)
    params = IsolationParams(1)
    stats = RunStats()
    # star center in P keeps size=4 too big to fire, softcore=2 fires
    p = [0, 1, 2, 3]
    assert evaluate(g, get_strategy("size"), 3, p, 3, params, stats) is None
    assert evaluate(g, get_strategy("combo"), 3, p, 3, params, stats) == "softcore"
    assert stats.induced_degree_evals == 1


def test_supplied_degrees_are_read_once_and_only_past_size():
    g = star_graph(3)
    params = IsolationParams(1)
    p, counts, masks = bitset_view(g, [0, 1, 2, 3])
    calls = []

    def degrees():
        calls.append(1)
        return counts

    combo = get_strategy("combo")
    stats = RunStats()
    pair = bitset_view(g, [1, 2])[0]
    assert evaluate_strategy(combo, 2, pair, masks, 100, params, stats, degrees) == "size"
    assert calls == [] and stats.induced_degree_evals == 0
    assert evaluate_strategy(combo, 3, p, masks, 3, params, stats, degrees) == "softcore"
    assert calls == [1] and stats.induced_degree_evals == 1
    # the bounds read the supplied degrees, not a recount: claim P is a clique
    softcore = get_strategy("softcore")
    clique = [3, 3, 3, 3]
    assert evaluate_strategy(softcore, 3, p, masks, 3, params, RunStats(), lambda: clique) is None


def test_combo_and_softcore_decide_alike():
    rng = random.Random(37)
    params = IsolationParams(3)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        c_size = rng.randint(0, 5)
        ext = rng.randint(0, 30)
        combo = evaluate(g, get_strategy("combo"), c_size, p, ext, params, RunStats())
        softcore = evaluate(g, get_strategy("softcore"), c_size, p, ext, params, RunStats())
        assert (combo is None) == (softcore is None)


def test_strategy_none_never_prunes():
    g = triangle()
    none = get_strategy("none")
    assert evaluate(g, none, 1, [1, 2], 1000, IsolationParams(1), RunStats()) is None


def test_combo_stage_list():
    assert [name for name, _ in STRATEGIES["combo"]] == ["size", "softcore"]
    assert STRATEGIES["combo"] == STRATEGIES["size"] + STRATEGIES["softcore"]
    assert STRATEGIES["none"] == ()


def test_get_strategy_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown strategy"):
        get_strategy("everything")


def test_bound_chain_on_random_instances():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = erdos_renyi(n, rng.random(), rng)
        p = list(range(n))
        if not p:
            continue
        p_mask, counts, masks = bitset_view(g, p)
        omega = oracle.clique_number_bruteforce(g, p)
        peel = ub_degeneracy(p_mask, counts, masks)
        chain = (omega, peel, ub_softcore(counts), ub_degree(counts), ub_size(p_mask))
        assert all(a <= b for a, b in zip(chain, chain[1:])), chain


def test_grown_sets_breaking_the_budget_are_never_isolated():
    # premise: keeping only a sub-block of the candidates already exceeds the
    # edge budget; then neither that block nor any smaller one can qualify
    rng = random.Random(43)
    params_grid = [IsolationParams(ell) for ell in (1, 2, 3)]
    checked = 0
    for _ in range(400):
        n = rng.randint(3, 12)
        g = erdos_renyi(n, 0.5, rng)
        # grow a clique c greedily, then pick candidates adjacent to all of it
        c = []
        for v in rng.sample(range(n), n):
            if all(u in g.adjacency[v] for u in c):
                c.append(v)
                if len(c) >= 3:
                    break
        common = [v for v in range(n) if v not in c and all(v in g.adjacency[u] for u in c)]
        if not common:
            continue
        p = sorted(rng.sample(common, rng.randint(1, len(common))))
        ext_cp = sum(1 for v in c for u in g.adjacency[v] if u not in c and u not in p)
        for params in params_grid:
            for _ in range(4):
                p2 = rng.sample(p, rng.randint(0, len(p)))
                p1 = rng.sample(p2, rng.randint(0, len(p2)))
                premise = ext_cp + len(c) * (len(p) - len(p2)) >= params.ell * (len(c) + len(p2))
                if not premise:
                    continue
                checked += 1
                assert not is_l_isolated(g, sorted(c + p2), params)
                assert not is_l_isolated(g, sorted(c + p1), params)
    assert checked > 50
