import itertools
import random

import pytest

from isoclique import enumerate_isolated, oracle
from isoclique.enumeration import RunStats
from isoclique.graph import induced_degrees
from isoclique.pruning import (
    STRATEGIES,
    IsolationParams,
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
    complete_binary_tree,
    complete_graph,
    erdos_renyi,
    graph_from_edges,
    star_graph,
    triangle,
    triangle_pendant,
)


def brute_softcore(induced_deg):
    degs = list(induced_deg.values())
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
    assert ub_size([3, 5, 8, 9, 11]) == 5
    assert ub_size([2]) == 1


def test_ub_degree_examples():
    g = triangle()
    assert ub_degree(induced_degrees(g, [0, 1, 2])) == 3
    independent = graph_from_edges(4, [])
    assert ub_degree(induced_degrees(independent, [0, 1, 2, 3])) == 1


def test_ub_softcore_binary_tree():
    g = complete_binary_tree(4)
    assert ub_softcore(induced_degrees(g, range(15))) == 4


def test_ub_softcore_complete_graph():
    for t in (1, 2, 5, 8):
        g = complete_graph(t)
        assert ub_softcore(induced_degrees(g, range(t))) == t


def test_ub_softcore_matches_naive_scan():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        ind = induced_degrees(g, p)
        assert ub_softcore(ind) == brute_softcore(ind)


def test_ub_degeneracy_binary_tree():
    g = complete_binary_tree(4)
    assert ub_degeneracy(g, list(range(15)), induced_degrees(g, range(15))) == 2


def test_ub_degeneracy_complete_graph():
    for t in (1, 2, 4, 7):
        g = complete_graph(t)
        assert ub_degeneracy(g, list(range(t)), induced_degrees(g, range(t))) == t


def test_ub_degeneracy_matches_subgraph_oracle():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 10)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        ind = induced_degrees(g, p)
        assert ub_degeneracy(g, p, ind) == brute_degeneracy(g, p) + 1


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
    fired = evaluate_strategy(g, get_strategy("softcore"), 1, [1, 2, 3, 4], 8, params, RunStats())
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
    assert evaluate_strategy(g, get_strategy("combo"), 2, [1, 2], 100, params, stats) == "size"
    assert stats.induced_degree_evals == 0


def test_combo_falls_through_to_softcore():
    g = star_graph(3)
    params = IsolationParams(1)
    stats = RunStats()
    # star center in P keeps size=4 too big to fire, softcore=2 fires
    p = [0, 1, 2, 3]
    assert evaluate_strategy(g, get_strategy("size"), 3, p, 3, params, stats) is None
    assert evaluate_strategy(g, get_strategy("combo"), 3, p, 3, params, stats) == "softcore"
    assert stats.induced_degree_evals == 1


def test_combo_and_softcore_decide_alike():
    rng = random.Random(37)
    params = IsolationParams(3)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        c_size = rng.randint(0, 5)
        ext = rng.randint(0, 30)
        combo = evaluate_strategy(g, get_strategy("combo"), c_size, p, ext, params, RunStats())
        softcore = evaluate_strategy(
            g, get_strategy("softcore"), c_size, p, ext, params, RunStats()
        )
        assert (combo is None) == (softcore is None)


def test_strategy_none_never_prunes():
    g = triangle()
    none = get_strategy("none")
    assert evaluate_strategy(g, none, 1, [1, 2], 1000, IsolationParams(1), RunStats()) is None


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
        ind = induced_degrees(g, p)
        omega = oracle.clique_number_bruteforce(g, p)
        chain = (omega, ub_degeneracy(g, p, ind), ub_softcore(ind), ub_degree(ind), ub_size(p))
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
