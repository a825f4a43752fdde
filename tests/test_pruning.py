import itertools
import random

import pytest

import oracle
from isoclique import enumerate_isolated, enumeration
from isoclique.enumeration import RunStats
from isoclique.graph import induced_degrees
from isoclique.pruning import STRATEGIES, evaluate_strategy, get_strategy
from graphutil import (
    bit_indices,
    bitset_view,
    complete_binary_tree,
    complete_graph,
    erdos_renyi,
    external_degree,
    graph_from_edges,
    isolation_threshold,
    path_graph,
    prune_test,
    recounted,
    star_graph,
    triangle,
    triangle_pendant,
    ub_degeneracy,
    ub_degree,
    ub_size,
    ub_softcore,
)


def evaluate(g, stages, c_size, vertices, ext_cp, ell, stats):
    """The engine's prune step on the bitset view of ``vertices``:
    evaluate_strategy at the node's isolation threshold, if it is at least 1."""
    p, counts, masks = bitset_view(g, vertices)
    t = isolation_threshold(c_size, len(vertices), ext_cp, ell)
    if t < 1:
        return None
    degrees = (bit_indices(p), counts)
    return evaluate_strategy(stages, p, masks, t, stats, lambda: degrees)


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


def emitted(g, ell):
    got = []
    enumerate_isolated(g, ell, "none", lambda r: got.append(r.vertices))
    return got


def test_is_l_isolated_strictness():
    g = triangle_pendant()
    # cut 1 < 1 * 3; the edge (0, 3) has cut 2, which equals ell * size and
    # so does not qualify at ell 1, but does at ell 2 (2 < 4)
    assert emitted(g, 1) == [(0, 1, 2)]
    assert emitted(g, 2) == [(0, 1, 2), (0, 3)]


def test_is_l_isolated_zero_cut_always_qualifies():
    g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    for ell in range(1, 5):
        assert (3, 4) in emitted(g, ell)


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


def test_popcount_degrees_match_induced_degrees():
    # the helper's view, and the engine's own popcounts at every tested node
    # (root children included), equal the adjacency-list recount in bit order
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 14)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        ind = induced_degrees(g, p)
        assert bitset_view(g, p)[1] == [ind[v] for v in p]

    tested = 0

    def recording_fits(p, bits, counts, masks, t):
        nonlocal tested
        assert bits == bit_indices(p)
        # recounted checks each node before it is tested, over its universe
        members = [recount.universe[i] for i in bits]
        ind = induced_degrees(g, members)
        assert counts == [ind[v] for v in members]
        tested += 1
        return ub_size(p) <= t

    for _ in range(30):
        g = erdos_renyi(rng.randint(2, 14), rng.random(), rng)
        with recounted(g) as recount:
            enumerate_isolated(g, 1, (("record", recording_fits),))
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
            assert not prune_test(0, 5, 0, omega_bar, ell)


def test_prune_test_arithmetic():
    # 50 + 1*10 - 5*1 = 55 >= 3*(5+1) = 18
    assert prune_test(1, 10, 50, 3, 5)
    # negative left side near the root cannot prune
    assert not prune_test(1, 2, 0, 1, 5)


def test_prune_test_monotone_in_bound():
    rng = random.Random(31)
    for _ in range(300):
        c = rng.randint(0, 6)
        p = rng.randint(1, 12)
        ext = rng.randint(0, 40)
        ell = rng.randint(1, 8)
        bound1 = rng.randint(1, p)
        bound2 = rng.randint(1, bound1)
        if prune_test(c, p, ext, bound1, ell):
            assert prune_test(c, p, ext, bound2, ell)


# the value form of each stage's bound, which its threshold test must match
BOUND_VALUES = {
    "size": lambda p, counts, masks: ub_size(p),
    "degree": lambda p, counts, masks: ub_degree(counts),
    "softcore": lambda p, counts, masks: ub_softcore(counts),
    "degeneracy": ub_degeneracy,
}


def test_threshold_tests_match_bound_values():
    rng = random.Random(101)
    fits = dict(stage for stages in STRATEGIES.values() for stage in stages)
    assert fits.keys() == BOUND_VALUES.keys()
    views = []
    for _ in range(300):
        n = rng.randint(1, 12)
        g = erdos_renyi(n, rng.random(), rng)
        views.append(bitset_view(g, rng.sample(range(n), rng.randint(1, n))))
    # paths and binary trees take the most peeling rounds
    graphs = [path_graph(n) for n in range(1, 13)] + [complete_binary_tree(k) for k in (1, 2, 3, 4)]
    for g in graphs:
        views.append(bitset_view(g, range(g.vertex_count)))
    for p, counts, masks in views:
        bits = bit_indices(p)
        for name, test in fits.items():
            value = BOUND_VALUES[name](p, counts, masks)
            for t in range(-3, p.bit_count() + 2):
                assert test(p, bits, counts, masks, t) == (value <= t), (name, t, value)


def test_stages_read_the_supplied_bits():
    # the degeneracy peel starts from the bits it is handed, as decoded by the
    # caller along with the counts, and decodes P no second time
    p, counts, masks = bitset_view(complete_binary_tree(4), range(15))
    fits = dict(STRATEGIES["degeneracy"])["degeneracy"]
    assert fits(p, bit_indices(p), counts, masks, 2)  # degeneracy 1, plus one, fits under 2
    assert not fits(p, bit_indices(p), counts, masks, 1)
    # handed only the root, bit 0, with its two children counted: at t = 2
    # nothing in that list peels, though all of P would
    assert not fits(p, [0], [2], masks, 2)


def test_threshold_matches_prune_test():
    # prune_test(w) holds exactly when w <= T, negative numerators included,
    # and evaluate_strategy hands every stage the T it is given
    rng = random.Random(103)
    seen = []
    probe = (("probe", lambda p, bits, counts, masks, t: seen.append(t)),)
    thresholds = set()
    for _ in range(3_000):
        c = rng.randint(1, 8)
        p_size = rng.randint(1, 30)
        ext = rng.randint(0, 80)
        ell = rng.randint(1, 300)
        threshold = isolation_threshold(c, p_size, ext, ell)
        thresholds.add(threshold >= 1)
        for w in range(-3, p_size + 3):
            assert prune_test(c, p_size, ext, w, ell) == (w <= threshold)
        if threshold < 1:
            continue
        seen.clear()
        p = (1 << p_size) - 1
        zeros = [0] * p_size
        degrees = lambda: (list(range(p_size)), zeros)
        assert evaluate_strategy(probe, p, zeros, threshold, RunStats(), degrees) is None
        assert seen == [threshold]
    assert thresholds == {False, True}


def test_nodes_below_threshold_one_are_never_tested(monkeypatch):
    # the engine asks the bounds at exactly the nodes with candidates whose
    # threshold t is at least 1, computed on the recounted node, and hands
    # them that t; nodes with candidates and t < 1 occur and are never asked
    real_node = enumeration.SearchNode
    real_evaluate = enumeration.evaluate_strategy
    due = []  # (node, whether its t is at least 1) for each node with candidates
    asked = []

    def node(*args, **kwargs):
        made = real_node(*args, **kwargs)
        if made.p:
            t = isolation_threshold(len(made.c), made.p.bit_count(), made.ext_cp, ell)
            due.append((made, t >= 1))
        return made

    def evaluate_checked(stages, p, masks, t, stats, degrees):
        at = recount.node  # its ext_cp has just been recounted from scratch
        assert p == at.p and t >= 1
        assert t == isolation_threshold(len(at.c), p.bit_count(), at.ext_cp, ell)
        asked.append(at)
        return real_evaluate(stages, p, masks, t, stats, degrees)

    monkeypatch.setattr(enumeration, "SearchNode", node)
    monkeypatch.setattr(enumeration, "evaluate_strategy", evaluate_checked)
    rng = random.Random(107)
    graphs = [erdos_renyi(rng.randint(4, 12), rng.random(), rng) for _ in range(40)]
    graphs += [star_graph(6), complete_binary_tree(4)]
    tested = untested = 0
    for g in graphs:
        with recounted(g) as recount:
            for ell in (1, 2, 3, 6):
                for name in STRATEGIES:
                    due.clear()
                    asked.clear()
                    enumerate_isolated(g, ell, name)
                    if not STRATEGIES[name]:
                        assert asked == []
                        continue
                    kept = [n for n, at_least_one in due if at_least_one]
                    assert [id(n) for n in asked] == [id(n) for n in kept]
                    tested += len(kept)
                    untested += len(due) - len(kept)
    assert tested > 1000 and untested > 1000


def test_prune_fires_only_on_sterile_subtrees():
    # hub 0 with candidates {1,2,3,4} (1-2-3 a triangle) and eight pendants:
    # the softcore bound prunes the node reached by taking the hub, and the
    # brute-force check confirms the graph has no qualifying clique at all
    edges = [(0, v) for v in range(1, 13)] + [(1, 2), (2, 3), (1, 3)]
    g = graph_from_edges(13, edges)
    fired = evaluate(g, get_strategy("softcore"), 1, [1, 2, 3, 4], 8, 2, RunStats())
    assert fired == "softcore"
    assert oracle.l_isolated_maximal_cliques_bruteforce(g, 2) == set()
    stats = enumerate_isolated(g, 2, "softcore")
    assert stats.emitted == 0
    assert stats.prune_firings["softcore"] >= 1


def test_combo_short_circuits_induced_degrees():
    g = star_graph(3)
    stats = RunStats()
    # huge ext_cp makes even the size bound prune immediately
    assert evaluate(g, get_strategy("combo"), 2, [1, 2], 100, 1, stats) == "size"
    assert stats.induced_degree_evals == 0


def test_combo_falls_through_to_softcore():
    g = star_graph(3)
    stats = RunStats()
    # star center in P keeps size=4 too big to fire, softcore=2 fires
    p = [0, 1, 2, 3]
    assert evaluate(g, get_strategy("size"), 3, p, 3, 1, stats) is None
    assert evaluate(g, get_strategy("combo"), 3, p, 3, 1, stats) == "softcore"
    assert stats.induced_degree_evals == 1
    # the stage that fired is counted, a pass that fires nothing is not
    assert stats.prune_firings == {"softcore": 1}


def test_supplied_degrees_are_read_once_and_only_past_size():
    g = star_graph(3)
    p, counts, masks = bitset_view(g, [0, 1, 2, 3])
    bits = bit_indices(p)
    calls = []

    def degrees():
        calls.append(1)
        return bits, counts

    combo = get_strategy("combo")
    stats = RunStats()
    pair = bitset_view(g, [1, 2])[0]
    # the pair at |C| 2, ext 100, ell 1, then P at |C| 3, ext 3, ell 1
    high = isolation_threshold(2, 2, 100, 1)
    low = isolation_threshold(3, 4, 3, 1)
    assert (high, low) == (34, 3)
    assert evaluate_strategy(combo, pair, masks, high, stats, degrees) == "size"
    assert calls == [] and stats.induced_degree_evals == 0
    assert evaluate_strategy(combo, p, masks, low, stats, degrees) == "softcore"
    assert calls == [1] and stats.induced_degree_evals == 1
    # the bounds read the supplied degrees, not a recount: claim P is a clique
    softcore = get_strategy("softcore")
    clique = [3, 3, 3, 3]
    claimed = lambda: (bits, clique)
    assert evaluate_strategy(softcore, p, masks, low, RunStats(), claimed) is None


def test_combo_and_softcore_decide_alike():
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = erdos_renyi(n, rng.random(), rng)
        p = sorted(rng.sample(range(n), rng.randint(1, n)))
        c_size = rng.randint(0, 5)
        ext = rng.randint(0, 30)
        combo = evaluate(g, get_strategy("combo"), c_size, p, ext, 3, RunStats())
        softcore = evaluate(g, get_strategy("softcore"), c_size, p, ext, 3, RunStats())
        assert (combo is None) == (softcore is None)


def test_strategy_none_never_prunes():
    g = triangle()
    none = get_strategy("none")
    assert evaluate(g, none, 1, [1, 2], 1000, 1, RunStats()) is None


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
        for ell in (1, 2, 3):
            for _ in range(4):
                p2 = rng.sample(p, rng.randint(0, len(p)))
                p1 = rng.sample(p2, rng.randint(0, len(p2)))
                premise = ext_cp + len(c) * (len(p) - len(p2)) >= ell * (len(c) + len(p2))
                if not premise:
                    continue
                checked += 1
                for grown in (c + p2, c + p1):
                    assert external_degree(g, grown) >= ell * len(grown)
    assert checked > 50
