"""Checks above oracle size: generated graphs with thousands of vertices.

The brute-force oracle stops at 20 vertices. Here an independent
maximal-clique lister (networkx) cross-checks the engine, and golden
counters and an order digest, recorded before the root was rebuilt on
adjacency lists or its subtrees on local bitsets, pin the search itself.
"""

import hashlib

import pytest

from isoclique import enumerate_all_maximal, enumerate_isolated, generate, parse_generator_spec
from isoclique.pruning import external_degree


def graph(spec):
    return generate(parse_generator_spec(spec))


@pytest.mark.parametrize(
    "spec, ells",
    [("ba:n=3000,m=4,seed=1", (10, 50)), ("gnmp:n=2000,m=60,p=0.015,seed=1", (2, 8))],
)
def test_matches_networkx_find_cliques(spec, ells):
    nx = pytest.importorskip("networkx")
    g = graph(spec)
    ref = nx.Graph()
    ref.add_nodes_from(range(g.vertex_count))
    ref.add_edges_from(g.edges())
    expected = {tuple(sorted(clique)) for clique in nx.find_cliques(ref)}

    got = []
    stats = enumerate_all_maximal(g, lambda r: got.append(r.vertices))
    assert len(got) == stats.emitted == len(expected)
    assert set(got) == expected

    for ell in ells:
        isolated = {c for c in expected if external_degree(g, c) < ell * len(c)}
        assert 0 < len(isolated) < len(expected)  # the factor actually filters
        found = []
        enumerate_isolated(g, ell, "combo", lambda r: found.append(r.vertices))
        assert len(found) == len(isolated)
        assert set(found) == isolated


@pytest.mark.parametrize(
    "ell, nodes, emitted",
    [(1, 2_874, 0), (10, 11_824, 5_552), (50, 14_587, 10_364), (250, 14_773, 11_211)],
)
def test_golden_counters_ba3000_combo(ell, nodes, emitted):
    # debug recounts the invariants at every node, the root's children included
    stats = enumerate_isolated(graph("ba:n=3000,m=4,seed=1"), ell, "combo", debug=True)
    assert stats.recursive_calls == nodes
    assert stats.emitted == emitted


# ba:n=800,m=6,seed=3, recorded before root children were tested on bitsets:
# (strategy, ell, recursive_calls, prune_firings, filtered_at_leaf,
# induced_degree_evals); nothing is emitted at ell 1, 3,847 cliques at ell 250
GOLDEN_BA800 = [
    ("size", 1, 3_878, {"size": 954}, 2_213, 0),
    ("size", 250, 5_710, {}, 0, 0),
    ("degree", 1, 717, {"degree": 669}, 10, 680),
    ("degree", 250, 5_710, {}, 0, 1_515),
    ("softcore", 1, 699, {"softcore": 668}, 1, 671),
    ("softcore", 250, 5_710, {}, 0, 1_515),
    ("degeneracy", 1, 699, {"degeneracy": 668}, 1, 671),
    ("degeneracy", 250, 5_710, {}, 0, 1_515),
    ("combo", 1, 699, {"size": 286, "softcore": 382}, 1, 385),
    ("combo", 250, 5_710, {}, 0, 1_515),
]


@pytest.mark.parametrize(
    "strategy, ell, nodes, fired, filtered, evals",
    GOLDEN_BA800,
    ids=[f"{row[0]}-ell{row[1]}" for row in GOLDEN_BA800],
)
def test_debug_root_children_ba800(strategy, ell, nodes, fired, filtered, evals):
    # hubs retire early and sit in later root children's X; at ell 1 root
    # children are pruned at every stage, at ell 250 every one survives, and
    # debug recounts each of them and every node below
    stats = enumerate_isolated(graph("ba:n=800,m=6,seed=3"), ell, strategy, debug=True)
    assert stats.recursive_calls == nodes
    assert dict(stats.prune_firings) == fired
    assert stats.filtered_at_leaf == filtered
    assert stats.emitted == (0 if ell == 1 else 3_847)
    assert stats.induced_degree_evals == evals


ORDER_DIGEST_BA3000_ELL50 = "9d35ecc4f5a0f0012db959c30514fcbe4e72c9399bc80e68d44f89e6ef873dd7"


@pytest.mark.parametrize("strategy", ["none", "combo"])
def test_emitted_sequence_digest_ba3000(strategy):
    # sha256 over "v1 v2 ... external_degree\n" per clique, in emission order
    digest = hashlib.sha256()
    enumerate_isolated(
        graph("ba:n=3000,m=4,seed=1"),
        50,
        strategy,
        lambda r: digest.update(f"{' '.join(map(str, r.vertices))} {r.external_degree}\n".encode()),
    )
    assert digest.hexdigest() == ORDER_DIGEST_BA3000_ELL50


# gnmp:n=350,m=30,p=0.06,seed=12 at ell 50, where pivot ties are densest:
# (strategy, sha256 of the emitted sequence, recursive_calls, prune_firings,
# filtered_at_leaf, induced_degree_evals); "all" is enumerate_all_maximal
ORDER_DIGEST_GNMP350_ELL50 = "5f5ca5ff25ab38e28cb699b17818c87e2e6688f212d78c1dce1e583b23536cfd"
GOLDEN_GNMP350_SEED12 = [
    ("none", ORDER_DIGEST_GNMP350_ELL50, 5_861, {}, 931, 0),
    ("size", ORDER_DIGEST_GNMP350_ELL50, 5_604, {"size": 304}, 684, 0),
    ("degree", ORDER_DIGEST_GNMP350_ELL50, 5_484, {"degree": 370}, 585, 4_366),
    ("softcore", ORDER_DIGEST_GNMP350_ELL50, 5_479, {"softcore": 370}, 585, 4_361),
    ("degeneracy", ORDER_DIGEST_GNMP350_ELL50, 5_479, {"degeneracy": 370}, 585, 4_361),
    ("combo", ORDER_DIGEST_GNMP350_ELL50, 5_479, {"size": 291, "softcore": 79}, 585, 4_070),
    ("all", "72e06041c44a0224342d93da55b54177eadf7ac0168c797fc57758212ec288ae", 5_861, {}, 0, 0),
]


@pytest.mark.parametrize(
    "strategy, digest, nodes, fired, filtered, evals",
    GOLDEN_GNMP350_SEED12,
    ids=[row[0] for row in GOLDEN_GNMP350_SEED12],
)
def test_golden_order_and_counters_gnmp350_seed12(strategy, digest, nodes, fired, filtered, evals):
    g = graph("gnmp:n=350,m=30,p=0.06,seed=12")
    sha = hashlib.sha256()

    def sink(r):
        sha.update(f"{' '.join(map(str, r.vertices))} {r.external_degree}\n".encode())

    if strategy == "all":
        stats = enumerate_all_maximal(g, sink)
    else:
        stats = enumerate_isolated(g, 50, strategy, sink)
    assert sha.hexdigest() == digest
    assert stats.recursive_calls == nodes
    assert dict(stats.prune_firings) == fired
    assert stats.filtered_at_leaf == filtered
    assert stats.induced_degree_evals == evals


@pytest.mark.parametrize(
    "strategy, nodes, emitted, filtered",
    [("none", 181_923, 122_696, 28_465), ("combo", 173_183, 122_696, 20_505)],
)
def test_golden_counters_ba20000_ell50(strategy, nodes, emitted, filtered):
    stats = enumerate_isolated(graph("ba:n=20000,m=8,seed=1"), 50, strategy)
    assert stats.recursive_calls == nodes
    assert stats.emitted == emitted
    assert stats.filtered_at_leaf == filtered
