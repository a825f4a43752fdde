"""Checks above oracle size: generated graphs with thousands of vertices.

The brute-force oracle stops at 20 vertices. Here an independent
maximal-clique lister (networkx) cross-checks the engine, and golden
counters and an order digest, recorded before the root was rebuilt on
adjacency lists or its subtrees on local bitsets, pin the search itself.
"""

import hashlib
import random

import pytest

from isoclique import (
    STRATEGIES,
    enumerate_all_maximal,
    enumerate_isolated,
    generate,
    parse_generator_spec,
)
from isoclique import enumeration
from isoclique.enumeration import split_root
from graphutil import (
    bit_indices,
    check_root_child,
    complete_multipartite,
    count_search_nodes,
    edges,
    empty_graph,
    external_degree,
    graph_from_edges,
    oracle_corpus,
    recounted,
    reference_root_children,
    star_graph,
)


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
    ref.add_edges_from(edges(g))
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
    # the invariants are recounted at every node, the root's children included
    g = graph("ba:n=3000,m=4,seed=1")
    with recounted(g):
        stats = enumerate_isolated(g, ell, "combo")
    assert stats.recursive_calls == nodes
    assert stats.emitted == emitted


# ba:n=800,m=6,seed=3, recorded before root children were tested on bitsets:
# (strategy, ell, recursive_calls, prune_firings, filtered_at_leaf,
# induced_degree_evals); emitted cliques per ell are in EMITTED_BA800.
# induced_degree_evals counts only nodes whose isolation threshold is at least
# 1; the values were re-derived on the engine that still counted degrees at
# every tested node, by counting its evaluations at such nodes alone. The
# combo rows at ell 5 and 10, where some root children survive with counted
# degrees and others are pruned past size, were recorded the same way before
# excluded vertices' rows were built from the candidates' rows
GOLDEN_BA800 = [
    ("size", 1, 3_878, {"size": 954}, 2_213, 0),
    ("size", 250, 5_710, {}, 0, 0),
    ("degree", 1, 717, {"degree": 669}, 10, 680),
    ("degree", 250, 5_710, {}, 0, 0),
    ("softcore", 1, 699, {"softcore": 668}, 1, 671),
    ("softcore", 250, 5_710, {}, 0, 0),
    ("degeneracy", 1, 699, {"degeneracy": 668}, 1, 671),
    ("degeneracy", 250, 5_710, {}, 0, 0),
    ("combo", 1, 699, {"size": 286, "softcore": 382}, 1, 385),
    ("combo", 5, 2_680, {"size": 292, "softcore": 108}, 1_572, 204),
    ("combo", 10, 4_379, {"size": 578, "softcore": 30}, 1_631, 82),
    ("combo", 250, 5_710, {}, 0, 0),
]
EMITTED_BA800 = {1: 0, 5: 0, 10: 1_075, 250: 3_847}


@pytest.mark.parametrize(
    "strategy, ell, nodes, fired, filtered, evals",
    GOLDEN_BA800,
    ids=[f"{row[0]}-ell{row[1]}" for row in GOLDEN_BA800],
)
def test_debug_root_children_ba800(strategy, ell, nodes, fired, filtered, evals):
    # hubs retire early and sit in later root children's X; at ell 1 root
    # children are pruned at every stage, at ell 250 every one survives, and
    # recounted checks each of them and every node below, and each root
    # child's adjacency rows and stored branch
    g = graph("ba:n=800,m=6,seed=3")
    with recounted(g):
        stats = enumerate_isolated(g, ell, strategy)
    assert stats.recursive_calls == nodes
    assert dict(stats.prune_firings) == fired
    assert stats.filtered_at_leaf == filtered
    assert stats.emitted == EMITTED_BA800[ell]
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
# filtered_at_leaf, induced_degree_evals, derived as for GOLDEN_BA800); "all"
# is enumerate_all_maximal
ORDER_DIGEST_GNMP350_ELL50 = "5f5ca5ff25ab38e28cb699b17818c87e2e6688f212d78c1dce1e583b23536cfd"
GOLDEN_GNMP350_SEED12 = [
    ("none", ORDER_DIGEST_GNMP350_ELL50, 5_861, {}, 931, 0),
    ("size", ORDER_DIGEST_GNMP350_ELL50, 5_604, {"size": 304}, 684, 0),
    ("degree", ORDER_DIGEST_GNMP350_ELL50, 5_484, {"degree": 370}, 585, 1_040),
    ("softcore", ORDER_DIGEST_GNMP350_ELL50, 5_479, {"softcore": 370}, 585, 1_035),
    ("degeneracy", ORDER_DIGEST_GNMP350_ELL50, 5_479, {"degeneracy": 370}, 585, 1_035),
    ("combo", ORDER_DIGEST_GNMP350_ELL50, 5_479, {"size": 291, "softcore": 79}, 585, 744),
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


def run_digest(g, strategy, ell, **kwargs):
    """Emitted-sequence sha256 and every counter of one engine call."""
    sha = hashlib.sha256()

    def sink(r):
        sha.update(f"{' '.join(map(str, r.vertices))} {r.external_degree}\n".encode())

    if strategy == "all":
        stats = enumerate_all_maximal(g, sink, **kwargs)
    else:
        stats = enumerate_isolated(g, ell, strategy, sink, **kwargs)
    return sha.hexdigest(), (
        stats.recursive_calls,
        dict(stats.prune_firings),
        stats.emitted,
        stats.filtered_at_leaf,
        stats.induced_degree_evals,
    )


@pytest.mark.parametrize("spec", ["gnmp:n=350,m=30,p=0.06,seed=12", "ba:n=800,m=6,seed=3"])
def test_shared_root_split_changes_nothing(spec, monkeypatch):
    # one split serves every strategy, factor and the plain pass, and each
    # run emits the same sequence with the same counters as a run that splits
    # the root itself; either way the rebound SearchNode sees every visited node
    g = graph(spec)
    constructed = count_search_nodes(monkeypatch)
    split = split_root(g)
    assert constructed == []  # building the split visits no node

    calls = [(s, ell) for s in STRATEGIES for ell in (1, 10, 50, 250)] + [("all", None)]
    own = [run_digest(g, s, ell) for s, ell in calls]
    visited = sum(counters[0] for _, counters in own)
    assert len(constructed) == visited
    shared = [run_digest(g, s, ell, split=split) for s, ell in calls]
    assert len(constructed) == 2 * visited
    assert shared == own

    # a split is tied to the graph object it was prepared for
    with pytest.raises(ValueError, match="another graph"):
        enumerate_isolated(graph(spec), 10, "combo", split=split)
    with pytest.raises(ValueError, match="another graph"):
        enumerate_all_maximal(graph(spec), split=split)


@pytest.mark.parametrize("spec", ["ba:n=800,m=6,seed=3", "gnmp:n=350,m=30,p=0.06,seed=12"])
def test_recount_checks_every_node_and_root_child(spec, monkeypatch):
    # the gate is only as good as its reach: recounted must see every node a
    # run counts and every root child, with and without a shared split, must
    # not change the run, and must nest with count_search_nodes
    g = graph(spec)
    split = split_root(g)
    constructed = count_search_nodes(monkeypatch)
    visited = 0
    for strategy, ell in [("combo", 1), ("none", 250), ("all", None)]:
        plain = run_digest(g, strategy, ell)
        for kwargs in ({}, {"split": split}):
            with recounted(g) as recount:
                assert run_digest(g, strategy, ell, **kwargs) == plain
            assert recount.nodes == plain[1][0]
            assert recount.root_children == len(split.children)
        visited += 3 * plain[1][0]
    assert len(constructed) == visited


def test_an_unobserved_run_builds_no_search_node(monkeypatch):
    # with the name SearchNode left as the class, no run builds a node; the
    # count sits on the class's __init__, which a rebound name would bypass
    g = graph("ba:n=800,m=6,seed=3")
    split = split_root(g)
    built = []
    real_init = enumeration.SearchNode.__init__

    def init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(enumeration.SearchNode, "__init__", init)
    streaming = enumerate_isolated(g, 10, "combo")
    shared = enumerate_isolated(g, 10, "combo", split=split)
    assert streaming.recursive_calls == shared.recursive_calls == 4_379
    assert built == []
    enumeration.SearchNode([], 0, 0, 0)
    assert built == [1]  # the count is live


# A tree: it has no triangle, so no root child has an edge inside its P, and
# every node below a root child has no candidates.
TREE = "ba:n=600,m=1,seed=2"

# sha256 over "C P X ext_cp\n", P and X in hex, per call of a SearchNode
# rebound to an observer, the root included, in visit order, with and without
# a shared split; recorded when the engine still built every node for itself,
# the tree's rows before nodes without candidates were finished where they
# are split off
OBSERVED_NODES = [
    ("ba:n=800,m=6,seed=3", "combo", 10, 4_379, "fd70644b3e6ea8a6647bf6a7ea1b3420fd42aa5155416120d33f1b107a327d0d"),
    ("ba:n=800,m=6,seed=3", "none", 50, 5_710, "f0a629ae442d11dc22427db8f0ce10e7fea9508eb5eb094c5028412f147c0a96"),
    ("gnmp:n=350,m=30,p=0.06,seed=12", "combo", 10, 2_015, "70834d7ab2983199c72e7da29ac9ce2e7f7643cc36fd7dd2da56578b8cfcf471"),
    ("gnmp:n=350,m=30,p=0.06,seed=12", "none", 50, 5_861, "37b103cc14260bc2fb3e30a65ebe87c1b074db0ca2e3f598b8a9ee3373c5129c"),
    (TREE, "combo", 1, 738, "ce4e0637f51e2e9548f8ac22c230401ecf1c1862095caa1247d5f17fb203180b"),
    (TREE, "none", 50, 1_157, "922437e570a48d8e246752cfc40a6e66524c6bf402b8dea2aac8d2a48cb60505"),
]


@pytest.mark.parametrize("spec, strategy, ell, nodes, digest", OBSERVED_NODES)
def test_observers_see_the_pinned_nodes(spec, strategy, ell, nodes, digest, monkeypatch):
    g = graph(spec)
    split = split_root(g)
    real = enumeration.SearchNode
    for kwargs in ({}, {"split": split}):
        sha = hashlib.sha256()
        seen = []

        def node(c, p, x, ext_cp):
            seen.append(1)
            sha.update(f"{c} {p:x} {x:x} {ext_cp}\n".encode())
            return real(c, p, x, ext_cp)

        monkeypatch.setattr(enumeration, "SearchNode", node)
        stats = enumerate_isolated(g, ell, strategy, **kwargs)
        assert stats.recursive_calls == len(seen) == nodes
        assert sha.hexdigest() == digest


# (strategy, ell, sha256 of the emitted sequence as run_digest takes it,
# recursive_calls, prune_firings, emitted, filtered_at_leaf,
# induced_degree_evals) on the tree, recorded before nodes without candidates
# were finished where they are split off
TREE_RUNS = [
    ("combo", 1, "7456985414aac1ace38c0b42d7ba59fd534adc9498717f12b1619e07008431c4", 738, {"softcore": 81}, 84, 96, 81),
    ("none", 50, "6e040758807f7de10fa58219f2ef1ec6da5fda75d113a587cdaa5a6aa7c51104", 1_157, {}, 599, 0, 0),
]


@pytest.mark.parametrize(
    "strategy, ell, digest, nodes, fired, emitted, filtered, evals",
    TREE_RUNS,
    ids=[f"{row[0]}-ell{row[1]}" for row in TREE_RUNS],
)
def test_tree_runs_are_pinned(strategy, ell, digest, nodes, fired, emitted, filtered, evals):
    g = graph(TREE)
    assert g.edge_count == g.vertex_count - 1
    pinned = (digest, (nodes, fired, emitted, filtered, evals))
    assert run_digest(g, strategy, ell) == pinned
    assert run_digest(g, strategy, ell, split=split_root(g)) == pinned


@pytest.mark.parametrize("spec", [TREE, "ba:n=800,m=6,seed=3"])
def test_triangle_free_root_children_scan_no_pivot(spec, monkeypatch):
    # a root child with no edge inside P gets all of P as its branch without
    # a pivot scan, and every other one with two candidates or more scans
    # once; the reference picks each pivot by brute force
    real = enumeration._local_pivot
    scanned = []

    def scan(masks, p, p_bits, counts, x):
        assert any(masks[i] for i in bit_indices(p)), "pivot scanned for a triangle-free root child"
        scanned.append(1)
        return real(masks, p, p_bits, counts, x)

    monkeypatch.setattr(enumeration, "_local_pivot", scan)
    g = graph(spec)
    children = list(enumeration._root_children(enumeration.RootSetup(g)))
    assert children == reference_root_children(g)
    several = [masks for _, p, _, masks, _ in children if p.bit_count() > 1]
    assert len(scanned) == sum(map(any, several)) < len(several)


@pytest.mark.parametrize(
    "make", [lambda: graph(TREE), lambda: complete_multipartite([3, 4])], ids=["tree", "k34"]
)
def test_recount_checks_nodes_without_candidates(make, monkeypatch):
    # on a triangle-free graph every node below a root child has no
    # candidates and is finished where it is split off; recounted must still
    # see, check and count each one, at every strategy, with and without a
    # shared split
    g = make()
    split = split_root(g)
    below = []
    real = enumeration.SearchNode

    def node(c, p, x, ext_cp):
        if len(c) > 1:
            below.append(p)
        return real(c, p, x, ext_cp)

    for strategy in STRATEGIES:
        for ell in (1, 2, 50):
            plain = run_digest(g, strategy, ell)
            for kwargs in ({}, {"split": split}):
                monkeypatch.setattr(enumeration, "SearchNode", node)
                with recounted(g) as recount:
                    assert run_digest(g, strategy, ell, **kwargs) == plain
                monkeypatch.setattr(enumeration, "SearchNode", real)
                assert recount.nodes == plain[1][0]
                assert recount.root_children == len(split.children)
    assert below and not any(below)


@pytest.mark.parametrize(
    "make",
    [
        lambda: graph("gnmp:n=350,m=30,p=0.06,seed=12"),
        lambda: graph("ba:n=800,m=6,seed=3"),
        # a corpus graph where counts kept from an earlier node reach a pivot
        lambda: oracle_corpus()[467],
    ],
    ids=["gnmp350-seed12", "ba800", "corpus467"],
)
def test_pivot_reads_only_its_own_nodes_counts(make, monkeypatch):
    # a pivot handed a prune test's popcounts must get those of its own P:
    # counts that outlive their node, such as a root child's reaching its
    # first child, pick a wrong pivot, which the emitted cliques may not show
    real = enumeration._local_pivot
    given = []

    def checked(masks, p, p_bits, counts, x):
        if counts is not None:
            assert p_bits == bit_indices(p)
            assert counts == [(masks[i] & p).bit_count() for i in p_bits]
            given.append(len(p_bits))
        return real(masks, p, p_bits, counts, x)

    monkeypatch.setattr(enumeration, "_local_pivot", checked)
    g = make()
    split = split_root(g)
    for strategy in STRATEGIES:
        for ell in (1, 3, 10, 50):
            enumerate_isolated(g, ell, strategy, split=split)
    assert len(given) > 20


def test_debug_catches_a_corrupt_shared_row():
    g = graph("ba:n=800,m=6,seed=3")
    split = split_root(g)
    _, p, _, masks, _ = next(child for child in split.children if child[3] is not None)
    i = (p & -p).bit_length() - 1
    masks[i] |= 1 << i  # no vertex is its own neighbour
    with recounted(g), pytest.raises(AssertionError, match="mask row"):
        enumerate_isolated(g, 250, "none", split=split)


@pytest.mark.parametrize("strategy, ell", [("none", 250), ("combo", 1)])
def test_debug_catches_a_corrupt_shared_branch(strategy, ell):
    # recounted recomputes the pivot of every root child with candidates
    # before its prune test, so a wrong stored branch is caught whether the
    # root child survives (none at ell 250) or is pruned (combo at ell 1)
    g = graph("ba:n=800,m=6,seed=3")
    split = split_root(g)
    k, (v, p, x, masks, branch) = next(
        (k, child) for k, child in enumerate(split.children) if child[1]
    )
    split.children[k] = (v, p, x, masks, branch ^ (p & -p))
    with recounted(g), pytest.raises(AssertionError, match=f"stored branch of root child {v}"):
        enumerate_isolated(g, ell, strategy, split=split)


def hub_graph():
    # three hubs, each adjacent to about 60% of a sparse random graph
    rng = random.Random(31)
    n = 120
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 0.05]
    edges += [(h, w) for h in range(3) for w in range(n) if w != h and rng.random() < 0.6]
    return graph_from_edges(n, edges)


@pytest.mark.parametrize(
    "make", [hub_graph, lambda: graph("ba:n=300,m=3,seed=2")], ids=["hubs", "ba300"]
)
def test_hub_rows_match_brute_force(make):
    g = make()
    adjacency = g.adjacency
    split = split_root(g)
    hub_pairs = 0
    for v, p, x, masks, branch in split.children:
        check_root_child(g, v, p, x, masks, branch)
        universe = adjacency[v]
        members = [i for i in range(len(universe)) if p >> i & 1]
        # a P member of more than 4·deg(v) neighbours takes the hub path
        hub_pairs += sum(len(adjacency[universe[i]]) > 4 * len(universe) for i in members)
    assert hub_pairs > 0

    # recounted checks every root child's rows and stored branch, and every node
    calls = [(s, ell) for s in STRATEGIES for ell in (1, 10)]
    with recounted(g):
        own = [run_digest(g, s, ell) for s, ell in calls]
        assert [run_digest(g, s, ell, split=split) for s, ell in calls] == own


def skip_on_both_sides():
    # the root pivot 3 (degree 5, tied with 5, which has the higher id) holds
    # 0, 2, 5, 7 and 8; root child 4 has the retired 1 and the held 2 below
    # it, and the held 5 and the later root child 6 above it
    return graph_from_edges(
        9,
        [(3, 0), (3, 2), (3, 5), (3, 7), (3, 8), (4, 1), (4, 2), (4, 5), (4, 6)]
        + [(6, 1), (6, 5), (6, 7), (1, 0), (2, 5), (5, 7)],
    )


@pytest.mark.parametrize(
    "make",
    [
        hub_graph,
        lambda: graph("ba:n=300,m=3,seed=2"),
        lambda: graph("ba:n=800,m=6,seed=3"),
        lambda: graph("gnmp:n=350,m=30,p=0.06,seed=12"),
        *(lambda k=k: oracle_corpus()[k] for k in (0, 1, 2, 3, 467)),
        lambda: star_graph(6),
        skip_on_both_sides,
        lambda: graph_from_edges(7, [(1, 2), (2, 4), (1, 4), (4, 6)]),
        lambda: empty_graph(4),
        lambda: empty_graph(0),
    ],
    ids=[
        "hubs", "ba300", "ba800", "gnmp350-seed12",
        *(f"corpus{k}" for k in (0, 1, 2, 3, 467)),
        "star", "skip-on-both-sides", "isolated", "edgeless", "empty",
    ],
)
def test_root_split_matches_flag_reference(make):
    # _root_children takes a root child's X from the prefix of N(v) below v,
    # less the pivot's neighbours held there; the flags it replaced must agree
    g = make()
    assert list(enumeration._root_children(enumeration.RootSetup(g))) == reference_root_children(g)
