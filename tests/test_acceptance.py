"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL verdict line (run with -s to watch them live).

The brightkite reproduction needs the real dataset on disk and skips
itself otherwise; see the README for where to put the file.
"""

import os
import random
from pathlib import Path

import pytest

import oracle
from isoclique import (
    BAConfig,
    FeatureModelConfig,
    enumerate_all_maximal,
    enumerate_isolated,
    load_edge_list_report,
)
from isoclique.generators import generate_ba, generate_feature_model
from graphutil import (
    bitset_view,
    canonical_edge_list,
    complete_binary_tree,
    erdos_renyi,
    moon_moser,
    recounted,
    ub_degeneracy,
    ub_degree,
    ub_size,
    ub_softcore,
)

STRATEGIES = ("none", "size", "degree", "softcore", "degeneracy", "combo")
ELLS = tuple(range(1, 7))
CORPUS_SEED = 0x5EED
CORPUS_SIZE = 500


def _verdict(name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: first violations: {failures[:5]}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    graphs = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(4, 12)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        graphs.append(erdos_renyi(n, p, rng))
    return graphs


@pytest.fixture(scope="module")
def corpus_recounted(corpus):
    """Per graph and factor, each strategy's emitted clique set and stats,
    and the number of search nodes recounted.

    Every run executes inside recounted, so the incremental external-edge
    counter is recounted from scratch at every single search node.
    """
    results = []
    nodes_checked = 0
    for g in corpus:
        per_graph = {}
        with recounted(g) as recount:
            for ell in ELLS:
                per_ell = {}
                for name in STRATEGIES:
                    emitted = set()
                    stats = enumerate_isolated(g, ell, name, lambda r: emitted.add(r.vertices))
                    per_ell[name] = (frozenset(emitted), stats)
                per_graph[ell] = per_ell
        nodes_checked += recount.nodes
        results.append(per_graph)
    return results, nodes_checked


@pytest.fixture(scope="module")
def corpus_runs(corpus_recounted):
    return corpus_recounted[0]


def test_oracle_equivalence_exhaustive_small_scale(corpus, corpus_runs):
    failures = []
    for idx, g in enumerate(corpus):
        for ell in ELLS:
            expected = frozenset(oracle.l_isolated_maximal_cliques_bruteforce(g, ell))
            for name in STRATEGIES:
                emitted, _ = corpus_runs[idx][ell][name]
                if emitted != expected:
                    failures.append((idx, ell, name))
    _verdict("oracle equivalence (500 graphs x 6 factors x 6 strategies)", failures)


def test_bound_chain(corpus):
    failures = []
    rng = random.Random(CORPUS_SEED + 1)
    instances = 0
    while instances < 10_000:
        n = rng.randint(1, 10)
        g = erdos_renyi(n, rng.choice([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]), rng)
        p = list(range(n))
        instances += 1
        p_mask, counts, masks = bitset_view(g, p)
        chain = (
            oracle.clique_number_bruteforce(g, p),
            ub_degeneracy(p_mask, counts, masks),
            ub_softcore(counts),
            ub_degree(counts),
            ub_size(p_mask),
        )
        if not all(a <= b for a, b in zip(chain, chain[1:])):
            failures.append((instances, chain))

    # the worked example: a four-level complete binary tree separates the
    # softcore and peeling bounds exactly
    tree = complete_binary_tree(4)
    view = bitset_view(tree, range(15))
    if ub_softcore(view[1]) != 4:
        failures.append(("binary-tree softcore", ub_softcore(view[1])))
    if ub_degeneracy(*view) != 2:
        failures.append(("binary-tree peeling", ub_degeneracy(*view)))
    _verdict(f"bound chain ({instances} instances + worked example)", failures)


def test_call_count_dominance(corpus_runs):
    failures = []
    for idx, per_graph in enumerate(corpus_runs):
        for ell, per_ell in per_graph.items():
            calls = {name: per_ell[name][1].recursive_calls for name in STRATEGIES}
            ok = (
                calls["degeneracy"] <= calls["softcore"]
                and calls["softcore"] == calls["combo"]
                and calls["softcore"] <= calls["degree"]
                and calls["degree"] <= calls["size"]
                and calls["size"] <= calls["none"]
            )
            if not ok:
                failures.append((idx, ell, calls))
    _verdict("call-count dominance (combo == softcore exact)", failures)


def test_incremental_external_degree_maintenance(corpus_recounted):
    # the corpus ran inside recounted: the counter is recounted from scratch
    # at every node and the first mismatch raises, so reaching this point
    # with every visited node of a non-trivial total checked is the check
    corpus_runs, nodes_checked = corpus_recounted
    visited = sum(
        stats.recursive_calls
        for per_graph in corpus_runs
        for per_ell in per_graph.values()
        for _, stats in per_ell.values()
    )
    failures = [] if nodes_checked == visited > 100_000 else [("checked", nodes_checked, visited)]
    _verdict(f"incremental external-degree counter ({nodes_checked} nodes recounted)", failures)


def test_moon_moser_counts():
    failures = []
    for parts, expected in ((3, 27), (4, 81)):
        got = enumerate_all_maximal(moon_moser(parts)).emitted
        if got != expected:
            failures.append((parts, got, expected))
    _verdict("Moon-Moser maximal-clique counts (27, 81)", failures)


def test_isolation_monotone_in_ell(corpus):
    failures = []
    for idx, g in enumerate(corpus[:100]):
        previous: set = set()
        prev_count = 0
        for ell in range(1, 11):
            emitted = set()
            enumerate_isolated(g, ell, "combo", lambda r: emitted.add(r.vertices))
            if not previous <= emitted or len(emitted) < prev_count:
                failures.append((idx, ell))
            previous, prev_count = emitted, len(emitted)
    _verdict("isolation output monotone in the factor (1..10)", failures)


def _brightkite_path():
    env = os.environ.get("ISOCLIQUE_BRIGHTKITE")
    if env:
        return Path(env)
    root = Path(__file__).resolve().parent.parent
    for name in (
        "data/out.brightkite",
        "data/brightkite/out.brightkite",
        "data/loc-brightkite_edges.txt",
    ):
        candidate = root / name
        if candidate.exists():
            return candidate
    return None


BRIGHTKITE = _brightkite_path()


@pytest.mark.skipif(
    BRIGHTKITE is None,
    reason="brightkite dump not present (set ISOCLIQUE_BRIGHTKITE or see README)",
)
def test_brightkite_sweep_reproduction():
    failures = []
    with open(BRIGHTKITE, "r", encoding="utf-8") as fh:
        report = load_edge_list_report(fh)
    g = report.graph
    if (g.vertex_count, g.edge_count) != (58228, 214078):
        failures.append(
            (
                "graph stats",
                g.vertex_count,
                g.edge_count,
                f"dropped loops={report.self_loops_dropped} dups={report.duplicate_edges_dropped}",
            )
        )
    total = enumerate_all_maximal(g).emitted
    if total != 290004:
        failures.append(("total maximal cliques", total))
    expected = {1: (2346, "0.81"), 10: (32661, "11.26"), 50: (85257, "29.40"), 250: (264373, "91.16")}
    for ell, (count, percent) in expected.items():
        stats = enumerate_isolated(g, ell, "combo")
        got_percent = f"{100.0 * stats.emitted / total:.2f}" if total else "0.00"
        if stats.emitted != count or got_percent != percent:
            failures.append((ell, stats.emitted, got_percent))
    _verdict("brightkite sweep reproduction", failures)


def test_generator_contracts():
    failures = []
    rng = random.Random(CORPUS_SEED + 2)

    # feature-model classes must induce complete subgraphs; configs sampled
    # from the benchmark grid with independent verification of each class
    for trial in range(100):
        cfg = FeatureModelConfig(
            n=rng.randrange(50, 551, 50),
            m=rng.randrange(5, 96, 10),
            p=rng.randrange(1, 11) * 0.025,
            seed=rng.randrange(2**32),
        )
        g = generate_feature_model(cfg)
        check_rng = random.Random(cfg.seed)
        classes = [[] for _ in range(cfg.m)]
        for v in range(cfg.n):
            for f in range(cfg.m):
                if check_rng.random() < cfg.p:
                    classes[f].append(v)
        adj = [set(nbrs) for nbrs in g.adjacency]
        for f, members in enumerate(classes):
            for i, u in enumerate(members):
                row = adj[u]
                for w in members[i + 1 :]:
                    if w not in row:
                        failures.append(("feature class not a clique", trial, f, u, w))

    # attachment-model edge counts follow the construction exactly,
    # including the benchmark-scale configuration
    for n, m, seed in ((100, 5, 1), (1000, 10, 2), (5000, 25, 3), (100_000, 25, 4)):
        g = generate_ba(BAConfig(n=n, m=m, seed=seed))
        expected = (m + 1) * m // 2 + m * (n - m - 1)
        if g.vertex_count != n or g.edge_count != expected:
            failures.append(("ba edge count", n, m, g.edge_count, expected))
        if sum(len(nbrs) for nbrs in g.adjacency) != 2 * g.edge_count:
            failures.append(("ba degree sum", n, m))

    # identical configs reproduce byte-identical graphs
    for cfg in (BAConfig(n=400, m=6, seed=9), FeatureModelConfig(n=120, m=12, p=0.15, seed=9)):
        gen = generate_ba if isinstance(cfg, BAConfig) else generate_feature_model
        if canonical_edge_list(gen(cfg)) != canonical_edge_list(gen(cfg)):
            failures.append(("determinism", cfg))

    _verdict("generator contracts (feature cliques, ba edge counts, determinism)", failures)
