"""Checks above oracle size: generated graphs with thousands of vertices.

The brute-force oracle stops at 20 vertices. Here an independent
maximal-clique lister (networkx) cross-checks the engine, and golden
counters and an order digest, recorded before the root was rebuilt on
adjacency lists, pin the search itself.
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
