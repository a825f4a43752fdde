import ast
import random
from pathlib import Path

import pytest

import isoclique
import oracle
from graphutil import (
    complete_binary_tree,
    complete_graph,
    erdos_renyi,
    graph_from_edges,
    moon_moser,
    path_graph,
    triangle,
    triangle_pendant,
)


def test_maximal_cliques_triangle():
    assert oracle.all_maximal_cliques_bruteforce(triangle()) == {(0, 1, 2)}


def test_maximal_cliques_path():
    assert oracle.all_maximal_cliques_bruteforce(path_graph(3)) == {(0, 1), (1, 2)}


def test_moon_moser_counts():
    assert len(oracle.all_maximal_cliques_bruteforce(moon_moser(3))) == 27


def test_refuses_large_graphs():
    g = complete_graph(3)
    with pytest.raises(oracle.GraphTooLargeError):
        oracle.all_maximal_cliques_bruteforce(g, max_vertices=2)
    big = path_graph(21)
    with pytest.raises(oracle.GraphTooLargeError):
        oracle.all_maximal_cliques_bruteforce(big)


def test_isolated_filter_on_triangle_pendant():
    g = triangle_pendant()
    assert oracle.l_isolated_maximal_cliques_bruteforce(g, 1) == {(0, 1, 2)}
    assert oracle.l_isolated_maximal_cliques_bruteforce(g, 2) == {(0, 1, 2), (0, 3)}


def test_isolated_filter_vacuous_for_large_ell():
    rng = random.Random(5)
    for _ in range(10):
        g = erdos_renyi(rng.randint(1, 10), 0.5, rng)
        everything = oracle.all_maximal_cliques_bruteforce(g)
        # beyond the worst cut ratio the filter keeps everything
        worst = 0
        for clique in everything:
            inside = set(clique)
            cut = sum(1 for v in clique for u in g.adjacency[v] if u not in inside)
            worst = max(worst, cut // len(clique) + 1)
        assert oracle.l_isolated_maximal_cliques_bruteforce(g, worst + 1) == everything


def test_clique_number_examples():
    assert oracle.clique_number_bruteforce(triangle()) == 3
    independent = graph_from_edges(4, [])
    assert oracle.clique_number_bruteforce(independent) == 1
    assert oracle.clique_number_bruteforce(complete_binary_tree(4)) == 2
    assert oracle.clique_number_bruteforce(complete_graph(6)) == 6


def test_clique_number_on_subset():
    g = triangle_pendant()
    assert oracle.clique_number_bruteforce(g, [0, 3]) == 2
    assert oracle.clique_number_bruteforce(g, [1, 3]) == 1
    assert oracle.clique_number_bruteforce(g, []) == 0


def test_results_are_canonical_sorted_tuples():
    g = triangle_pendant()
    for clique in oracle.all_maximal_cliques_bruteforce(g):
        assert clique == tuple(sorted(clique))


def _imported_names(tree):
    # dotted names an import statement binds, relative ones with a leading "."
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_engine_does_not_import_the_oracle():
    # the oracle checks the engine, so the two must share no code: the
    # package holds no oracle and imports none, and the oracle takes only
    # Graph from the package and nothing from the engine or the test helpers
    package = Path(isoclique.__file__).parent
    scanned = []
    offenders = []
    for path in sorted(package.glob("*.py")):
        scanned.append(path.name)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any("oracle" in name.split(".") for name in _imported_names(tree)):
            offenders.append(path.name)
    assert {"enumeration.py", "pruning.py"} <= set(scanned)
    assert "oracle.py" not in scanned
    assert offenders == []

    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set(_imported_names(tree))
    assert {"isoclique", "isoclique.Graph"} <= imported
    assert not any(
        name.split(".")[0] in ("isoclique", "graphutil")
        for name in imported - {"isoclique", "isoclique.Graph"}
    )
