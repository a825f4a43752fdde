"""Expected answers computed without the isoclique engine.

The edge-list file the benchmark generated is read here with a parser
of its own and handed to ``networkx.find_cliques``; a maximal clique of
size k is isolated at factor ell when the edges leaving it,
sum(deg) - k(k-1), number fewer than ell * k. networkx is a benchmark
tool only, never a dependency of the package.
"""

from __future__ import annotations


class ReferenceUnavailable(RuntimeError):
    """networkx is not installed, so outputs cannot be verified."""


def read_edge_list(path) -> tuple[list[str], list[tuple[str, str]]]:
    """Labels in first-appearance order and the edges of an edge-list file.

    Same format rules as the package's loader: '#' and '%' start comments,
    the first two tokens of a data line are the endpoints, and a line
    whose endpoints are equal only declares the vertex.
    """
    labels: dict[str, None] = {}
    edges = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line[0] in "#%":
                continue
            a, b = line.split()[:2]
            labels.setdefault(a)
            labels.setdefault(b)
            if a != b:
                edges.append((a, b))
    return list(labels), edges


class Reference:
    """All maximal cliques of one edge-list file with their external degrees."""

    def __init__(self, path) -> None:
        try:
            import networkx as nx
        except ImportError as exc:
            raise ReferenceUnavailable(str(exc)) from None
        labels, edges = read_edge_list(path)
        graph = nx.Graph()
        graph.add_nodes_from(labels)
        graph.add_edges_from(edges)
        degree = dict(graph.degree())
        self.cliques: list[tuple[frozenset[str], int]] = []
        for clique in nx.find_cliques(graph):
            k = len(clique)
            self.cliques.append((frozenset(clique), sum(degree[v] for v in clique) - k * (k - 1)))

    @property
    def total_maximal(self) -> int:
        return len(self.cliques)

    def isolated(self, ell: int) -> set[frozenset[str]]:
        return {c for c, ext in self.cliques if ext < ell * len(c)}

    def isolated_count(self, ell: int) -> int:
        return sum(1 for c, ext in self.cliques if ext < ell * len(c))
