"""Immutable undirected simple graphs with sorted adjacency lists.

Vertices carry dense 0-based ids assigned in first-appearance order at
load time; the original text labels are kept so results can be reported
in the input's own vocabulary.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping, Sequence


class EdgeListParseError(ValueError):
    """A data line in an edge-list stream could not be parsed."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph.

    Adjacency lists are strictly ascending, symmetric, and free of
    self-loops; ``edge_count`` is half the total adjacency length.
    Instances are immutable and safe to share across concurrent readers.
    """

    vertex_count: int
    edge_count: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        """Build a simple graph; self-loops and duplicate edges are dropped."""
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        if labels is not None and len(labels) != vertex_count:
            raise ValueError("labels must cover every vertex")
        unique: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) references a vertex outside [0, {vertex_count})")
            if u == v:
                continue
            unique.add((u, v) if u < v else (v, u))
        neighbor_lists: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in unique:
            neighbor_lists[u].append(v)
            neighbor_lists[v].append(u)
        for nbrs in neighbor_lists:
            nbrs.sort()
        return cls(
            vertex_count=vertex_count,
            edge_count=len(unique),
            adjacency=tuple(tuple(nbrs) for nbrs in neighbor_lists),
            labels=tuple(labels) if labels is not None else None,
        )

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adjacency[v])

    def label_of(self, v: int) -> str:
        self._check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    def all_labels(self) -> tuple[str, ...]:
        """Every vertex's label in id order; unlabeled graphs use the ids."""
        if self.labels is not None:
            return self.labels
        return tuple(map(str, range(self.vertex_count)))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, ascending."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v > u:
                    yield u, v

    def validate(self) -> None:
        """Check the structural invariants; raises AssertionError on violation.

        Intended for tests and debugging, not for hot paths.
        """
        assert len(self.adjacency) == self.vertex_count
        total = 0
        for v, nbrs in enumerate(self.adjacency):
            total += len(nbrs)
            for i, u in enumerate(nbrs):
                assert 0 <= u < self.vertex_count, f"neighbor {u} of {v} out of range"
                assert u != v, f"self-loop at {v}"
                assert i == 0 or nbrs[i - 1] < u, f"adjacency of {v} not strictly ascending"
                assert v in self.adjacency[u], f"edge {v}-{u} not symmetric"
        assert total == 2 * self.edge_count, "edge_count does not match adjacency"
        if self.labels is not None:
            assert len(self.labels) == self.vertex_count

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range [0, {self.vertex_count})")


@dataclass(frozen=True)
class LoadReport:
    """A loaded graph plus how much cleanup the input needed."""

    graph: Graph
    self_loops_dropped: int
    duplicate_edges_dropped: int


def load_edge_list(lines: Iterable[str]) -> Graph:
    """Parse a whitespace-separated edge list (see load_edge_list_report)."""
    return load_edge_list_report(lines).graph


def load_edge_list_report(lines: Iterable[str]) -> LoadReport:
    """Parse an edge list, reporting dropped self-loops and duplicates.

    Lines starting with '#' or '%' are comments and blank lines are
    skipped. A data line holds two vertex labels; extra trailing tokens
    (weights, timestamps) are ignored. Vertices get dense ids in
    first-appearance order. A data line with fewer than two tokens is an
    error naming the line number; empty input yields an empty graph.

    Self-loops never become edges. A loop on a brand-new label merely
    declares the vertex (the canonical writer uses this to pin id order
    and keep isolated vertices); a loop on an already-known vertex is
    counted as dropped input.
    """
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    self_loops = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two vertex labels, got {line!r}"
            )
        known_before = tokens[0] in ids
        a = ids.setdefault(tokens[0], len(ids))
        b = ids.setdefault(tokens[1], len(ids))
        if a == b:
            if known_before:
                self_loops += 1
            continue
        edges.append((a, b))
    labels = [""] * len(ids)
    for text, vid in ids.items():
        labels[vid] = text
    graph = Graph.from_edges(len(ids), edges, labels)
    return LoadReport(graph, self_loops, len(edges) - graph.edge_count)


def write_edge_list(g: Graph, stream: IO[str], header_comments: Sequence[str] = ()) -> None:
    """Write the canonical text form of a graph.

    Layout: '#'-prefixed header comments (callers' lines first, then n and
    m), one self-loop line per vertex in id order, then one ``u v`` line
    per edge with u < v, ascending. The self-loop lines pin down label
    order and keep isolated vertices, so reloading the output reproduces
    the graph exactly; the loader drops the loops themselves.

    Raises ValueError before writing anything when a label would not
    survive the reload: an empty label, one containing whitespace, one
    starting with a comment marker ('#' or '%'), or a repeated label.
    """
    labels = g.all_labels()
    if g.labels is not None:
        for label in labels:
            if label.split() != [label]:
                raise ValueError(
                    f"label {label!r} is empty or contains whitespace and cannot be serialized"
                )
            if label[0] in "#%":
                raise ValueError(
                    f"label {label!r} starts with a comment marker and cannot be serialized"
                )
        if len(set(labels)) != len(labels):
            raise ValueError("labels repeat and cannot be serialized")
    header = [f"# {comment}\n" for comment in header_comments]
    header.append(f"# n={g.vertex_count}\n# m={g.edge_count}\n")
    stream.write("".join(header))
    stream.write("".join([f"{label} {label}\n" for label in labels]))
    for u, nbrs in enumerate(g.adjacency):
        # one batch per vertex: its edges to higher ids, in ascending order
        first = labels[u]
        stream.write("".join([f"{first} {labels[v]}\n" for v in nbrs[bisect_right(nbrs, u):]]))


def canonical_edge_list(g: Graph, header_comments: Sequence[str] = ()) -> str:
    """The canonical edge-list serialization as a single string."""
    import io

    buf = io.StringIO()
    write_edge_list(g, buf, header_comments)
    return buf.getvalue()


def intersect_with_neighbors(g: Graph, s: Sequence[int], v: int) -> list[int]:
    """Intersect the ascending vertex list ``s`` with the neighbors of ``v``.

    Sorted two-pointer merge: O(len(s) + degree(v)) comparisons. ``v``
    must be a vertex of ``g``; it is not range-checked.
    """
    nbrs = g.adjacency[v]
    out: list[int] = []
    i = j = 0
    len_s = len(s)
    len_n = len(nbrs)
    while i < len_s and j < len_n:
        a = s[i]
        b = nbrs[j]
        if a == b:
            out.append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return out


def induced_degrees(g: Graph, p: Sequence[int]) -> dict[int, int]:
    """Degree of every vertex of ``p`` inside the subgraph induced by ``p``.

    Scans each member's adjacency against a membership set, so the cost is
    the sum of the members' degrees.
    """
    members = set(p)
    result: dict[int, int] = {}
    for v in p:
        count = 0
        for u in g.adjacency[v]:
            if u in members:
                count += 1
        result[v] = count
    return result
