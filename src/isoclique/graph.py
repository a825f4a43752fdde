"""Immutable undirected simple graphs with sorted adjacency lists.

Vertices carry dense 0-based ids assigned in first-appearance order at
load time; the original text labels are kept so results can be reported
in the input's own vocabulary.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import IO, Iterable, Sequence


_FINISH_BATCH = 1024  # rows Graph._from_rows finishes per step


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
    def _from_rows(cls, rows: list[list[int]], labels: tuple[str, ...] | None) -> "Graph":
        """The graph whose vertex i has the neighbours listed in ``rows[i]``,
        in any order and with repeats; the loader and the generators fill
        the rows symmetrically and share this finishing step.

        Consumes ``rows``: it is finished in place, _FINISH_BATCH rows at a
        time, each list replaced by the sorted tuple of its distinct entries,
        so the lists and the tuples never all exist at once. A row without
        repeats, as the BA generator and a canonical file give, is sorted in
        place, which costs one pass when it is sorted already, and copied
        into its tuple; a row with repeats goes through a set. A batch's tuples
        are built before its lists go: finished one row at a time, the tuples
        scatter over the allocator pools that the freed lists leave part
        empty, and later allocations of other sizes cannot use that space (on
        CPython 3.11, a ``sweep`` of ba:n=100000,m=25 loaded from a file
        peaked 13 MB higher)."""
        for lo in range(0, len(rows), _FINISH_BATCH):
            hi = lo + _FINISH_BATCH
            batch = rows[lo:hi]
            for i, row in enumerate(batch):
                distinct = set(row)
                if len(distinct) == len(row):
                    row.sort()
                    batch[i] = tuple(row)
                else:
                    batch[i] = tuple(sorted(distinct))
            rows[lo:hi] = batch
        adjacency = tuple(rows)
        return cls(len(adjacency), sum(map(len, adjacency)) // 2, adjacency, labels)

    def all_labels(self) -> tuple[str, ...]:
        """Every vertex's label in id order; unlabeled graphs use the ids."""
        if self.labels is not None:
            return self.labels
        return tuple(map(str, range(self.vertex_count)))


@dataclass(frozen=True)
class LoadReport:
    """A loaded graph plus how much cleanup the input needed."""

    graph: Graph
    self_loops_dropped: int
    duplicate_edges_dropped: int


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

    One pass assigns ids and appends each edge to both endpoints' rows as
    it reads, with no edge list; the finishing step then drops the repeats,
    so every edge read beyond an edge's first counts as a duplicate.
    """
    ids: dict[str, int] = {}
    rows: list[list[int]] = []  # rows[i] lists i's neighbours as read, repeats included
    self_loops = 0
    appended = 0
    for lineno, tokens in enumerate(map(str.split, lines), start=1):
        try:
            first = tokens[0]
            if first[0] in "#%":
                continue
            second = tokens[1]
        except IndexError:
            if not tokens:
                continue  # a blank line
            # one token, so it is the stripped line
            raise EdgeListParseError(
                f"line {lineno}: expected two vertex labels, got {first!r}"
            ) from None
        a = ids.get(first)
        if a is None:
            a = ids[first] = len(rows)
            rows.append([])
            if first == second:
                continue  # declares the vertex
        b = ids.get(second)
        if b is None:
            b = ids[second] = len(rows)
            rows.append([])
        elif a == b:
            self_loops += 1
            continue
        rows[a].append(b)
        rows[b].append(a)
        appended += 1
    graph = Graph._from_rows(rows, tuple(ids))
    return LoadReport(graph, self_loops, appended - graph.edge_count)


def write_edge_list(g: Graph, stream: IO[str], header_comments: Sequence[str] = ()) -> None:
    """Write the canonical text form of a graph.

    Layout: '#'-prefixed header comments (callers' lines first, then n and
    m), one self-loop line per vertex in id order, then one ``u v`` line
    per edge with u < v, ascending, each vertex's edges joined into one
    string behind its label. The self-loop lines pin down label
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
    label = labels.__getitem__
    for u, nbrs in enumerate(g.adjacency):
        # one string per vertex: its edges to higher ids, in ascending order
        higher = nbrs[bisect_right(nbrs, u):]
        if higher:
            lead = labels[u] + " "
            stream.write(lead + ("\n" + lead).join(map(label, higher)) + "\n")


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
