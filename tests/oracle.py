"""Exponential reference implementations that the tests check the engine
against.

Everything here enumerates vertex subsets directly over bitmask
adjacency and imports nothing from the package but Graph, so it shares
no search logic with the engine and the two sides can be checked against
each other. Each function refuses an input of more than ``max_vertices``
vertices, 20 unless given, with GraphTooLargeError: subset enumeration
beyond that is hopeless.
"""

from __future__ import annotations

from typing import Sequence

from isoclique import Graph


class GraphTooLargeError(ValueError):
    """The input exceeds the subset-enumeration cap."""


def _require_small(count: int, max_vertices: int) -> None:
    if count > max_vertices:
        raise GraphTooLargeError(
            f"{count} vertices exceeds the brute-force cap of {max_vertices}"
        )


def _clique_table(masks: Sequence[int]) -> bytearray:
    # table[s] == 1 iff bitset s induces a complete subgraph; filled in
    # increasing subset order by peeling off the lowest member.
    table = bytearray(1 << len(masks))
    table[0] = 1
    for s in range(1, len(table)):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        if table[rest] and masks[low] & rest == rest:
            table[s] = 1
    return table


def _members(bits: int) -> tuple[int, ...]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def all_maximal_cliques_bruteforce(g: Graph, *, max_vertices: int = 20) -> set[tuple[int, ...]]:
    """Every maximal clique, found by scanning all vertex subsets."""
    _require_small(g.vertex_count, max_vertices)
    n = g.vertex_count
    masks = [sum(1 << u for u in g.adjacency[v]) for v in range(n)]
    table = _clique_table(masks)
    found: set[tuple[int, ...]] = set()
    for s in range(1, 1 << n):
        if not table[s]:
            continue
        extenders = -1
        rest = s
        while rest:
            extenders &= masks[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        if extenders == 0:  # nobody is adjacent to all members
            found.add(_members(s))
    return found


def l_isolated_maximal_cliques_bruteforce(
    g: Graph, ell: int, *, max_vertices: int = 20
) -> set[tuple[int, ...]]:
    """Maximal cliques with fewer than ell * size edges leaving them."""
    if ell < 1:
        raise ValueError("isolation factor must be >= 1")
    kept: set[tuple[int, ...]] = set()
    for clique in all_maximal_cliques_bruteforce(g, max_vertices=max_vertices):
        inside = set(clique)
        cut = 0
        for v in clique:
            for u in g.adjacency[v]:
                if u not in inside:
                    cut += 1
        if cut < ell * len(clique):
            kept.add(clique)
    return kept


def clique_number_bruteforce(
    g: Graph, p: Sequence[int] | None = None, *, max_vertices: int = 20
) -> int:
    """Exact size of the largest clique in the subgraph induced by ``p``.

    ``p`` defaults to all vertices; the empty set has clique number 0.
    """
    verts = list(range(g.vertex_count)) if p is None else list(p)
    _require_small(len(verts), max_vertices)
    if not verts:
        return 0
    index = {v: i for i, v in enumerate(verts)}
    masks = [
        sum(1 << index[u] for u in g.adjacency[v] if u in index) for v in verts
    ]
    table = _clique_table(masks)
    return max(s.bit_count() for s in range(len(table)) if table[s])
