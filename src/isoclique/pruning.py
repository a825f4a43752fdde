"""Isolation math and the pruning rules that discard search subtrees.

A vertex set of size k is isolated at factor ell when strictly fewer
than ell * k edges leave it. At a search node, any clique the subtree
can still report is the current clique C extended by some clique of the
subgraph induced by the candidate set P. Each candidate left behind is
adjacent to all of C and therefore contributes len(C) external edges, so
an upper bound on how large a clique P can supply turns into a lower
bound on the external edges of anything grown here. When that lower
bound already breaks the isolation budget, the whole subtree is sterile
and can be skipped without losing any qualifying clique.

Four bounds are available, cheapest and loosest first: the candidate
count, the maximum induced degree plus one, the softcore count (largest
k with at least k candidates of induced degree >= k-1), and the peeling
bound (degeneracy plus one). Strategies chain them; the shipped "combo"
tries the free size bound before falling back to softcore.

Below the root every node keeps its sets as bitsets over a root child's
neighbourhood (see isoclique.enumeration), so each bound reads the same
three things: the candidate bitset, the candidates' induced degrees as
popcounts in bit order, and the local adjacency rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import Graph

# The bounds read popcounts, not induced_degrees. perfbench's tracer hooks it
# under this module, so it stays importable here and its graph.induced_degrees
# span reads zero calls until the benchmark drops that hook.
from .graph import induced_degrees  # noqa: F401


@dataclass(frozen=True)
class IsolationParams:
    """Isolation factor; a size-k set qualifies when its cut is < ell * k."""

    ell: int

    def __post_init__(self) -> None:
        if not isinstance(self.ell, int) or isinstance(self.ell, bool) or self.ell < 1:
            raise ValueError("isolation factor must be an integer >= 1")


def external_degree(g: Graph, i: Sequence[int]) -> int:
    """Number of edges with exactly one endpoint in ``i``."""
    members = set(i)
    count = 0
    for v in i:
        for u in g.adjacency[v]:
            if u not in members:
                count += 1
    return count


def is_l_isolated(g: Graph, i: Sequence[int], params: IsolationParams) -> bool:
    """Strict test: external_degree(i) < ell * len(i). ``i`` must be non-empty."""
    if not i:
        raise ValueError("isolation is undefined for the empty set")
    return external_degree(g, i) < params.ell * len(i)


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def ub_size(p: int) -> int:
    """Candidate count: the weakest clique-size bound, free to evaluate."""
    return p.bit_count()


def ub_degree(counts: Sequence[int]) -> int:
    """Maximum degree inside the candidate subgraph, plus one."""
    return max(counts) + 1


def ub_softcore(counts: Sequence[int]) -> int:
    """Largest k such that at least k candidates have induced degree >= k-1.

    A relaxation of the peeling bound that never updates degrees. A
    counting sort over the degree values keeps it linear in the number
    of candidates.
    """
    n = len(counts)
    count = [0] * n  # induced degrees lie in [0, n-1]
    for d in counts:
        count[d] += 1
    at_or_above = 0
    for k in range(n, 0, -1):
        at_or_above += count[k - 1]
        if at_or_above >= k:
            return k
    return 0


def ub_degeneracy(p: int, counts: Sequence[int], masks: Sequence[int]) -> int:
    """Peeling bound: degeneracy plus one, by an exact k-core peel on bitsets.

    Each round drops at once every candidate with at most k neighbours among
    those left. A round that would drop nothing leaves a core of higher
    order, so k first rises to the least degree left. When a round drops
    everything, no (k+1)-core exists and k is the degeneracy.
    """
    live = bit_indices(p)
    degs = counts
    k = 0
    while True:
        k = max(k, min(degs))
        keep = []
        for i, d in zip(live, degs):
            if d > k:
                keep.append(i)
            else:
                p ^= 1 << i
        if not keep:
            return k + 1
        live = keep
        degs = [(masks[i] & p).bit_count() for i in live]


def prune_test(
    c_size: int, p_size: int, ext_cp: int, omega_bar: int, params: IsolationParams
) -> bool:
    """True when no clique grown from this node can meet the isolation cut.

    ``omega_bar`` must be an upper bound on the largest clique the
    candidate subgraph contains. Growing the node's clique by t <= omega_bar
    candidates strands at least p_size - t candidates, each adding c_size
    external edges on top of ext_cp, so the best reachable case still
    violates isolation whenever

        ext_cp + c_size * p_size - ell * c_size >= omega_bar * (ell + c_size)

    The left side can be negative near the root; plain ints handle it.
    """
    ell = params.ell
    return ext_cp + c_size * p_size - ell * c_size >= omega_bar * (ell + c_size)


#: A bound maps (candidate bitset, the candidates' induced degrees in bit
#: order, the local adjacency rows) to an upper bound on the clique number of
#: the candidate subgraph; ``size`` is called before any degree is counted,
#: with ``None`` in their place.
Bound = Callable[[int, Sequence[int] | None, Sequence[int]], int]
#: A chain of named bounds, tried in order; the first that prunes wins.
Stages = Sequence[tuple[str, Bound]]

_SIZE = ("size", lambda p, counts, masks: ub_size(p))
_SOFTCORE = ("softcore", lambda p, counts, masks: ub_softcore(counts))

STRATEGIES: dict[str, Stages] = {
    "none": (),
    "size": (_SIZE,),
    "degree": (("degree", lambda p, counts, masks: ub_degree(counts)),),
    "softcore": (_SOFTCORE,),
    "degeneracy": (("degeneracy", ub_degeneracy),),
    "combo": (_SIZE, _SOFTCORE),
}


def get_strategy(name: str) -> Stages:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {', '.join(STRATEGIES)}"
        ) from None


def evaluate_strategy(
    stages: Stages,
    c_size: int,
    p: int,
    masks: Sequence[int],
    ext_cp: int,
    params: IsolationParams,
    stats,
    degrees: Callable[[], Sequence[int]],
) -> str | None:
    """Name of the first stage whose bound proves the subtree sterile, or None.

    ``p`` is the candidate bitset and ``masks[i]`` the neighbourhood of bit
    i. The free ``size`` stage reads only ``p``. ``degrees()`` returns the
    candidates' induced degrees in bit order, with the rows of P's bits in
    ``masks`` by then; it is called at most once, on reaching any other
    stage, and counted in ``stats.induced_degree_evals``.
    """
    p_size = p.bit_count()
    counts = None
    for name, bound in stages:
        if counts is None and name != "size":
            counts = degrees()
            stats.induced_degree_evals += 1
        if prune_test(c_size, p_size, ext_cp, bound(p, counts, masks), params):
            return name
    return None
