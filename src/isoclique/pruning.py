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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .graph import Graph, induced_degrees


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


def ub_size(p: Sequence[int]) -> int:
    """Candidate count: the weakest clique-size bound, free to evaluate."""
    return len(p)


def ub_degree(induced_deg: Mapping[int, int]) -> int:
    """Maximum degree inside the candidate subgraph, plus one."""
    return max(induced_deg.values()) + 1


def ub_softcore(induced_deg: Mapping[int, int]) -> int:
    """Largest k such that at least k candidates have induced degree >= k-1.

    A relaxation of the peeling bound that never updates degrees. A
    counting sort over the degree values keeps it linear in the number
    of candidates.
    """
    degs = induced_deg.values()
    n = len(degs)
    count = [0] * n  # induced degrees lie in [0, n-1]
    for d in degs:
        count[d] += 1
    at_or_above = 0
    for k in range(n, 0, -1):
        at_or_above += count[k - 1]
        if at_or_above >= k:
            return k
    return 0


def ub_degeneracy(g: Graph, p: Sequence[int], induced_deg: Mapping[int, int]) -> int:
    """Peeling bound: one plus the largest minimum degree seen while
    repeatedly deleting a minimum-degree candidate.

    Bucket-queue peeling over the induced subgraph, linear in its edges.
    """
    k = len(p)
    index = {v: i for i, v in enumerate(p)}
    deg = [induced_deg[v] for v in p]
    nbrs = [[index[u] for u in g.adjacency[v] if u in index] for v in p]

    max_deg = max(deg)
    count = [0] * (max_deg + 1)
    for d in deg:
        count[d] += 1
    bins = [0] * (max_deg + 1)  # bins[d] = first slot holding a degree-d vertex
    total = 0
    for d in range(max_deg + 1):
        bins[d] = total
        total += count[d]
    order = [0] * k
    pos = [0] * k
    fill = bins.copy()
    for i, d in enumerate(deg):
        order[fill[d]] = i
        pos[i] = fill[d]
        fill[d] += 1

    peeled_max = 0
    for step in range(k):
        v = order[step]
        if deg[v] > peeled_max:
            peeled_max = deg[v]
        dv = deg[v]
        for u in nbrs[v]:
            du = deg[u]
            if du > dv:  # u not yet peeled and sits in a higher bucket
                pu = pos[u]
                pw = bins[du]
                w = order[pw]
                if u != w:
                    order[pu] = w
                    order[pw] = u
                    pos[u] = pw
                    pos[w] = pu
                bins[du] += 1
                deg[u] = du - 1
    return peeled_max + 1


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


#: A bound maps (graph, candidates, their induced degrees) to an upper
#: bound on the clique number of the candidate subgraph.
Bound = Callable[[Graph, Sequence[int], Mapping[int, int]], int]
#: A chain of named bounds, tried in order; the first that prunes wins.
Stages = Sequence[tuple[str, Bound]]

_SIZE = ("size", lambda g, p, induced: ub_size(p))
_SOFTCORE = ("softcore", lambda g, p, induced: ub_softcore(induced))

STRATEGIES: dict[str, Stages] = {
    "none": (),
    "size": (_SIZE,),
    "degree": (("degree", lambda g, p, induced: ub_degree(induced)),),
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
    g: Graph,
    stages: Stages,
    c_size: int,
    p: Sequence[int],
    ext_cp: int,
    params: IsolationParams,
    stats,
    degrees: Callable[[], Mapping[int, int]] | None = None,
) -> str | None:
    """Name of the first stage whose bound proves the subtree sterile, or None.

    The free ``size`` stage gets no induced degrees; they are computed at
    most once, on reaching any other stage, and counted in
    ``stats.induced_degree_evals``. ``degrees`` supplies them when the
    caller can count them faster than ``induced_degrees(g, p)``.
    """
    induced = None
    for name, bound in stages:
        if induced is None and name != "size":
            induced = induced_degrees(g, p) if degrees is None else degrees()
            stats.induced_degree_evals += 1
        if prune_test(c_size, len(p), ext_cp, bound(g, p, induced), params):
            return name
    return None
