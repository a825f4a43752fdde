"""Isolation math and the pruning rules that discard search subtrees.

A vertex set of size k is isolated at factor ell when strictly fewer
than ell * k edges leave it. At a search node, any clique the subtree
can still report is the current clique C extended by some clique of the
subgraph induced by the candidate set P. Adding s candidates to C
removes at most len(C)·s edges from C's cut, the edges with exactly one
end in C, so an upper bound on how large a clique P can supply turns
into a lower bound on the external edges of anything grown here. When
that lower bound already breaks the isolation budget, the whole subtree
is sterile and can be skipped without losing any qualifying clique. The
budget comes down to one integer per node, the threshold
t = (cut - ell·len(C)) // (ell + len(C)) that the search computes and
hands to evaluate_strategy: the subtree is sterile exactly when the
clique bound is at most t.

Four bounds are available, cheapest and loosest first, with their tests:
the candidate count (a popcount), the maximum induced degree plus one (a
max), the softcore count, the largest k with at least k candidates of
induced degree >= k-1 (one pass counting the degrees >= t), and the
peeling bound, degeneracy plus one (a peel at level t alone). Strategies
chain them; the shipped "combo" tries the free size test before falling
back to softcore.

Below the root every node keeps its sets as bitsets over a root child's
neighbourhood (see isoclique.enumeration), so each test reads the same
four things: the candidate bitset, its bits decoded in ascending order,
the candidates' induced degrees as popcounts in that order, and the
local adjacency rows.
"""

from __future__ import annotations

from typing import Callable, Sequence

# The bounds read popcounts, not induced_degrees. perfbench's tracer hooks it
# under this module, so it stays importable here and its graph.induced_degrees
# span reads zero calls until the benchmark drops that hook.
from .graph import induced_degrees  # noqa: F401


def _fits_size(
    p: int, bits: Sequence[int] | None, counts: Sequence[int] | None, masks: Sequence[int], t: int
) -> bool:
    """Candidate count <= t: the weakest clique-size bound, free to evaluate."""
    return p.bit_count() <= t


def _fits_degree(
    p: int, bits: Sequence[int], counts: Sequence[int], masks: Sequence[int], t: int
) -> bool:
    """Maximum degree inside the candidate subgraph, plus one, <= t."""
    return max(counts) < t


def _fits_softcore(
    p: int, bits: Sequence[int], counts: Sequence[int], masks: Sequence[int], t: int
) -> bool:
    """Softcore number <= t: the largest k with at least k candidates of degree
    >= k-1 exceeds t exactly when more than t have degree >= t."""
    above = 0
    for d in counts:
        if d >= t:
            above += 1
            if above > t:
                return False
    return True


def _fits_degeneracy(
    p: int, bits: Sequence[int], counts: Sequence[int], masks: Sequence[int], t: int
) -> bool:
    """Degeneracy plus one <= t, that is, the candidates' t-core is empty. Each
    round drops every candidate with fewer than t neighbours left; a round
    that drops nothing leaves a non-empty t-core."""
    live = bits
    degs = counts
    while True:
        keep = []
        for i, d in zip(live, degs):
            if d < t:
                p ^= 1 << i
            else:
                keep.append(i)
        if not keep:
            return True
        if len(keep) == len(live):
            return False
        live = keep
        degs = [(masks[i] & p).bit_count() for i in live]


#: A stage's test (p, bits, counts, masks, t): is its bound on the clique
#: number of P at most t? ``bits`` are P's set bits, ascending, and ``counts``
#: their induced degrees in that order; ``size`` is called before either is
#: made, with ``None`` for both.
Fits = Callable[[int, Sequence[int] | None, Sequence[int] | None, Sequence[int], int], bool]
#: A chain of named tests, tried in order; the first that fits prunes.
Stages = Sequence[tuple[str, Fits]]

_SIZE = ("size", _fits_size)
_SOFTCORE = ("softcore", _fits_softcore)

STRATEGIES: dict[str, Stages] = {
    "none": (),
    "size": (_SIZE,),
    "degree": (("degree", _fits_degree),),
    "softcore": (_SOFTCORE,),
    "degeneracy": (("degeneracy", _fits_degeneracy),),
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
    p: int,
    masks: Sequence[int],
    t: int,
    stats,
    degrees: Callable[[], tuple[Sequence[int], Sequence[int]]],
) -> str | None:
    """Name of the first stage whose bound on the clique number of the
    non-empty candidates ``p`` is at most ``t``, or None.

    ``t`` is the node's isolation threshold, computed by the search (see
    _search_subproblem in isoclique.enumeration), which asks only when
    t >= 1: no bound is below 1. ``size`` reads only ``p``; other stages
    read ``degrees()``, P's bits in ascending order and their induced
    degrees in that order, called at most once and counted in
    ``stats.induced_degree_evals``.
    """
    bits = counts = None
    for name, fits in stages:
        if counts is None and name != "size":
            bits, counts = degrees()
            stats.induced_degree_evals += 1
        if fits(p, bits, counts, masks, t):
            return name
    return None
