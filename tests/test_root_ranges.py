"""How compare, enumerate and sweep cut the root children into chunks."""

import pytest

from isoclique import Graph
from isoclique.cli import _MAX_CHUNKS, _root_ranges

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def graphs(draw):
    """Graphs of up to 60 vertices, some with a hub joined to most others."""
    n = draw(st.integers(0, 60))
    if not n:
        return Graph.from_edges(0, [])
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=150))
    if draw(st.booleans()):
        hub = draw(ids)
        edges += [(hub, v) for v in range(n)]
    return Graph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(1, _MAX_CHUNKS))
def test_root_ranges_cover_the_ids_in_at_most_k_contiguous_ranges(g, k):
    ranges = _root_ranges(g, k)
    n = g.vertex_count
    assert 1 <= len(ranges) <= k
    assert all(r.step == 1 for r in ranges)
    if not n:
        # a vertexless graph's one range is empty, so its root still runs
        assert ranges == [range(0)]
        return
    assert all(len(r) for r in ranges)
    assert ranges[0].start == 0
    assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
    assert ranges[-1].stop == n
