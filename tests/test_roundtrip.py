"""Write-and-reload round trip of the canonical edge-list writer."""

import io

import pytest

from isoclique import write_edge_list
from graphutil import canonical_edge_list, graph_from_edges, load

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# tokens the loader can read as one label: non-empty, no whitespace
tokens = st.text(min_size=1, max_size=4).filter(lambda t: t.split() == [t])
edge_lists = st.lists(st.tuples(tokens, tokens), max_size=25)


def reload(g):
    return load(io.StringIO(canonical_edge_list(g)))


@settings(max_examples=300, deadline=None)
@given(edge_lists)
def test_every_loaded_graph_reloads_identically_or_is_refused(pairs):
    g = load(io.StringIO("".join(f"{a} {b}\n" for a, b in pairs)))
    if any(label[0] in "#%" for label in g.labels):
        with pytest.raises(ValueError, match="comment marker"):
            canonical_edge_list(g)
    else:
        assert reload(g) == g


def test_label_after_a_comment_marker_is_refused():
    # '#c' is a label mid-line but its own declaration line would be a comment
    g = load(io.StringIO("x #c\ny z\n"))
    assert g.labels == ("x", "#c", "y", "z")
    with pytest.raises(ValueError, match="comment marker"):
        canonical_edge_list(g)


def test_isolated_percent_label_is_refused():
    g = graph_from_edges(2, [], labels=["q", "%p"])
    with pytest.raises(ValueError, match="comment marker"):
        canonical_edge_list(g)


@pytest.mark.parametrize(
    "labels, message",
    [(["a", "b c"], "whitespace"), (["a", ""], "empty"), (["a", "a"], "repeat")],
)
def test_labels_that_would_not_reload_are_refused(labels, message):
    g = graph_from_edges(2, [(0, 1)], labels=labels)
    with pytest.raises(ValueError, match=message):
        canonical_edge_list(g)


def test_refused_graph_writes_nothing():
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_edge_list(graph_from_edges(1, [], labels=["#x"]), buf)
    assert buf.getvalue() == ""
