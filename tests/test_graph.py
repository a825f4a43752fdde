import hashlib
import io
import random

import pytest

from isoclique import (
    EdgeListParseError,
    Graph,
    generate,
    load_edge_list_report,
    parse_generator_spec,
)
from isoclique.graph import _FINISH_BATCH, induced_degrees, intersect_with_neighbors
from graphutil import (
    canonical_edge_list,
    edges,
    erdos_renyi,
    graph_from_edges,
    load,
    path_graph,
    reference_load,
    star_graph,
    triangle,
    validate,
)


def test_load_triangle():
    g = load(io.StringIO("1 2\n2 3\n3 1\n"))
    validate(g)
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert g.labels == ("1", "2", "3")


def test_load_drops_duplicates_and_self_loops():
    report = load_edge_list_report(io.StringIO("a b\nb a\na a\n"))
    g = report.graph
    validate(g)
    assert (g.vertex_count, g.edge_count) == (2, 1)
    assert report.self_loops_dropped == 1
    assert report.duplicate_edges_dropped == 1
    # every repeat counts, in either orientation; "x x" only declares x
    report = load_edge_list_report(io.StringIO("x x\nx y\ny x\nx y\ny z\nz y\nz z\n"))
    assert report.graph.edge_count == 2
    assert (report.self_loops_dropped, report.duplicate_edges_dropped) == (1, 3)


def test_self_loop_on_new_label_declares_a_vertex():
    report = load_edge_list_report(io.StringIO("x x\na b\n"))
    g = report.graph
    assert g.vertex_count == 3
    assert g.labels == ("x", "a", "b")
    assert len(g.adjacency[0]) == 0
    # a declaration is not dirty input; a repeat loop on a known vertex is
    assert report.self_loops_dropped == 0
    assert load_edge_list_report(io.StringIO("x x\nx x\n")).self_loops_dropped == 1


def test_load_comments_blanks_and_extra_tokens():
    text = "% konect header\n# another comment\n\na b 17 99\nb c 3\n"
    g = load(io.StringIO(text))
    assert (g.vertex_count, g.edge_count) == (3, 2)
    assert g.labels == ("a", "b", "c")


def test_load_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError, match="line 3"):
        load(io.StringIO("a b\nb c\nd\n"))


def test_load_empty_input_is_empty_graph():
    g = load(io.StringIO(""))
    assert g.vertex_count == 0
    assert g.edge_count == 0


def test_labels_keep_first_seen_order():
    g = load(io.StringIO("z y\nx z\n"))
    assert g.labels == ("z", "y", "x")
    # numeric labels are not assumed contiguous or ordered
    g2 = load(io.StringIO("10 7\n7 400\n"))
    assert g2.labels == ("10", "7", "400")


def test_degree_examples():
    assert all(len(triangle().adjacency[v]) == 2 for v in range(3))
    star = star_graph(4)
    assert len(star.adjacency[0]) == 4
    assert all(len(star.adjacency[v]) == 1 for v in range(1, 5))


def test_degree_counts_match_edge_recount():
    rng = random.Random(7)
    g = erdos_renyi(10, 0.3, rng)
    for v in range(10):
        recount = sum(1 for u, w in edges(g) if v in (u, w))
        assert len(g.adjacency[v]) == recount


def random_row(rng: random.Random, shape: str) -> list[int]:
    """A neighbour row of one of the shapes that reach the finishing step."""
    values = rng.sample(range(200), rng.randint(1, 30))
    if shape == "sorted":
        return sorted(values)
    if shape == "shuffled":
        return values
    if shape == "repeats":
        row = values + rng.choices(values, k=rng.randint(1, 30))
        rng.shuffle(row)
        return row
    if shape == "empty":
        return []
    return [values[0]] * rng.randint(2, 6)  # one value repeated


ROW_SHAPES = ("sorted", "shuffled", "repeats", "empty", "one value")


def test_finishing_step_matches_sorted_set_reference():
    # the shapes in turn, in one call, up to more rows than one batch finishes
    rng = random.Random(31)
    for count in (0, 1, 7, _FINISH_BATCH, 2 * _FINISH_BATCH + 37):
        rows = [random_row(rng, ROW_SHAPES[i % len(ROW_SHAPES)]) for i in range(count)]
        expected = tuple(tuple(sorted(set(row))) for row in rows)
        g = Graph._from_rows(rows, None)
        assert g.adjacency == expected
        assert all(type(row) is tuple for row in g.adjacency)
        assert g.vertex_count == count
        assert g.edge_count == sum(map(len, expected)) // 2


LOADER_LABELS = ["a", "b", "c", "7", "10", "#c", "%p", "x_1"]


def random_edge_list(rng: random.Random) -> list[str]:
    """Lines of an edge list drawn over a few labels, so repeats in both
    orientations and loops on new and known labels are common: comments,
    blank and indented lines, trailing tokens, LF and CRLF endings, a last
    line without an ending, and now and then a line with one token."""
    lines = []
    for _ in range(rng.randint(0, 14)):
        kind = rng.random()
        if kind < 0.12:
            body = rng.choice(["# comment", "% konect 2 3", "   # indented", "\t%x y"])
        elif kind < 0.2:
            body = rng.choice(["", "  ", "\t"])
        elif kind < 0.23:
            body = rng.choice(LOADER_LABELS) + rng.choice(["", "  "])
        else:
            a = rng.choice(LOADER_LABELS)
            b = a if rng.random() < 0.15 else rng.choice(LOADER_LABELS)
            body = " ".join([a, b, *rng.sample(["3", "0.5", "w", "#"], rng.randint(0, 2))])
            body = rng.choice(["", " ", "\t"]) + body + rng.choice(["", " "])
        lines.append(body + rng.choice(["\n", "\r\n"]))
    if lines and rng.random() < 0.3:
        lines[-1] = lines[-1].rstrip("\r\n")
    return lines


def test_loader_matches_reference_parser():
    rng = random.Random(29)
    seen = {"refused": 0, "loops": 0, "duplicates": 0, "declared": 0}
    for _ in range(1500):
        lines = random_edge_list(rng)
        for source in (lines, io.StringIO("".join(lines))):
            try:
                expected = reference_load(lines)
            except EdgeListParseError as err:
                seen["refused"] += 1
                with pytest.raises(EdgeListParseError) as caught:
                    load_edge_list_report(source)
                assert str(caught.value) == str(err)
                continue
            report = load_edge_list_report(source)
            validate(report.graph)
            graph, loops, duplicates = expected
            assert report.graph == graph
            assert (report.self_loops_dropped, report.duplicate_edges_dropped) == (loops, duplicates)
            seen["loops"] += loops > 0
            seen["duplicates"] += duplicates > 0
            seen["declared"] += any(not nbrs for nbrs in graph.adjacency)
    assert all(seen.values()), seen


def test_intersect_with_neighbors_examples():
    g = graph_from_edges(4, [(1, 3), (2, 3), (0, 1), (0, 2), (1, 2)])
    assert intersect_with_neighbors(g, [0, 1, 2], 3) == [1, 2]
    assert intersect_with_neighbors(g, [], 3) == []


def test_intersect_with_neighbors_matches_membership_scan():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 14)
        g = erdos_renyi(n, 0.4, rng)
        s = sorted(rng.sample(range(n), rng.randint(0, n)))
        v = rng.randrange(n)
        got = intersect_with_neighbors(g, s, v)
        naive = [u for u in s if u in set(g.adjacency[v])]
        assert got == naive
        # result is a sorted subset of both inputs
        assert got == sorted(got)
        assert set(got) <= set(s)
        assert set(got) <= set(g.adjacency[v])


def test_induced_degrees_examples():
    g = triangle()
    assert induced_degrees(g, [0, 1, 2]) == {0: 2, 1: 2, 2: 2}
    chain = path_graph(3)
    assert induced_degrees(chain, [0, 2]) == {0: 0, 2: 0}


def test_induced_degrees_match_pair_scan():
    rng = random.Random(13)
    g = erdos_renyi(12, 0.4, rng)
    adjacency = {v: set(g.adjacency[v]) for v in range(12)}
    for _ in range(20):
        p = sorted(rng.sample(range(12), rng.randint(1, 12)))
        got = induced_degrees(g, p)
        for v in p:
            brute = sum(1 for u in p if u != v and u in adjacency[v])
            assert got[v] == brute


def test_round_trip_loaded_graph():
    text = "a b\nb c\nc a\na d\nx x\n"  # includes an isolated vertex
    g = load(io.StringIO(text))
    again = load(io.StringIO(canonical_edge_list(g)))
    assert again == g


def test_round_trip_random_graphs():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(0, 12)
        g = erdos_renyi(n, rng.random(), rng)
        loaded = load(io.StringIO(canonical_edge_list(g)))
        # structure survives; labels become the ids' decimal form
        assert loaded.vertex_count == g.vertex_count
        assert loaded.adjacency == g.adjacency
        assert load(io.StringIO(canonical_edge_list(loaded))) == loaded


def test_canonical_writer_layout():
    g = load(io.StringIO("a b\n"))
    text = canonical_edge_list(g, header_comments=["hello"])
    assert text.splitlines() == ["# hello", "# n=2", "# m=1", "a a", "b b", "a b"]
    lines = ["# a comment\n", "a x_1\n", "10 a\n", "ü 10\n", "x_1 ü\n", "a a\n", "ü a\n"]
    lines += ["solo solo\n", "x_1 10 3.5\n", "10 x_1\n"]
    text = canonical_edge_list(load(lines), ["labelled", "source: test"])
    assert text == (
        "# labelled\n# source: test\n# n=5\n# m=6\n"
        "a a\nx_1 x_1\n10 10\nü ü\nsolo solo\n"
        "a x_1\na 10\na ü\nx_1 10\nx_1 ü\n10 ü\n"
    )


def test_labelled_writer_bytes_are_pinned():
    # a generated graph's edges, both orientations, shuffled and relabelled,
    # loaded so ids follow first appearance; sha256 recorded when every edge
    # was written by its own f-string
    g = generate(parse_generator_spec("ba:n=500,m=5,seed=2"))
    names = [f"{('a', 'x_', '', 'ü')[v % 4]}{v}" for v in range(g.vertex_count)]
    pairs = [(names[u], names[v]) for u, nbrs in enumerate(g.adjacency) for v in nbrs]
    random.Random(5).shuffle(pairs)
    loaded = load([f"{a} {b}\n" for a, b in pairs])
    text = canonical_edge_list(loaded, ["labelled", "ba:n=500,m=5,seed=2"])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4a7869e53e5c06e7edc6bcb3f925a3950946a6124c81273d5e99be1ea6b7229c"
    )


def test_construction_paths_validate():
    rng = random.Random(19)
    for _ in range(10):
        validate(erdos_renyi(rng.randint(0, 10), rng.random(), rng))
    validate(load(io.StringIO("a b\nb c\n")))
