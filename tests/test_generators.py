import gc
import hashlib
import random
import tracemalloc

import pytest
from graphutil import (
    canonical_edge_list,
    edges,
    reference_generate_ba,
    reference_generate_feature_model,
    validate,
)

from isoclique import (
    BAConfig,
    FeatureModelConfig,
    GeneratorConfigError,
    generate,
    parse_generator_spec,
)
from isoclique.generators import FAMILIES, canonical_spec, generate_ba, generate_feature_model


def ba_edge_count(n, m):
    # complete seed on m+1 vertices plus m attachments per later vertex
    return (m + 1) * m // 2 + m * (n - m - 1)


def is_connected(g):
    if g.vertex_count == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in g.adjacency[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.vertex_count


def rederive_feature_classes(cfg):
    # mirrors the documented draw order: vertex-major, feature-minor
    rng = random.Random(cfg.seed)
    classes = [[] for _ in range(cfg.m)]
    for v in range(cfg.n):
        for f in range(cfg.m):
            if rng.random() < cfg.p:
                classes[f].append(v)
    return classes


def test_ba_with_single_attachment_is_a_tree():
    g = generate_ba(BAConfig(n=5, m=1, seed=123))
    validate(g)
    assert g.vertex_count == 5
    assert g.edge_count == 4
    assert is_connected(g)


def test_ba_edge_counts_follow_construction():
    for n, m in [(2, 1), (5, 4), (10, 2), (50, 5), (200, 7), (333, 12)]:
        for seed in (0, 1):
            cfg = BAConfig(n=n, m=m, seed=seed)
            g = generate_ba(cfg)
            validate(g)
            assert g.vertex_count == n
            assert g.edge_count == ba_edge_count(n, m) == cfg.min_edges()


def test_ba_is_deterministic():
    cfg = BAConfig(n=120, m=4, seed=99)
    a = canonical_edge_list(generate_ba(cfg))
    b = canonical_edge_list(generate_ba(cfg))
    assert a == b
    different = canonical_edge_list(generate_ba(BAConfig(n=120, m=4, seed=100)))
    assert different != a


def test_ba_config_validation():
    with pytest.raises(GeneratorConfigError):
        BAConfig(n=5, m=0)
    with pytest.raises(GeneratorConfigError):
        BAConfig(n=5, m=5)
    with pytest.raises(GeneratorConfigError):
        BAConfig(n=5, m=2, seed=-1)


def test_feature_model_extremes():
    empty = generate_feature_model(FeatureModelConfig(n=10, m=3, p=0.0, seed=1))
    validate(empty)
    assert (empty.vertex_count, empty.edge_count) == (10, 0)

    full = generate_feature_model(FeatureModelConfig(n=7, m=3, p=1.0, seed=1))
    validate(full)
    assert full.edge_count == 7 * 6 // 2


def test_feature_classes_induce_cliques():
    cfg = FeatureModelConfig(n=200, m=25, p=0.1, seed=2024)
    g = generate_feature_model(cfg)
    validate(g)
    classes = rederive_feature_classes(cfg)
    class_edges = set()
    for members in classes:
        for i, u in enumerate(members):
            for w in members[i + 1 :]:
                assert w in g.adjacency[u], f"feature class pair {u}-{w} missing"
                class_edges.add((u, w))
    # and nothing else: every edge is explained by some shared feature
    assert class_edges == set(edges(g))


def test_feature_model_is_deterministic():
    cfg = FeatureModelConfig(n=80, m=10, p=0.2, seed=5)
    assert canonical_edge_list(generate_feature_model(cfg)) == canonical_edge_list(
        generate_feature_model(cfg)
    )


def test_feature_model_config_validation():
    with pytest.raises(GeneratorConfigError):
        FeatureModelConfig(n=10, m=0, p=0.5)
    with pytest.raises(GeneratorConfigError):
        FeatureModelConfig(n=10, m=3, p=1.5)
    with pytest.raises(GeneratorConfigError):
        FeatureModelConfig(n=-1, m=3, p=0.5)
    with pytest.raises(GeneratorConfigError):
        FeatureModelConfig(n=10, m=3, p=0.5, seed=-1)


@pytest.mark.parametrize("spec", ["ba:n=50,m=2,seed=-3", "gnmp:n=50,m=5,p=0.2,seed=-3"])
def test_negative_seed_is_refused(spec):
    # Random(-3) seeds exactly as Random(3) does: a negative seed would give
    # a positive seed's graph under a spec of its own
    with pytest.raises(GeneratorConfigError, match=r"^seed must be non-negative, got -3$"):
        parse_generator_spec(spec)
    assert parse_generator_spec(spec.replace("seed=-3", "seed=0")).seed == 0


def test_parse_generator_spec():
    cfg = parse_generator_spec("ba:n=100,m=5,seed=7")
    assert cfg == BAConfig(n=100, m=5, seed=7)
    cfg = parse_generator_spec("gnmp:n=50,m=10,p=0.1")
    assert cfg == FeatureModelConfig(n=50, m=10, p=0.1, seed=0)


def test_parse_generator_spec_errors():
    for bad in ("er:n=5", "ba", "ba:n=5", "ba:n=5,m=2,k=3", "ba:n=five,m=2", "gnmp:n=5,m=2"):
        with pytest.raises(GeneratorConfigError):
            parse_generator_spec(bad)
    # a field named twice, even with the same value, is refused by name
    for bad, key in (("ba:n=100,m=5,seed=1,seed=2", "seed"), ("gnmp:n=5,m=2,p=0.1,p=0.1", "p")):
        with pytest.raises(GeneratorConfigError, match=f"field '{key}' is repeated"):
            parse_generator_spec(bad)
    # the kind is the spec's prefix, not one of its fields
    with pytest.raises(GeneratorConfigError, match="bad field 'kind=ba'"):
        parse_generator_spec("ba:n=5,m=2,kind=ba")


def test_unknown_kind_names_every_family():
    with pytest.raises(GeneratorConfigError) as excinfo:
        parse_generator_spec("er:n=5,p=0.5")
    message = str(excinfo.value)
    assert message == "unknown generator spec 'er:n=5,p=0.5'; expected 'ba:...' or 'gnmp:...'"
    for kind in FAMILIES:
        assert f"'{kind}:...'" in message


@pytest.mark.parametrize(
    "spec, canonical",
    [
        ("ba:n=10,m=2,seed=3", "ba:n=10,m=2,seed=3"),
        ("ba: seed=3 , m=2,n=10", "ba:n=10,m=2,seed=3"),
        ("ba:n=10,m=2", "ba:n=10,m=2,seed=0"),
        ("gnmp:n=350,m=30,p=0.06,seed=12", "gnmp:n=350,m=30,p=0.06,seed=12"),
        ("gnmp:n=4,m=2,p=1", "gnmp:n=4,m=2,p=1.0,seed=0"),
        ("gnmp:seed=5,p=.25,m=2,n=4", "gnmp:n=4,m=2,p=0.25,seed=5"),
    ],
)
def test_canonical_spec_is_pinned(spec, canonical):
    # kind, then every field as name=repr(value) in field order, the seed too
    assert canonical_spec(parse_generator_spec(spec)) == canonical


def test_canonical_spec_reads_p_as_a_float():
    # a config built in Python with an int p is the one the spec parser builds
    built = FeatureModelConfig(n=4, m=2, p=1)
    assert built == parse_generator_spec("gnmp:n=4,m=2,p=1")
    assert type(built.p) is float
    assert canonical_spec(built) == "gnmp:n=4,m=2,p=1.0,seed=0"
    assert canonical_spec(FeatureModelConfig(n=4, m=2, p=0)) == "gnmp:n=4,m=2,p=0.0,seed=0"


def test_canonical_spec_round_trips():
    for spec in ("ba:n=10,m=2,seed=3", "gnmp:n=9,m=4,p=0.25,seed=1"):
        cfg = parse_generator_spec(spec)
        assert parse_generator_spec(canonical_spec(cfg)) == cfg


def physical_memory(monkeypatch, size):
    """Make the generators see ``size`` bytes of physical memory, in pages of 8 bytes."""
    pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": size // 8}
    monkeypatch.setattr("isoclique.generators.os.sysconf", pages.__getitem__)


def test_graphs_that_cannot_fit_are_refused_before_drawing(monkeypatch):
    # 8 bytes per vertex and 16 per edge: 8 * (300 + 2 * 2072) for this BA
    # config; 8 * 50 for the feature model, which may draw no edge
    ba, gnmp = BAConfig(n=300, m=7, seed=1), FeatureModelConfig(n=50, m=5, p=1.0, seed=1)
    physical_memory(monkeypatch, 8 * (300 + 2 * 2072))
    assert generate(ba).edge_count == 2072
    physical_memory(monkeypatch, 8 * (300 + 2 * 2072) - 8)
    with pytest.raises(GeneratorConfigError, match=r"^generator spec 'ba:n=300,m=7,seed=1' needs at least"):
        generate(ba)
    physical_memory(monkeypatch, 8 * 50)
    assert generate(gnmp).edge_count == 50 * 49 // 2
    physical_memory(monkeypatch, 8 * 50 - 8)
    with pytest.raises(GeneratorConfigError):
        generate(gnmp)


def test_fit_check_is_skipped_without_sysconf(monkeypatch):
    monkeypatch.delattr("isoclique.generators.os.sysconf", raising=False)
    assert generate(BAConfig(n=6, m=2, seed=0)).vertex_count == 6


def test_generate_dispatch():
    assert generate(BAConfig(n=6, m=2, seed=0)).vertex_count == 6
    assert generate(FeatureModelConfig(n=6, m=2, p=0.5, seed=0)).vertex_count == 6
    with pytest.raises(TypeError):
        generate("ba:n=6,m=2")


@pytest.mark.parametrize(
    "spec, digest",
    [
        (
            "gnmp:n=350,m=30,p=0.06,seed=1",
            "744d2d7d976c0432955dbf219fae8c4e0cf65d9c7a1c84ca3b9431a7c698f30d",
        ),
        (
            "ba:n=3000,m=4,seed=1",
            "a86f09168a97b49f6934df2c40be3f2da290c36f7948070d8fe7b69652b1dfba",
        ),
        # the benchmark's graphs
        (
            "ba:n=6000,m=8,seed=1",
            "06dc2df1343a3132afb46a1fcc8820bc60525c995f6da21dc78b3b11f4f547f7",
        ),
        (
            "gnmp:n=350,m=30,p=0.06,seed=12",
            "f6d2326dd7e5515c9b44401166feec6b5c2bb3e65a931ec6412a1339821cc670",
        ),
    ],
)
def test_generated_bytes_are_pinned(spec, digest):
    # sha256 of the canonical edge list: the first two recorded when the
    # generator still collected an edge list and deduplicated it, the last two
    # when BA still drew through randrange and the writer wrote one f-string
    # per edge
    text = canonical_edge_list(generate(parse_generator_spec(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


BA_GRID = [(2, 1), (3, 1), (40, 1), (1500, 1), (5, 4), (40, 39), (300, 7), (1500, 12)]
GNMP_GRID = [(0, 3, 0.5), (1, 4, 1.0), (50, 5, 0.0), (30, 4, 1.0), (200, 12, 0.2), (600, 10, 0.2)]


@pytest.mark.parametrize(
    "spec",
    # BA: m = 1, n = m + 1 (that is, m = n - 1) and larger graphs up to n = 1500;
    # gnmp: no vertices, one vertex, p = 0, p = 1 and p = 0.2
    [f"ba:n={n},m={m},seed={seed}" for n, m in BA_GRID for seed in (0, 1, 7)]
    + [f"gnmp:n={n},m={m},p={p},seed={seed}" for n, m, p in GNMP_GRID for seed in (0, 1, 7)],
)
def test_generators_match_edge_list_references(spec):
    cfg = parse_generator_spec(spec)
    if isinstance(cfg, BAConfig):
        reference = reference_generate_ba(cfg)
    else:
        reference = reference_generate_feature_model(cfg)
    g = generate(cfg)
    validate(g)
    assert (g.vertex_count, g.edge_count, g.adjacency) == (
        reference.vertex_count,
        reference.edge_count,
        reference.adjacency,
    )
    assert canonical_edge_list(g) == canonical_edge_list(reference)


@pytest.mark.parametrize(
    "spec",
    [
        "ba:n=3000,m=4,seed=1",
        "ba:n=2000,m=1,seed=2",
        "ba:n=1500,m=12,seed=3",
        "gnmp:n=350,m=30,p=0.06,seed=1",
        "gnmp:n=600,m=10,p=0.2,seed=4",
    ],
)
def test_generate_peaks_near_the_graph_it_returns(spec):
    # the generators fill the rows they return, with no edge list beside them;
    # on CPython 3.11 the edge-list references peak at 3.1 to 6.3 times the
    # graph they return on every spec here but ba:n=2000,m=1
    cfg = parse_generator_spec(spec)
    gc.collect()  # a full collection empties the free lists, which tracemalloc cannot see
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        g = generate(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert g.vertex_count == cfg.n
    assert peak - before <= 2.5 * (held - before), (peak - before) / (held - before)
