"""Seeded synthetic graphs for benchmarking.

Two models: preferential attachment (each new vertex wires to ``m``
existing ones, biased by degree) and a shared-feature model (each vertex
holds each of ``m`` features with probability ``p`` and every feature
class becomes a clique). Draws come from ``random.Random(seed)``
(Mersenne Twister) in the documented order, so a config reproduces the
same graph byte for byte within this implementation. Seeds are
non-negative, since ``Random(-s)`` seeds exactly as ``Random(s)`` does.
Both models fill the graph's neighbour rows as they draw, with no edge
list, and hand them to the graph's finishing step, which turns the rows
into sorted tuples in place.

A family is one config dataclass, one generator and one ``FAMILIES`` entry;
specs are parsed and written from the dataclass's fields, in field order.
"""

import os
import random
from dataclasses import MISSING, dataclass, fields

from .graph import Graph


class GeneratorConfigError(ValueError):
    """A generator config or spec string is invalid."""


@dataclass(frozen=True)
class BAConfig:
    """Preferential attachment: n total vertices, m edges per new vertex."""

    n: int
    m: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1 or self.m >= self.n:
            raise GeneratorConfigError(
                f"preferential attachment needs 1 <= m < n, got n={self.n}, m={self.m}"
            )
        if self.seed < 0:
            raise GeneratorConfigError(f"seed must be non-negative, got {self.seed}")

    def min_edges(self) -> int:
        """Every graph's edge count: the seed clique's, then m per later vertex."""
        return self.m * self.n - self.m * (self.m + 1) // 2


@dataclass(frozen=True)
class FeatureModelConfig:
    """Feature model: n vertices, m features, per-feature probability p."""

    n: int
    m: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        # p=1 and p=1.0 are one config, and its spec spells p as a float
        object.__setattr__(self, "p", float(self.p))
        if self.n < 0:
            raise GeneratorConfigError(f"vertex count must be non-negative, got {self.n}")
        if self.m < 1:
            raise GeneratorConfigError(f"feature count must be >= 1, got {self.m}")
        if not 0.0 <= self.p <= 1.0:
            raise GeneratorConfigError(f"feature probability must be in [0, 1], got {self.p}")
        if self.seed < 0:
            raise GeneratorConfigError(f"seed must be non-negative, got {self.seed}")

    def min_edges(self) -> int:
        return 0  # no vertex need draw a feature


def generate_ba(cfg: BAConfig) -> Graph:
    """Grow a preferential-attachment graph.

    Starts from a complete seed on m+1 vertices, so every later vertex
    can always find m distinct targets. Each of vertices m+1 .. n-1 draws
    targets uniformly from a pool holding every existing vertex once per
    incident edge (Batagelj and Brandes's repeated-endpoint list);
    duplicate draws within one vertex's round are retried. A draw is made
    as ``randrange`` makes it, from ``getrandbits``: the pool's bit length
    in bits, drawn again until it falls below the pool's size, the same
    numbers CPython's ``Random.randrange(len(pool))`` returns, without its
    two frames per draw. The pool grows only between rounds.
    Each round fills the rows as it draws: v's row gets its targets in
    ascending order and each target's row gets v, with no edge list, so
    every row reaches the finishing step sorted and distinct.
    """
    rng = random.Random(cfg.seed)
    getrandbits = rng.getrandbits
    n, m = cfg.n, cfg.m
    pool: list[int] = []  # one entry per edge endpoint: degree-weighted sampling
    seed_size = m + 1
    try:
        rows: list[list[int]] = [[u for u in range(seed_size) if u != v] for v in range(seed_size)]
        for u in range(seed_size):
            pool.extend([u] * m)
        for v in range(seed_size, n):
            size = len(pool)
            k = size.bit_length()
            targets: set[int] = set()
            while len(targets) < m:
                r = getrandbits(k)
                while r >= size:
                    r = getrandbits(k)
                targets.add(pool[r])
            ordered = sorted(targets)
            for t in ordered:
                rows[t].append(v)
            rows.append(ordered)
            pool += ordered
            pool.extend([v] * m)
    except MemoryError:
        # drop the lists first: unwinding needs memory for each traceback entry
        rows = pool = None
        raise
    del pool
    return Graph._from_rows(rows, None)


def generate_feature_model(cfg: FeatureModelConfig) -> Graph:
    """Draw the feature matrix and union the per-feature cliques.

    Features are independent Bernoulli(p) trials, drawn vertex by vertex
    and feature by feature in index order. Each class member's row is
    extended with the class's other members, with no edge list; a pair
    sharing several features repeats, and the finishing step keeps it once.
    """
    rng = random.Random(cfg.seed)
    try:
        classes: list[list[int]] = [[] for _ in range(cfg.m)]
        for v in range(cfg.n):
            for f in range(cfg.m):
                if rng.random() < cfg.p:
                    classes[f].append(v)
        rows: list[list[int]] = [[] for _ in range(cfg.n)]
        for members in classes:
            for i, u in enumerate(members):
                row = rows[u]
                row += members[:i]
                row += members[i + 1 :]
    except MemoryError:
        classes = rows = None  # as in generate_ba
        raise
    return Graph._from_rows(rows, None)


FAMILIES = {
    "ba": (BAConfig, generate_ba),
    "gnmp": (FeatureModelConfig, generate_feature_model),
}


def _kind(cfg) -> str:
    for kind, (config, _) in FAMILIES.items():
        if isinstance(cfg, config):
            return kind
    raise TypeError(f"unsupported generator config {type(cfg).__name__}")


def generate(cfg) -> Graph:
    """The graph of ``cfg``, a config of one of the ``FAMILIES``. A config
    whose rows cannot fit in physical memory, at one 8-byte pointer per
    vertex and two per edge, is refused before any drawing; the check is
    skipped where os.sysconf cannot tell the memory size."""
    generator = FAMILIES[_kind(cfg)][1]
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = 0
    need = 8 * (cfg.n + 2 * cfg.min_edges())
    if 0 < memory < need:
        raise GeneratorConfigError(
            f"generator spec {canonical_spec(cfg)!r} needs at least {need / 2**30:.1f} GiB, "
            f"more than the {memory / 2**30:.1f} GiB of memory on this machine"
        )
    return generator(cfg)


def parse_generator_spec(spec: str):
    """Parse a spec like ``gnmp:n=50,m=10,p=0.1``: a kind of ``FAMILIES``, then
    its config's fields, each at most once; fields with a default may be left out."""
    kind, sep, body = spec.partition(":")
    kind = kind.strip()
    if not sep or kind not in FAMILIES:
        expected = " or ".join(f"'{name}:...'" for name in FAMILIES)
        raise GeneratorConfigError(f"unknown generator spec {spec!r}; expected {expected}")
    config = FAMILIES[kind][0]
    types = {f.name: f.type for f in fields(config)}
    values: dict[str, object] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or key not in types:
            raise GeneratorConfigError(f"bad field {item!r} in generator spec {spec!r}")
        if key in values:
            raise GeneratorConfigError(f"field {key!r} is repeated in generator spec {spec!r}")
        try:
            values[key] = types[key](raw.strip())
        except ValueError:
            raise GeneratorConfigError(
                f"field {key!r} in generator spec {spec!r} is not a valid {types[key].__name__}"
            ) from None
    missing = [f.name for f in fields(config) if f.default is MISSING and f.name not in values]
    if missing:
        raise GeneratorConfigError(f"generator spec {spec!r} is missing {', '.join(missing)}")
    return config(**values)


def canonical_spec(cfg) -> str:
    """Normalized spec string for a config, every field in field order;
    stable across runs."""
    kind = _kind(cfg)
    return kind + ":" + ",".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
