"""Per-layer spans and counters for isoclique, installed from outside the package.

The tracer replaces module attributes with timing wrappers at the names
the callers look up (``isoclique.enumeration.intersect_with_neighbors``,
not ``isoclique.graph.intersect_with_neighbors``), keeps a span stack so a span's self
time excludes its children, aggregates per span name in memory, and
puts every original back on ``uninstall``. A hook whose target no
longer exists is recorded as missing; the metrics built on it read
``None`` instead of zero.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# Span name -> (module, attribute) the callers look the function up under.
SPAN_HOOKS = {
    "generators.generate": ("isoclique.cli", "generate"),
    "graph.write": ("isoclique.cli", "write_edge_list"),
    "graph.load": ("isoclique.cli", "load_edge_list_report"),
    "enumeration": ("isoclique.cli", "enumerate_isolated"),
    "enumeration.all": ("isoclique.cli", "enumerate_all_maximal"),
    "graph.intersect": ("isoclique.enumeration", "intersect_with_neighbors"),
    "enumeration.pivot": ("isoclique.enumeration", "select_pivot"),
    "pruning": ("isoclique.enumeration", "evaluate_strategy"),
    "graph.induced_degrees": ("isoclique.pruning", "induced_degrees"),
}
# Counted without a span: one construction per visited search node.
NODE_HOOK = ("isoclique.enumeration", "SearchNode")


class Span:
    """Aggregate of every call made under one span name."""

    __slots__ = ("calls", "total", "child", "scanned", "produced")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0  # seconds inside the wrapped call
        self.child = 0.0  # seconds of that spent in child spans
        self.scanned = 0  # input items the call had to look at
        self.produced = 0  # output items it returned

    @property
    def self_s(self) -> float:
        return self.total - self.child


def _degree_sum(g, vertices) -> int:
    adjacency = g.adjacency
    return sum(len(adjacency[v]) for v in vertices)


class Tracer:
    """Wraps isoclique's layer boundaries; use as a context manager.

    ``passes`` lists one ``(strategy, ell, RunStats)`` per engine call,
    with strategy ``"all"`` and ell ``None`` for ``enumerate_all_maximal``.
    The wrappers' own bookkeeping is charged to no span.
    """

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.missing: set[str] = set()
        self.fired: dict[str, int] = {}
        self.nodes = 0
        self.passes: list[tuple[str, int | None, object]] = []
        self._stack = [[0.0]]  # child-time accumulator per open span
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        builders = {
            "generators.generate": self._timed,
            "graph.write": self._timed,
            "graph.load": self._timed,
            "enumeration": self._engine,
            "enumeration.all": self._engine,
            "graph.intersect": self._intersect,
            "enumeration.pivot": self._pivot,
            "pruning": self._pruning,
            "graph.induced_degrees": self._induced,
        }
        for name, (module_name, attr) in SPAN_HOOKS.items():
            original = self._lookup(name, module_name, attr)
            if original is not None:
                self._replace(module_name, attr, original, builders[name](name, original))
        original = self._lookup("enumeration.node", *NODE_HOOK)
        if original is not None:
            self._replace(*NODE_HOOK, original, self._node_counter(original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under span ``name``; used for the outermost CLI span."""
        return self._timed(name, fn)(*args, **kwargs)

    # -- installation helpers -------------------------------------------------

    def _lookup(self, name: str, module_name: str, attr: str):
        try:
            return getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return None

    def _replace(self, module_name: str, attr: str, original, wrapper) -> None:
        module = importlib.import_module(module_name)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn, scan=None, after=None):
        """Wrapper that times ``fn`` as span ``name``.

        ``scan(args)`` adds to the span's scanned count before the call and
        ``after(span, args, result)`` runs after it; both are outside the
        span's own time, and the parent's child time covers them, so they
        land in no span's self time.
        """
        span = self.span(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if scan is not None:
                span.scanned += scan(args)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                span.calls += 1
                span.total += elapsed
                span.child += frame[0]
            if after is not None:
                after(span, args, result)
            stack[-1][0] += perf_counter() - entered
            return result

        return wrapper

    def _intersect(self, name, fn):
        # intersect_with_neighbors(g, s, v): a merge over s and N(v)
        def scan(args):
            g, s, v = args
            return len(s) + len(g.adjacency[v])

        def after(span, args, result):
            span.produced += len(result)

        return self._timed(name, fn, scan, after)

    def _pivot(self, name, fn):
        # select_pivot(g, p, x) reads the adjacency of every vertex of P and X
        def scan(args):
            g, p, x = args
            return _degree_sum(g, p) + _degree_sum(g, x)

        return self._timed(name, fn, scan)

    def _induced(self, name, fn):
        def scan(args):
            g, p = args
            return _degree_sum(g, p)

        return self._timed(name, fn, scan)

    def _pruning(self, name, fn):
        fired = self.fired

        def after(span, args, result):
            if result is not None:
                span.produced += 1
                fired[result] = fired.get(result, 0) + 1

        return self._timed(name, fn, after=after)

    def _engine(self, name, fn):
        # enumerate_isolated(g, ell, strategy, sink=None, *, debug=False) or
        # enumerate_all_maximal(g, sink=None, *, debug=False)
        sink_index = 3 if name == "enumeration" else 1
        passes = self.passes

        def traced(*args, **kwargs):
            args = list(args)
            if len(args) > sink_index and args[sink_index] is not None:
                args[sink_index] = self._timed("cli.output", args[sink_index])
            elif kwargs.get("sink") is not None:
                kwargs["sink"] = self._timed("cli.output", kwargs["sink"])
            return fn(*args, **kwargs)

        def after(span, args, stats):
            if name == "enumeration":
                strategy = args[2] if isinstance(args[2], str) else args[2].name
                passes.append((strategy, args[1], stats))
            else:
                passes.append(("all", None, stats))

        return self._timed(name, traced, after=after)

    def _node_counter(self, cls):
        def counted(*args, **kwargs):
            self.nodes += 1
            return cls(*args, **kwargs)

        return counted
