"""The benchmark's workloads, and how to read and check each command's output.

Each workload generates one graph from its seed and runs one real CLI
command on the written file. The output parsers only read what the CLI
prints; the checks compare it with ``reference.Reference``.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str  # generator spec without its seed
    command: tuple[str, ...]  # CLI subcommand and options, without --graph/--out
    graphs: int  # independent graphs drawn per benchmark seed

    def graph_specs(self, seed: int) -> list[str]:
        """Generator specs of the graphs benchmark seed ``seed`` draws; no two
        benchmark seeds share a graph."""
        return [f"{self.spec},seed={seed * self.graphs + i}" for i in range(self.graphs)]

    def argv(self, graph, out) -> list[str]:
        return [*self.command, "--graph", str(graph), "--out", str(out)]

    def option(self, flag: str) -> str:
        return self.command[self.command.index(flag) + 1]


# Each workload stresses different layers; see README.md for the shares.
WORKLOADS = {
    w.name: w
    for w in (
        # Sparse: the O(n^2) root merge in intersect_with_neighbors does most
        # of the work, pruning rarely fires, every isolated clique reaches the
        # output sink.
        Workload("ba-enumerate", "ba:n=6000,m=8", ("enumerate", "--ell", "50", "--strategy", "combo"), 1),
        # Overlapping dense communities of about 21 vertices, each vertex in
        # about two: pivot selection, induced degrees and all six bounds
        # dominate, the root is cheap, few cliques are isolated. One such
        # graph's cost swings by a third between seeds, so each seed draws
        # twelve small ones and the run time is their mean.
        Workload("gnmp-compare", "gnmp:n=350,m=30,p=0.06", ("compare", "--ell", "50"), 12),
        # Stand-in for the brightkite sweep: five engine calls on one loaded
        # graph, no sink, pruning from most nodes at ell 1 to none at ell 250.
        Workload("ba-sweep", "ba:n=3000,m=4", ("sweep", "--ells", "1,10,50,250"), 1),
    )
}


@dataclass
class Pass:
    """One engine call as the CLI reports it."""

    strategy: str  # "all" for the plain maximal-clique pass
    ell: int | None
    nodes: int | None
    emitted: int
    filtered_at_leaf: int | None = None
    elapsed_s: float | None = None

    @property
    def label(self) -> str:
        return "all" if self.ell is None else f"{self.strategy}.ell{self.ell}"


@dataclass
class Output:
    """What one CLI invocation printed."""

    passes: list[Pass]
    cliques: list[tuple[str, ...]] = field(default_factory=list)

    def counters(self) -> dict[str, int]:
        """Deterministic counts the output prints, keyed for the pins."""
        found = {}
        for p in self.passes:
            for key in ("nodes", "emitted", "filtered_at_leaf"):
                value = getattr(p, key)
                if value is not None:
                    found[f"{key}.{p.label}"] = value
        return found


def _fields(line: str, prefix: str) -> dict[str, str]:
    if not line.startswith(prefix):
        raise ValueError(f"expected a line starting with {prefix!r}, got {line[:80]!r}")
    return dict(re.findall(r"(\w+)=(\S+)", line))


def parse_output(workload: Workload, text: str) -> Output:
    """Read a CLI output file; raises ValueError when it is malformed."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    command = workload.command[0]
    if command == "enumerate":
        stats = _fields(lines[-1], "# recursive_calls=")
        cliques = [tuple(line.split()) for line in lines[:-1]]
        p = Pass(
            workload.option("--strategy"),
            int(workload.option("--ell")),
            int(stats["recursive_calls"]),
            int(stats["emitted"]),
            int(stats["filtered_at_leaf"]),
            float(stats["elapsed_ms"]) / 1000.0,
        )
        return Output([p], cliques)
    if command == "sweep":
        head = _fields(lines[0], "# graph=")
        rows = list(csv.DictReader(lines[1:]))
        passes = [Pass("all", None, None, int(head["total_maximal"]))]
        for row in rows:
            passes.append(
                Pass(
                    head["strategy"],
                    int(row["ell"]),
                    int(row["recursive_calls"]),
                    int(row["isolated_count"]),
                    elapsed_s=float(row["elapsed_ms"]) / 1000.0,
                )
            )
        return Output(passes)
    if command == "compare":
        head = _fields(lines[0], "# graph=")
        if lines[1].split()[0] != "strategy":
            raise ValueError(f"expected the compare table header, got {lines[1][:80]!r}")
        passes = []
        for line in lines[2:]:
            name, calls, _, elapsed_ms, _, emitted = line.split()
            passes.append(
                Pass(name, int(head["ell"]), int(calls), int(emitted), elapsed_s=float(elapsed_ms) / 1000.0)
            )
        return Output(passes)
    raise ValueError(f"no parser for command {command!r}")


def check_output(workload: Workload, output: Output, ref) -> list[str]:
    """Differences between a parsed output and the reference; empty when correct."""
    problems = []
    command = workload.command[0]
    if command == "enumerate":
        expected_passes = 1
    elif command == "sweep":
        expected_passes = 1 + len(workload.option("--ells").split(","))
    else:
        expected_passes = 6  # compare runs every strategy by default
    if len(output.passes) != expected_passes:
        problems.append(f"{len(output.passes)} passes reported, expected {expected_passes}")
    if command == "enumerate":
        (p,) = output.passes[:1]
        got = {frozenset(c) for c in output.cliques}
        if len(got) != len(output.cliques):
            problems.append("a clique is reported twice")
        expected = ref.isolated(p.ell)
        if got != expected:
            problems.append(
                f"clique sets differ: {len(got - expected)} unexpected, {len(expected - got)} missing"
            )
        if p.emitted != len(output.cliques):
            problems.append(f"stats line says emitted={p.emitted} but {len(output.cliques)} cliques are listed")
        return problems
    for p in output.passes:
        expected = ref.total_maximal if p.ell is None else ref.isolated_count(p.ell)
        if p.emitted != expected:
            problems.append(f"{p.label}: {p.emitted} cliques reported, reference has {expected}")
    return problems
