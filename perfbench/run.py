#!/usr/bin/env python3
"""End-to-end benchmark of the isoclique command line.

    python3 perfbench/run.py --workload ba-enumerate --seed 1 --seconds 30 --trace 0

Generates the workload's graphs from ``--seed`` with ``isoclique
generate``, runs the workload's CLI command on them in-process through
``isoclique.cli.main`` for ``--seconds`` seconds, checks every output
against a networkx reference that does not use the engine, and prints
the metrics as the last line of stdout, one JSON object. ``--trace 1``
also runs the command under ``tracer.Tracer`` and reports the per-layer
metrics instead of the end-to-end ones. Scratch files live in
``.bench_work/`` at the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import Reference, ReferenceUnavailable
from workloads import WORKLOADS, Output, Pass, check_output, parse_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = HERE / "pins.json"
SETUP_SECONDS = 2.0  # generate calls repeat this long, at least five times
CALIBRATION_ROUNDS = 160  # about 0.4 s of calibrate() on the VM of BASELINE.md

END_TO_END = {"run_per_calibration": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
STRATEGIES = ("none", "size", "degree", "softcore", "degeneracy", "combo")
ELLS = (1, 10, 50, 250)
PER_LAYER = {
    "generators.generate_s": "s",
    "graph.write_s": "s",
    "graph.load_s": "s",
    "graph.intersect.calls": "count",
    "graph.intersect.self_s": "s",
    "graph.intersect.scanned": "count",
    "graph.intersect.yield": "ratio",
    "enumeration.pivot.calls": "count",
    "enumeration.pivot.self_s": "s",
    "enumeration.pivot.scanned": "count",
    "graph.induced_degrees.calls": "count",
    "graph.induced_degrees.self_s": "s",
    "graph.induced_degrees.scanned": "count",
    "pruning.evaluations": "count",
    "pruning.self_s": "s",
    **{f"pruning.fired.{stage}": "count" for stage in ("size", "degree", "softcore", "degeneracy")},
    "pruning.yield": "ratio",
    "pruning.induced_degree_evals": "count",
    "enumeration.nodes": "count",
    "enumeration.emitted": "count",
    "enumeration.filtered_at_leaf": "count",
    "enumeration.leaf_yield": "ratio",
    "enumeration.solve_s": "s",
    "enumeration.nodes_per_s": "1/s",
    "enumeration.self_s": "s",
    **{f"enumeration.solve_s.{key}": "s" for key in (*STRATEGIES, *(f"ell{e}" for e in ELLS), "all")},
    **{f"enumeration.nodes.{key}": "count" for key in (*STRATEGIES, *(f"ell{e}" for e in ELLS), "all")},
    "cli.output.calls": "count",
    "cli.output.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Rep:
    """One measured CLI invocation."""

    graph: int
    seconds: float
    calibration: float  # mean of the calibrate() calls just before and after
    code: object  # exit status, or the text of the exception it raised
    out: Path
    tracer: object = None
    output: Output | None = None
    problems: list[str] = field(default_factory=list)


def import_cli():
    if not (SRC / "isoclique" / "cli.py").is_file():
        raise BenchmarkError(f"package sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from isoclique import cli

    return cli


def invoke(main, argv: list[str]) -> tuple[float, object]:
    """Run one CLI command in-process; returns its wall time and exit status."""
    start = perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    except Exception as exc:  # a crash is a failed invocation, not a benchmark error
        code = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, code


def set_up(cli, workload, seed: int, work: Path) -> tuple[list[Path], list[float]]:
    """Generate and write the workload's graphs, in turn, for SETUP_SECONDS;
    returns the files and the wall time of each ``isoclique generate`` call."""
    specs = workload.graph_specs(seed)
    graphs = [work / f"graph{i}.txt" for i in range(len(specs))]
    times: list[float] = []
    start = perf_counter()
    while len(times) < max(5, len(specs)) or perf_counter() - start < SETUP_SECONDS:
        i = len(times) % len(specs)
        seconds, code = invoke(cli.main, ["generate", "--gen", specs[i], "--out", str(graphs[i])])
        if code != 0:
            raise BenchmarkError(f"isoclique generate --gen {specs[i]} failed: {code}")
        times.append(seconds)
    return graphs, times


_MERGE_A = tuple(range(0, 60000, 2))
_MERGE_B = tuple(range(0, 60000, 3))


def calibrate() -> float:
    """Wall time of a fixed pure-Python sorted merge, the kind of loop the
    engine spends its time in.

    Timed before and after every rep, it measures how fast the host runs
    such code at that moment. On a shared host that speed can change by a
    factor of two within minutes, for the command and this loop alike, so
    their ratio holds steadier than either time alone.
    """
    a, b = _MERGE_A, _MERGE_B
    len_a, len_b = len(a), len(b)
    start = perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        out = []
        i = j = 0
        while i < len_a and j < len_b:
            x = a[i]
            y = b[j]
            if x == y:
                out.append(x)
                i += 1
                j += 1
            elif x < y:
                i += 1
            else:
                j += 1
    return perf_counter() - start


def measure(cli, workload, graphs, seconds: float, work: Path, tag: str, traced: bool) -> list[Rep]:
    """Run the command on the graphs in turn, in whole rounds, until
    ``seconds`` have passed. A calibrate() call precedes the first rep and
    follows every rep; each rep keeps the mean of the two around it."""
    reps = []
    start = perf_counter()
    before = calibrate()
    while len(reps) % len(graphs) or not reps or perf_counter() - start < seconds:
        index = len(reps) % len(graphs)
        out = work / f"{tag}{len(reps)}.txt"
        argv = workload.argv(graphs[index], out)
        if traced:
            from tracer import Tracer

            with Tracer() as tracer:
                elapsed, code = invoke(lambda a: tracer.call("cli", cli.main, a), argv)
        else:
            tracer = None
            elapsed, code = invoke(cli.main, argv)
        after = calibrate()
        reps.append(Rep(index, elapsed, (before + after) / 2, code, out, tracer))
        before = after
    return reps


def verify(workload, reps: list[Rep], refs) -> None:
    """Parse every output and compare it with the reference, if there is one."""
    for rep in reps:
        if rep.code != 0:
            rep.problems.append(f"exit status {rep.code}")
            continue
        try:
            rep.output = parse_output(workload, rep.out.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, ValueError, KeyError) as exc:
            rep.problems.append(f"unreadable output: {exc}")
            continue
        if refs is not None:
            rep.problems.extend(check_output(workload, rep.output, refs[rep.graph]))
        if rep.tracer is not None:
            rep.problems.extend(trace_mismatches(rep))


def trace_mismatches(rep: Rep) -> list[str]:
    """Counts the traced run saw that disagree with what the command printed."""
    tracer = rep.tracer
    if {"enumeration", "enumeration.all"} & tracer.missing:
        return []
    problems = []
    passes = traced_passes(tracer)
    total = sum(p.nodes for p in passes)
    if "enumeration.node" not in tracer.missing and tracer.nodes != total:
        problems.append(f"trace: {tracer.nodes} nodes constructed, RunStats counted {total}")
    seen = {p.label: p for p in passes}
    for p in rep.output.passes:
        got = seen.get(p.label)
        if got is None:
            problems.append(f"trace: no engine call recorded for {p.label}")
        elif got.emitted != p.emitted or p.nodes not in (None, got.nodes):
            problems.append(f"trace: {p.label} counts differ from the printed ones")
    return problems


def traced_passes(tracer) -> list[Pass]:
    """The engine calls the tracer saw, with the engine's own counters."""
    return [
        Pass(strategy, ell, stats.recursive_calls, stats.emitted, stats.filtered_at_leaf, stats.wall_time)
        for strategy, ell, stats in tracer.passes
    ]


def per_graph_mean(reps: list[Rep], value) -> float:
    """Median of ``value(rep)`` over each graph's reps, averaged over the
    graphs so that every graph of the seed weighs the same."""
    by_graph: dict[int, list[float]] = {}
    for rep in reps:
        by_graph.setdefault(rep.graph, []).append(value(rep))
    return statistics.fmean(statistics.median(values) for values in by_graph.values())


def end_to_end_metrics(reps, setup_times, peak_rss_mb, attempted, failed) -> dict[str, float]:
    return {
        # both sums cover every graph equally often, since reps come in rounds
        "run_per_calibration": sum(r.seconds for r in reps) / sum(r.calibration for r in reps),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (attempted - failed) / attempted,
    }


def _ratio(part, whole):
    if part is None or whole is None:
        return None
    return part / whole if whole else 0.0


def layer_metrics(tracer, setup_tracer, untraced: list[Rep], traced: Rep) -> dict[str, float | None]:
    """Per-layer metrics of one traced invocation; ``None`` where a hook is missing."""
    from tracer import Span

    def span(t, name):
        return None if name in t.missing else t.spans.get(name, Span())

    def field_of(t, name, attr):
        s = span(t, name)
        return None if s is None else getattr(s, attr)

    m: dict[str, float | None] = {}
    m["generators.generate_s"] = field_of(setup_tracer, "generators.generate", "total")
    m["graph.write_s"] = field_of(setup_tracer, "graph.write", "total")
    m["graph.load_s"] = field_of(tracer, "graph.load", "total")
    for name in ("graph.intersect", "enumeration.pivot", "graph.induced_degrees"):
        m[f"{name}.calls"] = field_of(tracer, name, "calls")
        m[f"{name}.self_s"] = field_of(tracer, name, "self_s")
        m[f"{name}.scanned"] = field_of(tracer, name, "scanned")
    m["graph.intersect.yield"] = _ratio(
        field_of(tracer, "graph.intersect", "produced"), m["graph.intersect.scanned"]
    )
    pruning = span(tracer, "pruning")
    m["pruning.evaluations"] = None if pruning is None else pruning.calls
    m["pruning.self_s"] = None if pruning is None else pruning.self_s
    for stage in ("size", "degree", "softcore", "degeneracy"):
        m[f"pruning.fired.{stage}"] = None if pruning is None else tracer.fired.get(stage, 0)
    m["pruning.yield"] = None if pruning is None else _ratio(pruning.produced, pruning.calls)

    # Counts are deterministic, so the traced run's RunStats stand for the
    # untraced run too; verify() checks them against the printed ones.
    engine_missing = bool({"enumeration", "enumeration.all"} & tracer.missing)
    passes = traced_passes(tracer)

    def total(values):
        return None if engine_missing else sum(values)

    m["pruning.induced_degree_evals"] = total(stats.induced_degree_evals for _, _, stats in tracer.passes)
    m["enumeration.nodes"] = total(p.nodes for p in passes)
    m["enumeration.emitted"] = total(p.emitted for p in passes)
    m["enumeration.filtered_at_leaf"] = total(p.filtered_at_leaf for p in passes)
    m["enumeration.leaf_yield"] = _ratio(
        m["enumeration.emitted"], total(p.emitted + p.filtered_at_leaf for p in passes)
    )

    # Engine time as the command prints it, untraced: the median over reps.
    printed = [[p for p in rep.output.passes if p.elapsed_s is not None] for rep in untraced if rep.output]

    def printed_time(match) -> float | None:
        if not printed:  # no untraced rep produced readable output
            return None
        return statistics.median(sum(p.elapsed_s for p in ps if match(p)) for ps in printed)

    m["enumeration.solve_s"] = printed_time(lambda p: True)
    m["enumeration.nodes_per_s"] = _ratio(
        sum(p.nodes for p in printed[0]) if printed else None, m["enumeration.solve_s"]
    )
    engine = (span(tracer, "enumeration"), span(tracer, "enumeration.all"))
    m["enumeration.self_s"] = None if engine_missing else sum(s.self_s for s in engine)
    breakdown = [(s, lambda p, s=s: p.strategy == s) for s in STRATEGIES]
    breakdown += [(f"ell{e}", lambda p, e=e: p.ell == e) for e in ELLS]
    for key, match in breakdown:
        m[f"enumeration.solve_s.{key}"] = printed_time(match)
        m[f"enumeration.nodes.{key}"] = total(p.nodes for p in passes if match(p))
    # The sweep does not print its plain maximal-clique pass, so its time is
    # the traced run's own RunStats and includes the tracing cost.
    m["enumeration.solve_s.all"] = total(p.elapsed_s for p in passes if p.ell is None)
    m["enumeration.nodes.all"] = total(p.nodes for p in passes if p.ell is None)

    output = None if engine_missing else span(tracer, "cli.output")
    m["cli.output.calls"] = None if output is None else output.calls
    m["cli.output.self_s"] = None if output is None else output.self_s
    m["cli.self_s"] = field_of(tracer, "cli", "self_s")
    m["trace.overhead_s"] = traced.seconds - statistics.median(r.seconds for r in untraced)
    return m


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_model": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "seed": seed,
    }


def search_changes(workload, seed: int, reps: list[Rep]) -> list[str]:
    """Printed counts that differ from the ones pinned for this seed.

    A difference means the search itself changed; the outputs may still be
    correct, so it is reported, not counted as a failure.
    """
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    if pins["seed"] != seed:
        return []
    pinned_graphs = pins["workloads"].get(workload.name, [])
    notes = []
    first = {}
    for rep in reps:
        if rep.output is not None:
            first.setdefault(rep.graph, rep.output.counters())
    for graph, counters in sorted(first.items()):
        if graph >= len(pinned_graphs):
            notes.append(f"no pinned counts for graph {graph} of {workload.name}")
            continue
        pinned = pinned_graphs[graph]
        for key in sorted(set(pinned) | set(counters)):
            if pinned.get(key) != counters.get(key):
                notes.append(
                    f"search changed: graph {graph} {key} is {counters.get(key)}, pinned {pinned.get(key)}"
                )
    return notes


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    cli = import_cli()
    graphs, setup_times = set_up(cli, workload, seed, work)
    if trace:
        from tracer import Tracer

        with Tracer() as setup_tracer:
            invoke(cli.main, ["generate", "--gen", workload.graph_specs(seed)[0], "--out", str(graphs[0])])
        # the traced run looks at the first graph only, so its counts are exact
        untraced = measure(cli, workload, graphs[:1], seconds / 2, work, "plain", traced=False)
        traced = measure(cli, workload, graphs[:1], seconds / 2, work, "traced", traced=True)
    else:
        untraced = measure(cli, workload, graphs, seconds, work, "plain", traced=False)
        traced = []
    # ru_maxrss is in KiB on Linux; read before the reference allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        refs = [Reference(path) for path in graphs]
        unverified = None
    except ReferenceUnavailable as exc:
        refs, unverified = None, f"outputs unverified: networkx is not available ({exc})"
    reps = untraced + traced
    verify(workload, reps, refs)
    attempted = len(reps)
    failed = sum(1 for rep in reps if rep.problems)
    notes = [f"rep {i} (graph {rep.graph}): {'; '.join(rep.problems)}" for i, rep in enumerate(reps) if rep.problems]
    if unverified:
        notes.append(unverified)
    notes += search_changes(workload, seed, reps)
    if trace:
        per_rep = [layer_metrics(rep.tracer, setup_tracer, untraced, rep) for rep in traced]
        # counts repeat exactly, so median_low keeps them whole numbers
        metrics = {
            name: None
            if per_rep[0][name] is None
            else (statistics.median_low if isinstance(per_rep[0][name], int) else statistics.median)(
                m[name] for m in per_rep
            )
            for name in PER_LAYER
        }
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(untraced, setup_times, peak_rss_mb, attempted, failed)
        units = END_TO_END
    rep_seconds: dict[int, list[tuple[float, float]]] = {}
    for rep in untraced:
        rep_seconds.setdefault(rep.graph, []).append((rep.calibration, rep.seconds))
    return {
        "run_s": per_graph_mean(untraced, lambda r: r.seconds),
        "calibration_s": statistics.median(r.calibration for r in untraced),
        "rep_seconds": rep_seconds,
        "notes": notes,
        "error_rate": failed / attempted,
        "counters": [rep.output.counters() for rep in untraced[: len(graphs)] if rep.output],
        "result": {
            "correct": failed == 0 and refs is not None,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run(workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # not empty: another run is using it
    result = outcome["result"]
    print(json.dumps({"environment": env, "workload": workload.name, "counters": outcome["counters"]}))
    for note in outcome["notes"]:
        print(note)
    print(f"error_rate = {outcome['error_rate']:.6g} ratio ({result['failed']} of {result['attempted']})")
    for graph, times in outcome["rep_seconds"].items():
        pairs = ", ".join(f"{c:.4f}/{t:.4f}" for c, t in times)
        print(f"untraced calibration/command wall times, graph {graph}: {pairs} s")
    print(f"run_s = {outcome['run_s']} s (untraced: median per graph, mean over graphs)")
    print(f"calibration_s = {outcome['calibration_s']} s (median over the untraced reps)")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
