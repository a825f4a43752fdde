"""Command-line front end.

Subcommands: enumerate (report cliques for one isolation factor), sweep
(CSV of counts across factors), distribution (CSV of clique sizes and
their isolated breakdown), compare (call counts and timings across
pruning strategies), and generate (write a synthetic benchmark graph).
Data goes to stdout or --out; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

from .enumeration import enumerate_all_maximal, enumerate_isolated, split_root
from .generators import (
    GeneratorConfigError,
    canonical_spec,
    generate,
    parse_generator_spec,
)
from .graph import EdgeListParseError, Graph, load_edge_list_report, write_edge_list
from .pruning import STRATEGIES


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def _strategy_name(text: str) -> str:
    if text not in STRATEGIES:
        raise argparse.ArgumentTypeError(
            f"unknown strategy {text!r}; choose from {', '.join(STRATEGIES)}"
        )
    return text


def _comma_list(item, noun: str):
    """An argparse type for a non-empty comma-separated list of ``item``s."""

    def parse(text: str) -> list:
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if not parts:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list of {noun}")
        return [item(part) for part in parts]

    return parse


_ell_list = _comma_list(_positive_int, "integers >= 1")


def build_parser() -> argparse.ArgumentParser:
    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="PATH", help="edge-list file to analyze")
    group.add_argument(
        "--gen",
        metavar="SPEC",
        help="generator spec, e.g. ba:n=100,m=5,seed=1 or gnmp:n=50,m=10,p=0.1,seed=1",
    )
    source.add_argument(
        "--seed", type=int, default=0, help="seed used when the generator spec omits one"
    )

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="isoclique",
        description="Enumerate maximal cliques that are weakly connected to the rest of the graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", parents=[source, out], help="report isolated maximal cliques"
    )
    p_enum.add_argument("--ell", type=_positive_int, required=True, help="isolation factor")
    p_enum.add_argument(
        "--strategy", type=_strategy_name, default="combo", help="pruning strategy (default: combo)"
    )
    p_enum.add_argument("--count-only", action="store_true", help="print only the clique count")
    p_enum.add_argument(
        "--sort",
        action="store_true",
        help="sort cliques by vertex id instead of search order; ids number the labels "
        "in the order they first appear",
    )
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_sweep = sub.add_parser(
        "sweep", parents=[source, out], help="CSV of isolated-clique counts per factor"
    )
    p_sweep.add_argument("--ells", type=_ell_list, required=True, help="comma-separated factors")
    p_sweep.add_argument("--strategy", type=_strategy_name, default="combo")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_dist = sub.add_parser(
        "distribution", parents=[source, out], help="CSV of clique sizes and isolated breakdown"
    )
    p_dist.add_argument("--ells", type=_ell_list, required=True, help="comma-separated factors")
    p_dist.set_defaults(handler=_cmd_distribution)

    p_cmp = sub.add_parser(
        "compare", parents=[source, out], help="compare pruning strategies on one input"
    )
    p_cmp.add_argument("--ell", type=_positive_int, required=True)
    p_cmp.add_argument(
        "--strategies",
        type=_comma_list(_strategy_name, "strategies"),
        default=list(STRATEGIES),
        help="comma-separated strategies (default: all)",
    )
    p_cmp.set_defaults(handler=_cmd_compare)

    p_gen = sub.add_parser("generate", parents=[out], help="write a synthetic graph")
    p_gen.add_argument("--gen", metavar="SPEC", required=True, help="generator spec")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(handler=_cmd_generate)

    return parser


def _open_out(args):
    if args.out:
        return open(args.out, "w", encoding="utf-8", newline="\n")
    return nullcontext(sys.stdout)


def _resolve_graph(args) -> tuple[Graph, str]:
    """Load from --graph or build from --gen; returns the graph and a label."""
    if args.graph is not None:
        with open(args.graph, "r", encoding="utf-8") as fh:
            try:
                report = load_edge_list_report(fh)
            except UnicodeDecodeError as exc:
                raise EdgeListParseError(f"{args.graph}: not UTF-8 text ({exc.reason})") from None
        if report.self_loops_dropped or report.duplicate_edges_dropped:
            print(
                f"note: dropped {report.self_loops_dropped} self-loop(s) and "
                f"{report.duplicate_edges_dropped} duplicate edge(s) while loading {args.graph}",
                file=sys.stderr,
            )
        return report.graph, args.graph
    cfg = parse_generator_spec(args.gen, default_seed=args.seed)
    return generate(cfg), canonical_spec(cfg)


def _stats_line(stats) -> str:
    return (
        "# recursive_calls={} prune_firings={} emitted={} filtered_at_leaf={} "
        "elapsed_ms={:.2f}"
    ).format(
        stats.recursive_calls,
        stats.total_prune_firings,
        stats.emitted,
        stats.filtered_at_leaf,
        stats.wall_time * 1000.0,
    )


def _timed_split(g: Graph):
    """The root split of ``g`` shared by a command's engine calls, and its
    build time in ms, which those calls' own times leave out."""
    start = perf_counter()
    split = split_root(g)
    return split, (perf_counter() - start) * 1000.0


def _cmd_enumerate(args) -> int:
    g, _ = _resolve_graph(args)
    label = g.all_labels().__getitem__
    with _open_out(args) as out:
        if args.count_only:
            stats = enumerate_isolated(g, args.ell, args.strategy)
            print(stats.emitted, file=out)
            return 0
        write = out.write

        def emit(report) -> None:
            write(" ".join(map(label, report.vertices)) + "\n")

        if args.sort:
            reports = []
            stats = enumerate_isolated(g, args.ell, args.strategy, reports.append)
            reports.sort(key=lambda r: r.vertices)
            for report in reports:
                emit(report)
        else:
            stats = enumerate_isolated(g, args.ell, args.strategy, emit)
        print(_stats_line(stats), file=out)
    return 0


def _cmd_sweep(args) -> int:
    g, label = _resolve_graph(args)
    split, rows_ms = _timed_split(g)
    total = enumerate_all_maximal(g, split=split).emitted
    with _open_out(args) as out:
        print(
            f"# graph={label} strategy={args.strategy} total_maximal={total} rows_ms={rows_ms:.2f}",
            file=out,
        )
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["ell", "isolated_count", "percent_of_total", "recursive_calls", "elapsed_ms"])
        for ell in args.ells:
            stats = enumerate_isolated(g, ell, args.strategy, split=split)
            percent = 100.0 * stats.emitted / total if total else 0.0
            writer.writerow(
                [
                    ell,
                    stats.emitted,
                    f"{percent:.2f}",
                    stats.recursive_calls,
                    f"{stats.wall_time * 1000.0:.2f}",
                ]
            )
    return 0


def _cmd_distribution(args) -> int:
    g, label = _resolve_graph(args)
    by_size: dict[int, list[int]] = defaultdict(list)
    enumerate_all_maximal(g, lambda r: by_size[r.size].append(r.external_degree))
    with _open_out(args) as out:
        print(f"# graph={label} ells={','.join(map(str, args.ells))}", file=out)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["size", "total"] + [f"l{ell}" for ell in args.ells])
        for size in sorted(by_size):
            cuts = by_size[size]
            row = [size, len(cuts)]
            for ell in args.ells:
                row.append(sum(1 for cut in cuts if cut < ell * size))
            writer.writerow(row)
    return 0


def _cmd_compare(args) -> int:
    g, label = _resolve_graph(args)
    shown = list(dict.fromkeys(args.strategies))
    # the baseline run is needed for the call percentages even if not shown
    names = shown if "none" in shown else ["none", *shown]
    split, rows_ms = _timed_split(g)
    runs = {name: enumerate_isolated(g, args.ell, name, split=split) for name in names}

    emitted = {stats.emitted for stats in runs.values()}
    if len(emitted) > 1:
        detail = ", ".join(f"{name}={runs[name].emitted}" for name in names)
        print(
            f"internal error: strategies disagree on the reported clique count ({detail}); "
            "this indicates a pruning soundness bug",
            file=sys.stderr,
        )
        return 3

    base_calls = runs["none"].recursive_calls
    slowest = max(runs[name].wall_time for name in shown)
    with _open_out(args) as out:
        print(
            f"# graph={label} ell={args.ell} baseline_calls={base_calls} rows_ms={rows_ms:.2f}",
            file=out,
        )
        print(
            f"{'strategy':<12}{'calls':>10}{'calls_vs_none':>16}{'elapsed_ms':>13}{'vs_slowest':>13}{'emitted':>10}",
            file=out,
        )
        for name in shown:
            stats = runs[name]
            call_pct = 100.0 * stats.recursive_calls / base_calls if base_calls else 100.0
            time_pct = 100.0 * stats.wall_time / slowest if slowest > 0 else 100.0
            print(
                f"{name:<12}{stats.recursive_calls:>10}{call_pct:>15.2f}%"
                f"{stats.wall_time * 1000.0:>13.2f}{time_pct:>12.2f}%{stats.emitted:>10}",
                file=out,
            )
    return 0


def _cmd_generate(args) -> int:
    cfg = parse_generator_spec(args.gen, default_seed=args.seed)
    g = generate(cfg)
    with _open_out(args) as out:
        write_edge_list(g, out, header_comments=[f"generated: {canonical_spec(cfg)}"])
    return 0


def _silence_stdout() -> None:
    """Point the stdout descriptor at the null device, so the flush at
    interpreter exit cannot fail again on a reader that went away."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # replaced by an in-memory stream
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    """Run one subcommand. Exit status: 0 on success (also when the reader
    of stdout closes it early), 1 on an unreadable or malformed input
    file, 2 on a usage error, 3 when strategies disagree, 130 when
    interrupted (Ctrl-C), with the one line ``interrupted`` on stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has all it wanted, as in `isoclique enumerate ... | head`
        _silence_stdout()
        return 0
    except GeneratorConfigError as exc:
        parser.error(str(exc))  # exits with status 2
    except (EdgeListParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    raise AssertionError("unreachable")
