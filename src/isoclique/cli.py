"""Command-line front end.

Subcommands: enumerate (report cliques for one isolation factor), sweep
(CSV of counts across factors), distribution (CSV of clique sizes and
their isolated breakdown), compare (call counts and timings across
pruning strategies), and generate (write a synthetic benchmark graph).
Data goes to stdout or --out; diagnostics go to stderr.

compare, enumerate and sweep share their work among forked worker
processes, one per usable CPU, on graphs of at least _FORK_MIN_EDGES
edges (see _jobs). They cut the root children into chunks, contiguous
ranges of vertex ids, _CHUNKS_PER_JOB per process, and every process,
the calling one included, takes the next chunk from one queue whenever
it is free (see _run_chunks and _deal). Each chunk is one engine call of
enumerate, whose text comes back with the chunk's result and is written
in chunk order once every worker has sent (a one-process run writes as
it goes), or with --sort merges the chunks' sorted lists of cliques, and
one split of sweep and compare, which run every factor or strategy over
it; the chunks' counters and times are then added up, and compare checks
each strategy's per-chunk hashes. Their output is the one-process output
but for the times: elapsed_ms, and rows_ms of sweep and compare.
"""

from __future__ import annotations

import argparse
import csv
import marshal
import os
import signal
import sys
import threading
from bisect import bisect_left
from collections import defaultdict
from contextlib import nullcontext, suppress
from itertools import accumulate, chain
from operator import itemgetter
from time import perf_counter
from typing import Iterator, NoReturn

from . import enumeration
from .enumeration import RootSetup, RunStats, enumerate_all_maximal, enumerate_isolated, split_root
from .generators import GeneratorConfigError, canonical_spec, generate, parse_generator_spec
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
    """An argparse type for a non-empty comma-separated list of ``item``s,
    each kept once, at its first place."""

    def parse(text: str) -> list:
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if not parts:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list of {noun}")
        return list(dict.fromkeys(map(item, parts)))

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
    p_gen.set_defaults(handler=_cmd_generate, graph=None)

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
    cfg = parse_generator_spec(args.gen)
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


# compare, enumerate and sweep fork only on graphs of this many edges or more.
# Two processes against one, 80 alternating in-process runs on 2 vCPUs on
# ba:n=N,m=4,seed=1 and 2 (4N-10 edges), two faster for enumerate at ell 50,
# sweep at --ells 1,10,50,250 and compare at ell 50: at 1,290 edges 11 and
# 25, 33 and 48, 63 and 71 runs; at 1,390 41 and 55, 45 and 56, 68 and 66;
# at 1,590 on seed 2 58, 54 and 73; in 29-40 of 40 from 1,990 edges up. The
# gate is where enumerate and sweep break even; compare alone would gain
# from about 800 edges (29/40 at 790, 17/40 at 590).
_FORK_MIN_EDGES = 1390


# With W > 1 processes the root is cut into _CHUNKS_PER_JOB·W chunks, at
# most _MAX_CHUNKS: enough that the last chunks to finish even out the
# processes' shares, few enough that each chunk's engine calls and split
# stay cheap beside its search. The queue holds one byte per chunk index.
_CHUNKS_PER_JOB = 8
_MAX_CHUNKS = 255


def _root_ranges(g: Graph, chunks: int) -> list[range]:
    """The vertex ids of ``g`` cut into at most ``chunks`` contiguous,
    non-empty ranges of about equal degree sum, in id order; one range,
    empty for a vertexless graph, when there is nothing to cut."""
    n = g.vertex_count
    if chunks < 2 or n < 2:
        return [range(n)]
    sums = list(accumulate(map(len, g.adjacency)))
    cuts = {bisect_left(sums, sums[-1] * j / chunks) + 1 for j in range(1, chunks)}
    bounds = [0, *sorted(cut for cut in cuts if cut < n), n]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _run_chunks(g: Graph, work, write) -> tuple[list, int]:
    """What work(roots, write) returns for each chunk of root children of
    ``g``, in chunk order, and how many processes ran them. When _jobs
    allows one process, the one chunk is the whole root, so each of a
    command's passes is one engine call; else the chunks are _root_ranges
    of _CHUNKS_PER_JOB per process, dealt by _deal."""
    jobs = _jobs(g, g.vertex_count)
    chunks = _root_ranges(g, 1 if jobs < 2 else min(_CHUNKS_PER_JOB * jobs, _MAX_CHUNKS))
    jobs = min(jobs, len(chunks))
    return _deal(chunks, work, write, jobs), jobs


def _cmd_enumerate(args) -> int:
    g, _ = _resolve_graph(args)
    # a list's __getitem__, a builtin method, is called faster than a tuple's
    label = list(g.all_labels()).__getitem__
    # a count needs no order
    sort = args.sort and not args.count_only
    setup = RootSetup(g)

    def work(roots: range, write) -> tuple:
        # the chunk's stats, and with sort its cliques' vertex tuples, sorted,
        # as marshal data, which a CliqueReport is not
        def lines(report) -> None:
            # the sink that writes each clique as a line of labels
            write(" ".join(map(label, report.vertices)) + "\n")

        reports = []
        sink = reports.append if sort else None if args.count_only else lines
        stats = enumerate_isolated(g, args.ell, args.strategy, sink, roots=roots, setup=setup)
        return _stats_data(stats), sorted(map(itemgetter(0), reports))

    with _open_out(args) as out:
        start = perf_counter()
        results, cliques = zip(*_run_chunks(g, work, out.write)[0])
        # sorts the concatenation of the chunks' sorted runs by merging them
        for vertices in sorted(chain.from_iterable(cliques)):
            out.write(" ".join(map(label, vertices)) + "\n")
        stats = _summed(results)
        stats.wall_time = perf_counter() - start
        print(stats.emitted if args.count_only else _stats_line(stats), file=out)
    return 0


def _cmd_sweep(args) -> int:
    g, label = _resolve_graph(args)
    setup = RootSetup(g)

    def work(roots: range, write) -> list:
        # the chunk's split, its build time in seconds, which the engine
        # calls' own times leave out, then the calls over it
        start = perf_counter()
        split = split_root(g, roots, setup=setup)
        rows_s = perf_counter() - start
        runs = [enumerate_all_maximal(g, split=split)]
        runs += [enumerate_isolated(g, ell, args.strategy, split=split) for ell in args.ells]
        return [rows_s, *map(_stats_data, runs)]

    with _open_out(args) as out:
        # per item of work's list, every chunk's value, in chunk order
        rows_s, maximal, *passes = zip(*_run_chunks(g, work, None)[0])
        rows_ms = sum(rows_s) * 1000.0
        total = _summed(maximal).emitted
        print(
            f"# graph={label} strategy={args.strategy} total_maximal={total} rows_ms={rows_ms:.2f}",
            file=out,
        )
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["ell", "isolated_count", "percent_of_total", "recursive_calls", "elapsed_ms"])
        for ell, stats in zip(args.ells, map(_summed, passes)):
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
    with _open_out(args) as out:
        enumerate_all_maximal(g, lambda r: by_size[r.size].append(r.external_degree))
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


class WorkerError(RuntimeError):
    """A worker process could not start, failed or was killed."""


def _jobs(g: Graph, most: int) -> int:
    """How many processes may share a command's work on ``g``: one per CPU
    this process may run on, at most ``most`` and at least 1. It is 1 on
    graphs of fewer than _FORK_MIN_EDGES edges, where forking costs more
    than it saves; where os.fork or the CPU affinity calls are missing;
    while another thread runs, as a forked child could block on a lock
    that thread held; and while an observer is bound at
    enumeration.SearchNode, since an observer counts in its own process."""
    if (
        most < 2
        or g.edge_count < _FORK_MIN_EDGES
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
        or enumeration.SearchNode is not enumeration._NODE
    ):
        return 1
    return min(most, len(os.sched_getaffinity(0)))


def _pass(g: Graph, ell: int, name: str, split) -> tuple[RunStats, int]:
    """One strategy's run over a chunk's split, and an order-sensitive hash
    of the cliques it emits. Tuples of ints hash alike in every process."""
    digest = 0

    def sink(report) -> None:
        nonlocal digest
        digest = hash((digest, report.vertices))

    stats = enumerate_isolated(g, ell, name, sink, split=split)
    return stats, digest


def _dealt(queue: int) -> Iterator[int]:
    """The chunk indices this process takes from the queue pipe's read end
    ``queue``, one at a time, until it is empty. A read of one byte is
    never split between readers, so each index reaches one process."""
    while index := os.read(queue, 1):
        yield index[0]


def _worker(work, chunks: list, queue: int, pipe_end: int, readers: list[int]) -> NoReturn:
    """Run work(chunk, write) in a forked worker for each chunk of
    ``chunks`` it takes from the queue, ``write`` collecting each chunk's
    text, until the queue is empty. Then send, through the pipe's
    ``pipe_end``, the list of (index, what work returned, the text as one
    string) of its chunks as one marshal value, and exit: with status 0
    once it is sent, else 1. The read ends ``readers`` it inherited, its
    own pipe's included, are closed first, so that its writes fail once
    its parent is gone. Never returns, whatever it raises, so the worker
    cannot run its caller's code."""
    code = 1
    try:
        for fd in readers:
            os.close(fd)
        done = []
        for index in _dealt(queue):
            text = []
            done.append((index, work(chunks[index], text.append), "".join(text)))
        with open(pipe_end, "wb") as pipe:
            marshal.dump(done, pipe)
        code = 0
    finally:
        os._exit(code)


def _raise_if_failed(status: int) -> None:
    """Raise WorkerError if a reaped worker's wait ``status`` says it failed."""
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise WorkerError(f"a worker process {how}")


def _deal(chunks: list, work, write, jobs: int) -> list:
    """What work(chunk, write) returns for each chunk of ``chunks``, at most
    _MAX_CHUNKS of them, in order, run by ``jobs`` processes, with
    ``write`` getting all their text in chunk order too.

    One process runs every chunk in turn, writing as it goes. Otherwise
    this process writes each chunk's index as a byte into a pipe, the
    queue, and forks a worker for each other process, which inherits
    everything this process holds (see _worker); ``work`` must return
    marshal data. Every process then takes the next index from the queue
    whenever it is free, until the queue is empty, and holds each chunk's
    text as one string. Each worker's text comes back with its chunks'
    results; once every worker is reaped, this process writes all the
    text in chunk order, so it holds the whole output until then. Every
    worker is reaped before this returns or raises: on any exception,
    Ctrl-C or a closed output included, the workers left are killed
    first. A worker that fails raises WorkerError, at the latest when this
    process takes its next chunk: it polls every worker before each chunk
    it runs.
    """
    if jobs < 2:
        return [work(chunk, write) for chunk in chunks]
    queue, fill = os.pipe()
    # at most _MAX_CHUNKS bytes, under PIPE_BUF, so one write fills the queue
    os.write(fill, bytes(range(len(chunks))))
    os.close(fill)
    pending = []  # (pid, read end) of each worker whose result is not yet read
    reaped = set()  # the pids of those reaped while chunks were dealt
    try:
        try:
            for _ in range(jobs - 1):
                read, pipe_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError as exc:
                    os.close(read)
                    os.close(pipe_end)
                    raise WorkerError(f"cannot start a worker process: {exc.strerror}") from None
                if not pid:
                    _worker(work, chunks, queue, pipe_end, [read, *(pipe.fileno() for _, pipe in pending)])
                os.close(pipe_end)
                pending.append((pid, open(read, "rb")))
            results = [None] * len(chunks)
            texts = [""] * len(chunks)
            for index in _dealt(queue):
                for pid, _ in pending:
                    if pid not in reaped:
                        done, status = os.waitpid(pid, os.WNOHANG)
                        if done:
                            # exited, with all it ran in the pipe if it exited 0
                            reaped.add(pid)
                            _raise_if_failed(status)
                text = []
                results[index] = work(chunks[index], text.append)
                texts[index] = "".join(text)
        finally:
            os.close(queue)
        while pending:
            pid, pipe = pending[-1]
            try:
                ran = marshal.load(pipe)
            except (EOFError, ValueError, TypeError):
                # a failed worker's message is cut short; its status says why
                ran = None
            pipe.close()
            status = 0 if pid in reaped else os.waitpid(pid, 0)[1]
            del pending[-1]
            _raise_if_failed(status)
            if ran is None:
                raise WorkerError("a worker process sent no result")
            for index, data, text in ran:
                results[index], texts[index] = data, text
    except BaseException:
        for pid, pipe in pending:
            pipe.close()
            if pid in reaped:
                # its id may already belong to another process
                continue
            # the worker may have been reaped just before the exception
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    for text in filter(None, texts):
        write(text)
    return results


def _stats_data(stats: RunStats) -> dict:
    """``stats``'s fields as marshal data."""
    return dict(vars(stats), prune_firings=dict(stats.prune_firings))


def _summed(results: list[dict]) -> RunStats:
    """The RunStats whose fields are those of ``results``, given as
    _stats_data gives them, added up: one run's stats from its own fields,
    or a whole run's from its parts'."""
    total = RunStats()
    for fields in results:
        total.prune_firings.update(fields["prune_firings"])
        for key, value in fields.items():
            if key != "prune_firings":
                setattr(total, key, getattr(total, key) + value)
    return total


def _disagreement(runs: dict[str, tuple[RunStats, tuple[int, ...]]]) -> str | None:
    """None when every pass of ``runs`` emitted the cliques the baseline
    "none" emitted, in the same order, judged by count and the hashes of
    its chunks; else a message naming the strategies that differ."""
    expected = runs["none"][0].emitted, runs["none"][1]
    odd = [name for name, (stats, digest) in runs.items() if (stats.emitted, digest) != expected]
    if not odd:
        return None
    counts = ", ".join(f"{name}={stats.emitted}" for name, (stats, _) in runs.items())
    return (
        f"strategies {', '.join(odd)} disagree with none on the reported cliques, their count "
        f"or their order (emitted: {counts}); this indicates a pruning soundness bug"
    )


def _cmd_compare(args) -> int:
    g, label = _resolve_graph(args)
    shown = args.strategies
    # the baseline run is needed for the call percentages even if not shown
    names = shown if "none" in shown else ["none", *shown]
    setup = RootSetup(g)

    def work(roots: range, write) -> list:
        # the chunk's split and its build time in seconds, then each
        # strategy's counters and hash over it
        start = perf_counter()
        split = split_root(g, roots, setup=setup)
        rows_s = perf_counter() - start
        runs = (_pass(g, args.ell, name, split) for name in names)
        return [rows_s, *((_stats_data(stats), digest) for stats, digest in runs)]

    with _open_out(args) as out:
        results, jobs = _run_chunks(g, work, None)
        # per item of work's list, every chunk's value, in chunk order
        rows_s, *chunked = zip(*results)
        rows_ms = sum(rows_s) * 1000.0
        passes = {
            name: (_summed([fields for fields, _ in runs]), tuple(digest for _, digest in runs))
            for name, runs in zip(names, chunked)
        }
        problem = _disagreement(passes)
        if problem is not None:
            print(f"internal error: {problem}", file=sys.stderr)
            return 3
        runs = {name: stats for name, (stats, _) in passes.items()}

        base_calls = runs["none"].recursive_calls
        slowest = max(runs[name].wall_time for name in shown)
        print(
            f"# graph={label} ell={args.ell} baseline_calls={base_calls} rows_ms={rows_ms:.2f} "
            f"jobs={jobs}",
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
    g, label = _resolve_graph(args)
    with _open_out(args) as out:
        write_edge_list(g, out, header_comments=[f"generated: {label}"])
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
    file, 2 on a usage error, 3 when strategies disagree, 4 when memory
    runs out or a worker process fails, with a one-line
    ``error:`` on stderr, and 130 when interrupted (Ctrl-C), with the one
    line ``interrupted`` on stderr."""
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    raise AssertionError("unreachable")
