import csv
import dataclasses
import hashlib
import io
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import weakref
from operator import itemgetter
from pathlib import Path

import pytest
from graphutil import count_search_nodes, load

import isoclique
from isoclique import cli, enumeration
from isoclique.cli import main
from isoclique.enumeration import CliqueReport, RunStats, split_root

TRIANGLE_PENDANT = "a b\nb c\nc a\na d\n"

# compare, enumerate and sweep fork one worker per usable CPU beyond their
# own, where os.fork and the CPU affinity calls exist
forks = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
    reason="compare, enumerate and sweep run in one process on this platform",
)


def usable_cpus(monkeypatch, count):
    """Make compare, enumerate and sweep see ``count`` usable CPUs, so that
    they run up to ``count`` processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    # every compare, enumerate and sweep below runs in at most two processes,
    # whatever the machine has
    if hasattr(os, "sched_getaffinity"):
        usable_cpus(monkeypatch, 2)


@pytest.fixture
def pendant_file(tmp_path):
    path = tmp_path / "pendant.txt"
    path.write_text(TRIANGLE_PENDANT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def without_elapsed(out):
    return re.sub(r" elapsed_ms=\S+", "", out)


def without_sweep_times(out):
    """A sweep's output without rows_ms and the elapsed_ms column."""
    return re.sub(r"^([^#].*),.*$", r"\1", re.sub(r" rows_ms=\S+", "", out), flags=re.MULTILINE)


def test_enumerate_basic(capsys, pendant_file):
    code, out, _ = run_cli(capsys, "enumerate", "--graph", pendant_file, "--ell", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a b c"
    assert lines[1].startswith("# recursive_calls=")
    assert "emitted=1" in lines[1]
    assert "filtered_at_leaf=1" in lines[1]


def test_enumerate_count_only(capsys, pendant_file):
    code, out, _ = run_cli(
        capsys, "enumerate", "--graph", pendant_file, "--ell", "2", "--count-only"
    )
    assert code == 0
    assert out.strip() == "2"


def test_enumerate_sorted_output(capsys, pendant_file):
    code, out, _ = run_cli(
        capsys, "enumerate", "--graph", pendant_file, "--ell", "2", "--sort"
    )
    assert code == 0
    assert data_lines(out) == ["a b c", "a d"]


def test_enumerate_sort_follows_vertex_ids_not_labels(capsys, tmp_path):
    # ids number labels in order of first appearance: b=0, c=1, a=2, z=3, y=4, x=5
    path = tmp_path / "two_triangles.txt"
    path.write_text("b c\nc a\na b\nz y\ny x\nx z\n")
    code, out, _ = run_cli(capsys, "enumerate", "--graph", str(path), "--ell", "1", "--sort")
    assert code == 0
    assert data_lines(out) == ["b c a", "z y x"]


# sha256 of enumerate's output on ba:n=800,m=6,seed=3, every clique line in
# order and the stats line without elapsed_ms, recorded before the streaming
# sink formatted its lines itself; ell 5 emits no clique, ell 20 emits 2,337
@pytest.mark.parametrize(
    "ell, sort, digest",
    [
        ("5", False, "1a05bfbfb3d831623fa57954edd1fb51225edc2ede470d24f745646692e9d2b8"),
        ("5", True, "1a05bfbfb3d831623fa57954edd1fb51225edc2ede470d24f745646692e9d2b8"),
        ("20", False, "c6f457dff5641e76f761046e7f154ad8a4b803b43f0963bef56cc009dd0030d5"),
        ("20", True, "c9af4a0a5e63ff1c48284b5e42cd18c2df98246b50b25d652e7e4577760965f2"),
    ],
)
def test_enumerate_output_pinned(capsys, ell, sort, digest):
    argv = ["enumerate", "--gen", "ba:n=800,m=6,seed=3", "--ell", ell] + ["--sort"] * sort
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(without_elapsed(out).encode()).hexdigest() == digest


def test_enumerate_from_generator_spec(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--gen", "gnmp:n=6,m=2,p=1,seed=0", "--ell", "1", "--count-only"
    )
    assert code == 0
    assert out.strip() == "1"  # complete graph: one maximal clique, zero cut


def test_enumerate_writes_to_file(capsys, pendant_file, tmp_path):
    out_path = tmp_path / "cliques.txt"
    code, out, _ = run_cli(
        capsys, "enumerate", "--graph", pendant_file, "--ell", "1", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert data_lines(out_path.read_text()) == ["a b c"]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--ell", "5"],
        ["sweep", "--ells", "5,50"],
        ["compare", "--ell", "5"],
        ["distribution", "--ells", "5,50"],
    ],
    ids=itemgetter(0),
)
def test_unwritable_out_fails_before_the_search(capsys, monkeypatch, tmp_path, argv):
    # the output file is opened before any engine work: exit 1 with one line
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran before --out was opened")

    for name in ("split_root", "enumerate_isolated", "enumerate_all_maximal"):
        monkeypatch.setattr(cli, name, refuse)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--gen", "ba:n=100,m=4,seed=1", "--out", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_missing_input_is_usage_error(capsys, pendant_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--ell", "1"])
    assert excinfo.value.code == 2


def test_invalid_strategy_is_usage_error(capsys, pendant_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--graph", pendant_file, "--ell", "1", "--strategy", "omega"])
    assert excinfo.value.code == 2


def test_invalid_ell_is_usage_error(capsys, pendant_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--graph", pendant_file, "--ell", "0"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["sweep", "--ells", " , "], "expected a comma-separated list of integers >= 1"),
        (["distribution", "--ells", "1, 0"], "'0' must be >= 1"),
        (
            ["compare", "--ell", "1", "--strategies", ","],
            "expected a comma-separated list of strategies",
        ),
        (["compare", "--ell", "1", "--strategies", "size, omega"], "unknown strategy 'omega'"),
    ],
)
def test_bad_comma_list_is_usage_error(capsys, pendant_file, args, message):
    with pytest.raises(SystemExit) as excinfo:
        main([args[0], "--graph", pendant_file, *args[1:]])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_bad_generator_spec_is_usage_error(capsys):
    for spec in ("er:n=5,p=0.5", "ba:n=50,m=3,n=60"):
        with pytest.raises(SystemExit) as excinfo:
            main(["enumerate", "--gen", spec, "--ell", "1"])
        assert excinfo.value.code == 2
    assert "field 'n' is repeated" in capsys.readouterr().err


def test_unreadable_input_fails_cleanly(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "enumerate", "--graph", str(tmp_path / "nope.txt"), "--ell", "1"
    )
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_malformed_input_fails_cleanly(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a b\njusttoken\n")
    code, _, err = run_cli(capsys, "enumerate", "--graph", str(path), "--ell", "1")
    assert code == 1
    assert "line 2" in err


def test_non_utf8_input_fails_with_one_line(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"a b\n\xe9t\xe9 c\n")
    code, out, err = run_cli(capsys, "enumerate", "--graph", str(path), "--ell", "1")
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text (invalid continuation byte)\n"


@pytest.mark.parametrize(
    "text",
    [
        "\ufeff# a header\n1 2\n2 3\n3 1\n",  # else an edge between '\ufeff#' and 'a'
        "\ufeff1 2\n2 3\n3 1\n",  # else a vertex '\ufeff1' apart from '1'
    ],
)
def test_byte_order_mark_is_ignored(capsys, tmp_path, text):
    path = tmp_path / "bom.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", "--graph", str(path), "--ell", "5")
    assert (code, err) == (0, "")
    assert data_lines(out) == ["1 2 3"]


@forks
def test_clique_lines_join_their_labels(capsys, monkeypatch, tmp_path):
    # an isolated vertex, declared by a loop, two edges that share a vertex,
    # a lone edge and a triangle, all with multi-byte labels: cliques of one,
    # two and three vertices, so each branch of the line's builder runs
    text = "Ωμέγα Ωμέγα\nα β\nβ γ\nü€ 🙂\nж жж\nжж 🙂🙂\n🙂🙂 ж\n"
    path = tmp_path / "lines.txt"
    path.write_text(text, encoding="utf-8")
    g = load(text.splitlines())
    reports = []
    enumeration.enumerate_isolated(g, 2, "combo", reports.append)
    assert sorted(len(r.vertices) for r in reports) == [1, 2, 2, 2, 3]
    expected = [" ".join(g.labels[v] for v in r.vertices) + "\n" for r in reports]
    by_ids = [" ".join(g.labels[v] for v in vertices) + "\n" for vertices in sorted(r.vertices for r in reports)]
    # fork on this tiny graph too
    monkeypatch.setattr(cli, "_FORK_MIN_EDGES", 0)
    for extra, lines in (((), expected), (("--sort",), by_ids)):
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            code, out, err = run_cli(capsys, "enumerate", "--graph", str(path), "--ell", "2", *extra)
            assert (code, err) == (0, "")
            assert out.splitlines(keepends=True)[:-1] == lines


@pytest.mark.parametrize(
    "extra, lines_read",
    [((), 1), (("--count-only",), 0)],  # closed mid-stream, and before the exit flush
)
def test_closed_stdout_exits_quietly(extra, lines_read):
    src_dir = Path(isoclique.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    # about 120 kB of cliques, more than a pipe buffer holds
    argv = ["enumerate", "--gen", "ba:n=3000,m=4,seed=1", "--ell", "250", *extra]
    proc = subprocess.Popen(
        [sys.executable, "-m", "isoclique", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code == 0


INTERRUPTED_GENERATE = """
import os, signal, sys
from isoclique import cli
signal.signal(signal.SIGALRM, signal.default_int_handler)
signal.setitimer(signal.ITIMER_REAL, 0.5)
sys.exit(cli.main(["generate", "--gen", "ba:n=3000000,m=4,seed=1", "--out", os.devnull]))
"""


def test_interrupt_exits_with_one_line():
    # SIGALRM raises KeyboardInterrupt half a second into a generate run that
    # takes far longer, as Ctrl-C would
    src_dir = Path(isoclique.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-c", INTERRUPTED_GENERATE],
        capture_output=True,
        env=env,
        timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 130
    assert err.splitlines() == ["interrupted"]
    assert "Traceback" not in err


def test_load_diagnostics_reported_on_stderr(capsys, tmp_path):
    path = tmp_path / "dirty.txt"
    path.write_text("a b\na a\nb a\n")
    code, _, err = run_cli(capsys, "enumerate", "--graph", str(path), "--ell", "1")
    assert code == 0
    assert "1 self-loop(s)" in err
    assert "1 duplicate edge(s)" in err


def test_reloading_canonical_output_is_quiet(capsys, tmp_path):
    path = tmp_path / "round.txt"
    run_cli(capsys, "generate", "--gen", "ba:n=12,m=2,seed=4", "--out", str(path))
    code, _, err = run_cli(
        capsys, "enumerate", "--graph", str(path), "--ell", "3", "--count-only"
    )
    assert code == 0
    assert "dropped" not in err


def test_sweep_counts_and_percentages(capsys, pendant_file):
    code, out, _ = run_cli(
        capsys, "sweep", "--graph", pendant_file, "--ells", "1,2,3", "--strategy", "combo"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# graph=")
    assert "total_maximal=2" in lines[0]
    rows = list(csv.DictReader(lines[1:]))
    assert [row["ell"] for row in rows] == ["1", "2", "3"]
    assert [row["isolated_count"] for row in rows] == ["1", "2", "2"]
    assert [row["percent_of_total"] for row in rows] == ["50.00", "100.00", "100.00"]


def test_sweep_counts_never_decrease(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--gen",
        "gnmp:n=40,m=8,p=0.2,seed=11",
        "--ells",
        "1,2,4,8,16,32",
    )
    assert code == 0
    rows = list(csv.DictReader(data_lines(out)))
    counts = [int(row["isolated_count"]) for row in rows]
    assert counts == sorted(counts)


def test_sweep_empty_graph_is_all_zero(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--gen", "gnmp:n=0,m=1,p=0.5,seed=1", "--ells", "1,2"
    )
    assert code == 0
    rows = list(csv.DictReader(data_lines(out)))
    assert [row["isolated_count"] for row in rows] == ["0", "0"]
    assert [row["percent_of_total"] for row in rows] == ["0.00", "0.00"]


def test_distribution_rows(capsys, pendant_file):
    code, out, _ = run_cli(capsys, "distribution", "--graph", pendant_file, "--ells", "1,2")
    assert code == 0
    lines = data_lines(out)
    assert lines[0] == "size,total,l1,l2"
    assert lines[1] == "2,1,0,1"
    assert lines[2] == "3,1,1,1"


def test_distribution_single_clique_graph(capsys):
    code, out, _ = run_cli(
        capsys, "distribution", "--gen", "gnmp:n=5,m=1,p=1,seed=0", "--ells", "3"
    )
    assert code == 0
    assert data_lines(out) == ["size,total,l3", "5,1,1"]


def test_distribution_counts_monotone_per_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "distribution",
        "--gen",
        "gnmp:n=30,m=6,p=0.25,seed=3",
        "--ells",
        "1,2,4,8",
    )
    assert code == 0
    rows = list(csv.DictReader(data_lines(out)))
    for row in rows:
        counts = [int(row[key]) for key in ("l1", "l2", "l4", "l8")]
        assert counts == sorted(counts)
        assert counts[-1] <= int(row["total"])


def test_repeated_factors_and_strategies_run_once(capsys, monkeypatch):
    # a repeat keeps its first place and adds no pass, row or column
    spec = "gnmp:n=40,m=8,p=0.2,seed=11"
    # its 232 edges are under the fork gate: one process, whose chunks each
    # run every factor once
    chunks = cli._root_ranges(isoclique.generate(isoclique.parse_generator_spec(spec)), cli._CHUNKS_PER_JOB)
    assert len(chunks) > 1
    factors = []
    real = cli.enumerate_isolated

    def counted(g, ell, *args, split, **kwargs):
        factors.append((split.roots, ell))
        return real(g, ell, *args, split=split, **kwargs)

    monkeypatch.setattr(cli, "enumerate_isolated", counted)
    outputs = {}
    for ells in ("1,10,1", "1,10"):
        factors.clear()
        code, out, _ = run_cli(capsys, "sweep", "--gen", spec, "--ells", ells)
        assert code == 0
        assert factors == [(roots, ell) for roots in chunks for ell in (1, 10)]
        outputs["sweep", ells] = without_sweep_times(out)
        code, out, _ = run_cli(capsys, "distribution", "--gen", spec, "--ells", ells)
        assert code == 0
        outputs["distribution", ells] = out
    rows = list(csv.DictReader(data_lines(outputs["sweep", "1,10,1"])))
    assert [row["ell"] for row in rows] == ["1", "10"]
    assert outputs["sweep", "1,10,1"] == outputs["sweep", "1,10"]
    lines = outputs["distribution", "1,10,1"].splitlines()
    assert lines[0].endswith(" ells=1,10")
    assert lines[1] == "size,total,l1,l10"
    assert lines == outputs["distribution", "1,10"].splitlines()
    code, out, _ = run_cli(
        capsys, "compare", "--gen", spec, "--ell", "2", "--strategies", "size,none,size"
    )
    assert code == 0
    assert list(parse_compare(out)) == ["size", "none"]


def test_compare_single_baseline_row(capsys, pendant_file):
    code, out, _ = run_cli(
        capsys, "compare", "--graph", pendant_file, "--ell", "1", "--strategies", "none"
    )
    assert code == 0
    rows = data_lines(out)[1:]  # drop the column header
    assert len(rows) == 1
    assert rows[0].split()[0] == "none"
    assert "100.00%" in rows[0]


def parse_compare(out):
    table = {}
    for line in data_lines(out)[1:]:
        fields = line.split()
        table[fields[0]] = {
            "calls": int(fields[1]),
            "calls_pct": float(fields[2].rstrip("%")),
            "emitted": int(fields[5]),
        }
    return table


def test_compare_respects_dominance(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--gen", "gnmp:n=35,m=7,p=0.2,seed=21", "--ell", "2"
    )
    assert code == 0
    table = parse_compare(out)
    assert set(table) == {"none", "size", "degree", "softcore", "degeneracy", "combo"}
    assert len({row["emitted"] for row in table.values()}) == 1
    assert table["combo"]["calls"] == table["softcore"]["calls"]
    assert (
        table["degeneracy"]["calls"]
        <= table["softcore"]["calls"]
        <= table["degree"]["calls"]
        <= table["size"]["calls"]
        <= table["none"]["calls"]
    )
    assert table["none"]["calls_pct"] == 100.0


def header_field(line, key):
    fields = dict(field.split("=", 1) for field in line.split()[1:])
    return fields[key]


def test_compare_rows_match_independent_runs(capsys):
    # compare shares one root split across its engine calls; every row still
    # shows what a run that splits the root itself reports
    spec = "ba:n=800,m=6,seed=3"
    code, out, _ = run_cli(capsys, "compare", "--gen", spec, "--ell", "5")
    assert code == 0
    assert float(header_field(out.splitlines()[0], "rows_ms")) >= 0
    table = parse_compare(out)
    g = isoclique.generate(isoclique.parse_generator_spec(spec))
    for name in isoclique.STRATEGIES:
        stats = isoclique.enumerate_isolated(g, 5, name)
        row = table[name]
        assert (row["calls"], row["emitted"]) == (stats.recursive_calls, stats.emitted)


def test_sweep_and_compare_headers_report_rows_ms(capsys, pendant_file):
    code, out, _ = run_cli(capsys, "sweep", "--graph", pendant_file, "--ells", "1")
    assert code == 0
    assert float(header_field(out.splitlines()[0], "rows_ms")) >= 0
    code, out, _ = run_cli(capsys, "compare", "--graph", pendant_file, "--ell", "1")
    assert code == 0
    head = out.splitlines()[0]
    assert head.startswith("# graph=")
    assert float(header_field(head, "rows_ms")) >= 0


def test_generate_is_byte_identical(capsys, tmp_path):
    first = tmp_path / "one.txt"
    second = tmp_path / "two.txt"
    for path in (first, second):
        code, _, _ = run_cli(
            capsys, "generate", "--gen", "ba:n=30,m=3,seed=5", "--out", str(path)
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_generate_ba_file_contents(capsys, tmp_path):
    path = tmp_path / "ba.txt"
    code, _, _ = run_cli(capsys, "generate", "--gen", "ba:n=5,m=1,seed=7", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert "ba:n=5,m=1,seed=7" in text.splitlines()[0]
    g = load(io.StringIO(text))
    assert (g.vertex_count, g.edge_count) == (5, 4)


def test_generate_empty_feature_model(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--gen", "gnmp:n=10,m=3,p=0,seed=1", "--out", str(path)
    )
    assert code == 0
    g = load(io.StringIO(path.read_text()))
    assert (g.vertex_count, g.edge_count) == (10, 0)


@pytest.mark.parametrize(
    "spec, header",
    [
        ("gnmp:n=350,m=30,p=0.06,seed=12", "# generated: gnmp:n=350,m=30,p=0.06,seed=12"),
        ("gnmp:n=4,m=2,p=1", "# generated: gnmp:n=4,m=2,p=1.0,seed=0"),
        ("ba:n=6,m=2,seed=3", "# generated: ba:n=6,m=2,seed=3"),
        ("ba: m=2 ,n=6", "# generated: ba:n=6,m=2,seed=0"),
    ],
)
def test_generate_header_is_the_canonical_spec(capsys, spec, header):
    code, out, _ = run_cli(capsys, "generate", "--gen", spec)
    assert code == 0
    assert out.splitlines()[0] == header


@pytest.mark.parametrize("spec", ["ba:n=50,m=2,seed=-3", "gnmp:n=50,m=5,p=0.2,seed=-3"])
def test_negative_seed_is_usage_error(capsys, tmp_path, spec):
    path = tmp_path / "g.txt"
    for argv in (
        ["generate", "--gen", spec, "--out", str(path)],
        ["enumerate", "--gen", spec, "--ell", "1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: isoclique ")
        assert error == "isoclique: error: seed must be non-negative, got -3"
    assert not path.exists()


def test_seed_flag_is_usage_error(capsys, pendant_file):
    # a spec carries its own seed, 0 when it omits one; there is no second source
    for argv in (
        ["generate", "--gen", "ba:n=6,m=2,seed=3"],
        ["generate", "--gen", "ba:n=6,m=2"],
        ["enumerate", "--gen", "ba:n=6,m=2", "--ell", "1"],
        ["sweep", "--graph", pendant_file, "--ells", "1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", "9"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


def compare_columns(out):
    """The ``calls`` and ``emitted`` columns of a compare table, per strategy."""
    return {name: (row["calls"], row["emitted"]) for name, row in parse_compare(out).items()}


@forks
@pytest.mark.parametrize(
    "spec", ["gnmp:n=350,m=30,p=0.06,seed=12", "ba:n=3000,m=4,seed=1", "ba:n=2000,m=1,seed=1"]
)
def test_parallel_compare_matches_serial(capsys, monkeypatch, spec):
    # fork on graphs of any size, the tree's 1,999 edges included
    monkeypatch.setattr(cli, "_FORK_MIN_EDGES", 0)
    g = isoclique.generate(isoclique.parse_generator_spec(spec))
    setup = enumeration.RootSetup(g)
    names = list(isoclique.STRATEGIES)
    chunks = cli._root_ranges(g, 3 * cli._CHUNKS_PER_JOB)
    for ell in (1, 5, 50):

        def work(roots, write, ell=ell) -> list:
            # compare's work: every strategy's pass over the chunk's split
            split = split_root(g, roots, setup=setup)
            return [(cli._stats_data(stats), digest) for stats, digest in (cli._pass(g, ell, name, split) for name in names)]

        def untimed(results):
            # every RunStats field but wall_time, and the emitted sequence's
            # hash, per chunk and strategy
            return [[(dict(fields, wall_time=0.0), digest) for fields, digest in chunk] for chunk in results]

        serial = cli._deal(chunks, work, None, 1)
        assert untimed(cli._deal(chunks, work, None, 3)) == untimed(serial)
        # the chunks add up to each strategy's run over the whole root
        whole = split_root(g)
        for name, runs in zip(names, zip(*serial)):
            summed = cli._summed([fields for fields, _ in runs])
            expected = cli._pass(g, ell, name, whole)[0]
            assert dataclasses.replace(summed, wall_time=0.0) == dataclasses.replace(expected, wall_time=0.0)
        tables = []
        for cpus in (1, 2, 3):
            usable_cpus(monkeypatch, cpus)
            code, out, _ = run_cli(capsys, "compare", "--gen", spec, "--ell", str(ell))
            assert code == 0
            assert header_field(out.splitlines()[0], "jobs") == str(cpus)
            tables.append(compare_columns(out))
        assert tables[0] == tables[1] == tables[2]
        none = cli._summed([fields for fields, _ in next(zip(*serial))])
        assert tables[0]["none"] == (none.recursive_calls, none.emitted)


def test_compare_check_sees_order_not_only_counts(monkeypatch):
    def run_emitting(*cliques):
        def run(g, ell, strategy, sink, *, split):
            for vertices in cliques:
                sink(CliqueReport(vertices, 0))
            return RunStats(emitted=len(cliques))

        monkeypatch.setattr(cli, "enumerate_isolated", run)
        return cli._pass(None, 1, "none", None)

    none = run_emitting((0, 1), (2, 3))
    assert cli._disagreement({"none": none, "size": run_emitting((0, 1), (2, 3))}) is None
    swapped = run_emitting((2, 3), (0, 1))
    assert swapped[0].emitted == none[0].emitted
    problem = cli._disagreement({"none": none, "size": swapped, "combo": none})
    assert problem.startswith("strategies size disagree with none on the reported cliques")


def test_compare_exits_3_on_reordered_output(capsys, monkeypatch):
    # one strategy emits the baseline's cliques in reverse order: same count
    real = cli.enumerate_isolated

    def reordered(g, ell, strategy, sink, *, split):
        if strategy != "softcore":
            return real(g, ell, strategy, sink, split=split)
        reports = []
        stats = real(g, ell, strategy, reports.append, split=split)
        for report in reversed(reports):
            sink(report)
        return stats

    monkeypatch.setattr(cli, "enumerate_isolated", reordered)
    code, out, err = run_cli(capsys, "compare", "--gen", "ba:n=800,m=6,seed=3", "--ell", "20")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: strategies softcore disagree with none")
    assert err.count("\n") == 1


def test_compare_with_observer_runs_serially(capsys, monkeypatch):
    nodes = count_search_nodes(monkeypatch)
    code, out, _ = run_cli(capsys, "compare", "--gen", "gnmp:n=350,m=30,p=0.06,seed=12", "--ell", "50")
    assert code == 0
    assert header_field(out.splitlines()[0], "jobs") == "1"
    assert len(nodes) == sum(calls for calls, _ in compare_columns(out).values())


def test_compare_with_another_thread_runs_serially(capsys, monkeypatch, pendant_file):
    # the thread, not the graph's size, keeps compare in one process
    monkeypatch.setattr(cli, "_FORK_MIN_EDGES", 0)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        code, out, _ = run_cli(capsys, "compare", "--graph", pendant_file, "--ell", "1")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert code == 0
    assert header_field(out.splitlines()[0], "jobs") == "1"


@forks
@pytest.mark.parametrize(
    "fault, status, message",
    [
        (None, 0, ""),
        ("raise", 4, "error: a worker process exited with status 1\n"),
        ("kill", 4, f"error: a worker process was killed by signal {int(signal.SIGKILL)}\n"),
        ("interrupt", 130, "interrupted\n"),
    ],
)
def test_no_worker_outlives_compare(capsys, monkeypatch, fault, status, message):
    parent = os.getpid()
    real = cli.enumerate_isolated
    # a failing worker writes a byte to ``start`` once it has taken a chunk,
    # and the parent waits for it, up to 10 s, so that the worker fails while
    # chunks are left in the queue
    started, start = os.pipe()

    def faulty(g, ell, strategy, sink, *, split):
        in_worker = os.getpid() != parent
        if in_worker and fault in ("raise", "kill"):
            os.write(start, b"!")
            if fault == "raise":
                raise MemoryError
            os.kill(os.getpid(), signal.SIGKILL)
        if not in_worker and fault in ("raise", "kill"):
            select.select([started], [], [], 10)
        if not in_worker and fault == "interrupt":
            # Ctrl-C in the parent at its first clique, while the worker runs
            def sink(report):
                raise KeyboardInterrupt

        return real(g, ell, strategy, sink, split=split)

    monkeypatch.setattr(cli, "enumerate_isolated", faulty)
    try:
        code, _, err = run_cli(capsys, "compare", "--gen", "gnmp:n=350,m=30,p=0.06,seed=12", "--ell", "50")
    finally:
        os.close(started)
        os.close(start)
    assert (code, err) == (status, message)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


STAR = "".join(f"hub leaf{i}\n" for i in range(6))


def multibyte_ba() -> str:
    """The edges of ba:n=1000,m=4,seed=1 as an edge list whose labels hold
    two-, three- and four-byte UTF-8 characters."""
    g = isoclique.generate(isoclique.parse_generator_spec("ba:n=1000,m=4,seed=1"))
    label = "Ωμέγα-ü€{}-🙂-Ωμέγα".format
    return "".join(f"{label(u)} {label(v)}\n" for u, row in enumerate(g.adjacency) for v in row if u < v)


def forks_counted(monkeypatch) -> list:
    """Record one entry per os.fork call from now on."""
    calls = []
    real = os.fork

    def fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@forks
@pytest.mark.parametrize(
    "source, ell",
    [
        ("ba:n=800,m=6,seed=3", 5),
        ("ba:n=800,m=6,seed=3", 20),
        ("gnmp:n=350,m=30,p=0.06,seed=12", 50),
        ("ba:n=2000,m=1,seed=1", 2),
        # graphs where a range holds no root child: the root pivot's
        # neighbours are all of the second range, or there is one vertex or none
        ("gnmp:n=8,m=1,p=1,seed=0", 1),
        ("star", 1),
        # labels of two- to four-byte UTF-8 characters, over 64 KiB of
        # text per process, so that a worker's text is more than a pipe holds
        ("multibyte", 250),
        ("gnmp:n=1,m=1,p=1,seed=0", 1),
        ("gnmp:n=0,m=1,p=1,seed=0", 1),
    ],
)
def test_parallel_enumerate_matches_serial(capsys, monkeypatch, tmp_path, source, ell):
    # fork on graphs of any size, so that tiny graphs are split too
    monkeypatch.setattr(cli, "_FORK_MIN_EDGES", 0)
    if source in ("star", "multibyte"):
        text = STAR if source == "star" else multibyte_ba()
        path = tmp_path / f"{source}.txt"
        path.write_text(text, encoding="utf-8")
        graph = ["--graph", str(path)]
        g = load(text.splitlines())
    else:
        graph = ["--gen", source]
        g = isoclique.generate(isoclique.parse_generator_spec(source))
    argv = ["enumerate", *graph, "--ell", str(ell)]
    chunks = cli._root_ranges(g, 16)
    assert [v for r in chunks for v in r] == list(range(g.vertex_count))
    assert 1 <= len(chunks) <= max(1, g.vertex_count)
    setup = enumeration.RootSetup(g)
    if source in ("gnmp:n=8,m=1,p=1,seed=0", "star"):
        # a chunk of neighbours of the root pivot holds no root child
        assert not all(list(enumeration._root_children(setup, r)) for r in chunks)

    # the chunks' runs, dealt to three processes, add up to one run, cliques in order
    def work(roots, write) -> dict:
        def sink(report):
            write(f"{report}\n")

        split = enumeration.RootSplit(setup, roots)
        return cli._stats_data(enumeration.enumerate_isolated(g, ell, "combo", sink, split=split))

    whole = []
    expected = enumeration.enumerate_isolated(g, ell, "combo", lambda r: whole.append(f"{r}\n"))
    parts = []
    summed = cli._summed(cli._deal(chunks, work, parts.append, 3))
    assert dataclasses.replace(summed, wall_time=0.0) == dataclasses.replace(expected, wall_time=0.0)
    assert "".join(parts) == "".join(whole)

    def workers(cpus):
        # the worker processes a command forks with ``cpus`` usable CPUs
        if cpus == 1:
            return 0
        return min(cpus, len(cli._root_ranges(g, cli._CHUNKS_PER_JOB * cpus))) - 1

    forked = forks_counted(monkeypatch)
    for extra in ((), ("--count-only",), ("--sort",), ("--count-only", "--sort")):
        outputs = []
        for cpus in (1, 2, 3):
            usable_cpus(monkeypatch, cpus)
            before = len(forked)
            code, out, err = run_cli(capsys, *argv, *extra)
            assert (code, err) == (0, "")
            # --sort too: each chunk sorts its cliques, and the parent merges them
            assert len(forked) - before == workers(cpus)
            outputs.append(without_elapsed(out))
        assert outputs[0] == outputs[1] == outputs[2]
        if not extra:
            assert outputs[0].endswith(f" emitted={expected.emitted} filtered_at_leaf={expected.filtered_at_leaf}\n")
            assert len(outputs[0].splitlines()) == expected.emitted + 1
            if source == "multibyte":
                # over 64 KiB for each of three processes on average
                assert len(outputs[0].encode()) > 3 * 65536
        elif "--count-only" in extra:
            assert outputs[0] == f"{expected.emitted}\n"

    # sweep runs every factor over each chunk's split, and adds up the chunks
    outputs = []
    for cpus in (1, 2, 3):
        usable_cpus(monkeypatch, cpus)
        before = len(forked)
        code, out, err = run_cli(capsys, "sweep", *graph, "--ells", f"1,{ell},250")
        assert (code, err) == (0, "")
        assert len(forked) - before == workers(cpus)
        outputs.append(without_sweep_times(out))
    assert outputs[0] == outputs[1] == outputs[2]
    total = enumeration.enumerate_all_maximal(g).emitted
    assert f" total_maximal={total}\n" in outputs[0]
    percent = 100.0 * expected.emitted / total if total else 0.0
    # at ell 1 or 250 the factor repeats, and a repeat keeps its first place only
    rows = outputs[0].splitlines()[2:]
    ells = list(dict.fromkeys([1, ell, 250]))
    assert [row.split(",")[0] for row in rows] == list(map(str, ells))
    assert rows[ells.index(ell)] == f"{ell},{expected.emitted},{percent:.2f},{expected.recursive_calls}"


@forks
def test_enumerate_never_builds_a_split(capsys, monkeypatch):
    # enumerate streams each chunk's root children, one child's rows at a
    # time: with split_root raising, in one process and in two, every mode
    # prints the same bytes but for elapsed_ms
    monkeypatch.setattr(cli, "_FORK_MIN_EDGES", 0)
    argv = ["enumerate", "--gen", "ba:n=300,m=4,seed=1", "--ell", "5"]
    forked = forks_counted(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built a root split")

    for extra in ((), ("--sort",), ("--count-only",)):
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            code, expected, err = run_cli(capsys, *argv, *extra)
            assert (code, err) == (0, "")
            before = len(forked)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "split_root", refuse)
                code, out, err = run_cli(capsys, *argv, *extra)
            assert (code, err) == (0, "")
            assert len(forked) - before == cpus - 1
            assert without_elapsed(out) == without_elapsed(expected)
            # --count-only prints one line, the other modes a line per clique
            assert (out.count("\n") == 1) if "--count-only" in extra else (out.count("\n") > 100)


def test_small_graphs_enumerate_in_one_process(capsys, monkeypatch, tmp_path):
    # compare, enumerate and sweep below the edge gate, and compare on an
    # empty graph, fork no worker, even with two usable CPUs. On this
    # 390-edge graph all three ran slower forked
    spec = "ba:n=100,m=4,seed=1"
    assert isoclique.generate(isoclique.parse_generator_spec(spec)).edge_count < cli._FORK_MIN_EDGES
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    forked = forks_counted(monkeypatch)
    for argv in (
        ["enumerate", "--gen", spec, "--ell", "5"],
        ["sweep", "--gen", spec, "--ells", "5,50"],
        ["compare", "--gen", spec, "--ell", "5"],
        ["compare", "--graph", str(empty), "--ell", "1"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        if argv[0] == "compare":
            assert header_field(out.splitlines()[0], "jobs") == "1"
    assert forked == []


def refuse_fork():
    raise AssertionError("a command forked a worker")


@pytest.mark.parametrize("holder", ["observer", "thread"])
def test_enumerate_with_observer_or_thread_runs_serially(capsys, monkeypatch, holder):
    monkeypatch.setattr(os, "fork", refuse_fork)
    nodes = count_search_nodes(monkeypatch) if holder == "observer" else None
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if holder == "thread":
        thread.start()
    try:
        code, out, err = run_cli(capsys, "enumerate", "--gen", "ba:n=800,m=6,seed=3", "--ell", "20")
        enumerated = len(nodes) if holder == "observer" else None
        sweep_code, sweep_out, sweep_err = run_cli(capsys, "sweep", "--gen", "ba:n=800,m=6,seed=3", "--ells", "20")
    finally:
        release.set()
        if holder == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert (code, err) == (0, "")
    assert (sweep_code, sweep_err) == (0, "")
    calls = header_field(out.splitlines()[-1], "recursive_calls")
    # sweep's pass at ell 20 is enumerate's run
    assert data_lines(sweep_out)[1].split(",")[3] == calls
    if holder == "observer":
        assert enumerated == int(calls)


class Children(list):
    """A split's children, in a list that a weak reference can follow."""


def test_one_process_builds_one_chunks_split_at_a_time(capsys, monkeypatch):
    # sweep and compare build one split per chunk of _CHUNKS_PER_JOB when
    # they run in one process, each gone before the next is built; an
    # observed run builds one split of the whole root, even with two usable
    # CPUs, and makes one engine call per pass
    spec = "ba:n=800,m=6,seed=3"
    g = isoclique.generate(isoclique.parse_generator_spec(spec))
    root_children = len(list(enumeration._root_children(enumeration.RootSetup(g))))
    chunks = len(cli._root_ranges(g, cli._CHUNKS_PER_JOB))
    assert chunks > 1
    real = cli.split_root
    built = []  # each split's number of root children
    alive = []  # a weak reference to each split's children

    def recorded(g, roots, *, setup):
        assert all(ref() is None for ref in alive)
        split = real(g, roots, setup=setup)
        children = Children(split.children)
        built.append(len(children))
        alive.append(weakref.ref(children))
        return dataclasses.replace(split, children=children)

    calls = []  # the engine calls made through cli's names

    def counted(name):
        engine = getattr(cli, name)

        def call(*args, **kwargs):
            calls.append(name)
            return engine(*args, **kwargs)

        monkeypatch.setattr(cli, name, call)

    monkeypatch.setattr(cli, "split_root", recorded)
    counted("enumerate_isolated")
    counted("enumerate_all_maximal")
    sweep = ["sweep", "--gen", spec, "--ells", "5,20"]
    compare = ["compare", "--gen", spec, "--ell", "20"]
    usable_cpus(monkeypatch, 1)
    for argv in (sweep, compare):
        built.clear()
        alive.clear()
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(built) == chunks
        assert sum(built) == root_children and max(built) < root_children
    usable_cpus(monkeypatch, 2)
    count_search_nodes(monkeypatch)
    monkeypatch.setattr(os, "fork", refuse_fork)
    for argv, passes in ((sweep, 3), (compare, len(isoclique.STRATEGIES))):
        built.clear()
        calls.clear()
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert built == [root_children]
        assert len(calls) == passes


@forks
@pytest.mark.parametrize("fault, status", [(None, 0), ("raise", 4), ("kill", 4), ("interrupt", 130)])
def test_no_worker_outlives_enumerate(capsys, monkeypatch, fault, status):
    spec = "ba:n=800,m=6,seed=3"  # a graph large enough for enumerate and sweep to fork
    message = {
        None: "",
        "raise": "error: a worker process exited with status 1\n",
        "kill": f"error: a worker process was killed by signal {int(signal.SIGKILL)}\n",
        "interrupt": "interrupted\n",
    }[fault]
    parent = os.getpid()
    real = cli.enumerate_isolated
    # a failing worker writes its pid to ``start`` once it has taken a chunk.
    # The parent, in its first chunk, waits for it, up to 10 s, so that the
    # worker fails while chunks are left in the queue, and then until the
    # worker has exited, without reaping it, so that its next chunk comes
    # after the failure
    started, start = os.pipe()
    failed = []  # the failed worker's pid, once it has exited
    ran_after = []  # one entry per chunk the parent started after that

    def faulty(g, ell, strategy, sink=None, **kwargs):
        in_worker = os.getpid() != parent
        if in_worker and fault in ("raise", "kill"):
            os.write(start, os.getpid().to_bytes(4, "little"))
            if fault == "raise":
                raise MemoryError
            os.kill(os.getpid(), signal.SIGKILL)
        if not in_worker and fault in ("raise", "kill"):
            if failed:
                ran_after.append(1)
            elif select.select([started], [], [], 10)[0]:
                pid = int.from_bytes(os.read(started, 4), "little")
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                failed.append(pid)
        if in_worker and fault == "interrupt":
            # a worker that would still run long after the parent stops
            time.sleep(30)
        if not in_worker and fault == "interrupt":
            # Ctrl-C in the parent, while the worker runs: at enumerate's
            # first clique, or as sweep's first factor starts
            if sink is None:
                raise KeyboardInterrupt

            def sink(report):
                raise KeyboardInterrupt

        return real(g, ell, strategy, sink, **kwargs)

    monkeypatch.setattr(cli, "enumerate_isolated", faulty)
    try:
        for argv in (["enumerate", "--gen", spec, "--ell", "20"], ["sweep", "--gen", spec, "--ells", "20"]):
            failed.clear()
            ran_after.clear()
            start_time = time.monotonic()
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (status, message)
            if fault in ("raise", "kill"):
                # the parent polls the worker before each chunk it takes, so
                # it runs none of the 14 chunks left in the queue
                assert len(failed) == 1 and ran_after == []
            # the parent killed the worker rather than waiting for it
            assert time.monotonic() - start_time < 20
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    finally:
        os.close(started)
        os.close(start)


@forks
@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_each_chunk_runs_once(monkeypatch, tmp_path):
    # three processes, the parent included, deal 24 chunks between them
    monkeypatch.setattr(cli, "_FORK_MIN_EDGES", 0)
    usable_cpus(monkeypatch, 3)
    g = isoclique.generate(isoclique.parse_generator_spec("ba:n=800,m=6,seed=3"))
    chunks = cli._root_ranges(g, 3 * cli._CHUNKS_PER_JOB)
    assert len(chunks) == 24
    fds = sorted(os.listdir("/proc/self/fd"))
    runs = tmp_path / "runs.txt"
    log = os.open(runs, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def work(split, write) -> list:
        # one appended line per run, whichever process runs it
        roots = split.roots
        os.write(log, f"{roots.start}\n".encode())
        time.sleep(0.002)
        write(f"{roots.start}-{roots.stop}\n" * 1000)
        return [roots.start, roots.stop]

    text = []
    try:
        results, jobs = cli._run_chunks(g, work, text.append)
    finally:
        os.close(log)
    assert jobs == 3
    assert results == [[r.start, r.stop] for r in chunks]
    assert "".join(text) == "".join(f"{r.start}-{r.stop}\n" * 1000 for r in chunks)
    assert sorted(map(int, runs.read_text().split())) == [r.start for r in chunks]
    # the queue's read end and every worker's pipe are closed
    assert sorted(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


CLOSED_ENUMERATE = """
import os, sys
from isoclique import cli
os.sched_getaffinity = lambda pid: {0, 1}
code = cli.main(["enumerate", "--gen", "ba:n=3000,m=4,seed=1", "--ell", "250"])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
print("a worker outlived enumerate", file=sys.stderr)
sys.exit(99)
"""


@forks
def test_no_worker_outlives_enumerate_with_closed_stdout():
    # as in `isoclique enumerate ... | head -1`, with two usable CPUs
    src_dir = Path(isoclique.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.Popen(
        [sys.executable, "-c", CLOSED_ENUMERATE], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (0, b"")


FULL_STDOUT = """
import os, sys
from isoclique import cli
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
os.sched_getaffinity = lambda pid: {0, 1}
cli._FORK_MIN_EDGES = int(sys.argv[1])
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(f"forks={len(forks)}", file=sys.stderr)
    sys.exit(code)
print("a worker outlived the command", file=sys.stderr)
sys.exit(99)
"""

FULL = "error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, forked",
    [
        pytest.param(["enumerate", "--ell", "5"], False, id="enumerate"),
        pytest.param(["enumerate", "--ell", "5"], True, marks=forks, id="enumerate-forked"),
        pytest.param(["sweep", "--ells", "5,50"], False, id="sweep"),
        pytest.param(["compare", "--ell", "5"], False, id="compare"),
        pytest.param(["distribution", "--ells", "5,50"], False, id="distribution"),
        pytest.param(["generate"], False, id="generate"),
    ],
)
def test_full_device_ends_in_one_line(capsys, monkeypatch, argv, forked):
    # --out on a full device, and stdout on one in a child process: exit 1
    # with one error line, and no worker left. Forked, with two usable CPUs,
    # the 1,190-edge graph is cut between the caller and one worker
    argv = [*argv, "--gen", "ba:n=300,m=4,seed=1"]
    min_edges = 0 if forked else cli._FORK_MIN_EDGES
    monkeypatch.setattr(cli, "_FORK_MIN_EDGES", min_edges)
    forked_calls = forks_counted(monkeypatch)
    assert run_cli(capsys, *argv, "--out", "/dev/full") == (1, "", FULL)
    assert len(forked_calls) == forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    src_dir = Path(isoclique.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", FULL_STDOUT, str(min_edges), *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (1, f"{FULL}forks={int(forked)}\n")


GENERATE_IN_64_MIB = """
import os, resource, sys
from isoclique import cli
with open("/proc/self/status") as fh:
    size_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
limit = (size_kib + 64 * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(cli.main(["generate", "--gen", sys.argv[1], "--out", os.devnull]))
"""


def generate_in_64_mib(spec):
    """Run ``isoclique generate --gen spec`` in a child process whose
    address space may grow by 64 MiB."""
    src_dir = Path(isoclique.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    return subprocess.run(
        [sys.executable, "-c", GENERATE_IN_64_MIB, spec], capture_output=True, env=env, timeout=120
    )


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_out_of_memory_exits_with_one_line():
    # every vertex draws the one feature, so the rows hold 20000 * 19999
    # pointers, 3.2 GB, far more than 64 MiB; the fit check counts no edges
    # for gnmp, and its 160 kB bound passes on any host
    proc = generate_in_64_mib("gnmp:n=20000,m=1,p=1,seed=1")
    assert proc.returncode == 4
    assert proc.stderr.decode().splitlines() == ["error: out of memory"]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_impossible_spec_is_refused_before_drawing():
    # 100 billion vertices and 200 billion edges need terabytes: a usage
    # error, not a run until memory runs out
    proc = generate_in_64_mib("ba:n=100000000000,m=2,seed=1")
    assert proc.returncode == 2
    last = proc.stderr.decode().splitlines()[-1]
    assert last.startswith("isoclique: error: generator spec 'ba:n=100000000000,m=2,seed=1' needs at least")
