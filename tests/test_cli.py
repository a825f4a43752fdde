import csv
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import isoclique
from isoclique import load_edge_list
from isoclique.cli import main

TRIANGLE_PENDANT = "a b\nb c\nc a\na d\n"


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
    text = re.sub(r" elapsed_ms=\S+", "", out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert str(path) in err
    assert err.count("\n") == 1


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
        [sys.executable, "-m", "isoclique.cli", *argv],
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
    g = load_edge_list(io.StringIO(text))
    assert (g.vertex_count, g.edge_count) == (5, 4)


def test_generate_empty_feature_model(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--gen", "gnmp:n=10,m=3,p=0,seed=1", "--out", str(path)
    )
    assert code == 0
    g = load_edge_list(io.StringIO(path.read_text()))
    assert (g.vertex_count, g.edge_count) == (10, 0)


def test_generate_seed_flag_fills_missing_seed(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run_cli(capsys, "generate", "--gen", "ba:n=20,m=2", "--seed", "77", "--out", str(a))
    run_cli(capsys, "generate", "--gen", "ba:n=20,m=2,seed=77", "--out", str(b))
    assert a.read_text() == b.read_text()
