"""Self-test of the benchmark harness on small seeded graphs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

pytest.importorskip("networkx")

SMALL = [
    Workload("small-enumerate", "ba:n=80,m=4", ("enumerate", "--ell", "3", "--strategy", "combo"), 1),
    Workload("small-compare", "gnmp:n=60,m=12,p=0.12", ("compare", "--ell", "3"), 2),
    Workload("small-sweep", "ba:n=80,m=3", ("sweep", "--ells", "1,3"), 1),
]


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def hook_targets():
    targets = {}
    for module_name, attr in [*tracer.SPAN_HOOKS.values(), tracer.NODE_HOOK]:
        module = importlib.import_module(module_name)
        targets[(module_name, attr)] = getattr(module, attr, None)
    return targets


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_counts_match_runstats_and_output(workload, tmp_path):
    outcome = run.run(workload, seed=3, seconds=0.0, trace=True, work=tmp_path)
    result = outcome["result"]
    assert result["correct"], outcome["notes"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    printed = outcome["counters"][0]
    nodes = sum(v for k, v in printed.items() if k.startswith("nodes."))
    if workload.command[0] != "sweep":  # the sweep does not print its maximal-clique pass
        assert metrics["enumeration.nodes"]["value"] == nodes
    assert metrics["enumeration.nodes"]["value"] > 0
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_wrappers_count_every_search_node(tmp_path):
    cli = run.import_cli()
    workload = SMALL[1]
    graphs, _ = run.set_up(cli, workload, 5, tmp_path)
    (rep,) = run.measure(cli, workload, graphs[:1], 0.0, tmp_path, "t", traced=True)
    total = sum(stats.recursive_calls for _, _, stats in rep.tracer.passes)
    assert rep.tracer.nodes == total > 0
    assert len(rep.tracer.passes) == 6


def test_originals_restored_after_traced_run(tmp_path):
    before = hook_targets()
    run.run(SMALL[0], seed=1, seconds=0.0, trace=True, work=tmp_path)
    assert hook_targets() == before


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    outcome = run.run(SMALL[0], seed=1, seconds=0.0, trace=False, work=tmp_path)
    assert outcome["result"]["correct"]


def test_missing_hook_reads_null(tmp_path, monkeypatch):
    monkeypatch.setitem(tracer.SPAN_HOOKS, "enumeration.pivot", ("isoclique.enumeration", "no_such_name"))
    outcome = run.run(SMALL[0], seed=1, seconds=0.0, trace=True, work=tmp_path)
    metrics = outcome["result"]["metrics"]
    for name in ("enumeration.pivot.calls", "enumeration.pivot.self_s", "enumeration.pivot.scanned"):
        assert metrics[name]["value"] is None
    assert metrics["graph.intersect.calls"]["value"] > 0
    assert '"value": null' in json.dumps(outcome["result"])
    assert outcome["result"]["correct"]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_corrupted_output_fails_every_invocation(workload, tmp_path, monkeypatch):
    cli = run.import_cli()
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[0] != "generate":
            out = Path(argv[argv.index("--out") + 1])
            lines = out.read_text(encoding="utf-8").splitlines()
            # drop one reported clique, or change one reported count
            if workload.command[0] == "enumerate":
                del lines[0]
            elif workload.command[0] == "compare":
                lines[-1] = lines[-1].rsplit(None, 1)[0] + " 999999"
            else:
                fields = lines[-1].split(",")
                fields[1] = "999999"
                lines[-1] = ",".join(fields)
            out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    outcome = run.run(workload, seed=2, seconds=0.0, trace=False, work=tmp_path)
    assert outcome["error_rate"] == 1.0
    assert not outcome["result"]["correct"]
    assert outcome["result"]["metrics"]["success_rate"]["value"] == 0.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_pins_cover_every_workload_graph():
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    for name, workload in WORKLOADS.items():
        assert len(pins["workloads"][name]) == workload.graphs


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ba-enumerate", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
