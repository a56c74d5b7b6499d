"""Self-checks of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q

The exact_ladder test runs the whole ladder twice (about 40 s).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tr
import workloads as wl

H = run.import_harmonium()

#: exists_k node counts of the seed solver (default SolverConfig).
SEED_NODES = {
    "C19": 1_301_222, "C20": 1_893_200, "C22": 36_699, "C23": 85_203, "C24": 178_635,
    "GP10-1": 457_853, "GP10-2": 331_445, "GP10-3": 1_082_171,
}


def traced_pass(workload, inst):
    tracer = tr.Tracer(H)
    tracer.install()
    try:
        result = tracer.root(wl.run_pass, H, workload, inst, float("inf"),
                             mark=lambda iid: setattr(tracer, "mark", iid))
    finally:
        tracer.uninstall()
    return result, tracer.spans


def test_exact_ladder_is_deterministic_and_matches_seed_numbers():
    inst = wl.setup(H, "exact_ladder", wl.DEFAULT_SEED)
    plain = wl.run_pass(H, "exact_ladder", inst, float("inf"))
    traced, spans = traced_pass("exact_ladder", inst)
    assert plain.failures == [] and traced.failures == []
    assert plain.counts == traced.counts
    for iid in wl.LADDER_IDS:
        assert plain.counts[f"solver.nodes.{iid}"] == traced.counts[f"solver.nodes.{iid}"]
    for iid, nodes in SEED_NODES.items():
        assert plain.counts[f"solver.nodes.{iid}"] == nodes, iid
    assert plain.counts["lower_bound_sum"] == 247
    assert plain.counts["colors_used"] == 271
    metrics = run.layer_metrics(spans, traced)
    assert metrics["solver.search_nodes"] == plain.counts["search_nodes"]
    c20 = {s.data["k"]: (s.data["status"], s.data["nodes"])
           for s in spans if s.name == "solver.exists_k" and s.mark == "C20"}
    assert c20 == {7: ("infeasible", 1_888_430), 8: ("witness", 4_770)}
    root = spans[0]
    assert metrics["solver.search_s"] >= 0.95 * root.seconds


def test_large_sparse_never_enters_the_solver():
    inst = wl.setup(H, "large_sparse", wl.DEFAULT_SEED)
    inst["graphs"] = inst["graphs"][:1]  # GP(500,3) only, to keep the test short
    result, spans = traced_pass("large_sparse", inst)
    assert result.failures == []
    metrics = run.layer_metrics(spans, result)
    assert metrics["solver.k_calls"] == 0
    covered = metrics["verify.lower_bounds_s"] + sum(
        metrics[f"heuristics.{m}_s"] for m in ("greedy", "vc_cover", "vc_coloring"))
    assert covered >= 0.95 * spans[0].seconds


def test_self_times_add_up_to_the_pass():
    inst = wl.setup(H, "paper_table", wl.DEFAULT_SEED)
    result, spans = traced_pass("paper_table", inst)
    assert result.failures == []
    assert result.counts["rows_ok"] == len(wl.PAPER_ROWS)
    metrics = run.layer_metrics(spans, result)
    total = sum(metrics[f"{layer}.self_s"] for layer in tr.LAYERS)
    assert total == pytest.approx(spans[0].seconds, rel=1e-9)


def test_a_skipped_reproduce_row_is_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver unavailable")

    monkeypatch.setattr(H.cli, "solve", broken)
    inst = wl.setup(H, "paper_table", wl.DEFAULT_SEED)
    result = wl.run_pass(H, "paper_table", inst, float("inf"))
    assert result.counts["rows_failed"] > 0
    assert any("SKIPPED" in f for f in result.failures)


def test_missing_trace_target_fails_loudly(monkeypatch):
    monkeypatch.delattr(H.verify, "closed_n2")
    original = H.solver.exists_k
    with pytest.raises(AttributeError):
        tr.Tracer(H).install()
    assert H.solver.exists_k is original  # nothing is left half-installed


def test_fresh_caches_restores_the_import_state():
    cache = H.constructive._h_cycle_cache
    cache.clear()
    fresh = wl.FreshCaches([H.constructive])
    H.constructive.h_cycle(6)
    assert cache
    fresh.restore()
    assert cache == {}


def test_seed_changes_random_instances_only():
    a = dict(wl.setup(H, "exact_ladder", 1)["graphs"])
    b = dict(wl.setup(H, "exact_ladder", 2)["graphs"])
    assert all(a[i] == b[i] for i in wl.LADDER_IDS if i not in wl.LADDER_RANDOM)
    assert any(a[i] != b[i] for i in wl.LADDER_RANDOM)
    assert a["cubic18-1"] == dict(wl.setup(H, "exact_ladder", 1)["graphs"])["cubic18-1"]


def test_names_fit_the_metric_alphabet():
    names = [n for n, _ in run.per_layer_spec()] + list(run.END_TO_END)
    assert len(set(names)) == len(names)
    for name in names:
        assert len(name) <= 64 and all(c.isalnum() or c in "_.-" for c in name), name


def test_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.BENCH_DIR):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.BENCH_DIR, name), bench / name)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_what_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
