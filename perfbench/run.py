"""harmonium benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload exact_ladder --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports harmonium from its
``src/``. With ``--trace 0`` it times whole passes over the workload with
tracing off and reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
(see tracer.py). It prints a readable report and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 when every check passed, 1 when one failed and 2 when the checkout or
the arguments are unusable (no JSON is printed then).

End-to-end metrics:
  setup_s          median over SETUP_REPEATS fresh processes of the time to
                   import harmonium and build or parse every instance
  wall_s           median time of one pass over the workload
  lower_bound_sum  sum of lower_bounds(g).combined over the graphs the pass
                   checks (higher is better: a faster but weaker bound shows)
  colors_used      total colors of the colorings the pass produces and checks
  peak_rss_mb      peak resident memory of the benchmark process
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracer as tr
import workloads as wl

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5

#: A run stops starting passes or solves after this many seconds, so a
#: regression cannot keep the process past the 180 s limit.
RUN_DEADLINE_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "lower_bound_sum": "count",
    "colors_used": "count",
    "peak_rss_mb": "MB",
}

# Probe run in a fresh interpreter: import harmonium and build the instances.
_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
t0 = time.perf_counter()
import harmonium
workloads.setup(harmonium, {workload!r}, {seed!r})
print(time.perf_counter() - t0)
"""


class Unusable(Exception):
    """The checkout cannot produce a measurement."""


def import_harmonium():
    if not os.path.isfile(os.path.join(SRC, "harmonium", "__init__.py")):
        raise Unusable(f"no harmonium sources under {SRC}")
    sys.path.insert(0, SRC)
    import harmonium
    import harmonium.cli  # noqa: F401  traced even where a workload does not use it

    where = os.path.dirname(os.path.abspath(harmonium.__file__))
    if where != os.path.join(SRC, "harmonium"):
        raise Unusable(f"imported harmonium from {where}, not from {SRC}")
    return harmonium


def measure_setup(workload: str, seed: int) -> list[float]:
    """Setup time of SETUP_REPEATS fresh interpreters, one after another."""
    code = _PROBE.format(src=SRC, bench=BENCH_DIR, workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise Unusable(f"setup probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


def run_passes(H, workload, inst, fresh, seconds, deadline, tracer=None):
    """Passes for about `seconds`: another starts only when it is expected to
    fit, and at least one always runs. With a tracer, every untraced pass is
    followed by a traced one.

    Returns (untraced [(seconds, PassResult)], traced [(seconds, PassResult,
    per-layer metrics)], spans of the last traced pass)."""
    plain, traced, spans = [], [], []
    mark = None if tracer is None else (lambda iid: setattr(tracer, "mark", iid))
    start = time.monotonic()
    while True:
        fresh.restore()
        t0 = time.perf_counter()
        result = wl.run_pass(H, workload, inst, deadline)
        plain.append((time.perf_counter() - t0, result))
        if tracer:
            fresh.restore()
            tracer.reset()
            tracer.install()
            try:
                t0 = time.perf_counter()
                result = tracer.root(wl.run_pass, H, workload, inst, deadline, mark=mark)
                elapsed = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            spans = tracer.spans
            traced.append((elapsed, result, layer_metrics(spans, result)))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds or time.monotonic() + per_round > deadline:
            return plain, traced, spans


def layer_metrics(spans, result) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = tr.self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in tr.LAYERS}
    for span, own in zip(spans, selfs):
        m[f"{span.layer}.self_s"] += own
    by_name = tr.inclusive_seconds(spans, lambda s: s.name)
    calls: dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    ks = [s.data for s in spans if s.name == "solver.exists_k" and s.data]

    def data_sum(name, key):
        return sum(s.data.get(key, 0) for s in spans if s.name == name)

    search_s = by_name.get("solver.exists_k", 0.0)
    nodes = sum(k["nodes"] for k in ks)
    reproduce = [i for i, s in enumerate(spans) if s.name == "cli.reproduce"]
    m.update({
        "graph.stats_s": by_name.get("graph.stats", 0.0),
        "graph.stats_calls": calls.get("graph.stats", 0),
        "graph.closed_n2_s": by_name.get("graph.closed_n2", 0.0),
        "graph.closed_n2_calls": calls.get("graph.closed_n2", 0),
        "verify.lower_bounds_s": by_name.get("verify.lower_bounds", 0.0),
        "verify.lower_bounds_calls": calls.get("verify.lower_bounds", 0),
        "verify.is_harmonious_s": by_name.get("verify.is_harmonious", 0.0),
        "verify.is_harmonious_calls": calls.get("verify.is_harmonious", 0),
        "solver.search_s": search_s,
        "solver.k_calls": len(ks),
        "solver.k_infeasible": sum(k["status"] == "infeasible" for k in ks),
        "solver.k_witness": sum(k["status"] == "witness" for k in ks),
        "solver.k_budget": sum(k["status"] == "budget_exhausted" for k in ks),
        "solver.search_nodes": nodes,
        "solver.nodes_infeasible": sum(k["nodes"] for k in ks if k["status"] == "infeasible"),
        "solver.nodes_witness": sum(k["nodes"] for k in ks if k["status"] == "witness"),
        "solver.nodes_per_s": nodes / search_s if search_s else 0.0,
        "solver.start_gap": result.counts.get("start_gap", 0),
        "heuristics.greedy_s": by_name.get("heuristics.greedy", 0.0),
        "heuristics.vc_cover_s": by_name.get("heuristics.min_vertex_cover", 0.0),
        "heuristics.vc_coloring_s": by_name.get("heuristics.vc_coloring", 0.0),
        "heuristics.greedy_colors": data_sum("heuristics.greedy", "colors"),
        "heuristics.vc_colors": data_sum("heuristics.vc_coloring", "colors"),
        "heuristics.vc_cover_size": data_sum("heuristics.min_vertex_cover", "size"),
        "constructive.s": tr.inclusive_seconds(spans, lambda s: s.layer).get("constructive", 0.0),
        "constructive.solver_calls": sum(s.name == "solver.solve" and s.via == "constructive"
                                         for s in spans),
        "reduction.verify_equivalence_s": by_name.get("reduction.verify_equivalence", 0.0),
        "cli.reproduce_s": sum(spans[i].seconds for i in reproduce),
        "cli.reproduce_self_s": sum(selfs[i] for i in reproduce),
        "cli.rows_ok": result.counts.get("rows_ok", 0),
        "cli.rows_failed": result.counts.get("rows_failed", 0),
    })
    for iid in wl.LADDER_IDS:
        m[f"solver.nodes.{iid}"] = result.counts.get(f"solver.nodes.{iid}", 0)
    return m


def per_k_lines(spans) -> list[str]:
    return [f"  {s.mark:<22} k={s.data['k']:<3} {s.data['status']:<16} "
            f"nodes={s.data['nodes']:<9} {s.seconds:.3f}s"
            for s in spans if s.name == "solver.exists_k" and s.data and s.mark]


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = list(layer_metrics([], wl.PassResult())) + [
        "graph.build_s", "graph.parse_s", "trace.wall_s", "trace.overhead_s"]
    return [(n, "1/s" if n.endswith("_per_s")
             else "s" if n.endswith("_s") or n == "constructive.s" else "count")
            for n in names]


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object and a readable report."""
    lines = [f"workload: {workload}", f"seed: {seed}"]
    H = import_harmonium()
    fresh = wl.FreshCaches([m for name, m in sorted(sys.modules.items())
                            if name == "harmonium" or name.startswith("harmonium.")])
    setup_times = measure_setup(workload, seed)
    deadline = time.monotonic() + RUN_DEADLINE_S
    tracer = tr.Tracer(H) if trace else None
    if tracer:
        tracer.install()
        try:
            inst = tracer.root(wl.setup, H, workload, seed)
        finally:
            tracer.uninstall()
        setup_by_name = tr.inclusive_seconds(tracer.spans, lambda s: s.name)
    else:
        inst = wl.setup(H, workload, seed)
    if workload == "exact_ladder":
        lines.append("random instances: " + ", ".join(
            f"{iid} (rng seed '{seed}/{iid}')" for iid in wl.LADDER_RANDOM))
    elif workload == "large_sparse":
        lines.append(f"random instance: gnp1000 (rng seed '{seed}/gnp1000')")

    plain, traced, last_spans = run_passes(H, workload, inst, fresh, seconds, deadline, tracer)
    results = [r for _, r in plain] + [r for _, r, _ in traced]
    run_checks = wl.PassResult()
    first = results[0]
    for r in results[1:]:
        run_checks.check(r.counts == first.counts, "deterministic counts differ between passes")
    walls = [t for t, _ in plain]
    lines += [f"passes: {len(walls)} untraced" + (f", {len(traced)} traced" if trace else ""),
              f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}",
              f"wall_s: median {statistics.median(walls):.4f} s, min {min(walls):.4f}, "
              f"max {max(walls):.4f}, quartile spread {spread(walls):.3f} of the median"]
    lines += first.details
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "lower_bound_sum": first.counts.get("lower_bound_sum", 0),
            "colors_used": first.counts.get("colors_used", 0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END.items()
    else:
        per_pass = [m for _, _, m in traced]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["graph.build_s"] = setup_by_name.get("graph.build", 0.0)
        values["graph.parse_s"] = setup_by_name.get("graph.parse", 0.0)
        values["trace.wall_s"] = statistics.median(t for t, _, _ in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        if workload == "exact_ladder":
            run_checks.check(per_pass[0]["solver.search_nodes"] == first.counts["search_nodes"],
                             "traced and untraced search nodes differ")
            lines.append("per-k search (last traced pass):")
            lines += per_k_lines(last_spans)
        units = per_layer_spec()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, m in metrics.items():
        lines.append(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
    failures = [f for r in results + [run_checks] for f in r.failures]
    lines += [f"FAILED: {f}" for f in failures]
    return {
        "report": lines,
        "result": {"correct": not failures,
                   "attempted": sum(r.attempted for r in results + [run_checks]),
                   "failed": len(failures), "metrics": metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unusable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
