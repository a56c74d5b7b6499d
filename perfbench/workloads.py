"""The benchmark's workloads: their instances, one timed pass each, and the checks.

Every function takes the imported ``harmonium`` package as ``H`` and reaches
the library through module attributes (``H.solver.solve``), so a traced run
sees each call through the wrappers installed on those attributes. Random
instances are generated here from the seed; the library only receives the
finished graphs. This module imports no part of harmonium itself, so timing
``import harmonium`` plus ``setup`` measures what a fresh process pays.

Workloads (all closed-loop from one process, one call at a time):

paper_table
    ``harmonium reproduce --json`` (all 37 published rows) plus the closed
    forms for sunflower, sun, closed sun and the lollipop grid. Many tiny
    calls, so per-call set-up (bounds, search init, CLI, closed forms)
    dominates and the deep search does almost nothing.
exact_ladder
    ``solve`` on cycles, generalized Petersen graphs, named cubic graphs and
    seeded random graphs harder than the paper's. Almost all of the time is
    proofs that k = h - 1 colors are infeasible; it mixes million-node proofs
    with near-free witness finds, so a change of order or pruning shows on
    both sides.
large_sparse
    Bounds and heuristics on graphs with 1000-4000 vertices; no exact
    search. The all-pairs BFS behind the bounds dominates here, so a bounds
    or heuristics change shows on this workload and nothing on exact_ladder.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field

WORKLOADS = ("paper_table", "exact_ladder", "large_sparse")

#: The seed for which RANDOM_H holds.
DEFAULT_SEED = 1

#: Per-k solver budget in seconds. Generous (about 6x the slowest proof at
#: seed) so that only a hang trips it; a budget stop counts as a failure.
SOLVE_TIME_BUDGET = 30.0

#: Published values recomputed by `harmonium reproduce`, keyed by row id.
PAPER_ROWS = {
    "planar33_8_1": 7, "planar33_8_2": 7, "planar33_8_3": 7,
    "planar33_10_1": 7, "planar33_10_2": 7, "planar33_10_3": 7,
    "planar33_10_4": 7, "planar33_10_5": 7, "planar33_10_6": 7,
    "planar33_12_1": 8, "planar33_12_2": 8,
    "bidiakis": 8, "franklin": 9, "tietze": 9, "yutsis": 9, "GP(5,1)": 7,
    "sunflower(3)": 7, "sunflower(4)": 7, "sunflower(5)": 8, "sunflower(6)": 8,
    "sunflower(7)": 8, "sunflower(8)": 9, "sunflower(9)": 10,
    "sun(5)": 8, "sun(6)": 8, "closed_sun(5)": 10, "closed_sun(6)": 11,
    "lollipop(6,4)": 8,
    "greedy(adversarial_tree(4))": 10, "good_coloring(4) <= 6": 1,
    "greedy(adversarial_tree(5))": 17, "good_coloring(5) <= 8": 1,
    "greedy(adversarial_tree(6))": 26, "good_coloring(6) <= 10": 1,
    "reduction(C_5, k=2)": 1, "reduction(C_5, k=3)": 1, "reduction(C_4, k=1)": 1,
}

#: h(C_n); the closed sun on n >= 6 takes n + h(C_n) colors.
CYCLE_H = {6: 5, 7: 5, 8: 6, 9: 6, 10: 5, 11: 6, 12: 6, 13: 7, 14: 7, 15: 7, 16: 7,
           17: 7, 18: 7, 19: 8, 20: 8, 21: 7, 22: 8, 23: 8, 24: 8}

#: h(L_{n,m}) for n = 3..8 (rows) and m = 2..12 (columns).
LOLLIPOP_H = {
    3: (4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 7),
    4: (5, 5, 6, 6, 6, 6, 6, 6, 7, 7, 7),
    5: (6, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7),
    6: (7, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    7: (8, 8, 9, 9, 9, 9, 9, 9, 9, 9, 9),
    8: (9, 9, 10, 10, 10, 10, 10, 10, 10, 10, 10),
}

#: Exact h of the fixed exact_ladder instances.
LADDER_H = {
    **{f"C{n}": CYCLE_H[n] for n in range(14, 25)},
    "GP7-1": 9, "GP7-2": 7, "GP7-3": 7, "GP8-1": 8, "GP8-2": 8, "GP8-3": 8,
    "GP9-1": 9, "GP9-2": 9, "GP9-3": 9, "GP10-1": 10, "GP10-2": 10, "GP10-3": 10,
    "franklin": 9, "tietze": 9, "yutsis": 9, "bidiakis": 8,
    "truncated_tetrahedron": 8, "planar33_12_1": 8, "planar33_12_2": 8,
}

#: Exact h of the random exact_ladder instances at DEFAULT_SEED.
RANDOM_H = {"cubic18-1": 9, "cubic18-2": 9, "gnp16": 8}

LADDER_NAMED = ("franklin", "tietze", "yutsis", "bidiakis", "truncated_tetrahedron",
                "planar33_12_1", "planar33_12_2")
LADDER_RANDOM = ("cubic18-1", "cubic18-2", "gnp16")
LADDER_IDS = (
    tuple(f"C{n}" for n in range(14, 25))
    + tuple(f"GP{n}-{k}" for n in range(7, 11) for k in range(1, 4) if k < n / 2)
    + LADDER_NAMED + LADDER_RANDOM
)
SPARSE_IDS = ("GP500-3", "GP1000-3", "GP2000-3", "gnp1000")


@dataclass
class PassResult:
    """What one pass did: operations attempted, failures, deterministic counts."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    details: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


# ---------------------------------------------------------------- instances


def instance_rng(seed: int, iid: str) -> random.Random:
    return random.Random(f"{seed}/{iid}")


def random_cubic_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Configuration model, redrawn until simple and connected."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges) \
                and _connected(n, edges):
            return sorted(edges)


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def setup(H, workload: str, seed: int) -> dict:
    """Build (or parse) every instance a workload's passes use."""
    if workload == "paper_table":
        import harmonium.cli  # noqa: F401  the CLI is part of what a user loads
        fam = H.families
        return {
            "closed_sun": [(n, fam.closed_sun(n)) for n in range(3, 17)],
            "sunflower": [(n, fam.sunflower(n)) for n in range(7, 17)],
            "sun": [(n, fam.sun(n)) for n in range(3, 17)],
            "lollipop": [((n, m), fam.lollipop(n, m))
                         for n in range(3, 9) for m in range(2, 13)],
        }
    if workload == "exact_ladder":
        graphs = []
        for iid in LADDER_IDS:
            if iid.startswith("C"):
                g = H.families.cycle(int(iid[1:]))
            elif iid.startswith("GP"):
                n, k = iid[2:].split("-")
                g = H.families.generalized_petersen(int(n), int(k))
            elif iid.startswith("cubic18"):
                g = H.graph.from_edge_list(18, random_cubic_edges(instance_rng(seed, iid), 18))
            elif iid.startswith("gnp16"):
                g = H.graph.from_edge_list(16, gnp_edges(instance_rng(seed, iid), 16, 0.2))
            else:
                g = H.catalog.named(iid)
            graphs.append((iid, g))
        return {"graphs": graphs, "seed": seed}
    if workload == "large_sparse":
        graphs = []
        for iid in SPARSE_IDS:
            rng = instance_rng(seed, iid)
            if iid.startswith("GP"):
                n, k = iid[2:].split("-")
                built = H.families.generalized_petersen(int(n), int(k))
            else:
                built = H.graph.from_edge_list(1000, gnp_edges(rng, 1000, 0.005))
            # instances arrive as edge-list files, as they would on the CLI
            g = H.graph.parse_edge_list(H.graph.emit_edge_list(built))
            order = list(range(g.n))
            rng.shuffle(order)
            graphs.append((iid, g, order))
        return {"graphs": graphs}
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------- passes


def run_pass(H, workload: str, inst: dict, deadline: float, mark=None) -> PassResult:
    """One timed pass. mark(instance_id), when given, labels the calls that follow."""
    mark = mark or (lambda iid: None)
    if workload == "paper_table":
        return _paper_table(H, inst, mark)
    if workload == "exact_ladder":
        return _exact_ladder(H, inst, deadline, mark)
    if workload == "large_sparse":
        return _large_sparse(H, inst, mark)
    raise ValueError(f"unknown workload {workload!r}")


def _colored(H, r: PassResult, what: str, g, make, expected: int) -> None:
    """A closed-form coloring make(): harmonious, expected colors, bound below it."""
    try:
        c = make()
        combined = H.verify.lower_bounds(g).combined
        verdict = H.verify.is_harmonious(g, c)
    except Exception as exc:  # counted as a failed operation, the pass goes on
        r.check(False, f"{what}: raised {type(exc).__name__}: {exc}")
        return
    r.check(verdict.ok and c.k == expected and combined <= c.k,
            f"{what}: harmonious={verdict.kind} colors={c.k} expected={expected} "
            f"combined={combined}")
    r.add("lower_bound_sum", combined)
    r.add("colors_used", c.k)


def _paper_table(H, inst: dict, mark) -> PassResult:
    r = PassResult()
    mark("reproduce")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = H.cli.main(["reproduce", "--json"])
        rows = json.loads(out.getvalue())
    except Exception as exc:  # a crash fails every row it should have produced
        code, rows = f"{type(exc).__name__}: {exc}", []
    r.check(code == 0, f"reproduce returned {code}")
    seen = set()
    for row in rows:
        gid = row.get("graph_id")
        seen.add(gid)
        # a SKIPPED row is a failure here, whatever the CLI marks it
        ok = r.check(gid in PAPER_ROWS and row.get("computed") == row.get("expected")
                     == PAPER_ROWS[gid], f"reproduce row {gid}: {row}")
        r.add("rows_ok" if ok else "rows_failed", 1)
    for gid in PAPER_ROWS.keys() - seen:
        r.check(False, f"reproduce row {gid} missing")
        r.add("rows_failed", 1)
    con = H.constructive
    for n, g in inst["closed_sun"]:
        mark(f"closed_sun{n}")
        _colored(H, r, f"closed_sun({n})", g, lambda: con.color_closed_sun(n),
                 2 * n if n <= 5 else n + CYCLE_H[n])
    for n, g in inst["sunflower"]:
        mark(f"sunflower{n}")
        _colored(H, r, f"sunflower({n})", g, lambda: con.color_sunflower(n), n + 1)
    for n, g in inst["sun"]:
        mark(f"sun{n}")
        _colored(H, r, f"sun({n})", g, lambda: con.color_sun(n),
                 n + 2 if n % 2 == 0 else n + 3)
    for (n, m), g in inst["lollipop"]:
        mark(f"lollipop{n}-{m}")
        expected = LOLLIPOP_H[n][m - 2]
        try:
            h = con.lollipop_h(n, m)
        except Exception as exc:
            h = f"{type(exc).__name__}: {exc}"
        r.check(h == expected, f"lollipop_h({n},{m}) = {h}, expected {expected}")
        _colored(H, r, f"lollipop({n},{m})", g,
                 lambda: con.lollipop_coloring(con.lollipop_plan(n, m)), expected)
    mark("")
    return r


def _exact_ladder(H, inst: dict, deadline: float, mark) -> PassResult:
    r = PassResult()
    cfg = H.solver.SolverConfig(time_budget=SOLVE_TIME_BUDGET)
    for iid, g in inst["graphs"]:
        mark(iid)
        expected = LADDER_H.get(iid)
        if expected is None and inst["seed"] == DEFAULT_SEED:
            expected = RANDOM_H[iid]
        if time.monotonic() > deadline:
            r.check(False, f"{iid}: not started, run deadline passed")
            continue
        try:
            t0 = time.perf_counter()
            res = H.solver.solve(g, cfg)
            seconds = time.perf_counter() - t0
            combined = H.verify.lower_bounds(g).combined
            verdict = H.verify.is_harmonious(g, res.witness)
        except Exception as exc:  # budget stops included: both are failures
            r.check(False, f"{iid}: raised {type(exc).__name__}: {exc}")
            continue
        r.check(verdict.ok and res.witness.k == res.h and combined <= res.h
                and expected in (None, res.h),
                f"{iid}: h={res.h} expected={expected} harmonious={verdict.kind} "
                f"witness colors={res.witness.k} combined={combined}")
        r.add("search_nodes", res.nodes_explored)
        r.add(f"solver.nodes.{iid}", res.nodes_explored)
        r.add("lower_bound_sum", combined)
        r.add("colors_used", res.witness.k)
        r.add("start_gap", res.h - combined)
        r.details.append(f"{iid:<22} n={g.n:<3} m={g.m:<3} h={res.h:<3} combined={combined:<3} "
                         f"nodes={res.nodes_explored:<9} {seconds:.3f}s")
    mark("")
    return r


def _large_sparse(H, inst: dict, mark) -> PassResult:
    r = PassResult()
    for iid, g, order in inst["graphs"]:
        mark(iid)
        try:
            back = H.graph.parse_edge_list(H.graph.emit_edge_list(g))
            combined = H.verify.lower_bounds(g).combined
            by_index = H.heuristics.greedy(g, list(range(g.n)))
            by_random = H.heuristics.greedy(g, order)
            cover = H.heuristics.min_vertex_cover(g, "approx")
            by_cover = H.heuristics.vc_coloring(g, cover)
            verdicts = [H.verify.is_harmonious(g, c) for c in (by_index, by_random, by_cover)]
        except Exception as exc:  # counted as a failed operation, the pass goes on
            r.check(False, f"{iid}: raised {type(exc).__name__}: {exc}")
            continue
        r.check(back == g, f"{iid}: edge-list round trip changed the graph")
        r.check(all(u in cover.cover or v in cover.cover for u, v in g.edges),
                f"{iid}: approximate cover misses an edge")
        delta = max(len(ns) for ns in g.adj)
        limits = (g.n, g.n, cover.size + delta * delta - delta + 1)
        for label, c, verdict, top in zip(("greedy-index", "greedy-random", "vc"),
                                          (by_index, by_random, by_cover), verdicts, limits):
            r.check(verdict.ok and combined <= c.k <= top,
                    f"{iid} {label}: harmonious={verdict.kind} colors={c.k} "
                    f"combined={combined} limit={top}")
            r.add("colors_used", c.k)
        r.add("lower_bound_sum", combined)
        r.details.append(f"{iid:<9} n={g.n:<5} m={g.m:<5} combined={combined:<4} "
                         f"greedy={by_index.k}/{by_random.k} cover={cover.size} "
                         f"vc={by_cover.k}")
    mark("")
    return r


# ---------------------------------------------------------------- module state


class FreshCaches:
    """Puts module-level caches back to their state right after import.

    Taken on a freshly imported package, it records every module-level dict,
    list and set of every harmonium module; restore() refills them in place
    and clears functools caches, so each pass starts as a new process would.
    """

    def __init__(self, modules):
        self.saved = []
        self.cached = []
        for mod in modules:
            for name, value in vars(mod).items():
                if name.startswith("__"):
                    continue
                if type(value) in (dict, list, set):
                    self.saved.append((value, type(value)(value)))
                elif callable(getattr(value, "cache_clear", None)):
                    self.cached.append(value)

    def restore(self) -> None:
        for live, saved in self.saved:
            live.clear()
            if isinstance(live, list):
                live.extend(saved)
            else:
                live.update(saved)
        for fn in self.cached:
            fn.cache_clear()
