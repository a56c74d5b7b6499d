"""Exact harmonious chromatic number by pruned backtracking.

exists_k colors vertices in index order, maintaining an incremental
color-pair usage table. Three prunes keep the search small:
  - size: a graph with m > k(k-1)/2 edges is rejected before any search,
    because each edge needs its own color pair,
  - properness + pair uniqueness against already-colored neighbors,
  - symmetry breaking: a brand-new color must be (max color so far) + 1.
An "infeasible" answer is an exhaustive claim; running out of budget is
reported as its own outcome, never conflated with infeasibility.

oracle_h is the deliberately dumb counterpart: plain enumeration of all
assignments with early pair-conflict exit and no symmetry breaking,
guarded to small graphs. It exists so the solver has something
independent to agree with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import Graph
from .verify import Coloring, is_harmonious, lower_bounds

INFEASIBLE = "infeasible"
BUDGET_EXHAUSTED = "budget_exhausted"

ORACLE_MAX_N = 9


class BudgetExceeded(Exception):
    pass


@dataclass
class SolverConfig:
    node_budget: int | None = None
    time_budget: float | None = None  # seconds

    def __post_init__(self):
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a single exists_k run."""

    status: str  # "witness" | INFEASIBLE | BUDGET_EXHAUSTED
    witness: Coloring | None
    nodes_explored: int

    @property
    def feasible(self) -> bool:
        return self.status == "witness"


@dataclass(frozen=True)
class SolveResult:
    h: int
    witness: Coloring
    nodes_explored: int
    elapsed: float


class _Search:
    """Sequential backtracking over the vertices in index order."""

    def __init__(self, g: Graph, k: int, node_budget: int | None, deadline: float | None):
        self.k = k
        self.n = g.n
        # neighbors of v with a smaller index: colored before v
        self.back = [[u for u in g.adj[v] if u < v] for v in range(g.n)]
        self.color = [0] * g.n
        self.pair_used = [[False] * (k + 1) for _ in range(k + 1)]
        self.nodes = 0
        self.node_budget = node_budget
        self.deadline = deadline

    def run(self) -> Coloring | None:
        if self._rec(0, 0):
            return Coloring(tuple(self.color))
        return None

    def _rec(self, v: int, maxc: int) -> bool:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExceeded
        if self.deadline is not None and self.nodes % 4096 == 0 \
                and time.monotonic() > self.deadline:
            raise BudgetExceeded
        if v == self.n:
            return True
        pair_used = self.pair_used
        color = self.color
        back = self.back[v]
        for c in range(1, min(maxc + 1, self.k) + 1):
            row = pair_used[c]
            marked = []
            for u in back:
                cu = color[u]
                if cu == c or row[cu]:
                    break
                row[cu] = pair_used[cu][c] = True
                marked.append(cu)
            else:
                color[v] = c
                if self._rec(v + 1, max(maxc, c)):
                    return True
            for cu in marked:
                row[cu] = pair_used[cu][c] = False
        return False


def exists_k(g: Graph, k: int, cfg: SolverConfig | None = None) -> SearchOutcome:
    """Decide whether g has a harmonious k-coloring.

    Returns a witness, an exhaustive INFEASIBLE, or BUDGET_EXHAUSTED.
    Only the empty graph may ask for k = 0.
    """
    if k < min(g.n, 1):
        raise ValueError(f"color budget must be >= 1, got {k}")
    cfg = cfg or SolverConfig()
    if g.n == 0:
        return SearchOutcome("witness", Coloring(()), 0)
    # Each edge needs its own color pair, and k colors have k(k-1)/2 pairs.
    # The check counts as the one root node the search would have visited.
    if g.m > k * (k - 1) // 2:
        return SearchOutcome(INFEASIBLE, None, 1)
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget else None
    search = _Search(g, k, cfg.node_budget, deadline)
    try:
        witness = search.run()
    except BudgetExceeded:
        return SearchOutcome(BUDGET_EXHAUSTED, None, search.nodes)
    if witness is None:
        return SearchOutcome(INFEASIBLE, None, search.nodes)
    return SearchOutcome("witness", witness, search.nodes)


def solve(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact harmonious chromatic number with witness and statistics.

    Iterates exists_k upward from the combined lower bound; h is the
    first k with a witness. The node and time budgets bound the whole
    solve: each k gets what the earlier ones left. Budget exhaustion
    raises BudgetExceeded naming the k it stopped at; a witness that
    fails verification raises RuntimeError.
    """
    cfg = cfg or SolverConfig()
    t0 = time.monotonic()
    deadline = t0 + cfg.time_budget if cfg.time_budget else None
    k = lower_bounds(g).combined
    total_nodes = 0
    while True:
        nodes_left = None if cfg.node_budget is None else cfg.node_budget - total_nodes
        secs_left = None if deadline is None else deadline - time.monotonic()
        spent = nodes_left == 0 or (secs_left is not None and secs_left <= 0)
        out = None if spent else exists_k(g, k, SolverConfig(nodes_left, secs_left))
        if out is None or out.status == BUDGET_EXHAUSTED:
            raise BudgetExceeded(
                f"budget exhausted at k={k}; h is between {k} and {g.n}"
            )
        total_nodes += out.nodes_explored
        if out.feasible:
            witness = out.witness
            verdict = is_harmonious(g, witness)
            if not verdict.ok:
                raise RuntimeError(f"solver produced an invalid witness at k={k}: {verdict}")
            return SolveResult(
                h=k,
                witness=witness,
                nodes_explored=total_nodes,
                elapsed=time.monotonic() - t0,
            )
        k += 1
        if k > g.n:
            raise AssertionError("all-distinct coloring must be feasible")


def oracle_h(g: Graph) -> int:
    """Brute-force harmonious chromatic number for n <= 9.

    Enumerates assignments V -> [k] for k = 1..n in colexicographic
    order, abandoning a partial assignment as soon as it repeats a color
    pair or breaks properness. Independent of the pruned solver.
    """
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle guarded to n <= {ORACLE_MAX_N}, got {g.n}")
    if g.n == 0:
        return 0
    back = [[u for u in g.adj[v] if u < v] for v in range(g.n)]
    n = g.n

    def feasible(k: int) -> bool:
        assign = [0] * n
        used: set[tuple[int, int]] = set()
        stack: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        v = 0
        while True:
            c = assign[v] + 1
            for p in stack[v]:
                used.discard(p)
            stack[v].clear()
            if c > k:
                assign[v] = 0
                v -= 1
                if v < 0:
                    return False
                continue
            assign[v] = c
            ok = True
            for u in back[v]:
                cu = assign[u]
                if cu == c:
                    ok = False
                    break
                p = (min(c, cu), max(c, cu))
                if p in used:
                    ok = False
                    break
                used.add(p)
                stack[v].append(p)
            if not ok:
                for p in stack[v]:
                    used.discard(p)
                stack[v].clear()
                continue
            if v == n - 1:
                return True
            v += 1

    for k in range(1, n + 1):
        if feasible(k):
            return k
    raise AssertionError("unreachable: k = n always feasible")
