"""Exact harmonious chromatic number by pruned backtracking.

exists_k colors vertices in index order in one loop over an explicit
stack, so depth is not bounded by the recursion limit, and keeps each
color's partners and each vertex's candidates as bitmasks. Three prunes
keep the search small:
  - class degree sums: a k that a count below refutes is rejected at the
    root, before any search,
  - properness + pair uniqueness against already-colored neighbors,
  - symmetry breaking: a brand-new color must be (max color so far) + 1.
The counts: every edge at color class c carries its own pair {c, x}, so a
class's degree sum is at most k - 1, and 2m <= k(k - 1). With O the
odd-degree vertices, δ the least nonzero degree and N the non-isolated
vertices, three more follow, each refuting in one node:
  - even k: k - 1 is odd, so a class with no odd-degree vertex has an even
    degree sum of at most k - 2, and at most min(O, k) classes reach
    k - 1: 2m <= k(k - 2) + min(O, k). This refutes C6 at k = 4, C13-C15
    at k = 6 and the 28-vertex path at k = 8.
  - odd k with O = 0: every class's sum is even, so each color misses an
    even number of its k - 1 pairs. The unused pairs then form a graph on
    the k colors with every degree even, which cannot have 1 or 2 edges:
    k(k - 1)/2 - m is neither 1 nor 2. This refutes C8 and C9 at k = 5 and
    C19 and C20 at k = 7.
  - packing: a class holds at most floor((k - 1)/δ) non-isolated
    vertices, so k * floor((k - 1)/δ) >= N. This refutes GP(9,3) at k = 8
    and GP(10, 1..3) at k = 9.
The counts stay out of lower_bounds: there they would lift C14's and
C15's bounds to 7 and the benchmark's pinned bound sum with them.
lower_bounds carries only packing's k = 6 step (degree3_bound): with
k <= 6 a class holds at most one vertex of degree >= 3.
A failed-subtree table then skips work without changing the tree. With
vertices 0..v-1 colored, the search below v reads only the largest color
so far, the color pairs used so far and the colors of the vertices before
v that have a neighbor at or after v. Two entries to v that agree on these
have identical subtrees, and a subtree holding a witness ends the search,
so a state seen again at v failed before: at entry it counts as its
stored node count instead of being walked again, and goes through the same
budget check as a walked node. The tables are kept only where at most two
earlier vertices touch the rest (cycles, paths, lollipop tails), and not
at the last two depths, where a failed subtree is at most a node and its
one-node children. The nodes, witnesses and budget verdicts are those of
the plain walk. The empty graph's tree is its one leaf: one node, the
empty witness.
Every node below the walk's root gets its candidates in O(1) from its
parent's, so a node without candidates (47,644 of the 103,373 nodes of a
16-vertex random graph's k = 7 proof) is counted without being pushed and
popped.
On Linux with two or more CPUs in the process's affinity, exists_k
pauses a walk that enters 2^12 nodes without reusing a failed subtree,
and each of W forked searchers, one per CPU, searches every W-th of the
rest of its tree's prefix tasks in DFS order (split.py); a walk whose
tables pay stays in one process. The caller only merges the reports in
DFS order, so status, witness, nodes_explored and budget stops are the
one-process walk's; nodes_walked sums its walk and the reports it read,
the same on every run for a given CPU count unless a deadline stops it.
solve searches only k < n: h = n needs no walk.
An "infeasible" answer is an exhaustive claim; running out of budget is
reported as its own outcome, never conflated with infeasibility.

oracle_h is the deliberately plain counterpart, guarded to small graphs:
enumeration of assignments with early pair-conflict exit and one symmetry
argument. Renaming the colors maps colorings onto colorings, so every
coloring has a representative that uses its colors in first-use order,
and a new color is only ever the largest so far + 1. It shares no code
with the walk: no tables, no O(1) child candidates, no root counts and no
split. It exists so the solver has something independent to agree with.
"""

from __future__ import annotations

import os
import sys
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
        # bool is an int subclass, and True is not a budget of 1 node or 1 s
        nodes, secs = self.node_budget, self.time_budget
        if nodes is not None and (not isinstance(nodes, int) or isinstance(nodes, bool)):
            raise ValueError(f"node_budget must be an integer, got {nodes!r}")
        if nodes is not None and nodes <= 0:
            raise ValueError("node_budget must be positive")
        if secs is not None and (isinstance(secs, bool) or not secs > 0):  # NaN too
            raise ValueError("time_budget must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a single exists_k run."""

    status: str  # "witness" | INFEASIBLE | BUDGET_EXHAUSTED
    witness: Coloring | None
    nodes_explored: int  # nodes of the search tree
    nodes_walked: int  # nodes the walk entered; a split's sums the reports its merge read

    @property
    def feasible(self) -> bool:
        return self.status == "witness"


@dataclass(frozen=True)
class SolveResult:
    h: int
    witness: Coloring
    nodes_explored: int
    nodes_walked: int
    elapsed: float


# the deadline is read once every _TICK nodes
_TICK = 4096
_NEVER = sys.maxsize
# a depth keeps a failed-subtree table only when at most this many colored
# vertices touch the rest of the graph: cycles, paths and lollipop tails.
# Wider fronts rarely repeat: tables at every depth saved 11k of the 1.08M
# nodes of GP(10,3) at k = 9 for a 50 MB tracemalloc peak, and a cap of 3
# walks the same nodes as 2 on the exact ladder's fixed instances.
_FRONT_CAP = 2
# exists_k pauses a walk that enters this many nodes without reusing a
# failed subtree and splits the rest of its tree across the CPUs (split.run).
# 2^16 kept 59 % of cubic18-1's k = 8 proof and 14-20 % of GP(10,1)'s and
# GP(10,2)'s k = 9 proofs on one CPU; 2^12 splits them after 1-4 % of it.
_SPLIT_AT = 1 << 12


def _workers() -> int:
    """Processes a search may split across: the CPUs in this process's
    affinity on Linux, and 1 elsewhere or while another thread runs, since
    a forked child holds only the calling thread."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "sched_getaffinity") or threading and threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _search(g: Graph, k: int, node_budget: int | None, deadline: float | None,
            prefix: tuple[int, ...] = (), pause: int = _NEVER
            ) -> SearchOutcome | tuple[int, list[tuple[int, ...]]]:
    """Backtracking over the vertices in index order, with an explicit stack.

    used[c] is the bitmask of the colors already paired with c. The
    candidates at v are colors 1..min(maxc+1, k) minus the back neighbors'
    colors and their partners, or none if two back neighbors share a color;
    they are tried lowest first. Every vertex of the search tree is one node,
    the v == n leaf included (the whole tree when n == 0). Entry to v is
    one step of nodes_explored: 1 for a walked node, the stored size for a
    reused failed subtree, and each step passes one budget and deadline
    check; a node stop reports budget + 1. nodes_walked counts only the
    nodes the loop entered.

    With 0..v-1 colored, the search below v reads only maxc (through
    allowed), used[1..maxc] (higher colors have no pairs yet) and the colors
    of front[v], the vertices u < v with a neighbor >= v. Two entries to v
    that agree on these have identical subtrees, node for node. A subtree
    with a witness ends the search, so every subtree entered a second time
    failed: its stored size stands in for walking it again. No table sits
    at v >= n - 2: a child at n - 1 with a candidate reaches the leaf and
    ends the search, so a failed subtree entered at n - 2 is that node plus
    one-node children, and a lookup there saves no more than it costs.

    Only the root's candidates come from its back neighbors; every other
    node gets them in O(1) from its parent. A node v with candidates fixes
    the part of its child w = v + 1's that v's color leaves alone: rm, the
    colors of R = back[w] minus v (empty at the leaf w = n), and the OR of
    used[x] over x in rm (all colors, so no candidate, when R's colors
    repeat). Coloring v with c (bit b, mask the colors of back[v]) adds
    exactly the pairs {c, x} for x in mask: used[x] gains b for each x in
    mask, used[c] gains mask, and nothing else changes. So if v is in
    back[w], w has no candidates when rm & b, and otherwise
    allowed[max(maxc, c)] minus rm, b, the OR, used[c] and mask; if not,
    allowed[max(maxc, c)] minus rm, the OR, b when rm & mask, and mask when
    rm & b. A dead child is counted as its one node and v goes on to its
    next candidate; a live child, or any child when the next node reaches
    a budget, deadline or pause check, is pushed and entered, so every
    check fires at the node it did. A tabled depth builds and looks up its
    key only for a node with candidates: one without is a one-node
    subtree, never stored.

    prefix colors vertices 0..len(prefix)-1 as the walk would have (each
    color one of its candidates there), and the walk covers only the
    subtree below: its root is the first node, and backtracking past it
    ends the walk. A walk that enters more than pause nodes without reusing
    any failed subtree stops before the next node and returns (nodes,
    tasks): the rest of its tree as prefixes in DFS order, the current node
    first, then each depth's untried colors, deepest depth first. A walk
    that has reused one passes its pause and goes on.
    """
    n = g.n
    k = min(k, n)  # maxc < n, so no color above n is tried: k sizes nothing
    # neighbors of v with a smaller index: colored before v; none at the leaf
    back = [[u for u in g.adj[v] if u < v] for v in range(n)] + [[]]
    front = [[] for _ in range(n)]
    for u in range(n):
        for w in range(u + 1, max(g.adj[u], default=u) + 1):
            front[w].append(u)
    # tables[v]: the exact state at entry to v, packed into one int, -> the
    # size of its failed subtree; None where the front is too wide to repeat
    # and at v >= n - 2 (a failed subtree there is at most one level deep)
    tables = [{} if v < n - 2 and len(front[v]) <= _FRONT_CAP else None
              for v in range(n + 1)]
    # rest[v]: back[v + 1] without v; joined[v]: v in back[v + 1]
    rest = [[u for u in back[v + 1] if u != v] for v in range(n)]
    joined = [v in back[v + 1] for v in range(n)]
    cbits, pbits = k.bit_length(), k + 1
    # allowed[maxc]: a brand-new color must be maxc + 1 (symmetry breaking)
    allowed = [(2 << min(maxc + 1, k)) - 2 for maxc in range(k + 1)]
    used = [0] * (k + 1)
    color = [0] * n
    # the stack, per depth v: colors not tried yet, back colors' mask, maxc,
    # for a tabled depth the entry state's key and the count before entry,
    # and rest[v]'s colors and the child's fixed forbidden part
    untried = [0] * n
    seen = [0] * n
    tops = [0] * n
    keys = [0] * n
    starts = [_NEVER] * n  # never written at an untabled depth
    rms = [0] * n
    fixed = [0] * n
    maxc = max(prefix, default=0)
    for v, c in enumerate(prefix):
        color[v] = c
        for u in back[v]:
            used[color[u]] |= 1 << c
            used[c] |= 1 << color[u]
    start = v = len(prefix)
    # the root's candidates: none if two back neighbors share a color
    mask = forbid = 0
    for u in back[v]:
        cu = color[u]
        bit = 1 << cu
        if mask & bit:
            forbid = -1
            break
        mask |= bit
        forbid |= used[cu]
    cands = allowed[maxc] & ~(mask | forbid)
    stop = _NEVER if node_budget is None else node_budget + 1
    tick = _NEVER if deadline is None else _TICK
    check_at = min(stop, tick, pause + 1)
    nodes = reused = 0
    while True:
        # v is entered with its candidates cands and its back colors' mask
        step = 1
        table = tables[v]
        if table is not None:
            starts[v] = nodes
            if cands:  # a node without candidates is never stored
                # maxc, then the front colors, then used[1..maxc]: the
                # front's length is fixed at v and a larger maxc makes a
                # longer key, so two states never share one. A prune that
                # reads more state below v must add it here.
                key = maxc
                for u in front[v]:
                    key = key << cbits | color[u]
                for pairs in used[1:maxc + 1]:
                    key = key << pbits | pairs
                keys[v] = key
                step = table.get(key, 1)
                if step > 1:
                    reused += step - 1
                    cands = 0
        nodes += step
        if nodes >= check_at:
            if nodes >= stop or nodes >= tick and time.monotonic() > deadline:
                return SearchOutcome(BUDGET_EXHAUSTED, None, min(nodes, stop), nodes - reused)
            if nodes >= tick:
                tick = nodes + _TICK
            if nodes > pause:
                if reused:
                    pause = _NEVER  # tables that pay: the walk goes on alone
                else:
                    # no subtree was reused, so this node's step was 1
                    tasks = [tuple(color[:v])]
                    for d in range(v - 1, start - 1, -1):
                        cands = untried[d]
                        while cands:
                            bit = cands & -cands
                            cands ^= bit
                            tasks.append((*color[:d], bit.bit_length() - 1))
                    return nodes - 1, tasks
            check_at = min(stop, tick, pause + 1)
        if v == n:
            return SearchOutcome("witness", Coloring(tuple(color)), nodes, nodes - reused)
        if cands:
            seen[v] = mask
            tops[v] = maxc
            # the part of the child's candidates that v's color leaves
            # alone; all colors when rest's colors repeat: a dead child
            rm = forbid = 0
            for u in rest[v]:
                cu = color[u]
                bit = 1 << cu
                if rm & bit:
                    forbid = -1
                    break
                rm |= bit
                forbid |= used[cu]
            rms[v] = rm
            fixed[v] = rm | forbid | (mask if joined[v] else 0)
        while True:
            while not cands:
                # v's subtree failed; one-node failures are cheaper to redo
                if nodes > starts[v] + 1:
                    tables[v][keys[v]] = nodes - starts[v]
                v -= 1
                if v < start:
                    return SearchOutcome(INFEASIBLE, None, nodes, nodes - reused)
                c = color[v]
                bit = 1 << c
                mask = seen[v]
                for u in back[v]:
                    used[color[u]] ^= bit
                used[c] ^= mask
                cands = untried[v]
                maxc = tops[v]
            bit = cands & -cands
            cands ^= bit
            c = bit.bit_length() - 1
            # the child's candidates after coloring v with c, which adds
            # exactly the pairs {c, x} for x in mask
            rm = rms[v]
            if joined[v]:
                child = 0 if rm & bit else allowed[c if c > maxc else maxc] & ~(
                    fixed[v] | bit | used[c])
                child_mask = rm | bit
            else:
                forbid = fixed[v]
                if rm & mask:
                    forbid |= bit
                if rm & bit:
                    forbid |= mask
                child = allowed[c if c > maxc else maxc] & ~forbid
                child_mask = rm
            if child or nodes + 1 >= check_at:
                break
            nodes += 1  # a child without candidates: its one node, no push
        # pairs are unique, so XOR sets them here and clears them on backtrack
        untried[v] = cands
        color[v] = c
        for u in back[v]:
            used[color[u]] ^= bit
        used[c] ^= mask
        if c > maxc:
            maxc = c
        v += 1
        cands = child
        mask = child_mask


def exists_k(g: Graph, k: int, cfg: SolverConfig | None = None) -> SearchOutcome:
    """Decide whether g has a harmonious k-coloring.

    Returns a witness, an exhaustive INFEASIBLE, or BUDGET_EXHAUSTED.
    Only the empty graph may ask for k = 0. When two or more CPUs can run
    the walk (_workers), it pauses at _SPLIT_AT nodes and split.run has
    one forked process per CPU search a stripe of the rest while this one
    merges; the outcome is the one-process walk's, and nodes_walked varies
    only with the CPU count and a deadline. A witness that fails
    verification raises RuntimeError.
    """
    if k < min(g.n, 1):
        raise ValueError(f"color budget must be >= 1, got {k}")
    cfg = cfg or SolverConfig()
    # Each edge needs its own color pair, so a class's degree sum is at most
    # k - 1: the counts by parity and by packing (module docstring). The
    # check counts as the one root node the search would have visited.
    degrees = [len(a) for a in g.adj if a]
    odd = sum(d & 1 for d in degrees)
    slack = k * (k - 1) - 2 * g.m
    if (slack < 0 or k % 2 == 0 and slack < k - min(odd, k)
            or k % 2 == 1 and odd == 0 and slack in (2, 4)
            or k * ((k - 1) // min(degrees, default=1)) < len(degrees)):
        return SearchOutcome(INFEASIBLE, None, 1, 1)
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget else None
    workers = _workers()
    out = _search(g, k, cfg.node_budget, deadline, pause=_SPLIT_AT if workers > 1 else _NEVER)
    if isinstance(out, tuple):
        from .split import run
        out = run(g, k, cfg.node_budget, deadline, *out, workers)
    if out.feasible:
        verdict = is_harmonious(g, out.witness)
        if not verdict.ok:
            raise RuntimeError(f"solver produced an invalid witness at k={k}: {verdict}")
    return out


def solve(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact harmonious chromatic number with witness and statistics.

    Iterates exists_k upward from the combined lower bound; h is the
    first k with a witness, or n with v -> v + 1 and no search: at h = n
    every coloring uses n distinct colors, and symmetry breaking makes the
    walk's witness that one. The node and time budgets bound the whole
    solve: each k gets what the earlier ones left. Budget exhaustion
    raises BudgetExceeded naming the k it stopped at.
    """
    cfg = cfg or SolverConfig()
    t0 = time.monotonic()
    deadline = t0 + cfg.time_budget if cfg.time_budget else None
    k = lower_bounds(g).combined
    total_nodes = total_walked = 0
    witness = Coloring(tuple(range(1, g.n + 1)))
    while k < g.n:
        nodes_left = None if cfg.node_budget is None else cfg.node_budget - total_nodes
        secs_left = None if deadline is None else deadline - time.monotonic()
        spent = nodes_left == 0 or (secs_left is not None and secs_left <= 0)
        out = None if spent else exists_k(g, k, SolverConfig(nodes_left, secs_left))
        if out is None or out.status == BUDGET_EXHAUSTED:
            raise BudgetExceeded(
                f"budget exhausted at k={k}; h is between {k} and {g.n}"
            )
        total_nodes += out.nodes_explored
        total_walked += out.nodes_walked
        if out.feasible:
            witness = out.witness
            break
        k += 1
    return SolveResult(k, witness, total_nodes, total_walked, time.monotonic() - t0)


def oracle_h(g: Graph) -> int:
    """Brute-force harmonious chromatic number for n <= 9.

    Enumerates assignments V -> [k] for k = 1..n in colexicographic
    order, each new color the largest so far + 1, abandoning a partial
    assignment as soon as it repeats a color pair or breaks properness.
    Independent of the pruned solver.
    """
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle guarded to n <= {ORACLE_MAX_N}, got {g.n}")
    if g.n == 0:
        return 0
    back = [[u for u in g.adj[v] if u < v] for v in range(g.n)]
    n = g.n

    def feasible(k: int) -> bool:
        assign = [0] * n
        top = [0] * n  # top[v]: the largest color among vertices 0..v-1
        used: set[tuple[int, int]] = set()
        stack: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        v = 0
        while True:
            c = assign[v] + 1
            for p in stack[v]:
                used.discard(p)
            stack[v].clear()
            if c > min(k, top[v] + 1):
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
            top[v + 1] = max(top[v], c)
            v += 1

    for k in range(1, n + 1):
        if feasible(k):
            return k
    raise AssertionError("unreachable: k = n always feasible")
