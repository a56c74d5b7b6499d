"""Exact harmonious chromatic number by pruned backtracking.

exists_k colors vertices in index order in one loop over an explicit
stack, so depth is not bounded by the recursion limit, and keeps each
color's partners and each vertex's candidates as bitmasks. Three prunes
keep the search small:
  - class degree sums: a k that a count refutes is rejected at the root,
    before any search; the counts and their arguments are stated once, in
    verify.class_counts,
  - properness + pair uniqueness against already-colored neighbors,
  - symmetry breaking: a brand-new color must be (max color so far) + 1.
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
Every walk runs in the calling process, so its counts, nodes_walked
included, are the same on every run and machine unless a deadline stops it.
solve searches only k < n: h = n needs no walk.
An "infeasible" answer is an exhaustive claim; running out of budget is
reported as its own outcome, never conflated with infeasibility.

oracle_h is the deliberately plain counterpart: a recursion with one level
per vertex, kept shallow by its n <= 12 guard, enumerating assignments with
early pair-conflict exit and one symmetry argument. Renaming the colors
maps colorings onto colorings, so every coloring has a representative in
first-use order, where a new color is the largest so far + 1. It shares no
code with the walk: no tables, no O(1) child candidates and no root counts.
It exists so the solver has something independent to agree with.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .graph import Graph, stats
from .verify import Coloring, class_counts, is_harmonious, lower_bounds

INFEASIBLE = "infeasible"
BUDGET_EXHAUSTED = "budget_exhausted"

ORACLE_MAX_N = 12


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
    nodes_walked: int  # nodes the walk entered: nodes_explored less the reused subtrees

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


def _search(g: Graph, k: int, node_budget: int | None, deadline: float | None) -> SearchOutcome:
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

    The root, vertex 0, has no back neighbors; every other node gets its
    candidates in O(1) from its parent. A node v with candidates fixes
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
    a budget or deadline check, is pushed and entered, so every check fires
    at the node it did. A tabled depth looks up every entry's key; the key
    fixes the candidates, so a node without any, a one-node subtree that
    is never stored, finds no entry.
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
    # the root, vertex 0 (the leaf when n == 0), has no back neighbors
    v = maxc = mask = 0
    cands = allowed[0]
    stop = _NEVER if node_budget is None else node_budget + 1
    tick = _NEVER if deadline is None else _TICK
    check_at = min(stop, tick)
    nodes = reused = 0
    while True:
        # v is entered with its candidates cands and its back colors' mask
        step = 1
        table = tables[v]
        if table is not None:
            starts[v] = nodes
            # maxc, then the front colors, then used[1..maxc]: the front's
            # length is fixed at v and a larger maxc makes a longer key, so
            # two states never share one. A prune that reads more state
            # below v must add it here.
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
            tick = nodes + _TICK
            check_at = min(stop, tick)
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
                if v < 0:
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
    A k that a class degree-sum count (verify.class_counts) refutes is
    INFEASIBLE in one node, without a search. Only the empty graph may ask
    for k = 0. A witness that fails verification raises RuntimeError.
    """
    if k < min(g.n, 1):
        raise ValueError(f"color budget must be >= 1, got {k}")
    cfg = cfg or SolverConfig()
    # the check counts as the one root node the search would have visited
    if class_counts(stats(g))(k):
        return SearchOutcome(INFEASIBLE, None, 1, 1)
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget else None
    out = _search(g, k, cfg.node_budget, deadline)
    if out.feasible:
        verdict = is_harmonious(g, out.witness)
        if not verdict.ok:
            raise RuntimeError(f"solver produced an invalid witness at k={k}: {verdict}")
    return out


def solve(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact harmonious chromatic number with witness and statistics.

    Iterates exists_k upward from the combined lower bound, whose
    count_bound already steps past the k that the class degree-sum counts
    (verify.class_counts) refute, and whose clique bound steps past the k
    that a clique's spent colors leave too few for (L(6, 4) and the closed
    suns start at h); h is the first k with a witness, or n
    with v -> v + 1 and no search: at h = n every coloring uses n
    distinct colors, and symmetry breaking makes the walk's witness that
    one. The node and time budgets bound the whole solve: each k gets what
    the earlier ones left. Budget exhaustion raises BudgetExceeded naming
    the k it stopped at.
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
    """Brute-force harmonious chromatic number for n <= 12.

    For k = 1..n, recursively tries assignments V -> [k] in lexicographic
    order (vertex 0 varied slowest), each new color the largest so far + 1,
    abandoning a partial assignment as soon as it repeats a color pair or
    breaks properness. Independent of the pruned solver.
    """
    n = g.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle guarded to n <= {ORACLE_MAX_N}, got {n}")
    back = [[u for u in g.adj[v] if u < v] for v in range(n)]
    color = [0] * n
    used: set[tuple[int, int]] = set()

    def extend(v: int, k: int, top: int) -> bool:
        # vertices 0..v-1 hold colors 1..top and their pairs are in used
        if v == n:
            return True
        for c in range(1, min(k, top + 1) + 1):
            added = []
            for u in back[v]:
                cu = color[u]
                p = (c, cu) if c < cu else (cu, c)
                if cu == c or p in used:
                    break
                used.add(p)
                added.append(p)
            else:
                color[v] = c
                if extend(v + 1, k, max(top, c)):
                    return True
            used.difference_update(added)
        return False

    for k in range(min(n, 1), n + 1):
        if extend(0, k, 0):
            return k
    raise AssertionError("unreachable: k = n always feasible")
