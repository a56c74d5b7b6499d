"""Greedy coloring, the vertex-cover-based coloring, and the small
exact vertex-cover / independent-set searches the reduction leans on.

Greedy gives a vertex the lowest color that repeats no pair with its
neighbors' colors: one first-fit over partner bitmasks, partners[c]
holding the colors already paired with c.

Greedy also keeps the distance-2 rule, checked at the vertex v being
colored: color c is excluded when a colored vertex w of color c shares an
uncolored neighbor x with v. This forbids the same colors as blocking c,
when w is colored, at every uncolored vertex two steps from w through an
uncolored x. Take such an x. If x is still uncolored when v is colored,
the check at v sees c directly, in the mask of x's colored neighbors'
colors. If x was colored in between, w was already a colored neighbor of
x then, so c is a partner of x's color, and v's forbid takes in the
partners of its colored neighbors' colors.

vc_coloring gives the cover's vertices the distinct colors 1..VC. The
other vertices are independent and have all their neighbors in the
cover, so a color c above VC repeats a pair at such a v exactly when some
other vertex outside the cover, next to one of v's cover neighbors, has
c already. One mask per cover vertex holds the offsets above VC of its
outside neighbors' colors. v's forbid is the union of its at most Δ
neighbors' masks, each holding at most Δ - 1 colors besides v's own, so
v's color is at most VC + Δ² - Δ + 1: the paper's counting argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, stats
from .verify import Coloring

EXACT_SEARCH_MAX_N = 20


@dataclass(frozen=True)
class VertexCoverResult:
    cover: frozenset[int]
    method: str  # "exact" | "matching_2approx"

    @property
    def size(self) -> int:
        return len(self.cover)


def greedy(g: Graph, order: list[int]) -> Coloring:
    """Color vertices in the given order with the smallest harmonious color.

    Besides properness and pair uniqueness, a candidate color is rejected
    if some already-colored vertex with that color shares an *uncolored*
    neighbor with v: otherwise that neighbor would later see two
    same-colored neighbors and have no feasible color at all. With this
    rule the colored neighbors of every vertex carry distinct colors, so
    a fresh color always works. The rule is checked at v itself, through
    the colors around its uncolored neighbors; a middle vertex colored
    before v is covered by the partners of its color (module docstring).
    around[x] holds the colors of x's colored neighbors while x is
    uncolored, so v reads one mask per neighbor, and coloring v adds its
    color to the masks of its uncolored neighbors.
    """
    n = g.n
    if len(order) != n or n and (len(set(order)) != n or min(order) < 0 or max(order) >= n):
        raise ValueError("order must be a permutation of 0..n-1")
    adj = g.adj
    colors = [0] * n
    partners = [0] * (n + 1)  # first-fit never needs a color above n
    around = [0] * n
    for v in order:
        seen = around[v]
        forbid = 1 | seen  # bit 0 stands for "uncolored", never a color
        for u in adj[v]:
            cu = colors[u]
            forbid |= partners[cu] if cu else around[u]
        # forbid ^ (forbid + 1) is a run of ones up to its lowest clear bit
        c = colors[v] = (forbid ^ (forbid + 1)).bit_length() - 1
        partners[c] |= seen
        bit = 1 << c
        for u in adj[v]:
            cu = colors[u]
            if cu:
                partners[cu] |= bit
            else:
                around[u] |= bit
    return Coloring(tuple(colors))


def adversarial_good_coloring(N: int) -> Coloring:
    """Harmonious coloring of adversarial_tree(N) with at most 2N-2 colors.

    Root gets 1, the a-layer vertices 2..N-1 get colors 2..N-1, the
    b-layer gets N+1..2N-2, and each leaf block reuses {1..N} minus its
    grandparent's color.
    """
    if N < 3:
        raise ValueError(f"needs N >= 3, got {N}")
    colors = [0] * (N * (N - 1))  # adversarial_tree(N)'s vertex ids
    colors[0] = 1
    # a_1 (id 1) is a leaf under the root: the root already pairs color 1
    # with 2..N-1, and no other edge carries {1, N}, so N is its first
    # harmonious color
    colors[1] = N
    for i in range(2, N):
        colors[i] = i
    for i in range(2, N):
        colors[N + (i - 2)] = N + i - 1  # b-layer: N+1 .. 2N-2
    leaf = 2 * N - 2
    for i in range(2, N):
        block = [c for c in range(1, N + 1) if c != colors[i]]
        for c in block:
            colors[leaf] = c
            leaf += 1
    return Coloring(tuple(colors))


def min_vertex_cover(g: Graph, mode: str = "exact") -> VertexCoverResult:
    """Minimum vertex cover (branch on an uncovered edge) or the
    maximal-matching 2-approximation, made minimal.

    The approximation takes both ends of a maximal matching, then drops,
    in ascending order, each vertex whose neighbors are all still in the
    cover. A vertex kept has a neighbor outside the cover, and the cover
    only shrinks, so no vertex of the result can be dropped; it is a
    subset of the matching cover, so still within twice the minimum.
    """
    if mode == "approx":
        cover: set[int] = set()
        add, adj = cover.add, g.adj
        for u, v in g.edges:
            if u not in cover and v not in cover:
                add(u)
                add(v)
        for v in sorted(cover):
            if cover.issuperset(adj[v]):
                cover.remove(v)
        return VertexCoverResult(frozenset(cover), "matching_2approx")
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    if g.n > EXACT_SEARCH_MAX_N:
        raise ValueError(f"exact vertex cover guarded to n <= {EXACT_SEARCH_MAX_N}")

    best: set[int] = set(range(g.n))

    def branch(edges: list[tuple[int, int]], chosen: set[int]) -> None:
        nonlocal best
        edges = [e for e in edges if e[0] not in chosen and e[1] not in chosen]
        if not edges:
            if len(chosen) < len(best):
                best = set(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        u, v = edges[-1]
        branch(edges, chosen | {u})
        branch(edges, chosen | {v})

    branch(list(g.edges), set())
    return VertexCoverResult(frozenset(best), "exact")


def max_independent_set(g: Graph) -> set[int]:
    """Maximum independent set by complementing an exact minimum cover."""
    if g.n > EXACT_SEARCH_MAX_N:
        raise ValueError(f"exact independent set guarded to n <= {EXACT_SEARCH_MAX_N}")
    cover = min_vertex_cover(g, "exact").cover
    return set(range(g.n)) - cover


def vc_budget(g: Graph, cover: VertexCoverResult) -> int:
    """VC + max_degree^2 - max_degree + 1: the most colors vc_coloring uses."""
    delta = stats(g).max_degree
    return cover.size + delta * delta - delta + 1


def vc_coloring(g: Graph, cover: VertexCoverResult) -> Coloring:
    """Color via a vertex cover: cover vertices get distinct colors
    1..VC, the rest, in ascending order, take the smallest harmonious
    color above VC, which the counting argument keeps <= vc_budget
    (module docstring).
    """
    size, adj = cover.size, g.adj
    colors = [0] * g.n
    for i, v in enumerate(sorted(cover.cover), start=1):
        colors[v] = i
    # bit i at a cover vertex: color VC + 1 + i is taken next to it; a
    # vertex outside the cover holds every bit, so next to it no color is free
    taken = [0 if c else -1 for c in colors]
    used = 0
    for v, c in enumerate(colors):
        if not c:
            forbid, near = 0, adj[v]
            for u in near:
                forbid |= taken[u]
            bit = ~forbid & (forbid + 1)  # the lowest clear bit
            if not bit:
                raise ValueError("given set is not a vertex cover of the graph")
            colors[v] = size + bit.bit_length()
            for u in near:
                taken[u] |= bit
            used |= bit
    top = vc_budget(g, cover)
    if size + used.bit_length() > top:
        raise AssertionError(f"no color within VC + D^2 - D + 1 = {top}")
    return Coloring(tuple(colors))
