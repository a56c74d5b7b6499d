"""Greedy coloring, the vertex-cover-based coloring, and the small
exact vertex-cover / independent-set searches the reduction leans on.

Both colorings give a vertex the lowest color, outside a forbidden mask,
that repeats no pair with its neighbors' colors: one first-fit over
partner bitmasks, partners[c] holding the colors already paired with c.
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


def _first_fit(g: Graph, order: list[int], colors: list[int], partners: list[int],
               blocked: list[int]) -> None:
    """Give each vertex v of order, in turn, the lowest color > 0 outside
    blocked[v], its colored neighbors' colors and their partners, and
    record its new pairs both ways in partners. A repeated neighbor color
    would leave no harmonious color at all, so it raises.

    Coloring v with c also blocks c at each uncolored vertex w two steps
    away through an uncolored middle x: once x is colored, w taking c would
    give x two neighbors of color c.
    """
    adj = g.adj
    for v in order:
        seen = 0
        forbid = blocked[v] | 1
        for u in adj[v]:
            cu = colors[u]
            if cu:
                bit = 1 << cu
                if seen & bit:
                    raise RuntimeError(f"neighbor color {cu} repeats; no color can be harmonious")
                seen |= bit
                forbid |= partners[cu]
        forbid |= seen
        c = colors[v] = (~forbid & (forbid + 1)).bit_length() - 1
        partners[c] |= seen
        bit = 1 << c
        for x in adj[v]:
            cx = colors[x]
            if cx:
                partners[cx] |= bit
            else:
                for w in adj[x]:
                    if not colors[w]:  # v itself is colored by now
                        blocked[w] |= bit


def greedy(g: Graph, order: list[int]) -> Coloring:
    """Color vertices in the given order with the smallest harmonious color.

    Besides properness and pair uniqueness, a candidate color is rejected
    if some already-colored vertex with that color shares an *uncolored*
    neighbor with v: otherwise that neighbor would later see two
    same-colored neighbors and have no feasible color at all. With this
    rule the colored neighbors of every vertex carry distinct colors, so
    a fresh color always works.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of 0..n-1")
    colors = [0] * g.n
    # first-fit never needs a color above n
    _first_fit(g, order, colors, [0] * (g.n + 1), [0] * g.n)
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
    maximal-matching 2-approximation."""
    if mode == "approx":
        cover: set[int] = set()
        for u, v in g.edges:
            if u not in cover and v not in cover:
                cover |= {u, v}
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


def is_vertex_cover(g: Graph, cover: set[int] | frozenset[int]) -> bool:
    return all(u in cover or v in cover for u, v in g.edges)


def vc_budget(g: Graph, cover: VertexCoverResult) -> int:
    """VC + max_degree^2 - max_degree + 1: the most colors vc_coloring uses."""
    delta = stats(g).max_degree
    return cover.size + delta * delta - delta + 1


def vc_coloring(g: Graph, cover: VertexCoverResult) -> Coloring:
    """Color via a vertex cover: cover vertices get distinct colors
    1..VC, the rest take the smallest harmonious color above VC.

    The neighbors of a vertex outside the cover are in it, so their colors
    are distinct, and a counting argument keeps every color <= vc_budget.
    """
    if not is_vertex_cover(g, cover.cover):
        raise ValueError("given set is not a vertex cover of the graph")
    top = vc_budget(g, cover)
    colors = [0] * g.n
    for i, v in enumerate(sorted(cover.cover), start=1):
        colors[v] = i
    partners = [0] * (g.n + 1)  # first-fit never needs a color above n
    for u, v in g.edges:
        if colors[u] and colors[v]:
            partners[colors[u]] |= 1 << colors[v]
            partners[colors[v]] |= 1 << colors[u]
    rest = [v for v in range(g.n) if not colors[v]]
    # a vertex outside the cover has only colored neighbors, so first-fit
    # blocks nothing, and each one avoids the cover's colors
    _first_fit(g, rest, colors, partners, [(1 << (cover.size + 1)) - 1] * g.n)
    for v in rest:
        if colors[v] > top:
            raise AssertionError(f"no color for vertex {v} within VC + D^2 - D + 1 = {top}")
    return Coloring(tuple(colors))
