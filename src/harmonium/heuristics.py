"""Greedy coloring, the vertex-cover-based coloring, and the small
exact vertex-cover / independent-set searches the reduction leans on.

Both colorings give a vertex the lowest color, outside a forbidden mask,
that repeats no pair with its neighbors' colors: one first-fit over
partner bitmasks, partners[c] holding the colors already paired with c.

Greedy also keeps the distance-2 rule, checked at the vertex v being
colored: color c is excluded when a colored vertex w of color c shares an
uncolored neighbor x with v. This forbids the same colors as blocking c,
when w is colored, at every uncolored vertex two steps from w through an
uncolored x. Take such an x. If x is still uncolored when v is colored,
the check at v sees c directly, in the mask of x's colored neighbors'
colors. If x was colored in between, w was already a colored neighbor of
x then, so c is a partner of x's color, and v's forbid takes in the
partners of its colored neighbors' colors.
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
               base: int) -> None:
    """Give each vertex v of order, in turn, the lowest color outside base
    (which holds bit 0), its colored neighbors' colors and their partners,
    and the colors of the colored neighbors of its uncolored neighbors, and
    record its new pairs both ways in partners. A repeated neighbor color
    would leave no harmonious color at all, so it raises.

    The last set is the distance-2 rule (module docstring): a colored w of
    color c next to an uncolored neighbor x of v would give x two
    neighbors of color c once v took c. around[x] holds the colors of x's
    colored neighbors for every uncolored x, so v reads one mask per
    uncolored neighbor, and coloring v adds its color to the masks of its
    uncolored neighbors. A color in around[x] is never given to another
    neighbor of x, so only colors given before the call can repeat there.
    """
    adj = g.adj
    around = [0] * g.n
    if any(colors):  # with nothing colored yet, as in greedy, every mask is 0
        for x in range(g.n):
            if not colors[x]:
                for w in adj[x]:
                    cw = colors[w]
                    if cw:
                        bit = 1 << cw
                        if around[x] & bit:
                            raise RuntimeError(f"neighbor color {cw} repeats; "
                                               "no color can be harmonious")
                        around[x] |= bit
    for v in order:
        seen = around[v]
        forbid = base | seen
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
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of 0..n-1")
    colors = [0] * g.n
    # first-fit never needs a color above n
    _first_fit(g, order, colors, [0] * (g.n + 1), 1)
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
    rest = [v for v in range(g.n) if not colors[v]]
    # first-fit reads partners only at the cover colors next to rest, and
    # rest is independent, so those masks start as the cover's pairs (plus
    # bit 0 from each uncolored neighbor, which every forbid holds anyway)
    adj = g.adj
    partners = [0] * (g.n + 1)  # first-fit never needs a color above n
    for u in {u for v in rest for u in adj[v]}:
        mask = 0
        for w in adj[u]:
            mask |= 1 << colors[w]
        partners[colors[u]] = mask
    # a vertex outside the cover has only colored neighbors, so the
    # distance-2 rule is idle, and each one avoids the cover's colors
    _first_fit(g, rest, colors, partners, (1 << (cover.size + 1)) - 1)
    for v in rest:
        if colors[v] > top:
            raise AssertionError(f"no color for vertex {v} within VC + D^2 - D + 1 = {top}")
    return Coloring(tuple(colors))
