"""Harmonious-coloring verifier and lower-bound calculator.

The verifier is the ground truth everything else is checked against: a
coloring is harmonious iff it is proper and the induced map
edge -> {color(u), color(v)} is injective. It checks both in one O(m)
pass over the edges, with one dict operation per edge.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .graph import Graph, closed_n2, stats


@dataclass(frozen=True)
class Coloring:
    """Total assignment of colors 1..k to vertices 0..n-1."""

    colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.colors)

    @cached_property
    def k(self) -> int:
        """Number of distinct colors used, counted on first use."""
        return len(set(self.colors))

    def __post_init__(self):
        if self.colors and min(self.colors) < 1:
            raise ValueError("colors must be positive integers")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a harmonious check.

    kind is "ok", "not_proper" (edge carries the offending edge) or
    "pair_repeated" (pair plus the first two edges sharing it). The
    first violation in ascending edge order is reported.
    """

    kind: str
    edge: tuple[int, int] | None = None
    pair: tuple[int, int] | None = None
    other_edge: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.kind == "ok"

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        """The one wording of a verdict, as `harmonium check` prints it."""
        if self.kind == "not_proper":
            return f"not proper: edge {self.edge} is monochromatic"
        if self.kind == "pair_repeated":
            return f"pair {self.pair} repeated on edges {self.edge} and {self.other_edge}"
        return "ok"


def is_harmonious(g: Graph, c: Coloring) -> Verdict:
    """Verify properness and edge-pair injectivity in one pass over the
    edges, ascending: O(m), with one dict operation per edge. The key is
    the edge's color pair as one int, low * (max color + 1) + high, so no
    pair tuple is built unless it is reported."""
    if c.n != g.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")
    colors = c.colors
    span = max(colors, default=0) + 1
    seen: dict[int, tuple[int, int]] = {}
    for edge in g.edges:
        u, v = edge
        a, b = colors[u], colors[v]
        if a == b:
            return Verdict("not_proper", edge=edge)
        if a > b:
            a, b = b, a
        first = seen.setdefault(a * span + b, edge)
        if first is not edge:
            return Verdict("pair_repeated", pair=(a, b), edge=first, other_edge=edge)
    return Verdict("ok")


def class_counts(degrees: Sequence[int]) -> Callable[[int], str | None]:
    """The class degree-sum counts for a graph with this degree sequence:
    a function naming the first count that refutes k colors, or None.

    In a harmonious k-coloring no edge joins two vertices of one class, and
    every edge at class c carries its own pair {c, x}. So the classes and
    the pairs the edges use form a simple graph Q on the k colors, in which
    class c has degree σ_c, the degree sum of its vertices; σ_c <= k - 1.
    With m edges, O odd-degree vertices and N non-isolated vertices:
      - "pairs": Q has m edges, so 2m <= k(k - 1).
      - "even k": k - 1 is odd, so a class with no odd-degree vertex has
        an even σ_c <= k - 2, and at most min(O, k) classes reach k - 1:
        2m <= k(k - 2) + min(O, k). This refutes C6 at k = 4, C13-C15 at
        k = 6 and the 28-vertex path at k = 8.
      - "odd k", with O = 0: every σ_c and k - 1 are even, so the pairs
        no edge uses form a graph on the k colors with every degree even,
        which cannot have 1 or 2 edges: k(k - 1)/2 - m is not 1 or 2. This
        refutes C8 and C9 at k = 5 and C19 and C20 at k = 7.
      - "packing": a class holds at most floor((k - 1)/d) vertices of
        degree >= d, so k * floor((k - 1)/d) >= #{v : deg(v) >= d} for
        every d. Only the degrees that occur need a check: a d that does
        not occur counts the same vertices as the next degree that does,
        with a larger floor. With d = Δ this is k >= Δ + 1; with d = 3 and
        k <= 6 it is one vertex of degree >= 3 per class, so seven such
        vertices need 7 colors: the paper's h >= 7 for the cubic graphs
        of diameter 3, which have n >= 8. It refutes GP(9, 3) at k = 8
        and GP(10, 1..3) at 9.
      - "regular", when every non-isolated vertex has degree d: σ_c is d
        times the class's s_c non-isolated vertices, Σ s_c = N, and
        (σ_c) is Q's degree sequence, so it is graphical on k vertices.
        The balanced sizes, N mod k classes of ceil(N/k) and the rest of
        floor(N/k), are majorized by every size vector summing to N, and a
        sequence majorized by a graphical one with the same sum is
        graphical: it is reached by moves of one unit from an entry u to
        an entry w with σ_u >= σ_w + 2, and each move keeps a realization,
        since u has a neighbor y != w not adjacent to w, and the edge uy
        becomes wy. So some size vector passes iff the balanced one does.
        Its sum, 2m, is even, and a sequence with two values a > b needs
        the Erdős-Gallai inequality only at the end of each run (Erdős &
        Gallai 1960; Tripathi & Vijay 2003): at r = N mod k,
        r·a <= r(r - 1) + (k - r)·min(b, r), and at k, where it is the
        pairs count. This refutes the 12-vertex cubic graphs of diameter 3
        at k = 7.
    Counting up from the size bound, the first k they leave is h(C_n) for
    every n = 6..24.

    The sequence is read once, in C-level passes (a sort, a sum and a
    bisection per distinct degree), and each k then costs O(number of
    distinct degrees).
    """
    ds = sorted(degrees)
    n = len(ds)
    two_m = sum(ds)
    tiers = []  # (d, #{v : deg(v) >= d}) per degree d >= 1 that occurs
    odd = 0
    i = bisect_right(ds, 0)
    nonisolated = n - i
    while i < n:
        d = ds[i]
        j = bisect_right(ds, d, i)
        tiers.append((d, n - i))
        odd += (j - i) * (d & 1)
        i = j
    regular = tiers[0][0] if len(tiers) == 1 else 0

    def refutes(k: int) -> str | None:
        slack = k * (k - 1) - two_m
        if slack < 0:
            return "pairs"
        if k % 2 == 0 and slack < k - min(odd, k):
            return "even k"
        if k % 2 == 1 and not odd and slack in (2, 4):
            return "odd k"
        for d, many in tiers:
            if k * ((k - 1) // d) < many:
                return "packing"
        if regular:
            q, r = divmod(nonisolated, k)
            if r * regular * (q + 1) > r * (r - 1) + (k - r) * min(regular * q, r):
                return "regular"
        return None

    return refutes


@dataclass(frozen=True)
class BoundsReport:
    """Lower bounds on the harmonious chromatic number.

    count_bound is the least k, counting up from the larger of size_bound
    and delta_bound, that no class degree-sum count (class_counts)
    refutes, and refuted_by names the count that refutes k = count_bound -
    1, or is None when size_bound or delta_bound sets count_bound.
    clique_bound spends a clique K's colors: no neighbor of K outside it
    can take one of them, nor both ends of an edge outside K, so the
    other colors must color G[Y] (Y = N(K) minus K) and every two
    vertices within distance 2 of each other among those that take them
    (lower_bounds states the argument in full). It is |K| + t when that
    exceeds count_bound, and None otherwise. combined is n when every two
    vertices are within distance 2 and the larger of count_bound and
    clique_bound otherwise. None exceeds n, so on the empty graph every
    bound is 0. The trivial upper bound, n, is g.n itself.
    """

    size_bound: int
    delta_bound: int
    count_bound: int
    refuted_by: str | None
    clique_bound: int | None
    combined: int


def lower_bounds(g: Graph) -> BoundsReport:
    """Evaluate every lower bound and take the largest.

    The class degree-sum counts are stated once, with their arguments, in
    class_counts; each k they test costs O(number of distinct degrees).

    The clique bound spends a clique's colors. K is grown greedily from a
    maximum-degree vertex v: v's neighbors are scanned from the largest
    degree down, and each one adjacent to all of K so far joins it. Let
    Y = N(K) minus K. K's edges use every pair of K's colors, so no edge
    outside K can have both ends in K's colors. That rules them out for
    every y in Y: with y's neighbor x in K, the pair of edge xy would
    repeat the pair of the edge from x to the vertex of K with y's color.
    And it rules them out for at least one end of every edge that avoids
    K. So Y takes only the other k - |K| colors, which color G[Y]
    harmoniously, and h >= |K| + t, where t is the larger of:
      - G[Y]'s count_bound, which is at least 1 when Y is not empty;
      - 2, when the distance-2 ball of some y in Y holds an edge that
        avoids both K and y: an end of it takes one of the other colors,
        and that end is within distance 2 of y, so its color is not y's.
    clique_bound reports |K| + t only when it exceeds count_bound. K and Y
    are built only when |K| + max(|Y|, 2), which t cannot beat, may
    exceed count_bound; that quantity is at most max(⌊(Δ + 2)²/4⌋, Δ + 3),
    since each vertex of K has at most Δ + 1 - |K| neighbors in Y, so
    cycles, cubic graphs and large sparse graphs pay one O(1) check. Each
    term is then computed only when it can lift the bound.

    Two vertices within distance 2 of each other need different colors:
    adjacent ones because the coloring is proper, and two with a common
    neighbor w because equal colors would repeat a pair at w. So h = n
    when every closed distance-2 ball is the whole vertex set. The balls
    are built only when the other bounds are below n, so never with a
    vertex of degree n - 1, a common neighbor of every two others: then
    delta_bound is n already, and no k is tested either.
    """
    st = stats(g)
    degs = st.degree_sequence
    size_bound, delta_bound, count_bound, refuted_by = _counted(g.n, g.m, st.max_degree, degs)
    clique_bound = _clique_bound(g, degs, st.max_degree, count_bound)
    best = max(count_bound, clique_bound or 0)
    # a least-degree vertex's ball, at most 1 + δΔ vertices, is the
    # likeliest to miss one: it goes first, then every vertex in order
    within2 = best < g.n and (
        len(closed_n2(g, degs.index(min(degs)))) == g.n
        and all(len(closed_n2(g, v)) == g.n for v in range(g.n)))
    return BoundsReport(
        size_bound=size_bound,
        delta_bound=delta_bound,
        count_bound=count_bound,
        refuted_by=refuted_by,
        clique_bound=clique_bound,
        combined=g.n if within2 else best,
    )


def _counted(n: int, m: int, delta: int,
             degs: tuple[int, ...]) -> tuple[int, int, int, str | None]:
    """size_bound, delta_bound, count_bound and refuted_by (BoundsReport)
    of a graph with n vertices, m edges, maximum degree delta and this
    degree sequence."""
    size_bound = math.ceil((1 + math.isqrt(8 * m + 1)) / 2)
    if (size_bound * (size_bound - 1)) // 2 < m:  # isqrt truncation
        size_bound += 1
    size_bound = min(size_bound, n)
    delta_bound = min(delta + 1, n)
    refutes = class_counts(degs)
    count_bound, refuted_by = max(size_bound, delta_bound), None
    # no valid count refutes k = n, which is always feasible
    while count_bound < n and (why := refutes(count_bound)):
        count_bound, refuted_by = count_bound + 1, why
    return size_bound, delta_bound, count_bound, refuted_by


def _clique_bound(g: Graph, degs: tuple[int, ...], delta: int, count_bound: int) -> int | None:
    """|K| + t (lower_bounds) when it exceeds count_bound, else None."""
    # no lower bound exceeds n; |K| + |Y| <= |K|(Δ + 2 - |K|) <= (Δ + 2)²/4
    # and |K| + 2 <= Δ + 3
    if count_bound >= g.n or max((delta + 2) ** 2 // 4, delta + 3) <= count_bound:
        return None
    v = degs.index(delta)
    clique, candidates = [v], set(g.adj[v])
    # v's neighbors from the largest degree down, the lowest id first among
    # equals: each one still adjacent to all of K joins it
    for u in sorted(g.adj[v], key=degs.__getitem__, reverse=True):
        if u in candidates:
            clique.append(u)
            candidates.intersection_update(g.adj[u])
    ys = set().union(*map(g.adj.__getitem__, clique)).difference(clique)
    need = count_bound - len(clique)  # t must exceed it
    if max(len(ys), 2) <= need:
        return None
    y_degs = tuple(map(len, map(ys.intersection, map(g.adj.__getitem__, ys))))
    if any(y_degs):
        t = _counted(len(ys), sum(y_degs) // 2, max(y_degs), y_degs)[2]
        return len(clique) + t if t > need else None
    if need >= 2:  # Y is independent, so t is 1 or 2
        return None
    for y in ys:  # t = 2 when some y sees an edge avoiding K and y
        ball = closed_n2(g, y).difference(clique)
        ball.discard(y)
        if any(not ball.isdisjoint(g.adj[u]) for u in ball):
            return len(clique) + 2
    # t <= 1 <= need: if Y is not empty, K is not all of N[v] (a vertex of
    # K = N[v] with a neighbor outside would have degree Δ + 1), so
    # |K| <= Δ < delta_bound <= count_bound
    return None
