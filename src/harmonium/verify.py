"""Harmonious-coloring verifier and lower/upper bound calculators.

The verifier is the ground truth everything else is checked against: a
coloring is harmonious iff it is proper and the induced map
edge -> {color(u), color(v)} is injective. It checks both in one O(m)
pass over the edges, with one dict operation per edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .graph import Graph, closed_n2, diameter, stats

#: The most vertices a 3-regular graph of diameter 3 can have (Moore bound).
MOORE_CUBIC_DIAMETER3 = 1 + 3 + 6 + 12


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
    """Lower bounds on the harmonious chromatic number, plus context.

    combined is the largest of size_bound, delta_bound, regular33_bound (7
    for 3-regular diameter-3 graphs, None otherwise, including every cubic
    graph on more than MOORE_CUBIC_DIAMETER3 vertices) and, for diameter
    at most 2, n. The first two never exceed n, so on the empty graph they
    and combined are 0. The upper-bound formula upper_mcdiarmid is context
    only; the trivial upper bound, n, is g.n itself.
    """

    size_bound: int
    delta_bound: int
    regular33_bound: int | None
    combined: int
    upper_mcdiarmid: int


def lower_bounds(g: Graph) -> BoundsReport:
    """Evaluate every known lower bound and combine the applicable ones.

    Two vertices within distance 2 of each other need different colors:
    adjacent ones because the coloring is proper, and two with a common
    neighbor w because equal colors would repeat a pair at w. So h = n
    when every closed distance-2 ball is the whole vertex set. A vertex of
    degree n - 1 is a common neighbor of every two others, so then the
    test holds without building the balls, in O(n) instead of O(n²).

    The O(n·m) diameter runs only on cubic graphs with at most
    MOORE_CUBIC_DIAMETER3 vertices that fail the distance-2 test. In a
    cubic graph a vertex has 3 neighbors, and each vertex at distance i
    has at most 2 neighbors at distance i + 1, so diameter 3 allows at most
    1 + 3 + 6 + 12 = 22 vertices (the Moore bound; Hoffman & Singleton
    1960). On every larger cubic graph regular33_bound is None without a
    BFS, which is what the diameter would give there.
    """
    st = stats(g)
    delta = st.max_degree
    size_bound = math.ceil((1 + math.isqrt(8 * g.m + 1)) / 2)
    if (size_bound * (size_bound - 1)) // 2 < g.m:  # isqrt truncation
        size_bound += 1
    size_bound = min(size_bound, g.n)
    delta_bound = min(delta + 1, g.n)
    degs = st.degree_sequence
    # a least-degree vertex's ball, at most 1 + δΔ vertices, is the
    # likeliest to miss one: it goes first, then every vertex in order
    within2 = delta == g.n - 1 or not degs or (
        len(closed_n2(g, degs.index(min(degs)))) == g.n
        and all(len(closed_n2(g, v)) == g.n for v in range(g.n)))
    small_cubic = g.n <= MOORE_CUBIC_DIAMETER3 and all(d == 3 for d in degs)
    regular33 = 7 if not within2 and small_cubic and diameter(g) == 3 else None
    combined = max(size_bound, delta_bound, g.n if within2 else 0, regular33 or 0)
    return BoundsReport(
        size_bound=size_bound,
        delta_bound=delta_bound,
        regular33_bound=regular33,
        combined=combined,
        # at least 1: an edgeless graph still needs one color
        upper_mcdiarmid=max(1, math.ceil(2 * delta * math.sqrt(g.n - 1))) if g.n else 0,
    )
