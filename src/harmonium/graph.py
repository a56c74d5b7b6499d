"""Immutable simple-graph type, its text formats, degree statistics and
distance queries.

Vertices are dense ids 0..n-1. Edges are stored as one ascending tuple of
pairs (u, v) with u < v, the only edge order any caller sees, and as
per-vertex sorted neighbor tuples; neighbor iteration order is ascending
id, which downstream greedy code relies on for determinism.

Parsing and building make a few passes over the lines and pairs and one
sort of the edges; stats is O(n), closed_n2 O(deg(v)·Δ) and diameter
O(n·m). The coloring format is parsed here too (parse_coloring). Parsing
and building run with the cyclic garbage collector paused (its previous
state is restored however they end). Everything they allocate is
acyclic: strings, ints, pair tuples and the lists and tuples that hold
them, all freed by reference counting, so a collection there could free
nothing. Yet each allocated container counts towards the next
collection, and a 6,000-line parse triggered about 40 of them, each
walking every tracked object of the young generation.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass, field
from functools import wraps
from itertools import starmap
from operator import eq
from typing import Iterable

#: Marker reported as the diameter of a disconnected graph.
DISCONNECTED = -1


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]  # (u, v) with u < v, ascending
    adj: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])


@dataclass(frozen=True)
class GraphStats:
    max_degree: int
    degree_sequence: tuple[int, ...]


def _collector_paused(build):
    """Wrap build so that it runs with the cyclic garbage collector paused
    and the collector's previous state restored in a finally (see the
    module docstring for why a collection there frees nothing)."""
    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_collector_paused
def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from (possibly duplicated) vertex-id pairs.

    Rejects self-loops and out-of-range ids; duplicate pairs collapse.
    One pass puts each pair low end first (a tuple pair already in that
    order is kept, not rebuilt), a sort and dict.fromkeys leave the
    distinct edges ascending, the lowest id and one equality pass over
    them check for negative ids and self-loops, and one pass fills the
    neighbor lists, where an id >= n fails to index: O(m log m), and
    linear on pairs already in order, as emit_edge_list writes them. Only
    if a check fails are the pairs walked again, in their given order, to
    name the first bad one. The collector is paused throughout (module
    docstring).
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    pairs = list(pairs)
    # tuple(p) is p itself when p is a tuple
    edges = tuple(dict.fromkeys(sorted([tuple(p) if u < v else (v, u)
                                        for p in pairs for u, v in (p,)])))
    if edges and (edges[0][0] < 0 or any(starmap(eq, edges))):
        _reject_pair(n, pairs)
    neighbors: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in edges:  # ascending, so each vertex meets its neighbors in order
            neighbors[u].append(v)
            neighbors[v].append(u)
    except IndexError:  # an id >= n: no id is negative, so none wraps around
        _reject_pair(n, pairs)
    return Graph(n=n, edges=edges, adj=tuple(map(tuple, neighbors)))


def _reject_pair(n: int, pairs: list[tuple[int, int]]) -> None:
    """Raise ValueError naming the first self-loop or out-of-range pair
    (without the IndexError of the neighbor-list fill as its context)."""
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}") from None


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from source; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def stats(g: Graph) -> GraphStats:
    """Max degree and degree sequence, in O(n)."""
    degs = tuple(map(len, g.adj))
    return GraphStats(max_degree=max(degs, default=0), degree_sequence=degs)


def diameter(g: Graph) -> int:
    """BFS-exact diameter, O(n·m): DISCONNECTED if not connected, 0 if empty."""
    diam = 0
    for v in range(g.n):
        dist = bfs_distances(g, v)
        if min(dist) < 0:  # unreachable vertex
            return DISCONNECTED
        diam = max(diam, max(dist))
    return diam


def closed_n2(g: Graph, v: int) -> set[int]:
    """The set {u : d(u, v) <= 2}, including v itself, in O(deg(v)·Δ)."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    return {v, *g.adj[v]}.union(*(g.adj[w] for w in g.adj[v]))


def _int_pair(tokens: list[str], form: str) -> tuple[int, int]:
    try:
        a, b = map(int, tokens)
    except ValueError:
        raise ValueError(f"expected a line '{form}', got {' '.join(tokens)!r}") from None
    return a, b


def _rows(text: str) -> Iterable[list[str]]:
    """The tokens of each line that is neither blank nor a `#` comment,
    one line at a time."""
    return (row for row in map(str.split, text.splitlines()) if row and row[0][0] != "#")


def _int_pairs(text: str) -> list[tuple[int, int]] | None:
    """The two integers of every row of text, or None if some row is not
    exactly two integers. Each line is split and converted as it is read,
    so no token list outlives its line, and each pair tuple is built once.
    """
    try:
        return [(int(a), int(b)) for a, b in _rows(text)]
    except ValueError:  # a row of another length, or a token that is no integer
        return None


@_collector_paused
def parse_edge_list(text: str) -> Graph:
    """Parse the canonical on-disk format: `n m` header then `u v` lines.

    Lines starting with `#` are comments and ignored. Every other line
    must be exactly two integers; a line that is not raises ValueError
    naming it. One pass over the lines converts them to pairs and
    from_edge_list builds the graph: O(m log m) in all, linear on a file
    in ascending edge order. Only if some line is not two integers are the
    lines read again and kept, to report the first fault in this order:
    empty input, the header, the edge count, the first bad line. The
    collector is paused throughout, because everything a parse allocates
    is acyclic, so a collection could free nothing (module docstring).
    """
    pairs = _int_pairs(text)
    rows = list(_rows(text)) if pairs is None else pairs
    if not rows:
        raise ValueError("empty edge-list input")
    n, m = _int_pair(rows[0], "n m") if pairs is None else pairs[0]
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(rows) - 1}")
    if pairs is None:
        pairs = [_int_pair(row, "u v") for row in rows]  # raises on the first bad line
    g = from_edge_list(n, pairs[1:])
    if g.m != m:
        raise ValueError(f"edge list contains duplicates: {m} declared, {g.m} distinct")
    return g


@_collector_paused
def parse_coloring(text: str, n: int) -> tuple[int, ...]:
    """The colors of vertices 0..n-1 from the coloring format: one `v c`
    line per vertex, each vertex once, colors from 1, `#` comments ok.
    Lines are read as parse_edge_list reads them, with the collector
    paused; the first fault raises ValueError naming it."""
    pairs = _int_pairs(text)
    if pairs is None:
        pairs = [_int_pair(row, "v c") for row in _rows(text)]  # raises on the first bad line
    colors: dict[int, int] = {}
    for v, c in pairs:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        if v in colors:
            raise ValueError(f"vertex {v} is listed twice")
        if c < 1:
            raise ValueError(f"vertex {v} has color {c}; colors start at 1")
        colors[v] = c
    if len(colors) < n:
        missing = [v for v in range(n) if v not in colors]
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise ValueError(f"coloring is partial; missing vertices {missing[:5]}{more}")
    return tuple(colors[v] for v in range(n))


def emit_edge_list(g: Graph) -> str:
    """Serialize to the canonical format; inverse of parse_edge_list."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
