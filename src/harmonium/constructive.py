"""Closed-form colorings and exact formulas for the cycle-related
families: sunflower, sun, closed sun and lollipop.

The lollipop value reduces to a trail-existence question: an
r-harmonious coloring of L_{n,m} is exactly a trail with m vertices in
K_r minus the edges among colors 1..n, starting at color 1. One table
of the four parity cases, `_removals`, gives the edges that must be
deleted so the residual graph carries an Eulerian (closed or open)
trail. h is read from that table, as the number of path vertices such
a trail can hold, and the plan walks the same table with Hierholzer's
algorithm, truncated to m vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import families
from .solver import solve
from .verify import Coloring

_H_CYCLE_MAX = 16
_h_cycle_cache: dict[int, Coloring] = {}


def cycle_coloring(n: int) -> Coloring:
    """An optimal harmonious coloring of C_n for 3 <= n <= 16: the
    solver's witness, memoized so each n is solved once."""
    if not 3 <= n <= _H_CYCLE_MAX:
        raise ValueError(f"cycle colorings cover 3 <= n <= {_H_CYCLE_MAX}, got {n}")
    if n not in _h_cycle_cache:
        _h_cycle_cache[n] = solve(families.cycle(n)).witness
    return _h_cycle_cache[n]


def h_cycle(n: int) -> int:
    """Exact h(C_n) for 3 <= n <= 16, the size of cycle_coloring(n)."""
    return cycle_coloring(n).k


def color_sunflower(n: int) -> Coloring:
    """Harmonious (n+1)-coloring of the sunflower for n >= 7.

    Hub gets 1, rim vertex v_i gets i+1, and the petal layer reuses the
    rim colors shifted by three rim positions, so rim edges, petal-rim
    edges and hub edges occupy disjoint color-difference classes.
    Smaller n belong to the exact solver.
    """
    if n < 7:
        raise ValueError(f"closed-form sunflower coloring needs n >= 7, got {n}")
    colors = [0] * (2 * n + 1)
    colors[0] = 1
    for i in range(1, n + 1):
        colors[i] = i + 1
    for i in range(1, n + 1):  # petal u_i (id n+i) takes rim color of v_{i+3}
        colors[n + i] = (i + 2) % n + 2
    return Coloring(tuple(colors))


def color_sun(n: int) -> Coloring:
    """Harmonious coloring of the sun graph: n+2 colors (n even) or
    n+3 (n odd, the last outer vertex taking the extra color)."""
    if n < 3:
        raise ValueError(f"sun needs n >= 3, got {n}")
    colors = [0] * (2 * n)
    for i in range(1, n + 1):  # clique vertex v_i is id i-1
        colors[i - 1] = i
    for j in range(1, n + 1):  # outer u_j is id n+j-1
        colors[n + j - 1] = n + 1 if j % 2 == 1 else n + 2
    if n % 2 == 1:
        colors[2 * n - 1] = n + 3
    return Coloring(tuple(colors))


def color_closed_sun(n: int) -> Coloring:
    """Closed sun for 3 <= n <= 16: clique colors 1..n plus an optimal
    cycle coloring shifted by n, so n + h(C_n) colors. For n <= 5 the cycle
    coloring is 1..n and this is the all-distinct coloring the diameter-2
    graph needs. verify.lower_bounds reaches its size for every such n
    (for n >= 5 through its clique bound: the n-clique's colors plus
    count_bound of the outer C_n), which certifies it optimal."""
    if not 3 <= n <= _H_CYCLE_MAX:
        raise ValueError(f"closed sun needs 3 <= n <= {_H_CYCLE_MAX}, got {n}")
    cyc = cycle_coloring(n)
    colors = list(range(1, n + 1)) + [n + c for c in cyc.colors]
    return Coloring(tuple(colors))


def _min_t(n: int, m: int) -> int:
    t = 0
    while m > 1 + n * t + t * (t - 1) // 2:
        t += 1
    return t


def _removals(n: int, t: int, extra: bool) -> set[tuple[int, int]]:
    """Edges deleted from K_r - E(<[n]>), r = n + t (+1 if extra), so an
    Eulerian trail from vertex 1 exists; it has 1 + k - len(removed)
    vertices, k = nt + t(t-1)/2 (vertex labels 1-based as in K_r)."""
    if t % 2 == 0:
        if n % 2 == 1:  # even_odd: already Eulerian
            return set()
        if not extra:  # even_even
            return {(n + j, n + j + 1) for j in range(1, t, 2)}
        return {(i, n + t + 1) for i in range(1, n + 1)}
    if n % 2 == 0:  # odd_even
        if not extra:
            return {(i, n + 1) for i in range(3, n + 1)}
        return {(n + j, n + j + 1) for j in range(1, t + 1, 2)}
    if extra:  # odd_odd: K_{n+t+1} - E(<[n]>) is already Eulerian
        return set()
    if t >= n - 2:  # odd_odd_big_t
        return ({(i, n + i - 2) for i in range(3, n + 1)}
                | {(n + j, n + j + 1) for j in range(n - 1, t, 2)})
    # odd_odd_small_t
    return ({(i, n + i - 2) for i in range(3, t + 2)}
            | {(i, n + t) for i in range(t + 2, n + 1)})


def lollipop_h(n: int, m: int) -> int:
    """Exact h(L_{n,m}): n + t colors unless the m - 1 path edges
    overflow the trail that _removals leaves, then one more. On the grid
    3 <= n <= 8, 2 <= m <= 12, verify.lower_bounds reaches it too, which
    certifies it there; beyond the grid it can fall one short (L(4, 15)
    reads 7 against 8)."""
    if n < 3 or m < 2:
        raise ValueError(f"lollipop needs n >= 3, m >= 2, got ({n}, {m})")
    t = _min_t(n, m)
    k = n * t + t * (t - 1) // 2
    return n + t + (m - 1 > k - len(_removals(n, t, False)))


@dataclass(frozen=True)
class LollipopPlan:
    n: int
    m: int
    r: int  # total colors, h(L_{n,m})
    removed_edges: frozenset[tuple[int, int]]  # deleted from K_r - E(<[n]>)
    trail: tuple[int, ...]  # m vertices of K_r, starts at 1


def _eulerian_trail(r: int, n: int, removed: set[tuple[int, int]]) -> list[int]:
    """Hierholzer's algorithm on K_r minus clique-internal and removed
    edges; returns the full trail beginning at vertex 1."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, r + 1)}
    m_edges = 0
    for u in range(1, r + 1):
        for v in range(u + 1, r + 1):
            if u <= n and v <= n:
                continue
            if (u, v) in removed:
                continue
            adj[u].add(v)
            adj[v].add(u)
            m_edges += 1
    stack = [1]
    out: list[int] = []
    while stack:
        v = stack[-1]
        if adj[v]:
            w = min(adj[v])  # deterministic edge choice
            adj[v].remove(w)
            adj[w].remove(v)
            stack.append(w)
        else:
            out.append(stack.pop())
    trail = out[::-1]
    if len(trail) != m_edges + 1 or trail[0] != 1:
        raise AssertionError("residual graph is not Eulerian-traversable from vertex 1")
    return trail


def lollipop_plan(n: int, m: int) -> LollipopPlan:
    """Build the residual graph for (n, m), walk it, and record the plan."""
    r = lollipop_h(n, m)
    t = _min_t(n, m)
    removed = _removals(n, t, r > n + t)
    trail = _eulerian_trail(r, n, removed)
    if len(trail) < m:
        raise AssertionError(f"residual trail too short: {len(trail)} < {m}")
    return LollipopPlan(
        n=n, m=m, r=r, removed_edges=frozenset(removed), trail=tuple(trail[:m]),
    )


def lollipop_coloring(plan: LollipopPlan) -> Coloring:
    """Derive the coloring of L_{n,m} from a plan: clique vertex i gets
    color i+1, the j-th path vertex gets trail[j]. The junction, clique
    vertex 0, is trail[0], which is color 1."""
    n, m = plan.n, plan.m
    colors = [0] * (n + m - 1)
    for i in range(n):
        colors[i] = i + 1
    for j in range(1, m):
        colors[n + j - 1] = plan.trail[j]
    return Coloring(tuple(colors))
