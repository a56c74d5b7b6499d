"""Deterministic generators for parametric graph families.

Labeling conventions (fixed so closed-form colorings can be index
formulas): cycle vertices are 0..n-1 in cyclic order; hub-style vertices
(wheel, sunflower, star, ...) are id 0; the sun/closed-sun clique is ids
0..n-1 with outer vertex u_i at id n+i-1 (i 1-based); the lollipop
clique is ids 0..n-1 with the path hanging off vertex 0.
"""

from __future__ import annotations

from .graph import Graph, from_edge_list


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def path(n: int) -> Graph:
    _require(n >= 1, f"path needs n >= 1, got {n}")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def _clique(n: int) -> list[tuple[int, int]]:
    """K_n on ids 0..n-1."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def complete(n: int) -> Graph:
    _require(n >= 1, f"complete needs n >= 1, got {n}")
    return from_edge_list(n, _clique(n))


def star(n: int) -> Graph:
    """K_{1,n}: hub 0 plus n leaves."""
    _require(n >= 1, f"star needs n >= 1, got {n}")
    return from_edge_list(n + 1, [(0, i) for i in range(1, n + 1)])


def _wheel(n: int, first: int = 1) -> list[tuple[int, int]]:
    """Hub 0 joined to the cycle first..first+n-1."""
    return [e for i in range(n) for e in ((first + i, first + (i + 1) % n), (0, first + i))]


def wheel(n: int) -> Graph:
    """Hub 0 joined to cycle 1..n."""
    _require(n >= 3, f"wheel needs n >= 3, got {n}")
    return from_edge_list(n + 1, _wheel(n))


def gear(n: int) -> Graph:
    """Wheel with every rim edge subdivided; subdivider of (v_i, v_{i+1}) is n+i."""
    _require(n >= 3, f"gear needs n >= 3, got {n}")
    edges = [(0, i) for i in range(1, n + 1)]
    for i in range(n):
        mid = n + 1 + i
        edges += [(1 + i, mid), (mid, 1 + (i + 1) % n)]
    return from_edge_list(2 * n + 1, edges)


def helm(n: int) -> Graph:
    """Wheel plus a pendant n+i attached to rim vertex i."""
    _require(n >= 3, f"helm needs n >= 3, got {n}")
    return from_edge_list(2 * n + 1, _wheel(n) + [(i, n + i) for i in range(1, n + 1)])


def flower(n: int) -> Graph:
    """Helm with every pendant also joined to the hub."""
    _require(n >= 3, f"flower needs n >= 3, got {n}")
    pendants = [e for i in range(1, n + 1) for e in ((i, n + i), (0, n + i))]
    return from_edge_list(2 * n + 1, _wheel(n) + pendants)


def double_wheel(n: int) -> Graph:
    """Two n-cycles (ids 1..n and n+1..2n) sharing hub 0."""
    _require(n >= 3, f"double_wheel needs n >= 3, got {n}")
    return from_edge_list(2 * n + 1, _wheel(n) + _wheel(n, n + 1))


def g_nn(n: int) -> Graph:
    """Double wheel with the matching v_i -- u_i added."""
    _require(n >= 3, f"g_nn needs n >= 3, got {n}")
    matching = [(i, n + i) for i in range(1, n + 1)]
    return from_edge_list(2 * n + 1, _wheel(n) + _wheel(n, n + 1) + matching)


def triangular_book(n: int) -> Graph:
    """B_{3,n}: spine u=0, v=1; page vertices 2..n+1."""
    _require(n >= 1, f"triangular_book needs n >= 1, got {n}")
    edges = [(0, 1)] + [(0, 2 + i) for i in range(n)] + [(1, 2 + i) for i in range(n)]
    return from_edge_list(n + 2, edges)


def book_with_bookmark(n: int) -> Graph:
    """TB_{3,n}: triangular book plus bookmark x=2 pendant on u."""
    _require(n >= 1, f"book_with_bookmark needs n >= 1, got {n}")
    edges = [(0, 1), (0, 2)]
    edges += [(0, 3 + i) for i in range(n)] + [(1, 3 + i) for i in range(n)]
    return from_edge_list(n + 3, edges)


def jewel(n: int) -> Graph:
    """J_n: u=0, v=1, x=2, y=3 and n rim vertices joined to u and v."""
    _require(n >= 1, f"jewel needs n >= 1, got {n}")
    edges = [(0, 2), (2, 1), (2, 3), (0, 3), (3, 1)]
    edges += [(0, 4 + i) for i in range(n)] + [(1, 4 + i) for i in range(n)]
    return from_edge_list(n + 4, edges)


def sunflower(n: int) -> Graph:
    """Wheel 0..n plus petal u_i = n+i joined to rim vertices i and i+1."""
    _require(n >= 3, f"sunflower needs n >= 3, got {n}")
    petals = [e for i in range(1, n + 1) for e in ((n + i, i), (n + i, 1 + i % n))]
    return from_edge_list(2 * n + 1, _wheel(n) + petals)


def _sun(n: int) -> list[tuple[int, int]]:
    return _clique(n) + [e for i in range(n) for e in ((n + i, i), (n + i, (i + 1) % n))]


def sun(n: int) -> Graph:
    """K_n (ids 0..n-1) with u_i = n+i-1 joined to clique vertices i-1, i mod n."""
    _require(n >= 3, f"sun needs n >= 3, got {n}")
    return from_edge_list(2 * n, _sun(n))


def closed_sun(n: int) -> Graph:
    """Sun with the outer vertices joined into a cycle."""
    _require(n >= 3, f"closed_sun needs n >= 3, got {n}")
    return from_edge_list(2 * n, _sun(n) + [(n + i, n + (i + 1) % n) for i in range(n)])


def lollipop(n: int, m: int) -> Graph:
    """L_{n,m}: K_n on 0..n-1 with an m-vertex path starting at clique vertex 0.

    Path vertices are 0, n, n+1, ..., n+m-2 (the first path vertex is
    identified with clique vertex 0), n + m - 1 vertices in total.
    """
    _require(n >= 3, f"lollipop needs n >= 3, got {n}")
    _require(m >= 2, f"lollipop needs m >= 2, got {m}")
    edges = _clique(n)
    prev = 0
    for j in range(n, n + m - 1):
        edges.append((prev, j))
        prev = j
    return from_edge_list(n + m - 1, edges)


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n,k): outer cycle 0..n-1, inner vertices n..2n-1 with skip k."""
    _require(n >= 3, f"generalized_petersen needs n >= 3, got {n}")
    _require(1 <= k < n / 2, f"generalized_petersen needs 1 <= k < n/2, got k={k}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return from_edge_list(2 * n, edges)


_TWO_PARAM = {"lollipop", "generalized_petersen"}

_DISPATCH = {
    "path": path, "cycle": cycle, "complete": complete, "star": star,
    "wheel": wheel, "gear": gear, "helm": helm, "flower": flower,
    "double_wheel": double_wheel, "g_nn": g_nn,
    "triangular_book": triangular_book, "book_with_bookmark": book_with_bookmark,
    "jewel": jewel, "sunflower": sunflower, "sun": sun, "closed_sun": closed_sun,
    "lollipop": lollipop, "generalized_petersen": generalized_petersen,
}

FAMILIES = tuple(_DISPATCH)


def generate(family: str, n: int, m: int | None = None) -> Graph:
    """Build a family member by name: m is the second parameter (lollipop
    path length, generalized_petersen skip), given for exactly those two."""
    if family not in _DISPATCH:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    fn = _DISPATCH[family]
    if family in _TWO_PARAM:
        if m is None:
            raise ValueError(f"family {family!r} needs a second parameter")
        return fn(n, m)
    if m is not None:
        raise ValueError(f"family {family!r} takes a single parameter")
    return fn(n)


def adversarial_tree(N: int) -> Graph:
    """Tree on N(N-1) vertices that defeats the greedy colorer.

    Root 0 has children a_1..a_{N-1} (ids 1..N-1); each of a_2..a_{N-1}
    carries a middle vertex b_i (id N+i-2) which in turn has N-1 leaves,
    the ids from 2N-2 up in blocks of N-1. Index order is the adversarial
    order (root, a-layer, b-layer, leaves): greedy given list(range(n))
    spends (N-1)^2 + 1 colors.
    """
    if N < 3:
        raise ValueError(f"adversarial tree needs N >= 3, got {N}")
    edges = [(0, i) for i in range(1, N)] + [(i, N + i - 2) for i in range(2, N)]
    edges += [(N + (x - (2 * N - 2)) // (N - 1), x) for x in range(2 * N - 2, N * (N - 1))]
    return from_edge_list(N * (N - 1), edges)
