"""Catalog of named graphs: each entry is only an edge list.

Every entry is connected with no isolated vertex, so `named` reads n off
the largest vertex id; `harmonium gen` computes n, m, regularity and
diameter from the graph itself.

The planar33_* entries are 3-regular planar diameter-3 graphs on 8, 10
and 12 vertices (3, 6 and 2 isomorphism classes respectively). They were
found by random sampling of cubic graphs followed by planarity/diameter
filtering and isomorphism dedup, stopping once the known class counts
were reached. Nothing in this repository yet certifies that these are all
such graphs: that needs an exhaustive enumerator. Tests re-verify
their degree sequence and diameter.
"""

from __future__ import annotations

from .graph import Graph, from_edge_list

Edges = list[tuple[int, int]]


_TRUNCATED_TETRAHEDRON: Edges = [
    (0, 1), (0, 2), (0, 9), (1, 2), (1, 6), (2, 3), (3, 4), (3, 11), (4, 5),
    (4, 11), (5, 6), (5, 7), (6, 7), (7, 8), (8, 9), (8, 10), (9, 10), (10, 11),
]

_PLANAR33_8: list[Edges] = [
    [(0, 3), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (2, 4), (2, 6), (3, 7),
     (4, 5), (5, 6), (5, 7)],
    [(0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6),
     (3, 7), (4, 7), (5, 6)],
    [(0, 1), (0, 4), (0, 7), (1, 4), (1, 6), (2, 3), (2, 5), (2, 7), (3, 5),
     (3, 6), (4, 6), (5, 7)],
]

_PLANAR33_10: list[Edges] = [
    [(0, 1), (0, 6), (0, 8), (1, 2), (1, 3), (2, 5), (2, 6), (3, 7), (3, 8),
     (4, 5), (4, 7), (4, 9), (5, 9), (6, 9), (7, 8)],
    [(0, 3), (0, 6), (0, 8), (1, 2), (1, 4), (1, 7), (2, 5), (2, 7), (3, 4),
     (3, 6), (4, 9), (5, 8), (5, 9), (6, 7), (8, 9)],
    [(0, 1), (0, 3), (0, 4), (1, 2), (1, 6), (2, 6), (2, 9), (3, 5), (3, 7),
     (4, 5), (4, 8), (5, 8), (6, 7), (7, 9), (8, 9)],
    [(0, 1), (0, 5), (0, 9), (1, 4), (1, 8), (2, 3), (2, 6), (2, 9), (3, 6),
     (3, 7), (4, 7), (4, 8), (5, 6), (5, 9), (7, 8)],
    [(0, 1), (0, 3), (0, 7), (1, 2), (1, 8), (2, 3), (2, 5), (3, 4), (4, 5),
     (4, 6), (5, 8), (6, 7), (6, 9), (7, 9), (8, 9)],
    [(0, 3), (0, 4), (0, 6), (1, 7), (1, 8), (1, 9), (2, 3), (2, 6), (2, 7),
     (3, 8), (4, 8), (4, 9), (5, 6), (5, 7), (5, 9)],
]

# class 1 is the truncated tetrahedron, class 2 the Bidiakis cube
_PLANAR33_12: list[Edges] = [
    list(_TRUNCATED_TETRAHEDRON),
    [(0, 2), (0, 5), (0, 10), (1, 3), (1, 6), (1, 11), (2, 3), (2, 7), (3, 8),
     (4, 5), (4, 9), (4, 10), (5, 8), (6, 8), (6, 9), (7, 10), (7, 11), (9, 11)],
]


CATALOG: dict[str, Edges] = {
    "petersen": (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    ),
    "wagner": [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)],
    # K_2,2,2: every pair except the three antipodal ones
    "octahedron": [
        (u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in {(0, 1), (2, 3), (4, 5)}
    ],
    # two rhombi sharing vertex 0, tips 3 and 6 joined
    "moser_spindle": [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
        (0, 4), (0, 5), (4, 5), (4, 6), (5, 6),
        (3, 6),
    ],
    "house": [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)],
    "prism_y3": [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    # LCF [5,-5]^6
    "franklin": [
        (0, 1), (0, 5), (0, 11), (1, 2), (1, 8), (2, 3), (2, 7), (3, 4), (3, 10),
        (4, 5), (4, 9), (5, 6), (6, 7), (6, 11), (7, 8), (8, 9), (9, 10), (10, 11),
    ],
    # Petersen with one vertex expanded to a triangle
    "tietze": [
        (0, 1), (0, 5), (0, 9), (1, 2), (1, 6), (2, 3), (2, 7), (3, 8), (3, 10),
        (4, 6), (4, 7), (4, 11), (5, 7), (5, 8), (6, 8), (9, 10), (9, 11), (10, 11),
    ],
    # LCF [-6,4,-4]^4
    "bidiakis": [
        (0, 1), (0, 6), (0, 11), (1, 2), (1, 5), (2, 3), (2, 10), (3, 4), (3, 9),
        (4, 5), (4, 8), (5, 6), (6, 7), (7, 8), (7, 11), (8, 9), (9, 10), (10, 11),
    ],
    # 12-vertex cubic nonplanar diameter-3 graph of girth 5 (the girth-5
    # companion of the Tietze graph), partitionable into two induced trees
    "yutsis": [
        (0, 5), (0, 7), (0, 11), (1, 4), (1, 5), (1, 9), (2, 4), (2, 6), (2, 7),
        (3, 5), (3, 6), (3, 8), (4, 8), (6, 10), (7, 9), (8, 11), (9, 10), (10, 11),
    ],
    "truncated_tetrahedron": _TRUNCATED_TETRAHEDRON,
}
for _size, _classes in [(8, _PLANAR33_8), (10, _PLANAR33_10), (12, _PLANAR33_12)]:
    for _i, _edges in enumerate(_classes, start=1):
        CATALOG[f"planar33_{_size}_{_i}"] = _edges


def named(name: str) -> Graph:
    """Look up a catalog graph by name; every entry is connected, so its
    vertex count is one more than its largest vertex id."""
    try:
        edges = CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown catalog graph {name!r}; known: {', '.join(CATALOG)}") from None
    return from_edge_list(1 + max(map(max, edges)), edges)
