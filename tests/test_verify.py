import math
import random

import pytest

from harmonium import (
    CATALOG,
    Coloring,
    diameter,
    from_edge_list,
    is_harmonious,
    lower_bounds,
    named,
    oracle_h,
    solve,
    stats,
)
from harmonium.families import complete, cycle, generalized_petersen, path, star, wheel
from harmonium.verify import Verdict


def random_cubic(n, rng):
    """A configuration-model cubic graph on n vertices, redrawn until simple."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        edges = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            return from_edge_list(n, edges)


def test_all_distinct_is_harmonious(rng):
    from conftest import random_graph

    for _ in range(20):
        g = random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.8), rng)
        c = Coloring(tuple(range(1, g.n + 1)))
        assert is_harmonious(g, c).ok


def test_pair_repeated_on_path():
    g = path(4)
    v = is_harmonious(g, Coloring((1, 2, 1, 2)))
    assert v.kind == "pair_repeated"
    assert v.pair == (1, 2)
    # the middle edge already repeats the first edge's pair
    assert v.edge == (0, 1) and v.other_edge == (1, 2)
    assert str(v) == "pair (1, 2) repeated on edges (0, 1) and (1, 2)"


def test_pair_repeated_on_c4():
    g = cycle(4)
    v = is_harmonious(g, Coloring((1, 2, 1, 3)))
    assert v.kind == "pair_repeated" and v.pair == (1, 2)


def test_not_proper_reported_first():
    g = path(3)
    v = is_harmonious(g, Coloring((1, 1, 2)))
    assert v.kind == "not_proper" and v.edge == (0, 1)
    assert str(v) == "not proper: edge (0, 1) is monochromatic"
    assert bool(v) is False and bool(is_harmonious(g, Coloring((1, 2, 3)))) is True


def test_partial_coloring_rejected():
    with pytest.raises(ValueError):
        is_harmonious(path(3), Coloring((1, 2)))
    with pytest.raises(ValueError):
        Coloring((0, 1, 2))


def test_pair_table_k3():
    v = is_harmonious(complete(3), Coloring((1, 2, 3)))
    assert v.ok and str(v) == "ok"


def test_pair_table_star():
    v = is_harmonious(star(3), Coloring((1, 2, 2, 3)))
    assert (v.kind, v.pair, v.edge, v.other_edge) == ("pair_repeated", (1, 2), (0, 1), (0, 2))


def test_pair_table_from_solver_witness():
    g = cycle(5)
    res = solve(g)
    assert res.h == 5  # C_5 has diameter 2, so every vertex needs its own color
    assert res.witness.k == 5
    assert is_harmonious(g, res.witness).ok


def _table_verdict(g, c):
    """The oracle: each unordered color pair -> the edges carrying it, in
    ascending order. The first violation is the first edge that is
    monochromatic or not the first to carry its pair."""
    table: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in g.edges:
        a, b = c.colors[u], c.colors[v]
        table.setdefault((min(a, b), max(a, b)), []).append((u, v))
    for u, v in g.edges:
        a, b = c.colors[u], c.colors[v]
        pair = (min(a, b), max(a, b))
        if a == b:
            return Verdict("not_proper", edge=(u, v))
        if table[pair][0] != (u, v):
            return Verdict("pair_repeated", pair=pair, edge=table[pair][0], other_edge=(u, v))
    return Verdict("ok")


def test_verdict_equivalent_to_table(rng):
    from conftest import random_graph

    late = 0
    for i in range(300):
        if i < 100:
            g = random_graph(rng.randint(2, 9), rng.uniform(0.2, 0.7), rng)
            k = rng.randint(1, g.n)
            c = Coloring(tuple(rng.randint(1, k) for _ in range(g.n)))
        else:  # up to 40 vertices, all but one with their own color: a late violation
            g = random_graph(rng.randint(10, 40), rng.uniform(0.05, 0.5), rng)
            colors = list(range(1, g.n + 1))
            colors[rng.randrange(g.n)] = rng.randint(1, g.n)
            c = Coloring(tuple(colors))
        verdict = is_harmonious(g, c)
        assert verdict == _table_verdict(g, c), (g.edges, c.colors)
        late += not verdict.ok and g.edges.index(verdict.other_edge or verdict.edge) >= 20
    assert late > 50  # 85 of the 200


def test_bounds_k4():
    b = lower_bounds(complete(4))
    assert (b.size_bound, b.delta_bound, b.combined) == (4, 4, 4)


def test_bounds_petersen():
    b = lower_bounds(named("petersen"))
    assert b.combined == 10


def test_bounds_truncated_tetrahedron():
    b = lower_bounds(named("truncated_tetrahedron"))
    # ceil((1 + sqrt(8*18+1)) / 2) = ceil(6.52) = 7, evaluated by hand
    assert b.size_bound == 7
    assert b.degree3_bound == 7
    assert b.combined == 7


def test_size_bound_is_min_k_with_enough_pairs():
    for m in range(1, 120):
        b = lower_bounds(star(m))
        # smallest k with C(k,2) >= m, by scan
        kk = 1
        while kk * (kk - 1) // 2 < m:
            kk += 1
        assert b.size_bound == kk == math.ceil((1 + math.sqrt(8 * m + 1)) / 2)


def test_p5_shows_n2_not_a_general_bound():
    # colors 1,2,3,1,4 beat max |N2[v]| = 5: the n2 bound must not
    # enter combined for diameter-3 graphs
    g = path(5)
    assert is_harmonious(g, Coloring((1, 2, 3, 1, 4))).ok
    b = lower_bounds(g)
    assert b.combined <= 4


def test_binomial_edge_bound_on_harmonious_colorings(rng):
    from conftest import random_graph

    for _ in range(30):
        g = random_graph(rng.randint(2, 8), rng.uniform(0.2, 0.6), rng)
        res = solve(g)
        k = res.h
        assert k * (k - 1) // 2 >= g.m


def test_exact_h_at_least_combined(rng):
    from conftest import random_graph

    graphs = [random_graph(rng.randint(1, 8), rng.uniform(0.1, 0.7), rng) for _ in range(30)]
    # the empty graph has h = 0; planar33_8_1 is cubic with diameter 3
    for g in graphs + [from_edge_list(0, []), named("planar33_8_1")]:
        h = solve(g).h
        b = lower_bounds(g)
        for bound in (b.size_bound, b.delta_bound, b.degree3_bound, b.combined):
            assert bound <= h, (b, g.n, g.edges)


def test_diameter2_exact_h_is_n(rng):
    from conftest import random_graph

    found = 0
    for _ in range(80):
        g = random_graph(rng.randint(2, 9), rng.uniform(0.4, 0.9), rng)
        if 0 <= diameter(g) <= 2:
            assert solve(g).h == g.n
            found += 1
    assert found > 10


def test_degree_facts_and_bounds_need_no_bfs(monkeypatch):
    # with the BFS made to raise, every bound on the whole cubic corpus and on
    # graphs of large diameter still equals its definition (the distances
    # are taken beforehand)
    cases = [(g, diameter(g)) for g in [*_cubic_corpus(), path(200), named("petersen"),
                                        from_edge_list(4, [(0, 1), (2, 3)]),
                                        from_edge_list(0, []), from_edge_list(1, [])]]

    def no_bfs(g, source):
        raise AssertionError("bfs_distances called")

    monkeypatch.setattr("harmonium.graph.bfs_distances", no_bfs)
    for g, diam in cases:
        assert sum(stats(g).degree_sequence) == 2 * g.m
        b = lower_bounds(g)
        assert (b.size_bound, b.delta_bound, b.degree3_bound, b.combined) == \
            _bounds_by_definition(g, diam), (g.n, g.edges)
    # non-cubic, diameter 199: only the size and degree bounds apply
    b = lower_bounds(path(200))
    assert b.degree3_bound == 0
    assert b.combined == b.size_bound == 21
    # cubic with diameter 2: the distance-2 test settles it without a diameter
    assert lower_bounds(named("petersen")).combined == 10
    # cubic on more than 22 vertices (diameter 4 or more): the degree count
    # gives 7 and the size bound more
    for g in (generalized_petersen(500, 3), generalized_petersen(12, 5),
              random_cubic(40, random.Random(40))):
        b = lower_bounds(g)
        assert b.degree3_bound == 7
        assert b.combined == b.size_bound > 7


def test_seven_vertices_of_degree_3_need_7_colors(rng):
    from conftest import random_graph

    # a star K_{1,3} per centre: six centres of degree 3 give 0, seven give 7
    for centres, expected in ((6, 0), (7, 7)):
        edges = [(4 * c, 4 * c + leaf) for c in range(centres) for leaf in (1, 2, 3)]
        assert lower_bounds(from_edge_list(4 * centres, edges)).degree3_bound == expected
    # on the cubic diameter-3 graph it is the bound that binds
    b = lower_bounds(named("planar33_8_1"))
    assert (b.size_bound, b.delta_bound, b.degree3_bound, b.combined) == (6, 4, 7, 7)
    # on random graphs where it reaches combined, combined is never above
    # the brute-force h; the oracle enumerates every assignment, so 9-vertex
    # graphs are few
    wanted = {7: 6, 8: 6, 9: 2}
    binding = 0
    while any(wanted.values()):
        n = rng.choice([n for n, left in wanted.items() if left])
        g = random_graph(n, rng.uniform(0.3, 0.5), rng)
        b = lower_bounds(g)
        if b.degree3_bound == b.combined:
            wanted[n] -= 1
            binding += b.combined > max(b.size_bound, b.delta_bound)
            assert b.combined <= oracle_h(g), (g.n, g.edges)
    assert binding > 5


def test_a_hub_settles_the_distance_2_test_without_the_balls(monkeypatch):
    def no_balls(g, v):
        raise AssertionError("closed_n2 called")

    monkeypatch.setattr("harmonium.verify.closed_n2", no_balls)
    # every two vertices are within distance 2 through the vertex of degree n - 1
    for g in (star(20000), wheel(20000)):
        assert lower_bounds(g).combined == g.n


def test_a_least_degree_vertex_goes_first_and_every_vertex_after(monkeypatch):
    import harmonium.verify as verify

    balls = []
    real = verify.closed_n2
    monkeypatch.setattr(verify, "closed_n2", lambda g, v: balls.append(v) or real(g, v))
    # vertex 0 sees every vertex within distance 2; leaf 1 goes first and misses 5
    g = from_edge_list(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    assert lower_bounds(g).combined == 5 and balls == [1]
    # least-degree vertex 0 sees all 7 vertices, so the vertices are tried
    # from 0 after it, and vertex 1 misses 5 and 6
    balls.clear()
    g = from_edge_list(7, [(0, 1), (0, 2), (1, 3), (1, 4), (3, 4), (2, 5), (2, 6), (5, 6)])
    assert lower_bounds(g).combined == _bounds_by_definition(g, diameter(g))[3] == 5
    assert balls == [0, 0, 1]


def _bounds_by_definition(g, diam):
    """(size, delta, degree3, combined) from the definitions and a BFS diameter."""
    size = 1
    while size * (size - 1) // 2 < g.m:
        size += 1
    delta_bound = max((g.degree(v) for v in range(g.n)), default=0) + 1
    degree3 = 7 if sum(g.degree(v) >= 3 for v in range(g.n)) >= 7 else 0
    # the empty graph needs no color at all
    combined = max(size, delta_bound, g.n if 0 <= diam <= 2 else 0, degree3) if g.n else 0
    return min(size, g.n), min(delta_bound, g.n), degree3, combined


def _cubic_corpus():
    """Every GP(n,k) with 2n <= 40, the catalog's cubic graphs, random cubic n = 4..40."""
    yield from (generalized_petersen(n, k) for n in range(3, 21) for k in range(1, (n + 1) // 2))
    for name in CATALOG:
        g = named(name)
        if all(g.degree(v) == 3 for v in range(g.n)):
            yield g
    rng = random.Random(2021)
    for n in range(4, 41, 2):
        yield from (random_cubic(n, rng) for _ in range(3))


def test_combined_matches_the_definition(rng):
    from conftest import random_graph

    disconnected = 0
    graphs = [random_graph(i % 10, rng.uniform(0.0, 0.9), rng) for i in range(200)]
    cubic = list(_cubic_corpus())
    for g in graphs + cubic:
        diam = diameter(g)
        disconnected += diam < 0
        b = lower_bounds(g)
        got = (b.size_bound, b.delta_bound, b.degree3_bound, b.combined)
        assert got == _bounds_by_definition(g, diam), (g.n, g.edges)
    assert disconnected > 10
    assert len(cubic) > 150 and max(g.n for g in cubic) == 40
