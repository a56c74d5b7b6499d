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
from harmonium.constructive import color_closed_sun, lollipop_h
from harmonium.families import (
    closed_sun,
    complete,
    cycle,
    generalized_petersen,
    lollipop,
    path,
    star,
    wheel,
)
from harmonium.verify import Verdict, class_counts


def random_regular(n, d, rng):
    """A configuration-model d-regular graph on n vertices, redrawn until simple."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
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
    # 12 cubic vertices in 7 classes: five of two and two of one, degree
    # sums (6, 6, 6, 6, 6, 3, 3), and 30 > 5 * 4 + 2 * 3 at the run end
    assert (b.count_bound, b.refuted_by, b.combined) == (8, "regular", 8)


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
        for bound in (b.size_bound, b.delta_bound, b.count_bound, b.combined):
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
        assert (b.size_bound, b.delta_bound, b.count_bound, b.refuted_by, b.clique_bound,
                b.combined) == _bounds_by_definition(g, diam), (g.n, g.edges)
    # non-cubic, diameter 199: no count refutes the size bound
    b = lower_bounds(path(200))
    assert (b.refuted_by, b.combined) == (None, 21)
    # cubic with diameter 2: the distance-2 test settles it without a diameter
    assert lower_bounds(named("petersen")).combined == 10
    # cubic on more than 22 vertices (diameter 4 or more): the counts start
    # at the size bound, and packing lifts two of them one above it
    got = [(b.size_bound, b.count_bound, b.refuted_by, b.combined) for b in map(lower_bounds, (
        generalized_petersen(500, 3), generalized_petersen(12, 5),
        random_regular(40, 3, random.Random(40))))]
    assert got == [(56, 56, None, 56), (9, 10, "packing", 10), (12, 13, "packing", 13)]


def caterpillar(spine):
    """A path of spine vertices, each given leaves up to degree 3: spine
    vertices of degree 3 and spine + 2 leaves."""
    edges = [(v, v + 1) for v in range(spine - 1)]
    leaf = spine
    for v in range(spine):
        for _ in range(3 - (v > 0) - (v < spine - 1)):
            edges.append((v, leaf))
            leaf += 1
    return from_edge_list(leaf, edges)


def test_seven_vertices_of_degree_3_need_7_colors(rng):
    from conftest import random_graph, root_counts

    # with k <= 6 colors a class holds one vertex of degree >= 3 (packing at
    # d = 3). A star K_{1,3} per centre: packing passes six centres at k = 6
    # and refutes seven, whose 21 edges need 7 colors' pairs as well
    for centres in (6, 7):
        edges = [(4 * c, 4 * c + leaf) for c in range(centres) for leaf in (1, 2, 3)]
        g = from_edge_list(4 * centres, edges)
        assert ("packing" in root_counts(g, 6)) == (centres == 7)
        assert lower_bounds(g).combined == 7
    # six on a caterpillar's spine pass k = 6, and seven need 7, though
    # their 15 edges fit the 15 pairs of 6 colors
    for spine, expected in ((6, (6, None)), (7, (7, "packing"))):
        b = lower_bounds(caterpillar(spine))
        assert (b.size_bound, b.count_bound, b.refuted_by) == (6, *expected)
    # on the cubic diameter-3 graph it is the bound that binds
    b = lower_bounds(named("planar33_8_1"))
    assert (b.size_bound, b.delta_bound, b.count_bound, b.refuted_by, b.combined) == (
        6, 4, 7, "packing", 7)
    # on random graphs where a count lifts combined, combined is never above
    # the brute-force h
    wanted = {7: 6, 8: 6, 9: 2}
    while any(wanted.values()):
        n = rng.choice([n for n, left in wanted.items() if left])
        g = random_graph(n, rng.uniform(0.3, 0.5), rng)
        b = lower_bounds(g)
        if b.refuted_by and b.count_bound == b.combined:
            wanted[n] -= 1
            assert b.combined <= oracle_h(g), (g.n, g.edges)


def test_one_erdos_gallai_check_settles_the_regular_count():
    # N vertices of degree d (dN even): class_counts passes k exactly when
    # some way to size the k classes makes their degree sums a graphical
    # sequence, by Erdős–Gallai at every r. Graphical degree sums already
    # meet the pairs, parity and packing counts, so every k is compared.
    # Any sequence of degrees will do: a list gives the tuple's verdicts
    from collections import Counter

    from conftest import graphical, size_vectors

    why = Counter()
    for d in range(1, 6):
        for n in range(1 + d % 2, 25, 1 + d % 2):
            refutes, listed = class_counts((d,) * n), class_counts([d] * n)
            for k in range(2, n + 1):
                some = any(graphical([d * s for s in sizes])
                           for sizes in size_vectors(n, k, (k - 1) // d))
                why[refutes(k)] += 1
                assert (refutes(k) is None) == some, (d, n, k)
                assert listed(k) == refutes(k), (d, n, k)
    assert sum(why.values()) == 984 and why["regular"] == 9, why


def test_bounds_never_exceed_h_on_random_regular_graphs():
    # random d-regular graphs with n <= 12 against the brute-force h
    rng = random.Random(2026)
    graphs = exact = 0
    for n in range(4, 13):
        for d in range(2, min(5, n - 1) + 1):
            for _ in range(8 if n * d % 2 == 0 else 0):
                g = random_regular(n, d, rng)
                h, b = oracle_h(g), lower_bounds(g)
                assert b.combined <= h, (g.n, g.edges)
                graphs += 1
                exact += b.combined == h
    assert (graphs, exact) == (208, 191), (graphs, exact)


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
    assert lower_bounds(g).combined == _bounds_by_definition(g, diameter(g))[-1] == 5
    assert balls == [0, 0, 1]


def _counts_by_definition(g):
    """(size, delta, count, refuted_by) from the definitions and root_counts."""
    from conftest import COUNTS, root_counts

    size = 1
    while size * (size - 1) // 2 < g.m:
        size += 1
    delta_bound = max((g.degree(v) for v in range(g.n)), default=0) + 1
    size, delta_bound = min(size, g.n), min(delta_bound, g.n)
    count, refuted_by = max(size, delta_bound), None
    while fired := root_counts(g, count):
        refuted_by = next(name for name in COUNTS if name in fired)
        count += 1
    return size, delta_bound, count, refuted_by


def _clique_by_definition(g, count):
    """|K| + t when it exceeds count, else None: K grown from the first
    vertex of largest degree through its neighbors by (degree descending,
    id), each one joining when adjacent to all of K; t the largest of
    G[Y]'s count bound, 2 when the distance-2 ball of some y in Y holds
    an edge avoiding K and y, and 1 when Y is not empty."""
    if g.n == 0:
        return None
    degree = [g.degree(v) for v in range(g.n)]
    v = degree.index(max(degree))
    clique = [v]
    for u in sorted(g.adj[v], key=lambda u: (-degree[u], u)):
        if all(u in g.adj[x] for x in clique):
            clique.append(u)
    ys = sorted({y for x in clique for y in g.adj[x]} - set(clique))
    t = min(len(ys), 1)
    if ys:
        inside = [(ys.index(a), ys.index(b)) for a, b in g.edges if a in ys and b in ys]
        t = max(t, _counts_by_definition(from_edge_list(len(ys), inside))[2])
    for y in ys:
        ball = {y, *g.adj[y], *(w for x in g.adj[y] for w in g.adj[x])}
        if any(a in ball and b in ball and not {a, b} & {y, *clique} for a, b in g.edges):
            t = max(t, 2)
    return len(clique) + t if len(clique) + t > count else None


def _bounds_by_definition(g, diam):
    """(size, delta, count, refuted_by, clique, combined) from the
    definitions, root_counts and a BFS diameter."""
    size, delta_bound, count, refuted_by = _counts_by_definition(g)
    clique = _clique_by_definition(g, count)
    best = max(count, clique or 0)
    return size, delta_bound, count, refuted_by, clique, g.n if 0 <= diam <= 2 else best


def _cubic_corpus():
    """Every GP(n,k) with 2n <= 40, the catalog's cubic graphs, random cubic n = 4..40."""
    yield from (generalized_petersen(n, k) for n in range(3, 21) for k in range(1, (n + 1) // 2))
    for name in CATALOG:
        g = named(name)
        if all(g.degree(v) == 3 for v in range(g.n)):
            yield g
    rng = random.Random(2021)
    for n in range(4, 41, 2):
        yield from (random_regular(n, 3, rng) for _ in range(3))


def test_combined_matches_the_definition(rng):
    from conftest import random_graph

    disconnected = 0
    graphs = [random_graph(i % 10, rng.uniform(0.0, 0.9), rng) for i in range(200)]
    cubic = list(_cubic_corpus())
    closed_forms = [closed_sun(n) for n in range(3, 17)]
    closed_forms += [lollipop(n, m) for n in range(3, 9) for m in range(2, 13)]
    lifted = 0
    for g in graphs + cubic + closed_forms:
        diam = diameter(g)
        disconnected += diam < 0
        b = lower_bounds(g)
        got = (b.size_bound, b.delta_bound, b.count_bound, b.refuted_by, b.clique_bound,
               b.combined)
        assert got == _bounds_by_definition(g, diam), (g.n, g.edges)
        lifted += b.combined == b.clique_bound
    assert disconnected > 10
    assert len(cubic) > 150 and max(g.n for g in cubic) == 40
    # the clique bound sets combined on 3 of the random graphs, on closed_sun(5..16)
    # and on 15 of the 66 lollipops
    assert lifted == 3 + 12 + 15, lifted


def test_the_clique_bound_meets_every_closed_form():
    # lower_bounds certifies the closed sun's and the lollipop's closed forms
    for n in range(3, 17):
        assert lower_bounds(closed_sun(n)).combined == color_closed_sun(n).k, n
    for n in range(3, 9):
        for m in range(2, 13):
            assert lower_bounds(lollipop(n, m)).combined == lollipop_h(n, m), (n, m)
    # each outside-color term is needed. closed_sun(6): K is the 6-clique and
    # G[Y] the outer C6, whose count bound 5 gives 11 (the distance-2 term
    # alone gives 8, below count_bound 9)
    b = lower_bounds(closed_sun(6))
    assert (b.count_bound, b.clique_bound, b.combined) == (9, 11, 11)
    # L(6, 4): K is the 6-clique and Y the first path vertex 6 alone, whose
    # distance-2 ball holds the edge 7-8: 6 + 2 = 8 (G[Y] alone gives 7)
    b = lower_bounds(lollipop(6, 4))
    assert (b.count_bound, b.clique_bound, b.combined) == (7, 8, 8)


def test_the_clique_bound_never_exceeds_h_on_random_graphs():
    from conftest import random_graph

    rng = random.Random(2106)
    fired = 0
    for _ in range(2000):
        g = random_graph(rng.randint(5, 10), rng.uniform(0.1, 0.9), rng)
        b = lower_bounds(g)
        assert b.combined <= solve(g).h, (g.n, g.edges)
        fired += b.clique_bound is not None
    assert fired == 118, fired
