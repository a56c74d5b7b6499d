import hashlib
import random

import pytest

from harmonium import (
    adversarial_good_coloring,
    adversarial_tree,
    from_edge_list,
    greedy,
    is_harmonious,
    max_independent_set,
    min_vertex_cover,
    named,
    solve,
    stats,
    vc_coloring,
)
from harmonium.families import complete, cycle, generalized_petersen, path, star
from harmonium.heuristics import VertexCoverResult


def is_vertex_cover(g, cover):
    return all(u in cover or v in cover for u, v in g.edges)


def test_greedy_is_harmonious(rng):
    from conftest import random_graph

    for _ in range(30):
        g = random_graph(rng.randint(1, 14), rng.uniform(0.1, 0.6), rng)
        c = greedy(g, list(range(g.n)))
        assert is_harmonious(g, c).ok


def test_greedy_order_matters_on_adversarial_tree():
    for N in range(3, 7):
        g = adversarial_tree(N)
        bad = greedy(g, list(range(g.n)))
        assert is_harmonious(g, bad).ok
        assert bad.k == (N - 1) ** 2 + 1


def _pinned_corpus():
    from conftest import random_graph

    for g in (generalized_petersen(500, 3), generalized_petersen(50, 7),
              random_graph(300, 0.02, random.Random(2021))):
        yield g, list(range(g.n))
    for N in range(3, 9):
        g = adversarial_tree(N)
        yield g, list(range(g.n))


def _digest(colorings):
    h = hashlib.sha256()
    for c in colorings:
        h.update((" ".join(map(str, c.colors)) + "\n").encode())
    return h.hexdigest()


def test_heuristic_colorings_are_pinned():
    # recorded from the tuple-set greedy and vc_coloring that the partner
    # bitmasks replaced: any change to a coloring changes a digest. by_cover
    # was re-recorded when the approximate cover became minimal; on the
    # unpruned matching cover it still gives the first digest,
    # 888ce9724beb0bd2f230d050a017ed768eff1c727305458216ff860e30570c64
    by_order, by_shuffle, by_cover = [], [], []
    for g, order in _pinned_corpus():
        by_order.append(greedy(g, order))
        shuffled = list(range(g.n))
        random.Random(7).shuffle(shuffled)
        by_shuffle.append(greedy(g, shuffled))
        by_cover.append(vc_coloring(g, min_vertex_cover(g, "approx")))
        if g.n <= 14:
            by_cover.append(vc_coloring(g, min_vertex_cover(g, "exact")))
    assert [c.k for c in by_order] == [376, 40, 91, 5, 10, 17, 26, 37, 50]
    assert _digest(by_order) == "72a6a8dd3246050c3e738a528c5b895d3051911bb0203c632e5e05e9f4abc08c"
    assert _digest(by_shuffle) == "af6764680c3fb214244c3eae970ebdc22f5ec459f91460306d92434cf3bfe36d"
    assert _digest(by_cover) == "dbb2bce04c26fb8973fa3a7b1efcd90064847e2e07eb1e417004ab5a28287878"


def test_greedy_takes_the_lowest_free_color_and_records_its_pairs():
    # 0 takes 1; 1 may not take 1, which 0 has next to their uncolored
    # neighbor 2; 4 takes 1; 2 sees 1 and 2 and takes 3; 3 sees 3 and 1,
    # and 2 would repeat the pair {2, 3} of the edge 1 - 2, so it takes 4
    g = from_edge_list(5, [(0, 2), (1, 2), (2, 3), (3, 4)])
    order = [0, 1, 4, 2, 3]
    assert greedy(g, order).colors == (1, 2, 3, 4, 1) == _reference_greedy(g, order)


def _reference_first_fit(g, order, colors, lowest, distance2):
    """The docstring rules with sets: v takes the lowest color >= lowest
    that no colored neighbor has, that pairs with no colored neighbor's
    color into a pair some edge already carries, and, with distance2, that
    no colored vertex has which shares an uncolored neighbor with v."""
    pairs = {frozenset((colors[u], colors[v])) for u, v in g.edges if colors[u] and colors[v]}
    for v in order:
        near = {colors[u] for u in g.adj[v] if colors[u]}
        if distance2:
            near |= {colors[w] for x in g.adj[v] if not colors[x] for w in g.adj[x] if colors[w]}
        c = lowest
        while c in near or any(frozenset((c, colors[u])) in pairs for u in g.adj[v] if colors[u]):
            c += 1
        colors[v] = c
        pairs |= {frozenset((c, colors[u])) for u in g.adj[v] if colors[u]}
    return tuple(colors)


def _reference_greedy(g, order):
    return _reference_first_fit(g, order, [0] * g.n, 1, True)


def _matching_cover(g):
    """Both ends of a maximal matching, unpruned: the approximate cover
    before its minimal pass."""
    cover = set()
    for u, v in g.edges:
        if u not in cover and v not in cover:
            cover |= {u, v}
    return VertexCoverResult(frozenset(cover), "matching_2approx")


def _reference_vc_coloring(g, cover):
    colors = [0] * g.n
    for i, v in enumerate(sorted(cover), start=1):
        colors[v] = i
    rest = [v for v in range(g.n) if not colors[v]]
    return _reference_first_fit(g, rest, colors, len(cover) + 1, False)


def test_greedy_keeps_the_distance_2_rule_when_the_middle_is_colored_between():
    # the middle vertex 1 of the path 0 - 1 - 2 is colored between its two
    # neighbors: vertex 2 may not take color 1, whose pair {1, 2} vertex 1
    # already has
    assert greedy(path(3), [0, 1, 2]).colors == (1, 2, 3) == _reference_greedy(path(3), [0, 1, 2])
    # the middle is colored last: vertex 2 may not take color 1 through it
    assert greedy(path(3), [0, 2, 1]).colors == (1, 3, 2) == _reference_greedy(path(3), [0, 2, 1])


def test_first_fit_colorings_equal_a_set_based_reference():
    from conftest import random_graph

    rng = random.Random(22)
    middles_between = 0
    for _ in range(240):
        g = random_graph(rng.randint(1, 40), rng.choice((0.05, 0.1, 0.2, 0.4)), rng)
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        for order in (list(range(g.n)), shuffled):
            assert greedy(g, order).colors == _reference_greedy(g, order)
            position = {v: i for i, v in enumerate(order)}
            middles_between += any(position[a] < position[x] < position[b]
                                   for x in range(g.n) for a in g.adj[x] for b in g.adj[x])
        covers = [min_vertex_cover(g, "approx"), _matching_cover(g),
                  VertexCoverResult(frozenset(range(g.n)), "exact")]
        if g.n <= 14:
            covers.append(min_vertex_cover(g, "exact"))
        for cover in covers:
            assert vc_coloring(g, cover).colors == _reference_vc_coloring(g, cover.cover)
    assert middles_between > 300


def test_greedy_rejects_non_permutation():
    g = path(3)
    with pytest.raises(ValueError):
        greedy(g, [0, 1])
    with pytest.raises(ValueError):
        greedy(g, [0, 1, 1])
    with pytest.raises(ValueError):
        greedy(g, [0, 1, -1])
    with pytest.raises(ValueError):
        greedy(g, [0, 1, 3])
    assert greedy(from_edge_list(0, []), []).colors == ()


def test_greedy_path_is_optimal_enough():
    # on short paths the natural order wastes at most a couple of colors
    g = path(6)
    c = greedy(g, list(range(6)))
    assert is_harmonious(g, c).ok
    assert c.k <= 6


def test_good_coloring_beats_greedy():
    for N in range(3, 9):
        g = adversarial_tree(N)
        good = adversarial_good_coloring(N)
        assert is_harmonious(g, good).ok
        assert good.k <= 2 * N - 2
        assert greedy(g, list(range(g.n))).k == (N - 1) ** 2 + 1


def test_good_colorings_are_pinned():
    # recorded for N = 3..12 when a_1's color was found by trying each in turn
    colorings = repr([adversarial_good_coloring(N).colors for N in range(3, 13)])
    assert hashlib.sha256(colorings.encode()).hexdigest() == (
        "77f64fa8160798bc2bd7741061c594bf7891ec75c5ec034fc52673e25b185e23"
    )


def test_good_coloring_rejects_small_n():
    with pytest.raises(ValueError):
        adversarial_good_coloring(2)


def test_min_vertex_cover_examples():
    assert min_vertex_cover(star(5)).size == 1
    assert min_vertex_cover(complete(5)).size == 4
    assert min_vertex_cover(cycle(6)).size == 3
    assert min_vertex_cover(path(4)).size == 2
    assert min_vertex_cover(named("petersen")).size == 6


def test_min_vertex_cover_is_a_cover(rng):
    from conftest import random_graph

    for _ in range(25):
        g = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.6), rng)
        res = min_vertex_cover(g)
        assert res.method == "exact"
        assert is_vertex_cover(g, res.cover)


def test_approx_cover_within_factor_two(rng):
    from conftest import random_graph

    for _ in range(25):
        g = random_graph(rng.randint(2, 14), rng.uniform(0.15, 0.5), rng)
        exact = min_vertex_cover(g)
        approx = min_vertex_cover(g, "approx")
        assert is_vertex_cover(g, approx.cover)
        assert approx.method == "matching_2approx"
        assert approx.size <= 2 * max(exact.size, 1)
        # minimal: no vertex can be dropped, and inside the matching cover
        assert all(not is_vertex_cover(g, approx.cover - {v}) for v in approx.cover)
        assert approx.cover <= _matching_cover(g).cover


def test_approx_cover_sizes_are_pinned_on_generalized_petersen():
    sizes = [min_vertex_cover(generalized_petersen(n, 3), "approx").size
             for n in (500, 1000, 2000)]
    assert sizes == [502, 1002, 2002]


def test_exact_cover_guard():
    with pytest.raises(ValueError):
        min_vertex_cover(cycle(21))
    with pytest.raises(ValueError):
        min_vertex_cover(cycle(5), "bogus")
    with pytest.raises(ValueError, match="exact independent set guarded"):
        max_independent_set(cycle(21))
    # approx has no size guard
    assert is_vertex_cover(cycle(30), min_vertex_cover(cycle(30), "approx").cover)


def test_max_independent_set_examples():
    assert len(max_independent_set(cycle(6))) == 3
    assert len(max_independent_set(complete(4))) == 1
    assert len(max_independent_set(named("petersen"))) == 4


def test_independent_set_really_independent(rng):
    from conftest import random_graph

    for _ in range(20):
        g = random_graph(rng.randint(1, 12), rng.uniform(0.2, 0.6), rng)
        ind = max_independent_set(g)
        assert all(
            (min(u, v), max(u, v)) not in g.edges for u in ind for v in ind if u != v
        )


def test_vc_coloring_budget_example():
    g = cycle(6)
    res = min_vertex_cover(g)
    c = vc_coloring(g, res)
    assert is_harmonious(g, c).ok
    delta = max(stats(g))
    assert c.k <= res.size + delta * delta - delta + 1


def test_vc_coloring_rejects_non_cover():
    g = cycle(5)
    with pytest.raises(ValueError):
        vc_coloring(g, VertexCoverResult(frozenset({0}), "exact"))


def test_vc_coloring_random(rng):
    from conftest import random_graph

    for _ in range(40):
        n = rng.randint(2, 18)
        g = random_graph(n, rng.uniform(0.1, 0.5), rng)
        res = min_vertex_cover(g)
        c = vc_coloring(g, res)
        assert is_harmonious(g, c).ok
        delta = max(stats(g))
        assert c.k <= res.size + delta * delta - delta + 1


def test_vc_coloring_never_below_exact(rng):
    from conftest import random_graph

    for _ in range(15):
        g = random_graph(rng.randint(2, 8), rng.uniform(0.2, 0.6), rng)
        c = vc_coloring(g, min_vertex_cover(g))
        assert c.k >= solve(g).h
