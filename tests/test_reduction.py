import pytest

from harmonium import (
    ReductionInstance,
    build,
    forward_coloring,
    diameter,
    is_harmonious,
    verify_equivalence,
)
from harmonium.families import complete, cycle, path


def test_build_shape():
    g = cycle(5)
    inst = build(g, 2)
    assert inst.gadget.n == 13
    assert inst.threshold == 11
    # apex triangle 5..7 joined to every source vertex, clique 8..12
    apex, clique = range(5, 8), range(8, 13)
    assert all(inst.gadget.adj[a] == tuple(u for u in range(8) if u != a) for a in apex)
    assert all(inst.gadget.adj[v] == tuple(u for u in clique if u != v) for v in clique)
    # first component: source edges + triangle + join; second: K_5
    assert inst.gadget.m == 5 + 3 + 15 + 10


def test_build_rejects_bad_k():
    g = path(4)
    with pytest.raises(ValueError):
        build(g, 0)
    with pytest.raises(ValueError):
        build(g, 5)


def test_first_component_has_diameter_two():
    # restricted to the source + apex, every pair is within distance 2
    g = cycle(6)
    inst = build(g, 1)
    sub_edges = [
        (u, v) for u, v in inst.gadget.edges if u < g.n + 3 and v < g.n + 3
    ]
    from harmonium import from_edge_list

    first = from_edge_list(g.n + 3, sub_edges)
    assert diameter(first) == 2


def test_forward_coloring_from_independent_set():
    g = cycle(6)
    inst = build(g, 3)
    c = forward_coloring(inst, {0, 2, 4})
    assert is_harmonious(inst.gadget, c).ok
    assert c.k == inst.threshold


def test_forward_coloring_meets_the_threshold_for_every_independent_set():
    from itertools import combinations

    for g in [cycle(n) for n in range(3, 7)] + [path(n) for n in range(2, 7)]:
        for k in range(1, g.n + 1):
            inst = build(g, k)
            for s in combinations(range(g.n), k):
                if any(u in s and v in s for u, v in g.edges):
                    continue
                c = forward_coloring(inst, set(s))
                assert is_harmonious(inst.gadget, c).ok
                assert c.k == inst.threshold


def test_forward_coloring_validates_input():
    g = cycle(4)
    inst = build(g, 2)
    with pytest.raises(ValueError):
        forward_coloring(inst, {0})  # wrong size
    with pytest.raises(ValueError):
        forward_coloring(inst, {0, 1})  # not independent
    with pytest.raises(ValueError):
        forward_coloring(inst, {0, 9})  # out of range


def test_equivalence_cycles_paths_cliques():
    graphs = (
        [cycle(n) for n in range(3, 7)]
        + [path(n) for n in range(2, 7)]
        + [complete(n) for n in range(1, 7)]
    )
    for g in graphs:
        for k in range(1, g.n + 1):
            rep = verify_equivalence(g, k)
            assert rep.equivalent, (g, k)


def test_equivalence_random(rng):
    from conftest import random_graph

    for _ in range(20):
        g = random_graph(rng.randint(1, 6), rng.uniform(0.2, 0.8), rng)
        for k in range(1, g.n + 1):
            assert verify_equivalence(g, k).equivalent, (g, k)


def test_equivalence_directions_both_occur():
    # C_5 has alpha = 2: k = 2 colorable, k = 3 not
    g = cycle(5)
    yes = verify_equivalence(g, 2)
    no = verify_equivalence(g, 3)
    assert yes.is_exists and yes.colorable_at_threshold
    assert not no.is_exists and not no.colorable_at_threshold


def test_equivalence_guard():
    with pytest.raises(ValueError):
        verify_equivalence(cycle(7), 2)
