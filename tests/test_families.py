import pytest

from harmonium import (
    CATALOG,
    adversarial_tree,
    diameter,
    from_edge_list,
    generate,
    named,
    stats,
)
from harmonium import families as fam
from harmonium.graph import bfs_distances


@pytest.mark.parametrize("n", range(3, 13))
def test_sunflower_counts(n):
    g = fam.sunflower(n)
    assert (g.n, g.m) == (2 * n + 1, 4 * n)


@pytest.mark.parametrize("n", range(3, 13))
def test_sun_counts(n):
    g = fam.sun(n)
    assert (g.n, g.m) == (2 * n, n * (n - 1) // 2 + 2 * n)


@pytest.mark.parametrize("n", range(3, 13))
def test_closed_sun_counts(n):
    g = fam.closed_sun(n)
    assert (g.n, g.m) == (2 * n, n * (n - 1) // 2 + 3 * n)


@pytest.mark.parametrize("n", range(3, 13))
def test_diameter2_family_counts(n):
    for build, nv, ne in [
        (fam.wheel, n + 1, 2 * n),
        (fam.gear, 2 * n + 1, 3 * n),
        (fam.helm, 2 * n + 1, 3 * n),
        (fam.flower, 2 * n + 1, 4 * n),
        (fam.double_wheel, 2 * n + 1, 4 * n),
        (fam.g_nn, 2 * n + 1, 5 * n),
        (fam.triangular_book, n + 2, 2 * n + 1),
        (fam.book_with_bookmark, n + 3, 2 * n + 2),
        (fam.jewel, n + 4, 2 * n + 5),
    ]:
        g = build(n)
        assert (g.n, g.m) == (nv, ne), build.__name__


def test_lollipop_example():
    g = fam.lollipop(6, 4)
    assert (g.n, g.m) == (9, 18)


def test_jewel_example():
    g = fam.jewel(3)
    assert (g.n, g.m) == (7, 11)


def test_sunflower_degrees():
    g = fam.sunflower(6)
    degs = stats(g)
    assert degs[0] == 6  # hub
    assert all(degs[i] == 5 for i in range(1, 7))  # rim
    assert all(degs[i] == 2 for i in range(7, 13))  # petals


def test_generate_dispatch_and_errors():
    g = generate("cycle", 5)
    assert (g.n, g.m) == (5, 5)
    assert generate("lollipop", 4, 3).n == 6
    with pytest.raises(ValueError):
        generate("nosuch", 5)
    with pytest.raises(ValueError):
        generate("lollipop", 4)  # missing m
    with pytest.raises(ValueError):
        generate("cycle", 5, 2)  # stray m
    with pytest.raises(ValueError):
        fam.lollipop(2, 4)
    with pytest.raises(ValueError):
        fam.lollipop(4, 1)
    for family in fam.FAMILIES:
        m = 2 if family in ("lollipop", "generalized_petersen") else None
        with pytest.raises(ValueError, match=f"^{family} needs "):
            generate(family, 0, m)


def test_generate_deterministic():
    a = generate("sunflower", 8)
    b = generate("sunflower", 8)
    assert a.edges == b.edges


def test_gp51_is_pentagonal_prism():
    g = fam.generalized_petersen(5, 1)
    assert g.n == 10 and all(d == 3 for d in stats(g))


def test_named_catalog_metadata():
    # named() reads n off the largest vertex id, which needs both
    for name, edges in CATALOG.items():
        g = named(name)
        assert g.m == len(edges), name
        assert min(stats(g)) > 0, name
        assert diameter(g) > 0, name


def test_planar33_entries_are_cubic_diameter3():
    for prefix, count in [("planar33_8_", 3), ("planar33_10_", 6), ("planar33_12_", 2)]:
        for i in range(1, count + 1):
            g = named(f"{prefix}{i}")
            assert all(d == 3 for d in stats(g))
            assert diameter(g) == 3


def test_unknown_named_graph():
    with pytest.raises(ValueError, match="unknown catalog graph 'nonexistent'"):
        named("nonexistent")


@pytest.mark.parametrize("N,n", [(3, 6), (4, 12), (5, 20)])
def test_adversarial_tree_size(N, n):
    g = adversarial_tree(N)
    assert g.n == n == N * (N - 1)
    assert g.m == n - 1


def test_adversarial_tree_connected_acyclic():
    for N in range(3, 8):
        g = adversarial_tree(N)
        assert g.m == g.n - 1
        assert min(bfs_distances(g, 0)) >= 0  # connected; with m = n-1 this means a tree


def test_adversarial_tree_rejects_small_n():
    with pytest.raises(ValueError):
        adversarial_tree(2)
