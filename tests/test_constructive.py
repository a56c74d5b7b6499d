import hashlib

import pytest

from harmonium import (
    color_closed_sun,
    color_sun,
    color_sunflower,
    h_cycle,
    is_harmonious,
    lollipop_coloring,
    lollipop_h,
    lollipop_plan,
    lower_bounds,
    solve,
)
from harmonium import constructive
from harmonium import families as fam
from harmonium.constructive import cycle_coloring

# frozen against an independent brute-force run over C_3..C_16
H_CYCLE = {
    3: 3, 4: 4, 5: 5, 6: 5, 7: 5, 8: 6, 9: 6, 10: 5,
    11: 6, 12: 6, 13: 7, 14: 7, 15: 7, 16: 7,
}


def test_h_cycle_table():
    for n, expected in H_CYCLE.items():
        assert h_cycle(n) == expected, n


def test_h_cycle_guard():
    with pytest.raises(ValueError):
        h_cycle(2)
    with pytest.raises(ValueError):
        h_cycle(17)


def test_cycle_is_solved_once_per_n(monkeypatch):
    calls = []

    def counting_solve(g, *args):
        calls.append(g.n)
        return solve(g, *args)

    monkeypatch.setattr(constructive, "solve", counting_solve)
    monkeypatch.setattr(constructive, "_h_cycle_cache", {})
    assert h_cycle(9) == H_CYCLE[9]
    assert cycle_coloring(9).k == H_CYCLE[9]
    assert color_closed_sun(9).k == 9 + H_CYCLE[9]
    assert calls == [9]


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_coloring_is_optimal(n):
    c = cycle_coloring(n)
    assert is_harmonious(fam.cycle(n), c).ok
    assert c.k == H_CYCLE[n]


@pytest.mark.parametrize("n", range(7, 13))
def test_sunflower_construction(n):
    g = fam.sunflower(n)
    c = color_sunflower(n)
    assert is_harmonious(g, c).ok
    assert c.k == n + 1
    # n+1 is also a lower bound: the hub's closed neighborhood has n+1 vertices
    assert lower_bounds(g).delta_bound == n + 1


def test_sunflower_construction_guard():
    with pytest.raises(ValueError):
        color_sunflower(6)


@pytest.mark.parametrize("n", range(3, 10))
def test_sun_construction(n):
    g = fam.sun(n)
    c = color_sun(n)
    assert is_harmonious(g, c).ok
    assert c.k == (n + 2 if n % 2 == 0 else n + 3)


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_sun_construction(n):
    g = fam.closed_sun(n)
    c = color_closed_sun(n)
    assert is_harmonious(g, c).ok
    expected = 2 * n if n <= 5 else n + h_cycle(n)
    assert c.k == expected


def test_closed_sun_colorings_are_pinned():
    # sha256 recorded while n <= 5 had its own all-distinct branch
    digest = hashlib.sha256()
    for n in range(3, 17):
        digest.update(repr(color_closed_sun(n).colors).encode())
    assert digest.hexdigest() == (
        "53a6860cf40b19a35c09f7f7078cab304e399123e64f8c83db0a326c6b579023"
    )


def test_construction_guards():
    with pytest.raises(ValueError):
        color_sun(2)
    with pytest.raises(ValueError):
        color_closed_sun(2)
    with pytest.raises(ValueError, match="closed sun needs 3 <= n <= 16, got 17"):
        color_closed_sun(17)


def test_sun_matches_solver_small():
    for n in (3, 4):
        assert solve(fam.sun(n)).h == color_sun(n).k


def test_closed_sun_matches_solver_small():
    for n in (3, 4):
        assert solve(fam.closed_sun(n)).h == color_closed_sun(n).k


def test_lollipop_h_example():
    assert lollipop_h(6, 4) == 8


def test_lollipop_h_guard():
    with pytest.raises(ValueError):
        lollipop_h(2, 5)
    with pytest.raises(ValueError):
        lollipop_h(4, 1)
    with pytest.raises(ValueError):
        lollipop_plan(2, 5)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("m", range(2, 9))
def test_lollipop_formula_vs_solver(n, m):
    assert lollipop_h(n, m) == solve(fam.lollipop(n, m)).h


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("m", range(2, 9))
def test_lollipop_plan_coloring_verifies(n, m):
    plan = lollipop_plan(n, m)
    g = fam.lollipop(n, m)
    c = lollipop_coloring(plan)
    assert is_harmonious(g, c).ok
    assert c.k == lollipop_h(n, m)


def test_lollipop_plan_fields():
    plan = lollipop_plan(6, 4)
    assert plan.n == 6 and plan.m == 4
    assert plan.r >= max(plan.trail)
    assert plan.trail[0] == 1
    assert len(plan.trail) == plan.m
    assert plan.r == lollipop_h(6, 4)


def test_lollipop_trail_edges_are_legal():
    for n, m in [(4, 7), (5, 6), (6, 8), (3, 8)]:
        plan = lollipop_plan(n, m)
        seen = set()
        for a, b in zip(plan.trail, plan.trail[1:]):
            e = (min(a, b), max(a, b))
            assert a != b
            assert not (a <= n and b <= n)  # no edge inside the clique colors
            assert e not in plan.removed_edges
            assert e not in seen  # a trail never repeats an edge
            seen.add(e)


def test_lollipop_plans_are_pinned():
    # sha256 recorded before the two parity tables were folded into one
    digest = hashlib.sha256()
    for n in range(3, 16):
        for m in range(2, 121):
            p = lollipop_plan(n, m)
            row = (n, m, lollipop_h(n, m), p.r, p.trail, sorted(p.removed_edges))
            digest.update(repr(row).encode())
    assert digest.hexdigest() == (
        "55318bc0aa0d4c7080e0282cc8e93d3adce7d1757f66fdaf0304c3ad5b7b196f"
    )


def test_lollipop_larger_spot_checks():
    # beyond the grid: formula vs solver on a couple of bigger instances
    for n, m in [(7, 3), (3, 12)]:
        assert lollipop_h(n, m) == solve(fam.lollipop(n, m)).h
        plan = lollipop_plan(n, m)
        assert is_harmonious(fam.lollipop(n, m), lollipop_coloring(plan)).ok
