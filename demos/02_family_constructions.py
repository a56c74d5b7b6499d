"""Closed-form colorings for the cycle-related families.

Each construction is checked by the verifier and, where the graph is
small enough, cross-checked against the exact solver.
"""

from harmonium import (
    color_closed_sun,
    color_sun,
    color_sunflower,
    h_cycle,
    is_harmonious,
    lollipop_coloring,
    lollipop_h,
    lollipop_plan,
    solve,
)
from harmonium import families as fam


def main():
    print("sunflower Sf_n, n >= 7: hub + rim + shifted petal colors, n+1 total")
    for n in (7, 8, 9):
        g = fam.sunflower(n)
        c = color_sunflower(n)
        assert is_harmonious(g, c)
        print(f"  Sf_{n}: {c.k} colors, verifier ok")

    print("sun S_n: clique 1..n, outer vertices alternate two fresh colors")
    for n in range(3, 8):
        g = fam.sun(n)
        c = color_sun(n)
        assert is_harmonious(g, c)
        print(f"  S_{n}: {c.k} colors (solver: {solve(g).h})")

    print("closed sun: all-distinct up to n=5, then clique + shifted cycle coloring")
    for n in range(3, 8):
        g = fam.closed_sun(n)
        c = color_closed_sun(n)
        assert is_harmonious(g, c)
        note = f"n + h(C_{n}) = {n + h_cycle(n)}" if n > 5 else f"2n = {2 * n}"
        print(f"  n={n}: {c.k} colors ({note})")

    print("lollipop L(n,m): trail through the residual clique graph")
    for n, m in [(6, 4), (5, 7), (4, 8)]:
        plan = lollipop_plan(n, m)
        c = lollipop_coloring(plan)
        g = fam.lollipop(n, m)
        assert is_harmonious(g, c)
        assert plan.r == lollipop_h(n, m)
        print(f"  L({n},{m}): r = {plan.r} colors, {len(plan.removed_edges)} edges "
              f"removed, trail {plan.trail}")


if __name__ == "__main__":
    main()
