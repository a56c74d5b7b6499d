"""End-to-end acceptance checks.

Each test covers one headline claim and prints a single PASS/FAIL line
(run pytest with -s to see them). The expected values are frozen here;
everything is recomputed from scratch by the library.
"""

import random
import time

from harmonium import (
    INFEASIBLE,
    adversarial_good_coloring,
    adversarial_tree,
    color_closed_sun,
    color_sun,
    color_sunflower,
    diameter,
    exists_k,
    greedy,
    h_cycle,
    is_harmonious,
    lollipop_coloring,
    lollipop_h,
    lollipop_plan,
    min_vertex_cover,
    named,
    oracle_h,
    solve,
    stats,
    vc_coloring,
    verify_equivalence,
)
from harmonium import families as fam


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{mark}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_1_planar_cubic_diameter3_small():
    failures = []
    worst = 0.0
    for name in [f"planar33_8_{i}" for i in range(1, 4)] + [
        f"planar33_10_{i}" for i in range(1, 7)
    ]:
        t0 = time.monotonic()
        h = solve(named(name)).h
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        if h != 7 or dt >= 10.0:
            failures.append(f"{name}: h={h} in {dt:.1f}s")
    _report(
        1,
        "h = 7 for all 3-regular planar diameter-3 graphs on 8 and 10 vertices",
        not failures,
        f"9 graphs, worst {worst:.2f}s" if not failures else "; ".join(failures),
    )


def test_criterion_2_twelve_vertex_planar_pair():
    failures = []
    for name in ("planar33_12_1", "planar33_12_2"):
        g = named(name)
        if exists_k(g, 7).status != INFEASIBLE:
            failures.append(f"{name}: 7 colors not proven impossible")
        out = exists_k(g, 8)
        if not (out.feasible and is_harmonious(g, out.witness).ok):
            failures.append(f"{name}: no verified 8-coloring")
    _report(
        2,
        "both 12-vertex planar cubic diameter-3 graphs: 7 infeasible, 8 feasible",
        not failures,
        "; ".join(failures),
    )


def test_criterion_3_named_cubic_graphs():
    expected = {"bidiakis": 8, "franklin": 9, "tietze": 9, "yutsis": 9}
    failures = []
    h = solve(fam.generalized_petersen(5, 1)).h
    if h != 7:
        failures.append(f"GP(5,1): h={h} != 7")
    for name, exp in expected.items():
        h = solve(named(name)).h
        if h != exp:
            failures.append(f"{name}: h={h} != {exp}")
    _report(3, "named cubic graphs: GP(5,1)=7, bidiakis=8, franklin=9, tietze=9, yutsis=9",
            not failures, "; ".join(failures))


def test_criterion_4_diameter_two_suite():
    suite = [
        ("petersen", named("petersen"), 10),
        ("wagner", named("wagner"), 8),
        ("octahedron", named("octahedron"), 6),
        ("flower(4)", fam.flower(4), 9),
        ("jewel(3)", fam.jewel(3), 7),
        ("triangular_book(4)", fam.triangular_book(4), 6),
        ("book_with_bookmark(4)", fam.book_with_bookmark(4), 7),
    ]
    failures = []
    for label, g, exp in suite:
        if diameter(g) > 2:
            failures.append(f"{label}: diameter > 2")
            continue
        if exp != g.n:
            failures.append(f"{label}: expected {exp} != n = {g.n}")
        h = solve(g).h
        if h != exp:
            failures.append(f"{label}: h={h} != {exp}")
    _report(4, "diameter-2 suite needs one color per vertex", not failures,
            "; ".join(failures))


def test_criterion_5_cycle_families():
    failures = []
    for n, exp in [(3, 7), (4, 7), (5, 8), (6, 8)]:
        h = solve(fam.sunflower(n)).h
        if h != exp:
            failures.append(f"sunflower({n}): h={h} != {exp}")
    for n in (7, 8, 9):
        g = fam.sunflower(n)
        c = color_sunflower(n)
        if not (is_harmonious(g, c).ok and c.k == n + 1):
            failures.append(f"sunflower({n}): construction invalid")
        if exists_k(g, n).status != INFEASIBLE:
            failures.append(f"sunflower({n}): {n} colors not proven impossible")
    for n in range(3, 8):
        exp = n + 2 if n % 2 == 0 else n + 3
        g = fam.sun(n)
        c = color_sun(n)
        if not (is_harmonious(g, c).ok and c.k == exp):
            failures.append(f"sun({n}): construction invalid")
        if solve(g).h != exp:
            failures.append(f"sun({n}): solver disagrees with {exp}")
    for n in range(3, 8):
        exp = 2 * n if n <= 5 else n + h_cycle(n)
        g = fam.closed_sun(n)
        c = color_closed_sun(n)
        if not (is_harmonious(g, c).ok and c.k == exp):
            failures.append(f"closed_sun({n}): construction invalid")
        if solve(g).h != exp:
            failures.append(f"closed_sun({n}): solver disagrees with {exp}")
    _report(5, "sunflower / sun / closed-sun exact values with verified witnesses",
            not failures, "; ".join(failures))


def test_criterion_6_lollipop():
    failures = []
    for n in range(3, 7):
        for m in range(2, 9):
            exp = lollipop_h(n, m)
            if exp != solve(fam.lollipop(n, m)).h:
                failures.append(f"L({n},{m}): formula != solver")
                continue
            plan = lollipop_plan(n, m)
            c = lollipop_coloring(plan)
            if not (is_harmonious(fam.lollipop(n, m), c).ok and c.k == exp):
                failures.append(f"L({n},{m}): plan coloring invalid")
    if lollipop_h(6, 4) != 8:
        failures.append("L(6,4) != 8")
    _report(6, "lollipop formula matches the solver on the full grid and L(6,4)=8",
            not failures, "; ".join(failures))


def test_criterion_7_greedy_ratio():
    failures = []
    ratio_at_8 = 0.0
    for N in range(3, 9):
        g = adversarial_tree(N)
        bad = greedy(g, list(range(g.n)))
        good = adversarial_good_coloring(N)
        if bad.k != (N - 1) ** 2 + 1:
            failures.append(f"N={N}: greedy used {bad.k}")
        if not (is_harmonious(g, good).ok and good.k <= 2 * N - 2):
            failures.append(f"N={N}: good coloring invalid")
        if N == 8:
            ratio_at_8 = bad.k / good.k
    if ratio_at_8 < 50 / 14:
        failures.append(f"ratio at N=8 is {ratio_at_8:.2f} < 50/14")
    _report(7, "greedy pays (N-1)^2+1 while 2N-2 colors suffice",
            not failures,
            f"ratio at N=8: {ratio_at_8:.2f}" if not failures else "; ".join(failures))


def test_criterion_8_vertex_cover_bound():
    rng = random.Random(20240817)
    failures = 0
    trials = 0
    while trials < 200:
        n = rng.randint(2, 30)
        p = rng.uniform(0.1, 0.5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        from harmonium import from_edge_list

        g = from_edge_list(n, edges)
        trials += 1
        mode = "exact" if n <= 20 else "approx"
        cover = min_vertex_cover(g, mode)
        try:
            c = vc_coloring(g, cover)
        except AssertionError:
            failures += 1
            continue
        delta = stats(g).max_degree
        if not is_harmonious(g, c).ok or c.k > cover.size + delta * delta - delta + 1:
            failures += 1
    _report(8, "vertex-cover coloring stays within VC + D^2 - D + 1 on 200 random graphs",
            failures == 0, f"{failures} failures")


def test_criterion_9_reduction_equivalence():
    rng = random.Random(987)
    from harmonium import from_edge_list
    from harmonium.families import complete, cycle, path

    graphs = (
        [cycle(n) for n in range(3, 7)]
        + [path(n) for n in range(2, 7)]
        + [complete(n) for n in range(1, 7)]
    )
    for _ in range(20):
        n = rng.randint(1, 6)
        p = rng.uniform(0.2, 0.8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(from_edge_list(n, edges))
    bad = 0
    checked = 0
    for g in graphs:
        for k in range(1, g.n + 1):
            checked += 1
            if not verify_equivalence(g, k).equivalent:
                bad += 1
    _report(9, "independent-set gadget equivalence holds on every small instance",
            bad == 0, f"{checked} instances, {bad} counterexamples")


def test_criterion_10_oracle_parity():
    rng = random.Random(31337)
    from harmonium import from_edge_list
    from harmonium.families import complete, cycle, path, star

    corpus = [from_edge_list(0, [])]
    corpus += [cycle(n) for n in range(3, 9)]
    corpus += [path(n) for n in range(2, 9)]
    corpus += [complete(n) for n in range(1, 8)]
    corpus += [star(n) for n in range(1, 8)]
    while len(corpus) < 46:
        n = rng.randint(1, 8)
        p = rng.uniform(0.1, 0.8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        corpus.append(from_edge_list(n, edges))
    mismatches = sum(1 for g in corpus if solve(g).h != oracle_h(g))
    _report(10, "pruned solver agrees with the brute-force oracle",
            mismatches == 0, f"{len(corpus)} graphs, {mismatches} mismatches")
