import pytest

from harmonium import (
    BUDGET_EXHAUSTED,
    INFEASIBLE,
    BudgetExceeded,
    SolverConfig,
    exists_k,
    from_edge_list,
    is_harmonious,
    lower_bounds,
    named,
    oracle_h,
    solve,
)
from harmonium.families import complete, cycle, generalized_petersen, lollipop, path, star


def test_k4_threshold():
    g = complete(4)
    assert exists_k(g, 3).status == INFEASIBLE
    out = exists_k(g, 4)
    assert out.feasible and is_harmonious(g, out.witness).ok


def test_truncated_tetrahedron_needs_eight():
    g = named("truncated_tetrahedron")
    assert exists_k(g, 7).status == INFEASIBLE
    assert exists_k(g, 8).feasible


def test_petersen_thresholds():
    g = named("petersen")
    assert exists_k(g, 9).status == INFEASIBLE
    out = exists_k(g, 10)
    assert out.feasible and out.witness.k == 10


def test_huge_k_costs_no_memory():
    # no color above n is ever tried, so k beyond n must not size any table
    import tracemalloc

    tracemalloc.start()
    try:
        out = exists_k(path(3), 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert out.witness.colors == (1, 2, 3) and out.nodes_explored == 4


def test_witness_uses_exactly_h_colors(rng):
    from conftest import random_graph

    for _ in range(25):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.1, 0.7), rng)
        res = solve(g)
        assert is_harmonious(g, res.witness).ok
        assert res.witness.k == res.h


def test_oracle_examples():
    assert oracle_h(path(3)) == 3
    assert oracle_h(cycle(4)) == 4
    two_k2 = from_edge_list(4, [(0, 1), (2, 3)])
    assert oracle_h(two_k2) == 3


def plain_oracle_h(g):
    """The oracle without symmetry breaking: every assignment V -> [k] for
    k = 1..n, abandoning a partial one as soon as it repeats a color pair or
    breaks properness."""
    back = [[u for u in g.adj[v] if u < v] for v in range(g.n)]

    def extend(k, assign, pairs):
        v = len(assign)
        if v == g.n:
            return True
        for c in range(1, k + 1):
            new = {frozenset((c, assign[u])) for u in back[v]}
            if c not in (assign[u] for u in back[v]) and len(new) == len(back[v]) \
                    and not new & pairs and extend(k, assign + [c], pairs | new):
                return True
        return False

    return next(k for k in range(g.n + 1) if extend(k, [], set()))


def test_oracle_symmetry_breaking_loses_no_coloring():
    # first-use order loses no k: on every labeled graph with n <= 5 the
    # oracle agrees with the enumeration of every assignment
    from conftest import labeled_graphs

    for g in labeled_graphs(5):
        assert oracle_h(g) == plain_oracle_h(g), g.edges


def test_oracle_guard():
    with pytest.raises(ValueError):
        oracle_h(complete(13))


def test_oracle_agreement(rng):
    from conftest import random_graph

    for _ in range(40):
        g = random_graph(rng.randint(1, 12), rng.uniform(0.15, 0.7), rng)
        assert solve(g).h == oracle_h(g)


def test_h_equal_to_n_is_the_walks_witness_without_a_walk(rng):
    # the test_oracle_agreement corpus: at h = n every coloring uses n
    # distinct colors, and symmetry breaking makes the walk's v -> v + 1
    from conftest import random_graph

    hits = 0
    for _ in range(40):
        g = random_graph(rng.randint(1, 12), rng.uniform(0.15, 0.7), rng)
        if oracle_h(g) == g.n:
            assert solve(g).witness.colors == tuple(range(1, g.n + 1))
            assert exists_k(g, g.n).witness.colors == tuple(range(1, g.n + 1))
            hits += 1
    assert hits > 0


def test_h_equal_to_n_needs_no_budget():
    # the bounds give h >= 10 = n, so no k is searched and one node is enough
    res = solve(named("petersen"), SolverConfig(node_budget=1))
    assert (res.h, res.witness.colors, res.nodes_explored, res.nodes_walked) == (
        10, tuple(range(1, 11)), 0, 0)


def test_feasibility_matches_unpruned_enumeration(rng):
    """Symmetry breaking must not change feasibility for any (g, k)."""
    import itertools

    from conftest import random_graph

    def brute_feasible(g, k):
        for assign in itertools.product(range(1, k + 1), repeat=g.n):
            pairs = set()
            ok = True
            for u, v in g.edges:
                a, b = assign[u], assign[v]
                if a == b:
                    ok = False
                    break
                p = (min(a, b), max(a, b))
                if p in pairs:
                    ok = False
                    break
                pairs.add(p)
            if ok:
                return True
        return False

    for _ in range(8):
        g = random_graph(rng.randint(2, 6), rng.uniform(0.2, 0.7), rng)
        for k in range(1, g.n + 1):
            assert exists_k(g, k).feasible == brute_feasible(g, k), (g, k)


def test_monotonicity_spot_checks():
    g = named("planar33_10_3")
    res = solve(g)
    for k in range(1, res.h):
        assert exists_k(g, k).status == INFEASIBLE
    for k in range(res.h, g.n + 1):
        assert exists_k(g, k).feasible


def test_node_budget_reports_exhaustion():
    g = named("franklin")
    out = exists_k(g, 8, SolverConfig(node_budget=5))
    assert out.status == BUDGET_EXHAUSTED
    assert out.witness is None


def test_budget_never_masquerades_as_infeasible():
    g = named("planar33_12_1")
    out = exists_k(g, 8, SolverConfig(node_budget=3))
    assert out.status == BUDGET_EXHAUSTED  # k=8 is actually feasible


def test_node_budget_bounds_the_whole_solve():
    # franklin's lower bound is 8 (the regular count refutes k = 7), and it
    # tries k = 8, 9 with 163 and 13 nodes: each k fits in 170 nodes on its
    # own, but the 176 nodes of the whole solve do not
    g = named("franklin")
    assert lower_bounds(g).combined == 8
    per_k = [exists_k(g, k).nodes_explored for k in (8, 9)]
    assert max(per_k) < 170 < sum(per_k) == solve(g).nodes_explored
    with pytest.raises(BudgetExceeded):
        solve(g, SolverConfig(node_budget=170))
    with pytest.raises(BudgetExceeded):
        solve(g, SolverConfig(node_budget=sum(per_k) - 1))
    res = solve(g, SolverConfig(node_budget=sum(per_k)))
    assert res.h == 9 and res.nodes_explored == sum(per_k)


# The search tree of the index-order, lowest-color-first walk (_search, with
# no refutation at the root): per-k (status, nodes, nodes walked) up to h,
# the witness at h, and solve's node total, which counts only the k from
# the combined lower bound up. A tree is a property of the walk, so it stays
# pinned where the lower bound skips its k (C14 at k = 6, C20 at k = 7,
# GP(9, 3) at k = 8 and yutsis at k = 7;
# test_class_degree_sums_refute_at_the_root).
SEARCH_TREES = {
    "C14": (cycle(14), {6: (INFEASIBLE, 4_040, 1_297), 7: ("witness", 16, 16)},
            (1, 2, 3, 1, 4, 2, 5, 1, 6, 2, 7, 3, 4, 7), 16),
    "C20": (cycle(20), {7: (INFEASIBLE, 1_888_430, 47_034), 8: ("witness", 4_770, 3_530)},
            (1, 2, 3, 1, 4, 2, 5, 1, 6, 2, 7, 3, 4, 5, 3, 6, 4, 7, 5, 8), 4_770),
    "GP7-2": (generalized_petersen(7, 2), {7: ("witness", 422, 422)},
              (1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7, 1, 2, 3), 422),
    "GP8-3": (generalized_petersen(8, 3), {8: ("witness", 153, 153)},
              (1, 2, 3, 1, 4, 2, 5, 6, 7, 7, 4, 8, 5, 6, 3, 8), 153),
    # children both joined to their parent (a spoke) and not (the inner
    # cycle's jumps), under the budget checks
    "GP9-3": (generalized_petersen(9, 3),
              {8: (INFEASIBLE, 43_228, 43_228), 9: ("witness", 198, 198)},
              (1, 2, 3, 1, 4, 2, 5, 3, 6, 7, 6, 7, 8, 9, 9, 4, 8, 5), 198),
    "yutsis": (named("yutsis"),
               {7: (INFEASIBLE, 93, 93), 8: (INFEASIBLE, 146, 146), 9: ("witness", 54, 54)},
               (1, 2, 3, 4, 1, 5, 2, 4, 6, 7, 8, 9), 200),
}


@pytest.mark.parametrize("name", sorted(SEARCH_TREES))
def test_search_tree_is_unchanged(name):
    import harmonium.solver as s

    from conftest import root_counts

    g, per_k, witness, solve_nodes = SEARCH_TREES[name]
    for k, (status, nodes, walked) in per_k.items():
        out = s._search(g, k, None, None)
        assert (out.status, out.nodes_explored, out.nodes_walked) == (status, nodes, walked), k
        # a budget of exactly the tree's size finishes; one node less stops
        assert s._search(g, k, nodes, None).status == status
        short = s._search(g, k, nodes - 1, None)
        assert (short.status, short.witness) == (BUDGET_EXHAUSTED, None)
        for budget in (nodes // 3, nodes // 2):
            out = s._search(g, k, budget, None)
            assert (out.status, out.nodes_explored) == (BUDGET_EXHAUSTED, budget + 1)
    # exists_k answers a k a count refutes in one node and walks the pinned
    # tree of every other; solve sums those outcomes from the lower bound up
    expect = {k: (INFEASIBLE, 1, 1) if root_counts(g, k) else t for k, t in per_k.items()}
    for k, tree in expect.items():
        out = exists_k(g, k)
        assert (out.status, out.nodes_explored, out.nodes_walked) == tree, k
    tried = [tree for k, tree in expect.items() if k >= lower_bounds(g).combined]
    res = solve(g)
    assert res.h == max(per_k) and res.witness.colors == witness
    assert res.nodes_explored == sum(nodes for _, nodes, _ in tried) == solve_nodes
    assert res.nodes_walked == sum(walked for _, _, walked in tried)


def gnp16(s):
    """G(16, 0.25) number s: each pair u < v kept with probability 0.25,
    drawn from Random(f"16/{s}"). Their proofs are long, have fronts too wide
    for the tables, and are refuted by no count at the root: #9 at k = 7
    walks 103,373 nodes, #13 at k = 8 40,056 and #1 at k = 8 20,963, and #1
    finds its k = 9 witness at node 11,247."""
    import random

    from conftest import random_graph

    return random_graph(16, 0.25, random.Random(f"16/{s}"))


def long_proof():
    """G(36, 0.10) number 4, drawn as gnp16's graphs are: its lower bound is
    k = 12, no count refutes that k at the root (m = C(12, 2) and 12
    odd-degree vertices), and its walk has no answer within 2M nodes, far
    past any deadline a test sets."""
    import random

    from conftest import random_graph

    return random_graph(36, 0.10, random.Random("36/4"))


def reference_walk(g, k):
    """(nodes, witness) of the plain search tree, by recursion: vertices in
    index order, colors lowest first, a new color only as the largest so far
    + 1, no tables and no refutation at the root."""
    color, pairs, nodes = [0] * g.n, set(), 0

    def walk(v, maxc):
        nonlocal nodes
        nodes += 1
        if v == g.n:
            return True
        back = [color[u] for u in g.adj[v] if u < v]
        for c in range(1, min(maxc + 1, k) + 1):
            new = {frozenset((c, b)) for b in back}
            if c in back or len(new) < len(back) or new & pairs:
                continue
            color[v] = c
            pairs.update(new)
            if walk(v + 1, max(maxc, c)):
                return True
            pairs.difference_update(new)
        return False

    found = walk(0, 0)
    return nodes, tuple(color) if found else None


def random_tree(n, rng):
    return from_edge_list(n, [(rng.randrange(v), v) for v in range(1, n)])


def test_node_counts_match_a_plain_recursive_walk():
    import random
    from collections import Counter

    import harmonium.solver as s
    from conftest import random_graph, root_counts

    rng = random.Random(18)
    graphs = [random_graph(rng.randint(1, 11), rng.uniform(0.15, 0.7), rng) for _ in range(150)]
    # cycles, paths and trees have tabled depths, where a child without
    # candidates is counted from its parent's state
    rng = random.Random(23)
    graphs += [cycle(n) for n in range(3, 17)] + [path(n) for n in range(2, 17)]
    graphs += [random_tree(rng.randint(2, 16), rng) for _ in range(20)]
    refuted, fired = 0, Counter()
    for g in graphs:
        for k in range(1, g.n + 1):
            nodes, witness = reference_walk(g, k)
            out = s._search(g, k, None, None)
            status = INFEASIBLE if witness is None else "witness"
            assert (out.status, out.nodes_explored) == (status, nodes), (g.edges, k)
            assert out.witness is None or out.witness.colors == witness
            # one node short stops at that node; the tree's size finishes
            short = s._search(g, k, nodes - 1, None) if nodes > 1 else None
            assert short is None or (short.status, short.nodes_explored) == (
                BUDGET_EXHAUSTED, nodes), (g.edges, k)
            full = s._search(g, k, nodes, None)
            assert (full.status, full.nodes_explored, full.witness) == (
                out.status, nodes, out.witness), (g.edges, k)
            # exists_k answers a refuted k at its root and walks every other
            counts = root_counts(g, k)
            if counts:
                assert witness is None, (g.edges, k)
                got = exists_k(g, k)
                assert (got.status, got.nodes_explored, got.nodes_walked) == (
                    INFEASIBLE, 1, 1), (g.edges, k)
                refuted += 1
                if "pairs" not in counts:
                    fired.update(counts)
            else:
                got = exists_k(g, k, SolverConfig(node_budget=nodes))
                assert (got.status, got.nodes_explored, got.witness) == (
                    out.status, nodes, out.witness), (g.edges, k)
    # the refuted k that have enough pairs, by the counts that fire on them
    assert (refuted, fired) == (762, {"even k": 16, "packing": 46, "odd k": 2, "regular": 7}), (
        refuted, fired)


def test_deep_search_needs_no_recursion():
    g = path(1500)  # 1500 levels deep: a recursive search overflows the stack
    out = exists_k(g, 100)
    assert out.feasible and is_harmonious(g, out.witness).ok


def test_walked_nodes_count_only_what_the_search_entered():
    # C22's k = 8 witness search reuses failed subtrees; franklin's fronts
    # exceed two vertices past depth 2, and no state repeats before that
    out = exists_k(cycle(22), 8)
    assert (out.status, out.nodes_explored, out.nodes_walked) == ("witness", 36_699, 12_789)
    out = exists_k(named("franklin"), 8)
    assert out.nodes_walked == out.nodes_explored
    # G(16, 0.25) #1's fronts are too wide to table: its k = 8 proof and
    # k = 9 witness search walk every node of their 20,963 + 11,247
    res = solve(gnp16(1))
    assert (res.h, res.nodes_explored, res.nodes_walked) == (9, 32_210, 32_210)


def test_time_budget_stops_the_search():
    # the walk at k = 12 outlasts the deadline, and the lower bound is 12,
    # so solve starts with that walk
    g = long_proof()
    assert lower_bounds(g).combined == 12
    out = exists_k(g, 12, SolverConfig(time_budget=0.01))
    assert (out.status, out.witness) == (BUDGET_EXHAUSTED, None)
    with pytest.raises(BudgetExceeded):
        solve(g, SolverConfig(time_budget=0.01))


def test_an_unspent_time_budget_changes_nothing():
    # both searches pass the deadline check many times (a check every _TICK
    # nodes), C22's also after reused subtrees
    import harmonium.solver as s

    for g, k, tree in ((cycle(22), 8, ("witness", 36_699, 12_789)),
                       (gnp16(13), 8, (INFEASIBLE, 40_056, 40_056))):
        assert tree[1] > s._TICK
        for cfg in (None, SolverConfig(time_budget=60)):
            out = exists_k(g, k, cfg)
            assert (out.status, out.nodes_explored, out.nodes_walked) == tree


def test_a_deadline_check_at_every_node_changes_nothing(monkeypatch):
    # with a check at every node, every child without candidates is pushed
    # and entered instead of counted from its parent, at tabled depths too
    import random
    import time

    import harmonium.solver as s

    rng = random.Random(24)
    graphs = [cycle(n) for n in range(3, 21)] + [path(n) for n in range(2, 17)]
    graphs += [random_tree(rng.randint(2, 16), rng) for _ in range(20)]
    walks = [(g, k, s._search(g, k, None, None)) for g in graphs for k in range(1, g.n + 1)]
    monkeypatch.setattr(s, "_TICK", 1)
    deadline = time.monotonic() + 600
    for g, k, out in walks:
        assert s._search(g, k, None, deadline) == out, (g.edges, k)


def test_invalid_config():
    with pytest.raises(ValueError):
        SolverConfig(node_budget=0)
    with pytest.raises(ValueError, match="node_budget must be an integer"):  # a tree size is whole
        SolverConfig(node_budget=1.5)
    with pytest.raises(ValueError, match="node_budget must be an integer"):  # not a 1-node budget
        SolverConfig(node_budget=True)
    with pytest.raises(ValueError, match="time_budget must be positive"):  # not 1 s
        SolverConfig(time_budget=True)
    with pytest.raises(ValueError):
        SolverConfig(time_budget=-1)
    with pytest.raises(ValueError):  # a NaN deadline is never reached
        SolverConfig(time_budget=float("nan"))
    with pytest.raises(ValueError):
        exists_k(cycle(3), 0)


def test_removed_knobs_are_rejected():
    with pytest.raises(TypeError):
        SolverConfig(parallel_roots=True)
    with pytest.raises(TypeError):
        SolverConfig(degree_order=True)
    with pytest.raises(TypeError):
        SolverConfig(start_k=9)


def test_too_many_edges_rejected_without_search():
    g = named("petersen")  # 15 edges, but 5 colors give only 10 pairs
    out = exists_k(g, 5)
    assert out.status == INFEASIBLE
    assert out.nodes_explored == 1
    # C10's 10 edges fit 5 colors' 10 pairs exactly: the search runs (6
    # colors' 15 pairs would fit Petersen's 15 edges, but packing refutes it)
    out = exists_k(cycle(10), 5)
    assert out.feasible and out.nodes_explored > 1


def test_class_degree_sums_refute_at_the_root():
    from conftest import root_counts

    # enough pairs, but the classes' degree sums come out short: each count
    # refutes some graph alone (the lollipop, K_{2,4}, the star and the
    # cubic 12-vertex graphs), in one node
    k24 = from_edge_list(6, [(u, v) for u in (0, 1) for v in range(2, 6)])
    cases = [(cycle(6), 4, {"even k", "packing", "regular"}),
             (cycle(13), 6, {"even k", "packing", "regular"}),
             (cycle(14), 6, {"even k", "packing", "regular"}),
             (cycle(15), 6, {"even k", "packing", "regular"}),
             (path(28), 8, {"even k", "packing"}), (lollipop(5, 5), 6, {"even k"}),
             (cycle(8), 5, {"odd k", "regular"}), (cycle(9), 5, {"odd k", "regular"}),
             (cycle(19), 7, {"odd k", "regular"}), (cycle(20), 7, {"odd k", "regular"}),
             (k24, 5, {"odd k"}), (star(3), 3, {"packing"}),
             (generalized_petersen(9, 3), 8, {"packing", "regular"})]
    cases += [(generalized_petersen(10, r), 9, {"packing", "regular"}) for r in (1, 2, 3)]
    cases += [(named(name), 7, {"regular"}) for name in (
        "planar33_12_1", "planar33_12_2", "franklin", "yutsis", "truncated_tetrahedron")]
    for g, k, counts in cases:
        assert g.m <= k * (k - 1) // 2 and root_counts(g, k) == counts, (g.n, k)
        out = exists_k(g, k)
        assert (out.status, out.nodes_explored, out.nodes_walked) == (INFEASIBLE, 1, 1), (g.n, k)
    # the path's k = 8 has 54 > 48 + 2, so the lower bound is 9 and solve
    # walks only k = 9's witness search, 31 nodes
    res = solve(path(28))
    assert (res.h, res.nodes_explored) == (9, 31)
    # C20's k = 7 has one pair to spare, 21 - 20: the lower bound is 8, and
    # solve walks k = 8's witness search (pinned in SEARCH_TREES)
    res = solve(cycle(20))
    assert (res.h, res.nodes_explored) == (8, 4_770)
    # C24 at k = 8 meets the even-k count and packing with equality,
    # 2m = k(k - 2) and 8 * (7 // 2) = 24 vertices, and eight classes of
    # three make degree sums 6 on 8 colors, a graphical sequence: no
    # refutation
    assert not root_counts(cycle(24), 8)
    out = exists_k(cycle(24), 8)
    assert (out.status, out.nodes_explored) == ("witness", 178_635)
    # odd k with odd-degree vertices is left to the walk. The 21-vertex path
    # at k = 7 also has one pair to spare, but its two ends have odd degree,
    # and it has a witness; G(16, 0.25) #9 walks a 103,373-node proof
    for g, k, tree in ((path(21), 7, ("witness", 24, 24)),
                       (gnp16(9), 7, (INFEASIBLE, 103_373, 103_373))):
        assert not root_counts(g, k)
        out = exists_k(g, k, SolverConfig(node_budget=1))
        assert (out.status, out.nodes_explored) == (BUDGET_EXHAUSTED, 2), (g.n, k)
        out = exists_k(g, k)
        assert (out.status, out.nodes_explored, out.nodes_walked) == tree, (g.n, k)


def test_root_refutation_is_exact_on_every_small_labeled_graph():
    # every labeled graph with n <= 6: no k that a count refutes reaches h,
    # and exists_k answers it in one node; with n <= 5 exists_k's answer is
    # brute force's at every k, and it is one node exactly where a count
    # fires. The counts are root_counts' definitions (the regular one by
    # trying every way to size the classes), and the lower bound that
    # lower_bounds builds from them never exceeds h
    from collections import Counter

    from conftest import labeled_graphs, root_counts

    graphs, refuted, exact, fired = 0, 0, 0, Counter()
    for g in labeled_graphs(6):
        h = oracle_h(g)
        graphs += 1
        bound = lower_bounds(g).combined
        assert bound <= h, (g.edges, bound, h)
        exact += bound == h
        for k in range(1, g.n + 2):
            counts = root_counts(g, k)
            refuted += bool(counts)
            if "pairs" not in counts:
                fired.update(counts)
            assert not counts or k < h, (g.edges, k, counts)
            if g.n == 6 and not counts:
                continue
            out = exists_k(g, k)
            assert out.feasible == (k >= h), (g.edges, k)
            assert (out.nodes_explored == 1) == bool(counts), (g.edges, k)
    # the refuted k that have enough pairs, by the counts that fire on them
    assert (graphs, refuted, exact) == (33_867, 133_922, 33_687), (graphs, refuted, exact)
    assert fired == {"even k": 2_789, "packing": 7_922, "odd k": 315, "regular": 224}, fired


def test_invalid_witness_raises_under_optimize():
    """The witness check in exists_k must survive `python -O`."""
    import os
    import subprocess
    import sys

    import harmonium

    script = """
import harmonium.solver as s
from harmonium.families import cycle
from harmonium.verify import Coloring

assert False, "-O is not in effect"
s._search = lambda g, k, budget, deadline: s.SearchOutcome(
    "witness", Coloring((1,) * g.n), 0, 0)
try:
    s.solve(cycle(6))  # h = 5 < n: solve searches from k = 4
except RuntimeError as exc:
    print("raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(harmonium.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: solver produced an invalid witness")


def test_exists_k_checks_the_witness(monkeypatch):
    import harmonium.solver as s
    from harmonium.verify import Coloring

    def bad_search(g, k, budget, deadline):
        return s.SearchOutcome("witness", Coloring((1,) * g.n), 0, 0)

    monkeypatch.setattr(s, "_search", bad_search)
    with pytest.raises(RuntimeError, match=r"invalid witness at k=5: not proper: edge \(0, 1\) "
                                           "is monochromatic$"):
        exists_k(cycle(5), 5)


def test_edgeless_graph():
    g = from_edge_list(3, [])
    res = solve(g)
    assert res.h == 1  # no edges: one color suffices
    assert lower_bounds(g).combined == 1
    out = exists_k(from_edge_list(0, []), 0)  # the tree is its one leaf
    assert (out.status, out.witness.colors, out.nodes_explored, out.nodes_walked) == (
        "witness", (), 1, 1)
