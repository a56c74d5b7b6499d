import os

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
from harmonium.families import complete, cycle, generalized_petersen, path


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
        oracle_h(complete(10))


def test_oracle_agreement(rng):
    from conftest import random_graph

    for _ in range(20):
        g = random_graph(rng.randint(1, 8), rng.uniform(0.15, 0.7), rng)
        assert solve(g).h == oracle_h(g)


def test_h_equal_to_n_is_the_walks_witness_without_a_walk(rng):
    # the test_oracle_agreement corpus: at h = n every coloring uses n
    # distinct colors, and symmetry breaking makes the walk's v -> v + 1
    from conftest import random_graph

    hits = 0
    for _ in range(20):
        g = random_graph(rng.randint(1, 8), rng.uniform(0.15, 0.7), rng)
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
    # franklin tries k = 7, 8, 9 with 76, 163 and 13 nodes: every k fits in
    # 200 nodes on its own, but the 252 nodes of the whole solve do not
    g = named("franklin")
    per_k = [exists_k(g, k).nodes_explored for k in (7, 8, 9)]
    assert max(per_k) < 200 < sum(per_k) == solve(g).nodes_explored
    with pytest.raises(BudgetExceeded):
        solve(g, SolverConfig(node_budget=200))
    with pytest.raises(BudgetExceeded):
        solve(g, SolverConfig(node_budget=sum(per_k) - 1))
    res = solve(g, SolverConfig(node_budget=sum(per_k)))
    assert res.h == 9 and res.nodes_explored == sum(per_k)


# The search tree of the index-order, lowest-color-first walk (_search, with
# no refutation at the root): per-k (status, nodes, nodes walked) from the
# lower bound up to h, and the witness at h. A tree is a property of the
# walk, so it stays pinned where exists_k answers the k at its root in one
# node (C14 at k = 6, C20 at k = 7, GP(9, 3) at k = 8;
# test_class_degree_sums_refute_at_the_root).
SEARCH_TREES = {
    "C14": (cycle(14), {6: (INFEASIBLE, 4_040, 1_297), 7: ("witness", 16, 16)},
            (1, 2, 3, 1, 4, 2, 5, 1, 6, 2, 7, 3, 4, 7)),
    "C20": (cycle(20), {7: (INFEASIBLE, 1_888_430, 47_034), 8: ("witness", 4_770, 3_530)},
            (1, 2, 3, 1, 4, 2, 5, 1, 6, 2, 7, 3, 4, 5, 3, 6, 4, 7, 5, 8)),
    "GP7-2": (generalized_petersen(7, 2), {7: ("witness", 422, 422)},
              (1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7, 1, 2, 3)),
    "GP8-3": (generalized_petersen(8, 3), {8: ("witness", 153, 153)},
              (1, 2, 3, 1, 4, 2, 5, 6, 7, 7, 4, 8, 5, 6, 3, 8)),
    # children both joined to their parent (a spoke) and not (the inner
    # cycle's jumps), under the budget checks
    "GP9-3": (generalized_petersen(9, 3),
              {8: (INFEASIBLE, 43_228, 43_228), 9: ("witness", 198, 198)},
              (1, 2, 3, 1, 4, 2, 5, 3, 6, 7, 6, 7, 8, 9, 9, 4, 8, 5)),
    "yutsis": (named("yutsis"),
               {7: (INFEASIBLE, 93, 93), 8: (INFEASIBLE, 146, 146), 9: ("witness", 54, 54)},
               (1, 2, 3, 4, 1, 5, 2, 4, 6, 7, 8, 9)),
}


@pytest.mark.parametrize("name", sorted(SEARCH_TREES))
def test_search_tree_is_unchanged(name):
    import harmonium.solver as s

    g, per_k, witness = SEARCH_TREES[name]
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
    expect = [(INFEASIBLE, 1, 1) if root_counts(g, k) else t for k, t in per_k.items()]
    for k, tree in zip(per_k, expect):
        out = exists_k(g, k)
        assert (out.status, out.nodes_explored, out.nodes_walked) == tree, k
    res = solve(g)
    assert res.h == max(per_k) and res.witness.colors == witness
    assert res.nodes_explored == sum(nodes for _, nodes, _ in expect)
    assert res.nodes_walked == sum(walked for _, _, walked in expect)


def gnp16(s):
    """G(16, 0.25) number s: each pair u < v kept with probability 0.25,
    drawn from Random(f"16/{s}"). Their proofs are long, have fronts too wide
    for the tables, and are refuted by no count at the root: #9 at k = 7
    walks 103,373 nodes, #15 at k = 9 65,609, #13 at k = 8 40,056 and #1 at
    k = 8 20,963, and #1 finds its k = 9 witness at node 11,247."""
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


class _Paused(Exception):
    pass


def reference_walk(g, k, pause=None):
    """(nodes, witness) of the plain search tree, by recursion: vertices in
    index order, colors lowest first, a new color only as the largest so far
    + 1, no tables and no refutation at the root. With pause = p, a tree of
    more than p nodes stops before node p + 1 and gives (p, frontier): that
    node's prefix, then each ancestor depth's untried valid colors as
    prefixes, deepest depth first."""
    color, pairs, nodes = [0] * g.n, set(), 0
    untried = [()] * g.n  # per depth, the valid colors not tried yet

    def walk(v, maxc):
        nonlocal nodes
        if nodes == pause:
            frontier = [tuple(color[:v])]
            for d in range(v - 1, -1, -1):
                frontier += [(*color[:d], c) for c in untried[d]]
            raise _Paused(frontier)
        nodes += 1
        if v == g.n:
            return True
        back = [color[u] for u in g.adj[v] if u < v]
        valid = []
        for c in range(1, min(maxc + 1, k) + 1):
            new = {frozenset((c, b)) for b in back}
            if not (c in back or len(new) < len(back) or new & pairs):
                valid.append(c)
        for i, c in enumerate(valid):
            untried[v] = valid[i + 1:]
            new = {frozenset((c, b)) for b in back}
            color[v] = c
            pairs.update(new)
            if walk(v + 1, max(maxc, c)):
                return True
            pairs.difference_update(new)
        return False

    try:
        found = walk(0, 0)
    except _Paused as stop:
        return pause, stop.args[0]
    return nodes, tuple(color) if found else None


def root_counts(g, k):
    """The class degree sum counts that refute k. A class's edges carry
    distinct pairs, so its degree sum is at most k - 1 and the m edges need
    m of the k(k - 1)/2 pairs ("pairs"). For even k a class's sum is at most
    k - 2 unless it holds an odd-degree vertex ("even k"). For odd k and no
    odd-degree vertex each color misses an even number of pairs, so the
    unused pairs are not 1 or 2 ("odd k"). A class holds at most
    (k - 1) // δ of the non-isolated vertices ("packing")."""
    degrees = [len(nbrs) for nbrs in g.adj if nbrs]
    odd = sum(d % 2 for d in degrees)
    unused = k * (k - 1) // 2 - g.m
    fired = {"pairs": unused < 0,
             "even k": k % 2 == 0 and 2 * g.m > k * (k - 2) + min(odd, k),
             "odd k": k % 2 == 1 and odd == 0 and unused in (1, 2),
             "packing": bool(degrees) and k * ((k - 1) // min(degrees)) < len(degrees)}
    return {name for name, fires in fired.items() if fires}


def random_tree(n, rng):
    return from_edge_list(n, [(rng.randrange(v), v) for v in range(1, n)])


def test_node_counts_match_a_plain_recursive_walk():
    import random
    from collections import Counter

    import harmonium.solver as s
    from conftest import random_graph

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
    assert (refuted, fired) == (736, {"even k": 16, "packing": 13, "odd k": 2}), (refuted, fired)


def test_pause_tasks_match_a_plain_recursive_walk():
    # a walk that pauses before node p + 1 returns p and the open frontier
    # of the plain tree there; one that has reused a failed subtree by then
    # does not pause and ends as the unpaused walk
    import random

    import harmonium.solver as s
    from conftest import random_graph

    rng = random.Random(22)
    graphs = [random_graph(rng.randint(1, 10), rng.uniform(0.15, 0.7), rng) for _ in range(60)]
    graphs += [cycle(n) for n in range(3, 21)] + [path(n) for n in range(2, 21)]
    graphs += [random_tree(rng.randint(2, 20), rng) for _ in range(20)]
    paused = reused = 0
    for g in graphs:
        for k in range(1, g.n + 1):
            if g.m > k * (k - 1) // 2:
                continue  # exists_k answers these without a walk
            for p in (0, 1, 3, 10, 50):
                ref = reference_walk(g, k, pause=p)
                out = s._search(g, k, None, None, pause=p)
                if isinstance(out, tuple):
                    assert out == ref, (g.edges, k, p)
                    paused += 1
                    continue
                assert out == s._search(g, k, None, None), (g.edges, k, p)
                if ref[0] == p and isinstance(ref[1], list):
                    assert out.nodes_walked < out.nodes_explored, (g.edges, k, p)
                    reused += 1
                else:
                    assert ref == (out.nodes_explored, out.witness and out.witness.colors)
    assert paused > 1000 and reused > 3, (paused, reused)


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
    # enough pairs, but the classes' degree sums come out short: each count
    # refutes some graph alone, in one node
    cases = [(cycle(6), 4, {"even k", "packing"}), (cycle(13), 6, {"even k", "packing"}),
             (cycle(14), 6, {"even k", "packing"}), (cycle(15), 6, {"even k", "packing"}),
             (path(28), 8, {"even k"}),
             (cycle(8), 5, {"odd k"}), (cycle(9), 5, {"odd k"}),
             (cycle(19), 7, {"odd k"}), (cycle(20), 7, {"odd k"}),
             (generalized_petersen(9, 3), 8, {"packing"})]
    cases += [(generalized_petersen(10, r), 9, {"packing"}) for r in (1, 2, 3)]
    for g, k, counts in cases:
        assert g.m <= k * (k - 1) // 2 and root_counts(g, k) == counts, (g.n, k)
        out = exists_k(g, k)
        assert (out.status, out.nodes_explored, out.nodes_walked) == (INFEASIBLE, 1, 1), (g.n, k)
    # the path's k = 8 has 54 > 48 + 2: one node, then k = 9's witness in 31
    res = solve(path(28))
    assert (res.h, res.nodes_explored) == (9, 32)
    # C20's k = 7 has one pair to spare, 21 - 20: one node, then k = 8's
    # witness (the walks of both are pinned in SEARCH_TREES)
    res = solve(cycle(20))
    assert (res.h, res.nodes_explored) == (8, 1 + 4_770)
    # C24 at k = 8 meets the even-k count and packing with equality,
    # 2m = k(k - 2) and 8 * (7 // 2) = 24 vertices: no refutation
    assert not root_counts(cycle(24), 8)
    out = exists_k(cycle(24), 8)
    assert (out.status, out.nodes_explored) == ("witness", 178_635)
    # odd k with odd-degree vertices is left to the walk. The 21-vertex path
    # at k = 7 also has one pair to spare, but its two ends have odd degree,
    # and it has a witness; G(16, 0.25) #9 walks a 103,373-node proof
    # (test_a_long_proof_splits_at_the_default_constants)
    for g, k, status in ((path(21), 7, "witness"), (gnp16(9), 7, INFEASIBLE)):
        assert not root_counts(g, k)
        out = exists_k(g, k, SolverConfig(node_budget=1))
        assert (out.status, out.nodes_explored) == (BUDGET_EXHAUSTED, 2), (g.n, k)
        assert exists_k(g, k).status == status, (g.n, k)


def test_root_refutation_is_exact_on_every_small_labeled_graph():
    # every labeled graph with n <= 6: no k that a count refutes reaches h,
    # and exists_k answers it in one node; with n <= 5 exists_k's answer is
    # brute force's at every k, and it is one node exactly where a count fires
    from collections import Counter

    from conftest import labeled_graphs

    graphs, refuted, fired = 0, 0, Counter()
    for g in labeled_graphs(6):
        h = oracle_h(g)
        graphs += 1
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
    assert (graphs, refuted) == (33_867, 129_396), (graphs, refuted)
    assert fired == {"even k": 2_789, "packing": 1_356, "odd k": 315}, fired


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
s._search = lambda g, k, budget, deadline, pause: s.SearchOutcome(
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

    def bad_search(g, k, budget, deadline, pause):
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


# A top-level walk that enters solver._SPLIT_AT nodes without reusing a
# failed subtree splits the rest of its tree across the CPUs in its affinity.
linux_only = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                reason="a search splits only on Linux")


@pytest.fixture
def cpus(monkeypatch):
    """set_cpus(n) makes the solver see n CPUs; set_cpus.forks lists the
    children forked since."""
    real_fork = os.fork
    forks = []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    monkeypatch.setattr(os, "fork", fork)
    set_cpus.forks = forks
    return set_cpus


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@linux_only
def test_a_split_search_is_the_one_process_walk(cpus, monkeypatch):
    import random

    import harmonium.solver as s
    import harmonium.split as split
    from conftest import random_graph

    rng = random.Random(15)
    cases = forked = 0
    for _ in range(100):
        g = random_graph(rng.randint(1, 11), rng.uniform(0.15, 0.7), rng)
        for k in range(max(1, lower_bounds(g).size_bound), g.n + 1):
            monkeypatch.setattr(s, "_SPLIT_AT", 1 << 16)
            cpus(1)
            count = exists_k(g, k).nodes_explored
            for budget in sorted({1, 2, max(1, count // 2), max(1, count - 1), count}):
                cfg = SolverConfig(node_budget=budget)
                cpus(1)
                one = exists_k(g, k, cfg)
                for workers in (2, 4):
                    cpus(workers)
                    monkeypatch.setattr(s, "_SPLIT_AT", rng.randint(0, 6))
                    monkeypatch.setattr(split, "_TASKS_PER_WORKER", rng.randint(1, 4))
                    forks = len(cpus.forks)
                    out = exists_k(g, k, cfg)
                    assert (out.status, out.witness, out.nodes_explored) == (
                        one.status, one.witness, one.nodes_explored), (g.edges, k, budget)
                    cases += 1
                    forked += len(cpus.forks) > forks
    assert cases > 2000 and forked > 800  # 2,474 cases, 900 of them forked
    assert no_children_left()


@linux_only
def test_a_walk_with_its_defaults_never_forks(cpus, monkeypatch):
    import harmonium.solver as s

    cpus(2)
    monkeypatch.setattr(s, "_SPLIT_AT", 64)
    out = s._search(generalized_petersen(9, 3), 8, None, None)
    assert isinstance(out, s.SearchOutcome)
    assert (out.status, out.nodes_explored, out.nodes_walked) == (INFEASIBLE, 43_228, 43_228)
    assert cpus.forks == []


@linux_only
def test_a_long_proof_splits_at_the_default_constants(cpus):
    cpus(2)
    out = exists_k(gnp16(9), 7)
    assert (out.status, out.nodes_explored) == (INFEASIBLE, 103_373)
    assert len(cpus.forks) == 2 and no_children_left()  # one searcher per CPU
    # #13's 40,056-node proof splits after its first 4,096 nodes
    g = gnp16(13)
    cpus(1)
    one = exists_k(g, 8)
    cpus(2)
    out = exists_k(g, 8)
    assert (out.status, out.nodes_explored) == (one.status, one.nodes_explored) == (
        INFEASIBLE, 40_056)
    assert len(cpus.forks) == 4 and no_children_left()


@linux_only
def test_a_walk_whose_tables_pay_stays_in_one_process_at_the_default_constants(cpus):
    cpus(2)
    out = exists_k(cycle(22), 8)
    assert (out.status, out.nodes_explored, out.nodes_walked) == ("witness", 36_699, 12_789)
    assert cpus.forks == []


@linux_only
def test_a_walk_whose_tables_pay_stays_in_one_process(cpus, monkeypatch):
    import harmonium.solver as s

    # C22's k = 8 witness search reuses a failed subtree within its first
    # 1,000 nodes
    cpus(2)
    monkeypatch.setattr(s, "_SPLIT_AT", 1000)
    out = exists_k(cycle(22), 8)
    assert (out.status, out.nodes_explored, out.nodes_walked) == ("witness", 36_699, 12_789)
    assert cpus.forks == []


@linux_only
def test_one_cpu_or_another_thread_never_forks(cpus, monkeypatch):
    import threading

    import harmonium.solver as s

    monkeypatch.setattr(s, "_SPLIT_AT", 1000)
    g, tree = gnp16(13), (INFEASIBLE, 40_056, 40_056)
    cpus(1)
    out = exists_k(g, 8)
    assert (out.status, out.nodes_explored, out.nodes_walked) == tree
    # a forked child would hold only the calling thread
    cpus(2)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        out = exists_k(g, 8)
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert (out.status, out.nodes_explored, out.nodes_walked) == tree
    assert cpus.forks == []


@linux_only
@pytest.mark.parametrize("how", ["returns", "raises", "reports one"])
def test_a_child_without_a_result_is_an_error(cpus, monkeypatch, how):
    import harmonium.solver as s
    import harmonium.split as split

    real_work = split._work

    def work_and_quit(g, k, budget, deadline, tasks, pipe):
        if how == "raises":
            raise MemoryError
        if how == "reports one":  # its first task, then half a line
            real_work(g, k, budget, deadline, tasks[:1], pipe)
            pipe.write("infeasible 1")
            pipe.flush()

    cpus(2)
    monkeypatch.setattr(s, "_SPLIT_AT", 1000)
    monkeypatch.setattr(split, "_work", work_and_quit)
    # searcher 0 holds tasks 0, 2, 4, ...: the merge misses task 0, or task 2
    task = 2 if how == "reports one" else 0
    with pytest.raises(RuntimeError, match=f"search process holding task {task} exited"):
        exists_k(gnp16(13), 8)
    assert len(cpus.forks) == 2 and no_children_left()


@linux_only
@pytest.mark.parametrize("g, k, cfg, status", [
    (gnp16(1), 9, None, "witness"),
    (gnp16(1), 8, None, INFEASIBLE),
    (gnp16(1), 8, SolverConfig(node_budget=10_000), BUDGET_EXHAUSTED),
    # the split at node 65 comes before the first deadline check
    (long_proof(), 12, SolverConfig(time_budget=0.01), BUDGET_EXHAUSTED),
], ids=["witness", "infeasible", "node budget", "deadline"])
def test_no_child_outlives_a_split_search(cpus, monkeypatch, g, k, cfg, status):
    import harmonium.solver as s

    cpus(2)
    monkeypatch.setattr(s, "_SPLIT_AT", 64)
    out = exists_k(g, k, cfg)
    assert out.status == status
    assert len(cpus.forks) == 2 and no_children_left()


@linux_only
@pytest.mark.parametrize("k, cfg, status", [
    (9, None, "witness"),
    (8, None, INFEASIBLE),
    (8, SolverConfig(node_budget=10_000), BUDGET_EXHAUSTED),
], ids=["witness", "proof", "node budget"])
def test_a_split_walks_the_same_nodes_on_every_run(cpus, monkeypatch, k, cfg, status):
    """The merge reads the same reports on every run, so nodes_walked, which
    sums them, is fixed for a given CPU count, as the other outcomes are."""
    import harmonium.solver as s

    cpus(2)
    monkeypatch.setattr(s, "_SPLIT_AT", 64)
    g = gnp16(1)
    first, second = exists_k(g, k, cfg), exists_k(g, k, cfg)
    assert first == second and first.status == status
    assert len(cpus.forks) == 4 and no_children_left()


def path_then(tail, g):
    """A path on vertices 0..tail-1, then g: a first walk runs down the path
    and leaves each vertex's untried colors behind as tasks."""
    edges = [(i, i + 1) for i in range(tail - 1)] + [(tail + u, tail + v) for u, v in g.edges]
    return from_edge_list(tail + g.n, edges)


@linux_only
@pytest.mark.parametrize("g, k, budget, tasks_per_worker, paused_tasks", [
    (gnp16(15), 9, None, 1 << 13, None),
    (path_then(120, generalized_petersen(10, 3)), 20, 30_000, 32, 1_045),
], ids=["expansion", "pause"])
def test_thousands_of_tasks_are_the_one_process_walk(cpus, monkeypatch, g, k, budget,
                                                     tasks_per_worker, paused_tasks):
    """Thousands of tasks, from an expansion asked for 16,384 or from the
    pause itself. In the expansion one searcher's reports outgrow its pipe,
    so it blocks on a write until the merge reads that pipe; a wait that
    never ended would hang, and the alarm fails the test instead."""
    import fcntl
    import signal

    import harmonium.solver as s
    import harmonium.split as split

    class Counted:
        """A searcher's pipe, as the parent reads it: the bytes read so far."""

        def __init__(self, pipe):
            self.pipe, self.read = pipe, 0
            self.holds = fcntl.fcntl(pipe.fileno(), fcntl.F_GETPIPE_SZ)
            pipes.append(self)

        def readline(self):
            line = self.pipe.readline()
            self.read += len(line)
            return line

        def close(self):
            self.pipe.close()

    pipes = []
    fdopen = os.fdopen

    def count_reads(fd, mode):  # the parent opens its read ends "rb", a searcher its write end "w"
        pipe = fdopen(fd, mode)
        return Counted(pipe) if mode == "rb" else pipe

    monkeypatch.setattr(os, "fdopen", count_reads)
    cfg = SolverConfig(node_budget=budget)
    cpus(1)
    one = exists_k(g, k, cfg)
    cpus(2)
    monkeypatch.setattr(split, "_TASKS_PER_WORKER", tasks_per_worker)
    if paused_tasks:
        nodes, tasks = s._search(g, k, None, None, pause=s._SPLIT_AT)
        assert len(tasks) == paused_tasks

    def hang(signum, frame):
        raise TimeoutError("the split search did not finish")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(120)
    try:
        out = exists_k(g, k, cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert (out.status, out.witness, out.nodes_explored) == (
        one.status, one.witness, one.nodes_explored)
    assert len(cpus.forks) == len(pipes) == 2 and no_children_left()
    if not paused_tasks:  # about 121 KiB of reports each, against 64 KiB
        assert all(p.read > p.holds for p in pipes), [(p.read, p.holds) for p in pipes]


def _expand_by_rescans(g, k, tasks, want):
    """_expand as it was first written, rescanning every entry for the last
    shallowest prefix before each step: the reference for its entries."""
    import harmonium.solver as s

    entries = list(tasks)
    while True:
        todo = [i for i, e in enumerate(entries) if isinstance(e, tuple)]
        if not todo or len(todo) >= want:
            return entries
        i = min(reversed(todo), key=lambda i: len(entries[i]))
        out = s._search(g, k, None, None, entries[i], 1)
        if isinstance(out, tuple):
            entries[i:i + 1] = [s.SearchOutcome(INFEASIBLE, None, out[0], out[0]), *out[1]]
        else:
            entries[i] = out


@pytest.mark.parametrize("g, k", [(generalized_petersen(9, 3), 8),
                                  (generalized_petersen(10, 3), 9),
                                  (path_then(120, generalized_petersen(10, 3)), 20)],
                         ids=["GP(9,3)", "GP(10,3)", "path then GP(10,3)"])
@pytest.mark.parametrize("want", [64, 1024])
def test_expand_scans_once_per_prefix_length(g, k, want):
    import harmonium.solver as s
    import harmonium.split as split

    _, tasks = s._search(g, k, None, None, pause=s._SPLIT_AT)
    entries = split._expand(g, k, tasks, want)
    assert entries == _expand_by_rescans(g, k, tasks, want)
    assert sum(isinstance(e, tuple) for e in entries) >= want
