import gc
import random

import pytest

from harmonium import (
    DISCONNECTED,
    closed_n2,
    diameter,
    emit_edge_list,
    from_edge_list,
    named,
    parse_edge_list,
    stats,
)
from harmonium.families import complete, cycle, path


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 1)])
    assert g.m == 2


def test_reversed_pair_is_same_edge():
    g = from_edge_list(3, [(0, 1), (1, 0)])
    assert g.m == 1


def test_edges_are_one_ascending_tuple(rng):
    pairs = list(named("petersen").edges)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    variants = [pairs, shuffled, [(v, u) for u, v in pairs], pairs + shuffled[:7]]
    graphs = [from_edge_list(10, ps) for ps in variants]
    assert all(g.edges == tuple(sorted(pairs)) for g in graphs)
    assert all(g == graphs[0] and hash(g) == hash(graphs[0]) for g in graphs)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        from_edge_list(4, [(0, 0)])
    # pairs that can be read only once are still named in their given order
    with pytest.raises(ValueError, match=r"^self-loop \(2,2\) not allowed$"):
        from_edge_list(4, iter([(0, 1), (2, 2), (1, 9)]))


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        from_edge_list(-1, [])


def test_petersen_shape():
    g = named("petersen")
    st = stats(g)
    assert g.n == 10 and g.m == 15
    assert st.max_degree == 3 and diameter(g) == 2


@pytest.mark.parametrize(
    "g,m,delta,diam",
    [
        (complete(4), 6, 3, 1),
        (cycle(6), 6, 2, 3),
        (named("truncated_tetrahedron"), 18, 3, 3),
    ],
)
def test_stats_examples(g, m, delta, diam):
    st = stats(g)
    assert (g.m, st.max_degree, diameter(g)) == (m, delta, diam)


def test_stats_handshake():
    g = named("moser_spindle")
    st = stats(g)
    assert sum(st.degree_sequence) == 2 * g.m
    assert st.max_degree == max(st.degree_sequence)


def test_disconnected_diameter_marker():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert diameter(g) == DISCONNECTED


def test_closed_n2_path_middle():
    assert closed_n2(path(5), 2) == {0, 1, 2, 3, 4}


def test_closed_n2_petersen_everything():
    g = named("petersen")
    for v in range(g.n):
        assert closed_n2(g, v) == set(range(10))


def test_closed_n2_c8():
    g = cycle(8)
    assert closed_n2(g, 0) == {6, 7, 0, 1, 2}
    with pytest.raises(ValueError, match=r"vertex 8 outside 0\.\.7"):
        closed_n2(g, 8)


def test_closed_n2_contains_closed_neighborhood(rng):
    from conftest import random_graph

    for _ in range(25):
        g = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.6), rng)
        for v in range(g.n):
            assert len(closed_n2(g, v)) >= g.degree(v) + 1


def test_diameter_two_iff_n2_full(rng):
    from conftest import random_graph

    for _ in range(40):
        g = random_graph(rng.randint(2, 10), rng.uniform(0.2, 0.8), rng)
        full = all(closed_n2(g, v) == set(range(g.n)) for v in range(g.n))
        assert full == (0 <= diameter(g) <= 2)


def test_relabeling_preserves_degree_multiset(rng):
    from conftest import random_graph

    g = random_graph(9, 0.4, rng)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert sorted(stats(g).degree_sequence) == sorted(stats(h).degree_sequence)


def test_edge_list_round_trip():
    g = named("petersen")
    text = emit_edge_list(g)
    g2 = parse_edge_list(text)
    assert g2 == g
    assert emit_edge_list(g2) == text


def test_serialized_graphs_are_pinned():
    # recorded when edges were a frozenset sorted again by every writer:
    # any change in edge order changes a digest
    import hashlib

    from conftest import random_graph
    from harmonium import CATALOG, families
    from harmonium.cli import export_dot

    graphs = [named(name) for name in CATALOG]
    for family in families.FAMILIES:
        m = 2 if family in ("lollipop", "generalized_petersen") else None
        graphs += [families.generate(family, n, m) for n in range(5, 9)]
    graphs += [families.adversarial_tree(N) for N in range(3, 9)]
    rng = random.Random(2024)
    graphs += [random_graph(rng.randint(0, 20), rng.uniform(0.0, 0.8), rng) for _ in range(50)]
    edge_lists, dots = hashlib.sha256(), hashlib.sha256()
    for g in graphs:
        edge_lists.update(emit_edge_list(g).encode())
        dots.update(export_dot(g).encode())
    assert edge_lists.hexdigest() == (
        "04790d9cb2bd407a42d23e3c2c199018223c922be49b1a3a623fb2a12cfb9cc9")
    assert dots.hexdigest() == (
        "c6a47516932d5d7b1ed411c5c273ffb1f35f40a7bc46f66d434b9f8bd3f9504f")


def test_parse_comments_and_errors():
    g = parse_edge_list("# a triangle\n3 3\n0 1\n1 2\n# middle comment\n0 2\n")
    assert g.n == 3 and g.m == 3
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # wrong edge count
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError, match="2 declared, 1 distinct"):
        parse_edge_list("3 2\n0 1\n1 0\n")
    # CRLF line ends, tabs, an indented comment and trailing blank lines change nothing
    text = "# a triangle\r\n3 3\r\n0\t1\r\n  # indented\r\n1  2\t\r\n\t0 2\r\n\r\n\n \t\n"
    assert parse_edge_list(text) == g and parse_edge_list(text).adj == g.adj
    # a line that is not exactly two integers is named in the error, and a bad
    # pair is named as given, the first in file order
    for text, message in [
        ("3 1\n0\n", "expected a line 'u v', got '0'"),
        ("3 1\n0 1 2\n", "expected a line 'u v', got '0 1 2'"),
        ("3 1\n0 x\n", "expected a line 'u v', got '0 x'"),
        ("3 2\n0\t1\t2\n0 x\n", "expected a line 'u v', got '0 1 2'"),
        ("3 2\n0 1\n  2 y  \n", "expected a line 'u v', got '2 y'"),
        ("3\n", "expected a line 'n m', got '3'"),
        ("3 2\n1 1\n0 5\n", "self-loop (1,1) not allowed"),
        ("3 2\n0 1\n5 2\n", "edge (5,2) has endpoint outside 0..2"),
        ("3 1\n-1 2\n", "edge (-1,2) has endpoint outside 0..2"),
    ]:
        for form in (text, text.replace("\n", "\r\n"), text + "\n\n"):
            with pytest.raises(ValueError) as error:
                parse_edge_list(form)
            assert str(error.value) == message


def _reference_parse(text):
    """parse_edge_list's checks, one line and one pair at a time, in order."""
    from conftest import reference_pair, reference_rows

    rows = reference_rows(text)
    if not rows:
        raise ValueError("empty edge-list input")
    n, m = reference_pair(rows[0], "n m")
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(rows) - 1}")
    pairs = [reference_pair(row, "u v") for row in rows[1:]]
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    if len(edges) != m:
        raise ValueError(f"edge list contains duplicates: {m} declared, {len(edges)} distinct")
    adj = tuple(tuple(sorted({v for e in edges if u in e for v in e if v != u})) for u in range(n))
    return n, tuple(edges), adj


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as error:
        return "ValueError", str(error)


def _parsed(text):
    g = parse_edge_list(text)
    return g.n, g.edges, g.adj


def test_parse_edge_list_equals_a_line_by_line_reference():
    from conftest import join_lines, random_pair_lines, reference_rows

    rng = random.Random(21)
    kinds = set()
    for _ in range(800):
        n = rng.randint(-1, 7)
        lines = random_pair_lines(rng, n, rng.randint(0, 9))
        data = len(reference_rows("\n".join(lines)))
        m = data + rng.choice((0, 0, 0, -1, 1))
        header = rng.choice((f"{n} {m}",) * 8 + (f"{n}", f"{n} {m} 1", f"n {m}", "# header?"))
        text = join_lines(rng, rng.choice(([], ["# a graph"], [""])) + [header] + lines)
        expected = _outcome(_reference_parse, text)
        assert _outcome(_parsed, text) == expected, text
        kinds.add(expected[1].split()[0] if expected[0] == "ValueError" else "graph")
    # every outcome: a graph, an empty input, a bad line, a wrong count, a
    # negative n, a self-loop, an id out of range and a duplicate pair
    assert kinds == {"graph", "empty", "expected", "header", "vertex", "self-loop", "edge"}


@pytest.mark.parametrize("enabled", [True, False])
def test_parsing_restores_the_collector_state(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert parse_edge_list("3 2\n0 1\n1 2\n").m == 2
        assert gc.isenabled() is enabled
        assert from_edge_list(3, [(0, 1)]).m == 1
        assert gc.isenabled() is enabled
        for text in ("3 1\n0 x\n", "3 1\n1 1\n", "3 2\n0 1\n"):
            with pytest.raises(ValueError):
                parse_edge_list(text)
            assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
