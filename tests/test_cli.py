import json
import random

import pytest

from harmonium import BudgetExceeded, Coloring, is_harmonious, named
from harmonium.cli import (
    EXIT_BUDGET,
    EXIT_CRASH,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    emit_coloring,
    export_dot,
    load_coloring,
    load_graph,
    main,
)
from harmonium.families import cycle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_list(capsys):
    code, out, _ = run(capsys, "gen")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "petersen: n=10 m=15 3-regular diameter=2" in lines
    assert "house: n=5 m=6 irregular diameter=2" in lines
    assert lines[-1].startswith("families: path, cycle")


def test_gen_family_to_file(tmp_path, capsys):
    target = tmp_path / "c5.edges"
    code, _, _ = run(capsys, "gen", "family:cycle:5", "-o", str(target))
    assert code == EXIT_OK
    assert load_graph(str(target)) == cycle(5)


def test_load_graph_name_and_family():
    assert load_graph("name:petersen").n == 10
    assert load_graph("family:wheel:5").n == 6
    assert load_graph("family:lollipop:4:3").n == 6
    with pytest.raises(ValueError):
        load_graph("family:wheel")


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "family:cycle:6", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert sorted(payload) == ["elapsed", "h", "nodes_explored", "nodes_walked", "witness"]
    assert payload["h"] == 5
    assert len(payload["witness"]) == 6
    code, out, _ = run(capsys, "solve", "family:cycle:6")
    assert code == EXIT_OK
    assert [line.split("=")[0] for line in out.splitlines()] == list(payload)
    assert "h=5" in out.splitlines()


def test_solve_decision_mode(capsys):
    code, out, _ = run(capsys, "solve", "name:wagner", "--k", "7", "--json")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["status"] == "infeasible"
    code, out, _ = run(capsys, "solve", "name:wagner", "--k", "8", "--json")
    assert code == EXIT_OK


def test_solve_budget_exit(capsys):
    code, _, _ = run(capsys, "solve", "name:franklin", "--k", "8", "--budget-nodes", "3")
    assert code == EXIT_BUDGET


def test_solve_crash_is_not_a_budget_stop(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("solver bug")

    monkeypatch.setattr("harmonium.cli.solve", broken)
    # a crash exits 4 with its traceback: never 3 (budget) or 1 (infeasible)
    code, out, err = run(capsys, "solve", "name:petersen")
    assert (code, out) == (EXIT_CRASH, "")
    assert err.startswith("Traceback") and err.endswith("RuntimeError: solver bug\n")


def test_solve_parallel_flag_removed(capsys):
    code, _, _ = run(capsys, "solve", "name:petersen", "--parallel")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("reproduce", "--scope", "all"),
    ("reproduce", "--time-budget", "5"),
    ("vc-color", "family:cycle:6", "--exact"),
    ("gen", "--family", "cycle", "--n", "5"),
    ("construct", "--family", "sun", "--n", "5"),
    ("gen", "--list"),
    ("vc-color", "family:cycle:6", "--approx"),
    ("construct", "family:sun:5", "--out-prefix", "x"),
    ("reduce", "family:cycle:4", "--k", "1", "--gap", "1/2", "1/4"),
])
def test_removed_options_are_usage_errors(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("edge_line", ["0", "0 1 2"])
def test_solve_malformed_edge_line(tmp_path, capsys, edge_line):
    g_file = tmp_path / "bad.edges"
    g_file.write_text(f"3 1\n{edge_line}\n")
    code, _, err = run(capsys, "solve", str(g_file))
    assert code == EXIT_USAGE
    assert f"expected a line 'u v', got '{edge_line}'" in err


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "name:petersen")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["combined"] == 10
    assert sorted(payload) == ["combined", "degree3_bound", "delta_bound", "size_bound"]


def test_check_ok_and_mismatch(tmp_path, capsys):
    g_file = tmp_path / "p3.edges"
    from harmonium import emit_edge_list
    from harmonium.families import path

    g_file.write_text(emit_edge_list(path(3)))
    good = tmp_path / "good.coloring"
    good.write_text("0 1\n1 2\n2 3\n")
    bad = tmp_path / "bad.coloring"
    bad.write_text("0 1\n1 1\n2 2\n")
    code, out, _ = run(capsys, "check", str(g_file), str(good))
    assert code == EXIT_OK and "harmonious with 3 colors" in out
    code, out, _ = run(capsys, "check", str(g_file), str(bad))
    assert (code, out) == (EXIT_MISMATCH, "not proper: edge (0, 1) is monochromatic\n")


def test_load_coloring_partial_rejected(tmp_path):
    f = tmp_path / "c.coloring"
    f.write_text("0 1\n")
    with pytest.raises(ValueError, match=r"^coloring is partial; missing vertices \[1\]$"):
        load_coloring(str(f), 2)
    # on 4,000 vertices the message gives the first five missing and a count, not 20 KB
    with pytest.raises(ValueError) as error:
        load_coloring(str(f), 4000)
    assert str(error.value) == "coloring is partial; missing vertices [1, 2, 3, 4, 5] and 3994 more"
    f.write_text("0 1\n2 2\n")
    with pytest.raises(ValueError, match=r"vertex 2 outside 0\.\.1"):
        load_coloring(str(f), 2)


def _reference_load_coloring(text, n):
    """load_coloring's checks, one line and one pair at a time, in order."""
    from conftest import reference_pair, reference_rows

    pairs = [reference_pair(row, "v c") for row in reference_rows(text)]
    colors = {}
    for v, c in pairs:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        if v in colors:
            raise ValueError(f"vertex {v} is listed twice")
        if c < 1:
            raise ValueError(f"vertex {v} has color {c}; colors start at 1")
        colors[v] = c
    missing = [v for v in range(n) if v not in colors]
    if missing:
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise ValueError(f"coloring is partial; missing vertices {missing[:5]}{more}")
    return Coloring(tuple(colors[v] for v in range(n)))


def test_load_coloring_equals_a_line_by_line_reference(tmp_path):
    from conftest import join_lines, random_pair_lines

    rng = random.Random(21)
    f = tmp_path / "c.coloring"
    kinds = set()
    for _ in range(600):
        n = rng.randint(0, 8)
        listed = rng.sample(range(n), n - (n > 0 and rng.random() < 0.2))  # maybe one short
        full = [f"{v} {rng.randint(1, 4)}" for v in listed]
        lines = full + random_pair_lines(rng, n, rng.choice((0, 0, 1, 3)))
        rng.shuffle(lines)
        with open(f, "w", newline="") as fh:  # keep CRLF as written
            fh.write(join_lines(rng, lines))
        with open(f) as fh:  # as load_coloring reads it
            text = fh.read()
        outcomes = []
        for load in (lambda: load_coloring(str(f), n), lambda: _reference_load_coloring(text, n)):
            try:
                outcomes.append(load())
            except ValueError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1], text
        kinds |= {kind for kind in ("expected a line", "outside", "twice", "start at 1", "partial")
                  if kind in str(outcomes[1])} or {"coloring"}
    assert kinds == {"coloring", "expected a line", "outside", "twice", "start at 1", "partial"}


@pytest.mark.parametrize("enabled", [True, False])
def test_load_coloring_restores_the_collector_state(tmp_path, enabled):
    import gc

    f = tmp_path / "c.coloring"
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        f.write_text("0 1\n1 2\n")
        assert load_coloring(str(f), 2).colors == (1, 2)
        assert gc.isenabled() is enabled
        for text in ("0 1\n1 x\n", "0 1\n"):  # a bad line, a partial coloring
            f.write_text(text)
            with pytest.raises(ValueError):
                load_coloring(str(f), 2)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


_BAD_COLORING_LINES = [
    ("0", "expected a line 'v c', got '0'"),
    ("0 1 2", "expected a line 'v c', got '0 1 2'"),
    ("0 red", "expected a line 'v c', got '0 red'"),
    ("0 0", "vertex 0 has color 0; colors start at 1"),
]


@pytest.mark.parametrize("line, message", _BAD_COLORING_LINES,
                         ids=[line for line, _ in _BAD_COLORING_LINES])
def test_check_rejects_a_malformed_coloring_line(tmp_path, capsys, line, message):
    f = tmp_path / "c.coloring"
    f.write_text(f"# comment\n\n{line}\n1 2\n2 3\n")
    code, _, err = run(capsys, "check", "family:path:3", str(f))
    assert code == EXIT_USAGE
    assert err == f"error: {message}\n"


def test_check_rejects_a_vertex_listed_twice(tmp_path, capsys):
    f = tmp_path / "c.coloring"
    f.write_text("0 1\n1 2\n2 3\n0 2\n")
    code, _, err = run(capsys, "check", "family:path:3", str(f))
    assert code == EXIT_USAGE
    assert "vertex 0 is listed twice" in err


def test_coloring_round_trip(tmp_path):
    c = Coloring((3, 1, 2))
    f = tmp_path / "c.coloring"
    f.write_text(emit_coloring(c))
    assert load_coloring(str(f), 3) == c


def test_greedy_cli(tmp_path, capsys):
    out_file = tmp_path / "g.coloring"
    code, _, err = run(capsys, "greedy", "name:petersen", "-o", str(out_file))
    assert code == EXIT_OK
    summary = json.loads(err)
    c = load_coloring(str(out_file), 10)
    assert c.k == summary["colors_used"]
    # reproducible random order
    code, _, err1 = run(capsys, "greedy", "name:petersen", "--order", "random", "--seed", "7")
    code, _, err2 = run(capsys, "greedy", "name:petersen", "--order", "random", "--seed", "7")
    assert json.loads(err1)["order"] == json.loads(err2)["order"]


def test_vc_color_cli(capsys):
    code, out, err = run(capsys, "vc-color", "family:cycle:6")
    assert code == EXIT_OK
    summary = json.loads(err)
    assert summary["method"] == "exact"
    assert summary["colors_used"] <= summary["bound"] == 3 + 2 * 2 - 2 + 1
    # past the exact search's guard the cover is the 2-approximation
    code, _, err = run(capsys, "vc-color", "family:cycle:30")
    assert code == EXIT_OK
    assert json.loads(err)["method"] == "matching_2approx"


def test_construct_cli(tmp_path, capsys):
    code, out, err = run(capsys, "construct", "family:sunflower:8")
    assert code == EXIT_OK
    assert json.loads(err) == {"colors_used": 9}
    assert len(out.splitlines()) == load_graph("family:sunflower:8").n
    code, _, err = run(capsys, "construct", "family:closed_sun:7")
    assert code == EXIT_OK
    assert json.loads(err)["colors_used"] == 7 + 5
    target = tmp_path / "lp.coloring"
    code, out, err = run(capsys, "construct", "family:lollipop:6:4", "-o", str(target))
    assert code == EXIT_OK and out == ""
    g = load_graph("family:lollipop:6:4")
    c = load_coloring(str(target), g.n)
    assert is_harmonious(g, c).ok
    assert c.k == json.loads(err)["colors_used"] == 8


def test_construct_lollipop_needs_m(capsys):
    code, _, err = run(capsys, "construct", "family:lollipop:6")
    assert code == EXIT_USAGE
    assert "needs a second parameter" in err


def test_reduce_cli(tmp_path, capsys):
    out_file = tmp_path / "gadget.edges"
    code, _, err = run(
        capsys, "reduce", "family:cycle:5", "--k", "2", "--verify", "-o", str(out_file)
    )
    assert code == EXIT_OK
    payload = json.loads(err)
    assert payload["threshold"] == 11
    assert payload["equivalent"] is True
    assert load_graph(str(out_file)).n == 13


def test_refused_reduce_verify_writes_no_file(tmp_path, capsys):
    out_file = tmp_path / "g.edges"
    code, _, err = run(
        capsys, "reduce", "family:cycle:7", "--k", "2", "--verify", "-o", str(out_file)
    )
    assert code == EXIT_USAGE
    assert "guarded to n <= 6" in err
    assert not out_file.exists()


def test_nan_time_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "solve", "name:petersen", "--budget-secs", "nan")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: time_budget must be positive\n"


def test_main_resolves_each_graph_once(monkeypatch, capsys, tmp_path):
    import harmonium.cli as cli

    refs = []

    def recording(ref):
        refs.append(ref)
        return load_graph(ref)

    monkeypatch.setattr(cli, "load_graph", recording)
    coloring = tmp_path / "p3.coloring"
    coloring.write_text("0 1\n1 2\n2 3\n")
    for argv in [("gen", "family:path:3"), ("solve", "family:path:3"), ("bound", "family:path:3"),
                 ("check", "family:path:3", str(coloring)), ("greedy", "family:path:3"),
                 ("vc-color", "family:path:3"), ("construct", "family:sun:5"),
                 ("reduce", "family:path:3", "--k", "1"), ("export", "family:path:3")]:
        refs.clear()
        assert run(capsys, *argv)[0] == EXIT_OK
        assert refs == [argv[1]]
    refs.clear()
    assert run(capsys, "gen")[0] == EXIT_OK and refs == []
    # the reproduce table names every graph it solves
    assert run(capsys, "reproduce")[0] == EXIT_OK
    table = [ref for _, _, ref in cli._PAPER_ROWS]
    assert len(table) == 28
    assert refs == table + ["family:cycle:5", "family:cycle:5", "family:cycle:4"]


def test_a_rejected_closed_form_is_a_mismatch(monkeypatch, capsys):
    import harmonium.cli as cli

    monkeypatch.setitem(cli._CONSTRUCTIONS, "sunflower", lambda n, m: Coloring((1,) * (2 * n + 1)))
    code, out, err = run(capsys, "construct", "family:sunflower:8")
    assert code == EXIT_MISMATCH and out == ""
    assert err == "construction failed verification: not proper: edge (0, 1) is monochromatic\n"


def test_reproduce_solves_every_graph_row(monkeypatch, capsys):
    # each published h is proven by the solver, none only counted off a closed form
    import harmonium.cli as cli

    original, solved = cli.solve, []

    def counting(g, cfg=None):
        res = original(g, cfg)
        solved.append(res.h)
        return res

    monkeypatch.setattr(cli, "solve", counting)
    code, out, _ = run(capsys, "reproduce", "--json")
    assert code == EXIT_OK
    assert solved == [expected for _, expected, _ in cli._PAPER_ROWS]
    assert len(solved) == 28


def test_reproduce_full_table(capsys):
    code, out, _ = run(capsys, "reproduce", "--json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 37
    assert all(r["ok"] and r["computed"] == r["expected"] for r in rows)
    assert len({r["graph_id"] for r in rows}) == 37
    code, out, _ = run(capsys, "reproduce")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 37 and "MISMATCH" not in out


def _raise(exc):
    def row():
        raise exc

    return row


def test_reproduce_raising_rows_fail(monkeypatch, capsys):
    rows = [
        ("good", 3, lambda: 3),
        ("budget", 4, _raise(BudgetExceeded("budget exhausted at k=4"))),
        ("crash", 5, _raise(RuntimeError("bug"))),
    ]
    monkeypatch.setattr("harmonium.cli._reproduce_rows", lambda: iter(rows))
    code, out, err = run(capsys, "reproduce", "--json")
    assert code == EXIT_BUDGET
    # a crashed row names its cause on stderr; a budget stop is an answer
    assert "error: row crash raised:" in err and "RuntimeError: bug" in err
    assert "budget" not in err and "Traceback" in err
    payload = json.loads(out)
    assert [sorted(r) for r in payload] == [
        ["computed", "elapsed", "expected", "graph_id", "ok"]] * 3
    assert [r["ok"] for r in payload] == [True, False, False]
    assert payload[1]["computed"] == "SKIPPED (BudgetExceeded)"

    monkeypatch.setattr("harmonium.cli._reproduce_rows", lambda: iter([rows[0], rows[2]]))
    code, out, err = run(capsys, "reproduce")
    assert code == EXIT_CRASH
    assert "ERROR" in out and "MISMATCH" not in out
    assert "error: row crash raised:" in err and "RuntimeError: bug" in err


def test_reproduce_table_marks(monkeypatch, capsys):
    rows = [
        ("good", 3, lambda: 3),
        ("wrong", 4, lambda: 5),
        ("budget", 4, _raise(BudgetExceeded("budget exhausted at k=4"))),
        ("crash", 5, _raise(RuntimeError("bug"))),
    ]
    monkeypatch.setattr("harmonium.cli._reproduce_rows", lambda: iter(rows))
    code, out, _ = run(capsys, "reproduce")
    assert code == EXIT_BUDGET
    marks = {line.split()[0]: line.split()[-1] for line in out.splitlines()}
    assert marks == {"good": "ok", "wrong": "MISMATCH", "budget": "BUDGET", "crash": "ERROR"}


def test_export_dot(tmp_path, capsys):
    text = export_dot(cycle(3), Coloring((1, 2, 3)))
    assert text.startswith("graph g {")
    assert '0 [label="1"' in text
    assert "0 -- 1;" in text
    with pytest.raises(ValueError):
        export_dot(cycle(3), Coloring((1, 2)))
    out_file = tmp_path / "g.dot"
    code, _, _ = run(capsys, "export", "name:house", "-o", str(out_file))
    assert code == EXIT_OK
    assert out_file.read_text().startswith("graph g {")


def test_usage_errors(tmp_path, capsys):
    code, _, _ = run(capsys, "gen", "name:nope")
    assert code == EXIT_USAGE
    for ref in ("name:petersen", "family:wheel:5"):  # construct needs a closed form
        code, _, _ = run(capsys, "construct", ref)
        assert code == EXIT_USAGE
    code, _, _ = run(capsys, "solve", "/no/such/file")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "bogus-subcommand")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "gen", "family:cycle:x")
    assert code == EXIT_USAGE
    assert err == ("error: expected family:<family>:<n>[:<m>] with integer n and m, "
                   "got 'family:cycle:x'\n")
    order = tmp_path / "order.txt"
    order.write_text("3 1\nx 2\n")
    code, _, err = run(capsys, "greedy", "family:path:4", "--order", str(order))
    assert code == EXIT_USAGE
    assert err == f"error: order file {order}: 'x' is not a vertex id\n"


def test_unknown_catalog_name_is_a_plain_usage_error(capsys):
    code, _, err = run(capsys, "gen", "name:nope")
    assert code == EXIT_USAGE
    assert err.startswith("error: unknown catalog graph 'nope'")


def test_stdin_graph(monkeypatch, capsys):
    import io

    from harmonium import emit_edge_list

    monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(named("house"))))
    code, out, _ = run(capsys, "solve", "-", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["h"] == 5


# the files test_every_command_output_is_pinned writes first, then its argv
# lists; TMP stands for the test's temporary directory, TMP/out for the artifact
_PINNED_FILES = {
    "p3.edges": "3 2\n0 1\n1 2\n",
    "bad.edges": "3 1\n0\n",
    "good.coloring": "0 1\n1 2\n2 3\n",
    "improper.coloring": "0 1\n1 1\n2 2\n",
    "repeated.coloring": "0 1\n1 2\n2 1\n3 2\n",
    "short.coloring": "0 1\n",
    "twice.coloring": "0 1\n1 2\n2 3\n0 2\n",
    "one_token.coloring": "0\n1 2\n2 3\n",
    "three_tokens.coloring": "0 1 2\n1 2\n2 3\n",
    "word.coloring": "0 red\n1 2\n2 3\n",
    "zero.coloring": "0 0\n1 2\n2 3\n",
    "order.txt": "3 1 0 2\n",
}
_PINNED_CORPUS = [
    (),
    ("bogus",),
    ("--version",),
    ("-h",),
    *((command, "-h") for command in ("gen", "solve", "bound", "check", "greedy", "vc-color",
                                       "construct", "reduce", "reproduce", "export")),
    ("gen",),
    ("gen", "family:cycle:5"),
    ("gen", "name:petersen", "-o", "TMP/out"),
    ("gen", "family:generalized_petersen:5:2"),
    ("gen", "family:lollipop:4:3"),
    ("gen", "TMP/p3.edges"),
    ("gen", "name:nope"),
    ("gen", "family:wheel"),
    ("gen", "family:lollipop:6"),
    ("gen", "family:wheel:5:2"),
    ("gen", "family:nosuch:5"),
    ("gen", "family:cycle:x"),
    ("gen", "a", "b"),
    ("solve",),
    ("solve", "family:cycle:6", "--json"),
    ("solve", "family:cycle:6"),
    ("solve", "TMP/p3.edges", "--json"),
    ("solve", "name:wagner", "--k", "7", "--json"),
    ("solve", "name:wagner", "--k", "8"),
    ("solve", "name:franklin", "--k", "8", "--budget-nodes", "3"),
    ("solve", "name:franklin", "--budget-nodes", "3"),
    ("solve", "name:petersen", "--budget-nodes", "0"),
    ("solve", "name:petersen", "--budget-secs", "-1"),
    ("solve", "family:cycle:7", "--budget-secs", "30", "--json"),
    ("solve", "name:petersen", "--parallel"),
    ("solve", "name:petersen", "--k", "x"),
    ("solve", "/no/such/file"),
    ("solve", "TMP/bad.edges"),
    ("bound", "name:petersen"),
    ("bound", "family:lollipop:6:4"),
    ("bound", "TMP/p3.edges"),
    ("bound", "-"),
    ("bound",),
    ("check", "family:path:3", "TMP/good.coloring"),
    ("check", "TMP/p3.edges", "TMP/improper.coloring"),
    ("check", "family:path:4", "TMP/repeated.coloring"),
    ("check", "family:path:3", "TMP/short.coloring"),
    ("check", "family:path:3", "TMP/twice.coloring"),
    ("check", "family:path:3", "TMP/one_token.coloring"),
    ("check", "family:path:3", "TMP/three_tokens.coloring"),
    ("check", "family:path:3", "TMP/word.coloring"),
    ("check", "family:path:3", "TMP/zero.coloring"),
    ("check", "family:path:3", "TMP/missing.coloring"),
    ("check", "family:path:3"),
    ("greedy", "name:petersen"),
    ("greedy", "name:petersen", "--order", "random", "--seed", "7", "-o", "TMP/out"),
    ("greedy", "family:path:4", "--order", "TMP/order.txt"),
    ("greedy", "name:petersen", "--seed", "x"),
    ("greedy",),
    ("vc-color", "family:cycle:6"),
    ("vc-color", "family:cycle:30", "-o", "TMP/out"),
    ("vc-color", "family:cycle:6", "--exact"),
    ("construct", "family:sunflower:8"),
    ("construct", "family:sun:5"),
    ("construct", "family:closed_sun:7", "-o", "TMP/out"),
    ("construct", "family:lollipop:6:4"),
    ("construct", "family:lollipop:6"),
    ("construct", "family:sunflower:8:2"),
    ("construct", "family:sunflower:2"),
    ("construct", "name:petersen"),
    ("construct", "family:wheel:5"),
    ("construct", "family:wheel:5:2"),
    ("construct", "family:nosuch:5"),
    ("construct", "family:sun:x"),
    ("construct", "/no/such/file"),
    ("construct",),
    ("reduce", "family:cycle:5", "--k", "2", "--verify", "-o", "TMP/out"),
    ("reduce", "family:cycle:7", "--k", "2", "--verify", "-o", "TMP/out"),
    ("reduce", "family:path:3", "--k", "2"),
    ("reduce", "family:cycle:4", "--k", "1", "--gap", "1/2", "1/4"),
    ("reduce", "family:cycle:4", "--k", "1", "--gap", "1/4", "1/2"),
    ("reduce", "family:cycle:4", "--k", "1", "--gap", "x", "1/4"),
    ("reduce", "family:cycle:4", "--k", "9"),
    ("reduce", "family:cycle:4"),
    ("reproduce", "--json"),
    ("reproduce",),
    ("reproduce", "--scope", "all"),
    ("export", "name:house"),
    ("export", "family:path:3", "--coloring", "TMP/good.coloring", "-o", "TMP/out"),
    ("export", "family:path:4", "--coloring", "TMP/good.coloring"),
    ("export",),
]


def test_every_command_output_is_pinned(tmp_path, monkeypatch, capsys):
    # one sha256 per record, keyed by the command line, against the table in
    # cli_pins.json: any change in what a command prints, writes or returns
    # changes its digest, and the failed comparison names the command
    # (argparse wraps usage lines at COLUMNS)
    import hashlib
    import io
    import pathlib
    import re

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.stdin", io.StringIO(_PINNED_FILES["p3.edges"]))
    for name, text in _PINNED_FILES.items():
        (tmp_path / name).write_text(text)
    out_file = tmp_path / "out"
    digests = {}
    for entry in _PINNED_CORPUS:
        argv = [arg.replace("TMP", str(tmp_path)) for arg in entry]
        code, out, err = run(capsys, *argv)
        artifact = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        record = json.dumps([argv, code, out, err, artifact]).replace(str(tmp_path), "TMP")
        record = re.sub(r'(elapsed\\?"?[=:] ?)[0-9.e-]+', r"\1X", record)
        record = re.sub(r" +[0-9]+\.[0-9]{2}s  ", " Xs  ", record)  # reproduce's table
        digests[" ".join(entry)] = hashlib.sha256(record.encode()).hexdigest()
    assert len(digests) == len(_PINNED_CORPUS)
    pins = pathlib.Path(__file__).with_name("cli_pins.json").read_text()
    assert digests == json.loads(pins)
