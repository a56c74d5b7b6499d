"""Command-line front door.

JSON is the machine interface; tables are for humans. README's *Command
line* section states the contract: graph references, file formats, exit
codes and each command's JSON keys. `main` resolves every command's
graph reference once (`load_graph`), and coloring files go through
`load_coloring`. In `build_parser`, one helper gives each command its
`graph` argument, and one loop gives `-o` to every command that writes
an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import catalog, constructive, families, heuristics, reduction
from .graph import Graph, diameter, emit_edge_list, parse_coloring, parse_edge_list, stats
from .solver import BUDGET_EXHAUSTED, BudgetExceeded, SolverConfig, exists_k, solve
from .verify import Coloring, is_harmonious, lower_bounds

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CRASH = 4

REPRODUCE_ROW_BUDGET_S = 600.0  # per-row solve budget in seconds: only a hang guard

# muted palette for DOT fills, cycled by color index
_PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
    "#9a6324", "#fffac8", "#800000", "#aaffc3",
)


def _family_spec(spec: str) -> tuple[str, int, int | None]:
    """Parse a `family:<family>:<n>[:<m>]` reference into (family, n, m)."""
    parts = spec.split(":")
    if parts[0] != "family" or not 3 <= len(parts) <= 4:
        raise ValueError(f"expected family:<family>:<n>[:<m>], got {spec!r}")
    try:
        n, *m = map(int, parts[2:])
    except ValueError:
        raise ValueError(f"expected family:<family>:<n>[:<m>] with integer n and m, "
                         f"got {spec!r}") from None
    return parts[1], n, m[0] if m else None


def load_graph(spec: str) -> Graph:
    """Resolve a graph reference: path, `name:...` or `family:...`."""
    if spec.startswith("name:"):
        return catalog.named(spec[5:])
    if spec.startswith("family:"):
        return families.generate(*_family_spec(spec))
    if spec == "-":
        return parse_edge_list(sys.stdin.read())
    with open(spec) as fh:
        return parse_edge_list(fh.read())


def load_coloring(path: str, n: int) -> Coloring:
    """Coloring file: one `vertex color` pair per line, # comments ok,
    checked by graph.parse_coloring."""
    with open(path) as fh:
        return Coloring(parse_coloring(fh.read(), n))


def emit_coloring(c: Coloring) -> str:
    return "\n".join(f"{v} {c.colors[v]}" for v in range(c.n)) + "\n"


def export_dot(g: Graph, c: Coloring | None = None) -> str:
    """Deterministic DOT text; nodes carry the color index as label and
    a palette fill when a coloring is given."""
    if c is not None and c.n != g.n:
        raise ValueError("coloring does not match graph")
    lines = ["graph g {", "  node [style=filled];"]
    for v in range(g.n):
        if c is None:
            lines.append(f"  {v};")
        else:
            col = c.colors[v]
            fill = _PALETTE[(col - 1) % len(_PALETTE)]
            lines.append(f'  {v} [label="{col}", fillcolor="{fill}"];')
    lines += [f"  {u} -- {v};" for u, v in g.edges] + ["}"]
    return "\n".join(lines) + "\n"


def _emit(path: str | None, text: str, summary: dict | None = None) -> None:
    """Write an artifact to path (stdout without one), then its JSON
    summary, if any, to stderr."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if summary is not None:
        print(json.dumps(summary), file=sys.stderr)


def _catalog_line(name: str) -> str:
    g = catalog.named(name)
    degrees = stats(g).degree_sequence
    reg = f"{degrees[0]}-regular" if min(degrees) == max(degrees) else "irregular"
    return f"{name}: n={g.n} m={g.m} {reg} diameter={diameter(g)}\n"


def cmd_gen(args, g: Graph | None) -> int:
    if g is None:  # nothing to generate: list what can be
        text = "".join(map(_catalog_line, catalog.CATALOG))
        text += f"families: {', '.join(families.FAMILIES)}\n"
    else:
        text = emit_edge_list(g)
    _emit(args.output, text)
    return EXIT_OK


def cmd_solve(args, g: Graph) -> int:
    cfg = SolverConfig(node_budget=args.budget_nodes, time_budget=args.budget_secs)
    t0 = time.monotonic()
    if args.k is None:
        try:
            res = solve(g, cfg)
        except BudgetExceeded as exc:  # carries the bracketing info
            print(f"solve: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        payload = {**asdict(res), "witness": list(res.witness.colors)}
        code = EXIT_OK
    else:
        out = exists_k(g, args.k, cfg)
        payload = {"k": args.k, "status": out.status, "nodes_explored": out.nodes_explored,
                   "nodes_walked": out.nodes_walked, "elapsed": time.monotonic() - t0}
        if out.feasible:
            payload["witness"] = list(out.witness.colors)
        code = (EXIT_BUDGET if out.status == BUDGET_EXHAUSTED
                else EXIT_OK if out.feasible else EXIT_MISMATCH)
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key}={value}")
    return code


def cmd_bound(args, g: Graph) -> int:
    print(json.dumps(asdict(lower_bounds(g))))
    return EXIT_OK


def cmd_check(args, g: Graph) -> int:
    c = load_coloring(args.coloring, g.n)
    verdict = is_harmonious(g, c)
    if not verdict.ok:
        print(verdict)
        return EXIT_MISMATCH
    print(f"ok: harmonious with {c.k} colors")
    return EXIT_OK


def cmd_greedy(args, g: Graph) -> int:
    if args.order in ("index", "random"):
        order = list(range(g.n))
        if args.order == "random":
            import random

            random.Random(args.seed).shuffle(order)
    else:
        order = []
        with open(args.order) as fh:
            for tok in fh.read().split():
                try:
                    order.append(int(tok))
                except ValueError:
                    raise ValueError(f"order file {args.order}: {tok!r} "
                                     "is not a vertex id") from None
    c = heuristics.greedy(g, order)
    _emit(args.output, emit_coloring(c), {"colors_used": c.k, "order": order})
    return EXIT_OK


def cmd_vc_color(args, g: Graph) -> int:
    # the exact cover is an exponential search, guarded to small n
    mode = "exact" if g.n <= heuristics.EXACT_SEARCH_MAX_N else "approx"
    cover = heuristics.min_vertex_cover(g, mode)
    c = heuristics.vc_coloring(g, cover)
    _emit(args.output, emit_coloring(c), {"cover_size": cover.size, "method": cover.method,
                                          "colors_used": c.k,
                                          "bound": heuristics.vc_budget(g, cover)})
    return EXIT_OK


# the closed-form coloring of each family that has one, by family name
_CONSTRUCTIONS = {
    "sunflower": lambda n, m: constructive.color_sunflower(n),
    "sun": lambda n, m: constructive.color_sun(n),
    "closed_sun": lambda n, m: constructive.color_closed_sun(n),
    "lollipop": lambda n, m: constructive.lollipop_coloring(constructive.lollipop_plan(n, m)),
}


def _closed_form(ref: str) -> tuple[str, int, int | None]:
    """(family, n, m) of a `family:` reference whose family has a closed form."""
    family, n, m = _family_spec(ref)
    if family not in _CONSTRUCTIONS:
        raise ValueError(f"no closed form for family {family!r}; "
                         f"known: {', '.join(_CONSTRUCTIONS)}")
    return family, n, m


def cmd_construct(args, g: Graph) -> int:
    family, n, m = _closed_form(args.graph)
    c = _CONSTRUCTIONS[family](n, m)
    verdict = is_harmonious(g, c)
    if not verdict.ok:
        print(f"construction failed verification: {verdict}", file=sys.stderr)
        return EXIT_MISMATCH
    _emit(args.output, emit_coloring(c), {"colors_used": c.k})
    return EXIT_OK


def cmd_reduce(args, g: Graph) -> int:
    inst = reduction.build(g, args.k)
    payload = {"threshold": inst.threshold, "gadget_n": inst.gadget.n}
    code = EXIT_OK
    if args.verify:  # before writing, so a refused check leaves no file behind
        report = reduction.verify_equivalence(g, args.k)
        payload.update(asdict(report), equivalent=report.equivalent)
        code = EXIT_OK if report.equivalent else EXIT_MISMATCH
    _emit(args.output, emit_edge_list(inst.gadget), payload)
    return code


# the paper's h table in its order as (row id, published value, graph reference);
# every row is solved, so each value is proven, not only achieved
_PAPER_ROWS = (
    *((f"planar33_8_{i}", 7, f"name:planar33_8_{i}") for i in range(1, 4)),
    *((f"planar33_10_{i}", 7, f"name:planar33_10_{i}") for i in range(1, 7)),
    *((f"planar33_12_{i}", 8, f"name:planar33_12_{i}") for i in range(1, 3)),
    *((name, h, f"name:{name}")
      for name, h in [("bidiakis", 8), ("franklin", 9), ("tietze", 9), ("yutsis", 9)]),
    ("GP(5,1)", 7, "family:generalized_petersen:5:1"),
    *((f"sunflower({n})", h, f"family:sunflower:{n}")
      for n, h in [(3, 7), (4, 7), (5, 8), (6, 8), (7, 8), (8, 9), (9, 10)]),
    ("sun(5)", 8, "family:sun:5"), ("sun(6)", 8, "family:sun:6"),
    ("closed_sun(5)", 10, "family:closed_sun:5"), ("closed_sun(6)", 11, "family:closed_sun:6"),
    ("lollipop(6,4)", 8, "family:lollipop:6:4"),
)


def _reproduce_rows():
    """Yield (graph_id, expected value, computation) triples."""
    cfg = SolverConfig(time_budget=REPRODUCE_ROW_BUDGET_S)
    for graph_id, expected, ref in _PAPER_ROWS:
        yield graph_id, expected, lambda ref=ref: solve(load_graph(ref), cfg).h
    for N in (4, 5, 6):
        tree = families.adversarial_tree(N)
        yield (f"greedy(adversarial_tree({N}))", (N - 1) ** 2 + 1,
               lambda t=tree: heuristics.greedy(t, list(range(t.n))).k)
        good = heuristics.adversarial_good_coloring(N)
        yield (f"good_coloring({N}) <= {2 * N - 2}", 1,
               lambda t=tree, c=good, N=N: int(is_harmonious(t, c).ok and c.k <= 2 * N - 2))
    for n, k, exp in [(5, 2, 1), (5, 3, 1), (4, 1, 1)]:
        yield f"reduction(C_{n}, k={k})", exp, lambda n=n, k=k: int(
            reduction.verify_equivalence(load_graph(f"family:cycle:{n}"), k).equivalent)


def cmd_reproduce(args, _g: None) -> int:
    rows: list[dict] = []
    marks: list[str] = []
    for graph_id, expected, run in _reproduce_rows():
        t0 = time.monotonic()
        try:
            computed: int | str = run()
            mark = "ok" if computed == expected else "MISMATCH"
        except Exception as exc:  # the row failed; the others still run
            computed = f"SKIPPED ({type(exc).__name__})"
            mark = "BUDGET" if isinstance(exc, BudgetExceeded) else "ERROR"
            if mark == "ERROR":  # a bug: its cause goes to stderr, the row to stdout
                import traceback

                print(f"error: row {graph_id} raised:", file=sys.stderr)
                traceback.print_exception(exc)
        rows.append({"graph_id": graph_id, "expected": expected, "computed": computed,
                     "elapsed": time.monotonic() - t0, "ok": computed == expected})
        marks.append(mark)
    if args.json:
        print(json.dumps(rows))
    else:
        width = max(len(r["graph_id"]) for r in rows)
        for r, mark in zip(rows, marks):
            print(f"{r['graph_id']:<{width}}  expected={r['expected']!s:>3}  "
                  f"computed={r['computed']!s:>3}  {r['elapsed']:6.2f}s  {mark}")
    if "BUDGET" in marks:
        return EXIT_BUDGET
    if "ERROR" in marks:
        return EXIT_CRASH
    return EXIT_OK if all(r["ok"] for r in rows) else EXIT_MISMATCH


def cmd_export(args, g: Graph) -> int:
    c = load_coloring(args.coloring, g.n) if args.coloring else None
    _emit(args.output, export_dot(g, c))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="harmonium")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, about, **graph):
        """Add a subcommand with its `graph` argument (the keywords go to it)."""
        p = sub.add_parser(name, help=about)
        p.add_argument("graph", **graph)
        p.set_defaults(fn=fn)
        return p

    command("gen", cmd_gen, "emit a graph as an edge list, or list the catalog",
            nargs="?", help="without one, list the catalog and families")

    p = command("solve", cmd_solve, "exact harmonious chromatic number")
    p.add_argument("--k", type=int, help="decide a single color budget instead")
    p.add_argument("--budget-nodes", type=int)
    p.add_argument("--budget-secs", type=float)
    p.add_argument("--json", action="store_true")
    command("bound", cmd_bound, "print the bounds report as JSON")
    command("check", cmd_check, "verify a coloring file").add_argument("coloring")
    p = command("greedy", cmd_greedy, "greedy coloring under a vertex order")
    p.add_argument("--order", default="index", help="'index', 'random' or a file of ids")
    p.add_argument("--seed", type=int, default=0)
    command("vc-color", cmd_vc_color, "vertex-cover-based coloring (exact cover up "
            f"to n = {heuristics.EXACT_SEARCH_MAX_N}, else 2-approximate)")
    command("construct", cmd_construct, "closed-form family colorings",
            help="family:<family>:<n>[:<m>]")
    p = command("reduce", cmd_reduce, "build the independent-set gadget")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p = sub.add_parser("reproduce", help="recompute the published values")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_reproduce, graph=None)  # its table names its own graphs
    p = command("export", cmd_export, "DOT export with optional coloring labels")
    p.add_argument("--coloring")

    # the commands that make an artifact, after their own flags
    for name in ("gen", "greedy", "vc-color", "construct", "reduce", "export"):
        sub.choices[name].add_argument("-o", "--output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "construct":  # refused before anything is opened
            _closed_form(args.graph)
        return args.fn(args, None if args.graph is None else load_graph(args.graph))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a bug, not an answer: never the exit code of a mismatch
        import traceback  # off the import path: only a crash needs it

        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
