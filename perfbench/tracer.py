"""Spans around the calls into each harmonium module, recorded from outside.

The tracer replaces module attributes (``harmonium.solver.exists_k``,
``harmonium.verify.stats``, ...) with wrappers that record a span (name,
start, end, parent) and a few counts, and puts the originals back on
``uninstall``. It wraps the attribute each caller looks the function up
through: ``solve`` reaches ``exists_k`` as ``harmonium.solver.exists_k``,
while ``verify_equivalence`` reaches it as ``harmonium.reduction.exists_k``,
so both attributes are wrapped under the same span name. A target that no
longer exists raises ``AttributeError`` at install time, so a renamed
function fails the traced run instead of reporting zero.

Nothing inside the library changes; only calls that cross a module
boundary through a module attribute are seen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# (module, attribute, span name). The span name's prefix is the layer of the
# called function; catalog functions belong to the families layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # graph
    ("graph", "from_edge_list", "graph.build"),
    ("families", "from_edge_list", "graph.build"),
    ("catalog", "from_edge_list", "graph.build"),
    ("reduction", "from_edge_list", "graph.build"),
    ("graph", "parse_edge_list", "graph.parse"),
    ("graph", "emit_edge_list", "graph.emit"),
    ("verify", "stats", "graph.stats"),
    ("heuristics", "stats", "graph.stats"),
    ("verify", "closed_n2", "graph.closed_n2"),
    # families / catalog
    ("families", "cycle", "families.cycle"),
    ("families", "sunflower", "families.sunflower"),
    ("families", "sun", "families.sun"),
    ("families", "closed_sun", "families.closed_sun"),
    ("families", "lollipop", "families.lollipop"),
    ("families", "generalized_petersen", "families.generalized_petersen"),
    ("families", "adversarial_tree", "families.adversarial_tree"),
    ("catalog", "named", "families.named"),
    # verify
    ("verify", "lower_bounds", "verify.lower_bounds"),
    ("solver", "lower_bounds", "verify.lower_bounds"),
    ("verify", "is_harmonious", "verify.is_harmonious"),
    ("solver", "is_harmonious", "verify.is_harmonious"),
    ("cli", "is_harmonious", "verify.is_harmonious"),
    # solver
    ("solver", "solve", "solver.solve"),
    ("cli", "solve", "solver.solve"),
    ("constructive", "solve", "solver.solve"),
    ("solver", "exists_k", "solver.exists_k"),
    ("reduction", "exists_k", "solver.exists_k"),
    # heuristics
    ("heuristics", "greedy", "heuristics.greedy"),
    ("heuristics", "min_vertex_cover", "heuristics.min_vertex_cover"),
    ("heuristics", "vc_coloring", "heuristics.vc_coloring"),
    ("heuristics", "adversarial_good_coloring", "heuristics.adversarial_good_coloring"),
    ("reduction", "max_independent_set", "heuristics.max_independent_set"),
    # constructive
    ("constructive", "color_closed_sun", "constructive.color_closed_sun"),
    ("constructive", "color_sunflower", "constructive.color_sunflower"),
    ("constructive", "color_sun", "constructive.color_sun"),
    ("constructive", "cycle_coloring", "constructive.cycle_coloring"),
    ("constructive", "h_cycle", "constructive.h_cycle"),
    ("constructive", "lollipop_plan", "constructive.lollipop_plan"),
    ("constructive", "lollipop_coloring", "constructive.lollipop_coloring"),
    ("constructive", "lollipop_h", "constructive.lollipop_h"),
    # reduction
    ("reduction", "verify_equivalence", "reduction.verify_equivalence"),
    ("reduction", "build", "reduction.build"),
    # cli
    ("cli", "main", "cli.main"),
    ("cli", "cmd_reproduce", "cli.reproduce"),
)

#: Root span name of the benchmark's own code; its self time is bench.self_s.
ROOT = "bench"

LAYERS = ("graph", "families", "verify", "solver", "heuristics", "constructive",
          "reduction", "cli", ROOT)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    via: str = ""  # module whose attribute the call went through
    mark: str = ""  # instance the benchmark was working on
    data: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; install() wraps TARGETS on a harmonium package."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.mark = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for modname, attr, name in TARGETS:
                module = getattr(self.package, modname)
                original = getattr(module, attr)  # AttributeError: target renamed or gone
                if not callable(original) or hasattr(original, "span_name"):
                    raise TypeError(f"trace target {modname}.{attr} is not callable "
                                    "or is wrapped already")
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, modname))
        except Exception:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.spans = []

    def root(self, fn, *args, **kwargs):
        """Run fn under a bench root span; its self time is the benchmark's own."""
        return self._call(fn, ROOT, "", args, kwargs)

    def _wrap(self, fn, name, via):
        def traced(*args, **kwargs):
            return self._call(fn, name, via, args, kwargs)

        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    def _call(self, fn, name, via, args, kwargs):
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None,
                    via=via, mark=self.mark)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name == "solver.exists_k":
            k = args[1] if len(args) > 1 else kwargs["k"]
            span.data.update(k=k, status=result.status, nodes=result.nodes_explored)
        elif name in ("heuristics.greedy", "heuristics.vc_coloring"):
            span.data["colors"] = result.k
        elif name == "heuristics.min_vertex_cover":
            span.data["size"] = result.size
        return result


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def inclusive_seconds(spans: list[Span], key) -> dict[str, float]:
    """Time inside spans grouped by key(span), counting a span nested in
    another with the same key once."""
    above: list[frozenset] = []  # keys of each span's ancestors
    totals: dict[str, float] = {}
    for s in spans:
        keys = frozenset() if s.parent is None else above[s.parent] | {key(spans[s.parent])}
        above.append(keys)
        k = key(s)
        if k not in keys:
            totals[k] = totals.get(k, 0.0) + s.seconds
    return totals
