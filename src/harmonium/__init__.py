"""Harmonium: exact and heuristic harmonious-coloring toolkit."""

from .graph import (
    DISCONNECTED,
    Graph,
    closed_n2,
    diameter,
    emit_edge_list,
    from_edge_list,
    parse_edge_list,
    stats,
)
from .verify import BoundsReport, Coloring, Verdict, is_harmonious, lower_bounds
from .solver import (
    BUDGET_EXHAUSTED,
    INFEASIBLE,
    BudgetExceeded,
    SearchOutcome,
    SolveResult,
    SolverConfig,
    exists_k,
    oracle_h,
    solve,
)
from .families import adversarial_tree, generate
from .catalog import CATALOG, named
from .heuristics import (
    VertexCoverResult,
    adversarial_good_coloring,
    greedy,
    max_independent_set,
    min_vertex_cover,
    vc_coloring,
)
from .constructive import (
    LollipopPlan,
    color_closed_sun,
    color_sun,
    color_sunflower,
    h_cycle,
    lollipop_coloring,
    lollipop_h,
    lollipop_plan,
)
from .reduction import ReductionInstance, build, forward_coloring, verify_equivalence

__version__ = "0.1.0"
