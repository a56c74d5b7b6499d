"""Independent-Set hardness gadget and its small-instance certifier.

The gadget for (G, k) is a two-component graph: G plus an apex triangle
joined to every G-vertex (diameter <= 2, so it needs |V| + 3 distinct
colors) together with a disjoint clique on |V| vertices. It admits a
harmonious coloring with 2|V| + 3 - k colors iff G has an independent
set of size k; color reuse between the components is exactly an
independent set. So a promise gap (c, s) on independent-set density,
0 < s < c <= 1/2, becomes the paper's inapproximability ratio
(2 - s)/(2 - c) for h.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, from_edge_list
from .heuristics import max_independent_set
from .solver import exists_k
from .verify import Coloring

VERIFY_MAX_N = 6


@dataclass(frozen=True)
class ReductionInstance:
    source: Graph
    gadget: Graph
    k: int
    threshold: int  # 2|V| + 3 - k


def build(g: Graph, k: int) -> ReductionInstance:
    """Gadget numbering: source vertices 0..n-1, apex triangle n..n+2,
    clique n+3..2n+2."""
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"target size must satisfy 1 <= k <= {n}, got {k}")
    edges = list(g.edges)
    apex = [n, n + 1, n + 2]
    edges += [(a, b) for i, a in enumerate(apex) for b in apex[i + 1:]]
    edges += [(v, a) for v in range(n) for a in apex]
    clique = list(range(n + 3, 2 * n + 3))
    edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
    gadget = from_edge_list(2 * n + 3, edges)
    return ReductionInstance(source=g, gadget=gadget, k=k, threshold=2 * n + 3 - k)


def forward_coloring(inst: ReductionInstance, is_set: set[int]) -> Coloring:
    """Threshold-many-color harmonious coloring from an independent set.

    The first component is colored all-distinct (vertex id + 1, so
    1..n+3); the clique takes the sorted colors of the independent set,
    then the fresh colors n+4..2n+3-k.
    """
    g = inst.source
    n = g.n
    if len(is_set) != inst.k:
        raise ValueError(f"independent set has size {len(is_set)}, expected {inst.k}")
    for u in is_set:
        if not 0 <= u < n:
            raise ValueError(f"vertex {u} not in the source graph")
    for u, v in g.edges:
        if u in is_set and v in is_set:
            raise ValueError(f"set is not independent: edge ({u},{v}) inside it")
    reuse = sorted(u + 1 for u in is_set)
    return Coloring((*range(1, n + 4), *reuse, *range(n + 4, 2 * n + 4 - inst.k)))


@dataclass(frozen=True)
class EquivalenceReport:
    is_exists: bool
    colorable_at_threshold: bool

    @property
    def equivalent(self) -> bool:
        return self.is_exists == self.colorable_at_threshold


def verify_equivalence(g: Graph, k: int) -> EquivalenceReport:
    """Certify the biconditional on one small instance: G has a size-k
    independent set iff the gadget is threshold-colorable."""
    if g.n > VERIFY_MAX_N:
        raise ValueError(f"equivalence check guarded to n <= {VERIFY_MAX_N}, got {g.n}")
    inst = build(g, k)
    alpha = len(max_independent_set(g))
    outcome = exists_k(inst.gadget, inst.threshold)
    return EquivalenceReport(
        is_exists=alpha >= k,
        colorable_at_threshold=outcome.feasible,
    )

