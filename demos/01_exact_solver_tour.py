"""Tour of the exact solver over the named-graph catalog.

For each graph we print the lower bounds, the exact harmonious
chromatic number, and how much search it took. The diameter-2 entries
(Petersen, Wagner, octahedron, Moser spindle, house) all land exactly
at n: their bound is already n, and h = n needs no search, so they show
0 nodes.
"""

from harmonium import diameter, lower_bounds, named, solve

NAMES = [
    "petersen", "wagner", "octahedron", "moser_spindle", "house",
    "truncated_tetrahedron", "bidiakis", "franklin", "tietze", "yutsis",
]


def main():
    print(f"{'graph':<22} {'n':>3} {'m':>3} {'diam':>4} {'bound':>5} {'h':>3} {'nodes':>7}")
    for name in NAMES:
        g = named(name)
        b = lower_bounds(g)
        res = solve(g)
        print(f"{name:<22} {g.n:>3} {g.m:>3} {diameter(g):>4} "
              f"{b.combined:>5} {res.h:>3} {res.nodes_explored:>7}")


if __name__ == "__main__":
    main()
