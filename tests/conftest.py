import itertools
import random

import pytest

from harmonium import from_edge_list


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def labeled_graphs(max_n):
    """Every graph on vertices 0..n-1 for 1 <= n <= max_n, one per edge set:
    1,099 graphs for max_n = 5."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def graphical(seq):
    """Erdős–Gallai at every r: the sequence is the degree sequence of a
    simple graph on len(seq) vertices."""
    ds = sorted(seq, reverse=True)
    return sum(ds) % 2 == 0 and all(
        sum(ds[:r]) <= r * (r - 1) + sum(min(x, r) for x in ds[r:])
        for r in range(1, len(ds) + 1))


def size_vectors(total, parts, cap):
    """Every nonincreasing vector of `parts` sizes in 0..cap that sums to
    total: every way to size the classes, up to their order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total), -1, -1):
        if first * parts < total:
            break
        for rest in size_vectors(total - first, parts - 1, first):
            yield (first, *rest)


#: The count names, in the order class_counts tries them.
COUNTS = ("pairs", "even k", "odd k", "packing", "regular")


def root_counts(g, k):
    """The class degree-sum counts that refute k, from their definitions. A
    class's edges carry distinct pairs, so its degree sum is at most k - 1
    and the m edges need m of the k(k - 1)/2 pairs ("pairs"). For even k a
    class's sum is at most k - 2 unless it holds an odd-degree vertex
    ("even k"). For odd k and no odd-degree vertex each color misses an
    even number of pairs, so the unused pairs are not 1 or 2 ("odd k"). A
    class holds at most (k - 1) // d of the vertices of degree >= d, for
    every d from 1 to Δ ("packing"). When every non-isolated vertex has
    degree d, the classes' degree sums d * size are the degrees of a
    simple graph on the k colors, so some way to size the classes must
    pass Erdős–Gallai; here every one is tried ("regular"). A degree sum
    above k - 1 fails at once, which caps the sizes at (k - 1) // d."""
    degrees = [len(nbrs) for nbrs in g.adj if nbrs]
    odd = sum(d % 2 for d in degrees)
    unused = k * (k - 1) // 2 - g.m
    fired = {"pairs": unused < 0,
             "even k": k % 2 == 0 and 2 * g.m > k * (k - 2) + min(odd, k),
             "odd k": k % 2 == 1 and odd == 0 and unused in (1, 2),
             "packing": any(k * ((k - 1) // d) < sum(x >= d for x in degrees)
                            for d in range(1, max(degrees, default=0) + 1)),
             "regular": len(set(degrees)) == 1 and not any(
                 graphical([degrees[0] * s for s in sizes])
                 for sizes in size_vectors(len(degrees), k, (k - 1) // degrees[0]))}
    return {name for name, fires in fired.items() if fires}


@pytest.fixture
def rng():
    return random.Random(12345)


#: Lines that are not two integers, as `int` and `str.split` see them.
MALFORMED_LINES = ("7", "1 2 3", "0 x", "1.5 2", "0x1 2", "# 1", "1 #2", " 1 2", "1\x0b2")


def random_pair_lines(rng, n, count):
    """count lines for vertex ids around 0..n-1: mostly good pairs, some
    reversed or repeated, a few self-loops, out-of-range ids (negative or
    >= n), signed ids and malformed lines, with comments and blank or
    whitespace-only lines between them."""
    lines = []
    while len(lines) < count:
        kind = rng.random()
        u, v = rng.randint(-1, n), rng.randint(-1, n)
        if kind < 0.05:
            lines.append(rng.choice(("# comment", "  #indented", "", " \t")))
            continue
        if kind < 0.1:
            lines.append(rng.choice(MALFORMED_LINES))
        elif kind < 0.13:
            lines.append(f"{u} {u}")
        elif kind < 0.16:
            lines.append(rng.choice((f"+{u} {v}", f"{u}\t{v}", f"  {u}  {v} ", f"0{u} {v}")))
        elif kind < 0.2 and lines:
            lines.append(rng.choice(lines))
        else:
            lines.append(f"{u} {v}" if rng.random() < 0.7 else f"{v} {u}")
    return lines


def join_lines(rng, lines):
    ends = rng.choice(("\n", "\r\n"))
    return ends.join(lines) + rng.choice(("", ends, ends + ends))


def reference_rows(text):
    """Line by line: the tokens of each line neither blank nor a comment."""
    rows = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            rows.append(tokens)
    return rows


def reference_pair(tokens, form):
    if len(tokens) != 2:
        raise ValueError(f"expected a line '{form}', got {' '.join(tokens)!r}")
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(f"expected a line '{form}', got {' '.join(tokens)!r}") from None
