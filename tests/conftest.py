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
