"""How badly ordering can hurt the greedy algorithm.

On the adversarial tree in index order, which is breadth-first, greedy burns
(N-1)^2 + 1 colors while 2N - 2 suffice, so the ratio grows like the
square root of the vertex count.
"""

from harmonium import adversarial_good_coloring, adversarial_tree, greedy, is_harmonious


def main():
    print(f"{'N':>2} {'vertices':>8} {'greedy':>7} {'good':>5} {'ratio':>6}")
    for N in range(3, 9):
        g = adversarial_tree(N)
        bad = greedy(g, list(range(g.n)))
        good = adversarial_good_coloring(N)
        assert is_harmonious(g, bad) and is_harmonious(g, good)
        print(f"{N:>2} {g.n:>8} {bad.k:>7} {good.k:>5} {bad.k / good.k:>6.2f}")


if __name__ == "__main__":
    main()
