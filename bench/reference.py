"""Fixed reference work that the benchmark runs between dp1 operations.

Usage: python3 bench/reference.py

A fresh interpreter enumerates the 2,160 vectors of norm 4 in E8 with exact
Fraction arithmetic (LDL of the Cartan matrix and a Fincke-Pohst search).  It
then forms pairwise sums of a slice of them.  This is the kind of work dp1
does, and it shares none of dp1's code, so its cost is the same at every
commit.  The benchmark divides each operation's time by the time of the
reference runs on either side of it, which cancels the drift in CPU speed on
a shared machine.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt

E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7))


def short_vectors(gram: list[list[int]], norm: int) -> list[tuple[int, ...]]:
    """Integer x with x^T gram x == norm, for a positive-definite gram."""
    k = len(gram)
    a = [[Fraction(v) for v in row] for row in gram]
    d, u = [], [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        d.append(a[i][i])
        for j in range(i + 1, k):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, k):
            for c in range(r, k):
                a[r][c] -= a[i][r] * a[i][c] / d[i]
    x = [0] * k
    found = []

    def descend(i: int, budget: Fraction) -> None:
        center = sum((u[i][j] * x[j] for j in range(i + 1, k)), Fraction(0))
        bound = budget / d[i]
        radius = isqrt(bound.numerator // bound.denominator) + 1
        lo, hi = -center - radius, -center + radius
        for xi in range(-(-lo.numerator // lo.denominator), hi.numerator // hi.denominator + 1):
            term = d[i] * (xi + center) ** 2
            if term > budget:
                continue
            x[i] = xi
            if i == 0:
                if term == budget:
                    found.append(tuple(x))
            else:
                descend(i - 1, budget - term)
        x[i] = 0

    descend(k - 1, Fraction(norm))
    return found


def main() -> int:
    gram = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in E8_EDGES:
        gram[i][j] = gram[j][i] = -1
    vectors = short_vectors(gram, 4)
    sums = {tuple(p + q for p, q in zip(v, w)) for v in vectors[:150] for w in vectors[:150]}
    print(len(vectors), len(sums))
    return 0 if len(vectors) == 2160 else 1


if __name__ == "__main__":
    sys.exit(main())
