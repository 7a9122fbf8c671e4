"""An independent reference for the strata, sharing no code with the short-vector
search or the packed lanes.  The 240 roots of K-perp are the classical list of
exceptional-curve differences (Manin, *Cubic Forms*), the 2,160 vectors of norm
-4 are the sums of two orthogonal roots, and the B^2 and B^4 of a class are the
shell vectors orthogonal to the complement of its lattice."""

from itertools import combinations

import pytest

from dp1.counting import b_classes
from dp1.real_forms import deformation_classes, lambda_basis, orthogonal_complement

K = (-3,) + (1,) * 8


def _dot(a, b):
    # The intersection form h.h = 1, l_i.l_i = -1, one product at a time.
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def _roots():
    """l_i - l_j, +-(h - l_i - l_j - l_k), +-(2h - six l's) and +-(3h - 2l_i - the
    other seven), as coefficient tuples (h; l1..l8)."""
    ls = range(1, 9)
    differences = [tuple(int(t == i) - int(t == j) for t in range(9)) for i in ls for j in ls if i != j]
    positive = [(d,) + tuple(-int(t in picked) for t in ls) for d, m in ((1, 3), (2, 6))
                for picked in combinations(ls, m)]
    positive += [(3,) + tuple(-1 - int(t == i) for t in ls) for i in ls]
    return differences + positive + [tuple(-x for x in r) for r in positive]


ROOTS = _roots()
FOUR_VECTORS = {tuple(x + y for x, y in zip(a, b)) for a, b in combinations(ROOTS, 2) if not _dot(a, b)}


def test_the_classical_shells_are_the_two_shells_of_k_perp():
    assert len(set(ROOTS)) == len(ROOTS) == 240 and len(FOUR_VECTORS) == 2160
    for shell, norm in ((ROOTS, -2), (FOUR_VECTORS, -4)):
        assert {(_dot(v, v), _dot(v, K)) for v in shell} == {(norm, 0)}


@pytest.mark.parametrize("c", deformation_classes(), ids=lambda c: c.id)
def test_each_stratum_is_its_shell_orthogonal_to_the_complement(c):
    complement = [b.coeffs for b in orthogonal_complement(lambda_basis(c.id)).basis]
    for k, shell in ((1, ROOTS), (2, FOUR_VECTORS)):
        vs = b_classes(c, k).vs
        assert len(set(vs)) == len(vs)
        assert set(vs) == {v for v in shell if not any(_dot(v, w) for w in complement)}, (c.id, k)
