"""Exact arithmetic in the Picard lattice Z^{1,8} of a degree-1 del Pezzo surface.

Divisor classes are integer 9-tuples in the ordered basis (h, l1, ..., l8)
with the diagonal intersection form h.h = +1, li.li = -1.  All arithmetic here
is on integers: the LDL is fraction-free (Bareiss), the short-vector search runs
on its rows, and the coordinate solves use `integer_kernel`.  No float enters
any decision.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import isqrt, lcm
from operator import add, mul, neg, sub
from typing import NamedTuple

RANK = 9
FORM = (1,) + (-1,) * (RANK - 1)  # the diagonal intersection form on (h, l1, ..., l8)
LANE = 127  # the largest |value| a signed byte lane of `pack_lanes` holds

ENUM_DEPTH_ENV = "DP1_MAX_ENUM_DEPTH"


class LatticeError(ValueError):
    """Raised when a lattice-level precondition is violated."""


class EnumerationDepthError(LatticeError):
    """Raised when an enumeration exceeds the DP1_MAX_ENUM_DEPTH cap."""


class PicClass(NamedTuple("PicClass", [("coeffs", tuple)])):
    """A divisor class, stored as plain coordinates (c0; c1..c8)."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> "PicClass":
        if len(coeffs) != RANK or not all(map(int.__instancecheck__, coeffs)):
            raise LatticeError(f"expected {RANK} integer coordinates, got {coeffs!r}")
        return tuple.__new__(cls, (coeffs,))

    def dot(self, other: "PicClass") -> int:
        return dot_tuples(self.coeffs, other.coeffs)

    @property
    def square(self) -> int:
        return self.dot(self)

    @property
    def degree(self) -> int:
        return -self.dot(K)

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "PicClass") -> "PicClass":
        return PicClass(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "PicClass":
        return PicClass(tuple(map(neg, self.coeffs)))

    def __rmul__(self, n: int) -> "PicClass":
        return PicClass(tuple(n * a for a in self.coeffs))

    def __str__(self) -> str:
        return "(" + "; ".join([str(self.coeffs[0]), ",".join(map(str, self.coeffs[1:]))]) + ")"


def pic(*coeffs: int) -> PicClass:
    return PicClass(tuple(coeffs))


def dot_tuples(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    # Raw-tuple inner product for hot loops: a0 b0 - sum_{i>0} ai bi, summed in C.
    return 2 * a[0] * b[0] - sum(map(mul, a, b))


H = pic(1, 0, 0, 0, 0, 0, 0, 0, 0)
L = tuple(PicClass(tuple(1 if j == i else 0 for j in range(RANK))) for i in range(1, RANK))
K = pic(-3, 1, 1, 1, 1, 1, 1, 1, 1)
MINUS_K = -K
MINUS_2K = 2 * MINUS_K
ZERO = pic(0, 0, 0, 0, 0, 0, 0, 0, 0)


def _halves(n: int) -> int:
    return int.from_bytes(b"\x80" * n, "little")


def pack_lanes(values: tuple[int, ...]) -> int:
    """sum_l values[l] * 256^l, one byte lane per value: packed columns add and
    scale lane by lane while every lane stays within +-LANE."""
    return int.from_bytes(bytes(map((LANE + 1).__add__, values)), "little") - _halves(len(values))


def unpack_lanes(packed: int, n: int) -> memoryview:
    """The n signed lanes of a sum of `pack_lanes` columns, each within +-LANE."""
    half = _halves(n)
    return memoryview(((packed + half) ^ half).to_bytes(n, "little")).cast("b")


def form_row(v: PicClass) -> tuple[int, ...]:
    """Plain-dot row representing intersection with v: plain(form_row(v), x) = v.x."""
    return tuple(map(mul, FORM, v.coeffs))


def reflect(a: PicClass, e: PicClass) -> PicClass:
    """Reflection a + (a.e)e in a root e; requires e.e = -2."""
    if e.square != -2:
        raise LatticeError(f"reflection class must have square -2, got {e.square}")
    n = a.dot(e)
    return PicClass(tuple(x + n * y for x, y in zip(a.coeffs, e.coeffs)))


class Sublattice(NamedTuple):
    """A negative-definite sublattice of K-perp given by an ordered basis."""

    basis: tuple[PicClass, ...]
    gram: tuple[tuple[int, ...], ...]

    @classmethod
    def span(cls, vectors: tuple[PicClass, ...] | list[PicClass]) -> "Sublattice":
        basis = tuple(vectors)
        for b in basis:
            if b.dot(K) != 0:
                raise LatticeError(f"basis vector {b} is not orthogonal to K")
        gram = tuple(tuple(a.dot(b) for b in basis) for a in basis)
        if basis:
            # Positive-definiteness of -gram doubles as an independence check.
            _ldl([[-x for x in row] for row in gram])
        return cls(basis, gram)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def from_coordinates(self, coords: tuple[int, ...]) -> PicClass:
        total = [0] * RANK
        for n, b in zip(coords, self.basis):
            for i, c in enumerate(b.coeffs):
                total[i] += n * c
        return PicClass(tuple(total))

    def pic_coordinates(self, coords: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """The coefficient tuples of `from_coordinates` for a whole list in one pass:
        each coordinate column is packed once (`pack_lanes`), and each ambient
        column is rank multiply-adds of them.  Lane j of a vector holds at most
        sum_i max|x_i| * |b_ij|; a bound past LANE raises instead of wrapping."""
        n = len(coords)
        if not (n and self.basis):
            return [ZERO.coeffs] * n
        xs = list(zip(*coords))
        tops = [max(max(x), -min(x)) for x in xs]
        columns = list(zip(*(b.coeffs for b in self.basis)))
        bound = max(sum(map(mul, tops, map(abs, c))) for c in columns)
        if bound > LANE:
            raise LatticeError(f"lane bound {bound} exceeds {LANE}")
        packed = list(map(pack_lanes, xs))
        return list(zip(*(unpack_lanes(sum(map(mul, c, packed)), n) for c in columns)))

    def coordinates_of(self, x: PicClass) -> tuple[int, ...]:
        """Integer coordinates of x in this basis; raises if x is outside the span.
        The basis is independent, so the integer relations among b_1..b_r and x
        are the multiples of one primitive (n, m): x is in the span iff m = +-1,
        and then x = -m * sum n_i b_i."""
        relations = integer_kernel(list(zip(*(b.coeffs for b in self.basis), x.coeffs)), self.rank + 1)
        if not relations:
            raise LatticeError(f"{x} is not in the span of the given basis")
        *n, m = relations[0]
        if abs(m) != 1:
            raise LatticeError(f"{x} has non-integral coordinates in the given basis")
        return tuple(-m * a for a in n)


def _ldl(q: list[list[int]]) -> list[list[int]]:
    """Fraction-free (Bareiss) LDL of a positive-definite integer matrix: row i
    holds, from column i on, the a_ij of row i when it becomes the pivot row.  The
    pivots a_ii = D_{i+1} are the leading principal minors, and with D_0 = 1

        Q(x) = sum_i s_i^2 / (D_i D_{i+1}),  s_i = D_{i+1} x_i + sum_{j>i} a_ij x_j.

    Each division by the previous pivot is exact (Sylvester's identity).  Raises
    LatticeError on any non-positive pivot (matrix not positive definite,
    equivalently the original gram not negative definite or basis dependent).
    """
    a = [list(row) for row in q]
    k, prev = len(a), 1
    for i, row in enumerate(a):
        p = row[i]
        if p <= 0:
            raise LatticeError("matrix is not positive definite")
        for r in range(i + 1, k):
            ar, m = a[r], row[r]
            for c in range(r, k):
                ar[c] = (p * ar[c] - m * row[c]) // prev
        prev = p
    return a


def enumerate_coordinates(lat: Sublattice, norm: int) -> list[tuple[int, ...]]:
    """All integer coordinate tuples x with (sum x_i b_i)^2 = norm, in lex order.
    The search reads only the gram and the norm, so it runs once per (gram, norm);
    the depth cap is checked on every call, and each call gets a fresh list."""
    if norm >= 0:
        raise LatticeError(f"enumeration requires a negative norm, got {norm}")
    k = lat.rank
    if k == 0:
        return []
    cap = os.environ.get(ENUM_DEPTH_ENV)
    if cap is not None and k > int(cap):
        raise EnumerationDepthError(f"rank {k} exceeds {ENUM_DEPTH_ENV}={cap}")
    return list(_search(lat.gram, norm))


@lru_cache(maxsize=None)
def _search(gram: tuple[tuple[int, ...], ...], norm: int) -> tuple[tuple[int, ...], ...]:
    """Bounded recursive search on the negated (positive-definite) gram matrix with
    completed-square bounds (Fincke-Pohst), on integers only.  The rows of `_ldl`
    give Q(x) * scale = sum_i w_i s_i^2 with w_i = scale / (D_i D_{i+1}) and
    scale the lcm of those denominators."""
    k = len(gram)
    rows = _ldl([[-x for x in row] for row in gram])
    minors = [1] + [row[i] for i, row in enumerate(rows)]
    dens = list(map(mul, minors, minors[1:]))  # D_i D_{i+1}
    scale = lcm(*dens)
    w = [scale // d for d in dens]
    found: list[tuple[int, ...]] = []
    x = [0] * k

    def descend(i: int, budget: int) -> None:
        row, wi = rows[i], w[i]
        di = row[i]
        c = sum(row[j] * x[j] for j in range(i + 1, k))
        # w s^2 <= budget  <=>  |s| <= isqrt(budget // w), with s = di*xi + c.
        r = isqrt(budget // wi)
        for xi in range(-((c + r) // di), (r - c) // di + 1):
            s = di * xi + c
            rest = budget - wi * s * s
            x[i] = xi
            if i == 0:
                if rest == 0:
                    found.append(tuple(x))
            else:
                descend(i - 1, rest)
        x[i] = 0

    descend(k - 1, scale * -norm)
    return tuple(sorted(found))


def enumerate_vectors(lat: Sublattice, norm: int) -> list[PicClass]:
    """All v in the integer span of lat.basis with v.v = norm, in ambient coordinates.

    Deterministic: ordered lexicographically by basis coordinates.  A list past
    the lane bound of `pic_coordinates` is converted one vector at a time.
    """
    coords = enumerate_coordinates(lat, norm)
    try:
        return list(map(PicClass, lat.pic_coordinates(coords)))
    except LatticeError:
        return [lat.from_coordinates(c) for c in coords]


def integer_kernel(rows: list[tuple[int, ...]], width: int) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel {x in Z^width : row.x' = 0 for all rows}.

    Here row.x' is the plain dot product of coefficient rows with x.  Row
    reduction of [A^T | I] over Z; the rows whose A^T-part vanishes carry a
    basis of the kernel lattice.
    """
    m = len(rows)
    work = [[rows[j][i] for j in range(m)] + [1 if c == i else 0 for c in range(width)]
            for i in range(width)]
    r = 0
    for col in range(m):
        while True:
            nz = [i for i in range(r, width) if work[i][col] != 0]
            if not nz:
                break
            if len(nz) == 1:
                work[r], work[nz[0]] = work[nz[0]], work[r]
                r += 1
                break
            i0 = min(nz, key=lambda i: (abs(work[i][col]), i))
            for i in nz:
                if i != i0:
                    q = work[i][col] // work[i0][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[i0])]
    return [tuple(row[m:]) for row in work[r:]]
