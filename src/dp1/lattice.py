"""Exact arithmetic in the Picard lattice Z^{1,8} of a degree-1 del Pezzo surface.

Divisor classes are integer 9-tuples in the ordered basis (h, l1, ..., l8)
with the diagonal intersection form h.h = +1, li.li = -1.  Everything here is
integer or Fraction arithmetic; no floats enter any decision.  Fractions appear
only in the once-per-gram LDL (and `_search`'s scaling of it to integers): the
short-vector search and the coordinate solves run on integers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import add, mul, neg, sub

RANK = 9
FORM = (1,) + (-1,) * (RANK - 1)  # the diagonal intersection form on (h, l1, ..., l8)
LANE = 127  # the largest |value| a signed byte lane of `pack_lanes` holds

ENUM_DEPTH_ENV = "DP1_MAX_ENUM_DEPTH"


class LatticeError(ValueError):
    """Raised when a lattice-level precondition is violated."""


class EnumerationDepthError(LatticeError):
    """Raised when an enumeration exceeds the DP1_MAX_ENUM_DEPTH cap."""


@dataclass(frozen=True, slots=True)
class PicClass:
    """A divisor class, stored as plain coordinates (c0; c1..c8)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != RANK or not all(map(int.__instancecheck__, self.coeffs)):
            raise LatticeError(f"expected {RANK} integer coordinates, got {self.coeffs!r}")

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


@dataclass(frozen=True)
class Sublattice:
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


def _ldl(q: list[list[Fraction | int]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact LDL data of a positive-definite matrix: Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2.

    Raises LatticeError on any non-positive pivot (matrix not positive definite,
    equivalently the original gram not negative definite or basis dependent).
    """
    k = len(q)
    a = [[Fraction(q[i][j]) for j in range(k)] for i in range(k)]
    d: list[Fraction] = []
    u = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        piv = a[i][i]
        if piv <= 0:
            raise LatticeError("matrix is not positive definite")
        d.append(piv)
        for j in range(i + 1, k):
            u[i][j] = a[i][j] / piv
        for r in range(i + 1, k):
            for c in range(r, k):
                a[r][c] -= a[i][r] * a[i][c] / piv
    return d, u


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
    completed-square bounds (Fincke-Pohst).  The exact LDL data is scaled once to
    integers, Q(x) * scale = sum_i w_i s_i^2 with s_i = den_i x_i + sum_{j>i} U_ij x_j,
    so the search itself is integer-only."""
    k = len(gram)
    d, u = _ldl([[-x for x in row] for row in gram])
    den = [lcm(*(u[i][j].denominator for j in range(i + 1, k))) for i in range(k)]
    big_u = [[int(u[i][j] * den[i]) for j in range(k)] for i in range(k)]
    w_frac = [d[i] / den[i] ** 2 for i in range(k)]
    scale = lcm(*(f.denominator for f in w_frac))
    w = [int(f * scale) for f in w_frac]
    found: list[tuple[int, ...]] = []
    x = [0] * k

    def descend(i: int, budget: int) -> None:
        row, di, wi = big_u[i], den[i], w[i]
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
