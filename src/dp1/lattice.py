"""Exact arithmetic in the Picard lattice Z^{1,8} of a degree-1 del Pezzo surface.

Divisor classes are integer 9-tuples in the ordered basis (h, l1, ..., l8)
with the diagonal intersection form h.h = +1, li.li = -1.  All arithmetic here
is on integers: the LDL is fraction-free (Bareiss), the short-vector search runs
on its rows, and the coordinate solves use `integer_kernel`.  No float enters
any decision.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, lcm
from operator import add, mul, neg, sub
from typing import NamedTuple

RANK = 9
FORM = (1,) + (-1,) * (RANK - 1)  # the diagonal intersection form on (h, l1, ..., l8)
LANE = 127  # the largest |value| a signed byte lane of `Columns` holds
ABS = bytes(min(x, 256 - x) for x in range(256))  # a signed byte lane's |value|
DOWN = bytes(range(LANE + 1, -1, -1))  # every |value| of ABS, largest first


class LatticeError(ValueError):
    """Raised when a lattice-level precondition is violated."""


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


K = pic(-3, 1, 1, 1, 1, 1, 1, 1, 1)
MINUS_K = -K
MINUS_2K = 2 * MINUS_K
ZERO = pic(0, 0, 0, 0, 0, 0, 0, 0, 0)


# A packed column and its top |lane|: read off its lanes, or the bound `combine` checked.
Column = NamedTuple("Column", [("packed", int), ("top", int)])


class Columns(NamedTuple):
    """n integer vectors as packed columns, one byte lane per vector, which add and scale
    lane by lane: the one home of the lane bound.  Each lane is within +-LANE, and
    `combine` forms a sum only where the tops bound it by LANE, so no lane wraps."""

    n: int
    cols: tuple[Column, ...]
    half: int  # 128 in every lane: the bias under which a lane reads as a signed byte

    @classmethod
    def pack(cls, n: int, columns) -> "Columns":
        """The columns of n vectors, given as tuples of n ints: sum_l x_l * 256^l each.
        A value past a signed byte raises."""
        bare = cls(n, (), int.from_bytes(b"\x80" * n, "little"))
        try:
            biased = [bytes(map((LANE + 1).__add__, c)) for c in columns]
        except ValueError:
            raise LatticeError(f"a packed value passes the lane bound {LANE}") from None
        return bare.read([int.from_bytes(x, "little") - bare.half for x in biased])

    def read(self, packed: list[int]) -> "Columns":
        """Packed columns of n lanes each within +-LANE, each top read off its lanes:
        the |values| that DOWN keeps after deleting those absent, largest first."""
        absent = (DOWN.translate(None, bytes(self.lanes(p)).translate(ABS)) for p in packed)
        cols = tuple(Column(p, (DOWN.translate(None, a) or b"\0")[0]) for p, a in zip(packed, absent))
        return Columns(self.n, cols, self.half)

    def lanes(self, packed: int) -> memoryview:
        """The n signed lanes of a column of this list, or of a sum formed by `combine`."""
        return memoryview(((packed + self.half) ^ self.half).to_bytes(self.n, "little")).cast("b")

    def rows(self) -> list[tuple[int, ...]]:
        """The n vectors as tuples: the lanes of every column, read across."""
        return list(zip(*(self.lanes(c.packed) for c in self.cols)))

    def combine(self, terms, what: str, constant: int = 0) -> Column:
        """constant + sum c * column over the (c, column) terms, with its lane bound
        |constant| + sum |c| * top as its top: past LANE a lane could wrap, so it raises
        naming `what`.  A result is a term of the next sum."""
        packed, top = constant and constant * (self.half >> 7), abs(constant)
        for c, (column, bound) in terms:
            if c:
                packed, top = packed + c * column, top + abs(c) * bound
        if top > LANE:
            raise LatticeError(f"{what} may pass the lane bound {LANE}")
        return Column(packed, top)


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

    @property
    def det(self) -> int:
        """det(-gram), the last pivot of its `_ldl`; 1 at rank 0."""
        return _ldl([[-x for x in row] for row in self.gram])[-1][-1] if self.basis else 1

    def from_coordinates(self, coords: tuple[int, ...]) -> PicClass:
        rows = ([n * c for c in b.coeffs] for n, b in zip(coords, self.basis))
        return PicClass(tuple(map(sum, zip([0] * RANK, *rows))))

    def pic_columns(self, coords: list[tuple[int, ...]]) -> tuple[Columns, Columns]:
        """The `Columns` of a whole coordinate list, and those of `from_coordinates`
        over it: each ambient column is the `Columns.combine` of the coordinate
        columns by one coefficient of every basis vector."""
        xs = Columns.pack(len(coords), list(zip(*coords)) or [()] * self.rank)
        ambient = [xs.combine(zip(c, xs.cols), "a coefficient of the list").packed
                   for c in list(zip(*(b.coeffs for b in self.basis))) or [()] * RANK]
        return xs, xs.read(ambient)

    def pic_coordinates(self, coords: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """The coefficient tuples of `from_coordinates` for a whole list: `pic_columns`' rows."""
        return self.pic_columns(coords)[1].rows()

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
    each call gets a fresh list."""
    if norm >= 0:
        raise LatticeError(f"enumeration requires a negative norm, got {norm}")
    return list(_search(lat.gram, norm)) if lat.rank else []


@lru_cache(maxsize=None)
def _search(gram: tuple[tuple[int, ...], ...], norm: int) -> tuple[tuple[int, ...], ...]:
    """Bounded recursive search on the negated (positive-definite) gram matrix with
    completed-square bounds (Fincke-Pohst), on integers only: Q(x) * scale = sum_i
    w_i s_i^2 off the rows of `_ldl`, w_i = scale / (D_i D_{i+1}), scale their lcm.
    The last level solves w_0 s_0^2 = budget in closed form, s_0 = +-r or 0.
    A shell is closed under negation and misses 0: the search walks the x whose top
    nonzero coordinate is positive (`top`: every x_j above x_i is 0), then adds -x."""
    k = len(gram)
    rows = _ldl([[-x for x in row] for row in gram])
    minors = [1] + [row[i] for i, row in enumerate(rows)]
    dens = list(map(mul, minors, minors[1:]))  # D_i D_{i+1}
    scale = lcm(*dens)
    w = [scale // d for d in dens]
    tails = [row[i + 1:] for i, row in enumerate(rows)]
    found: list[tuple[int, ...]] = []
    x = [0] * k

    def descend(i: int, budget: int, top: bool) -> None:
        wi, di = w[i], rows[i][i]
        c = sum(map(mul, tails[i], x[i + 1:]))
        # w s^2 <= budget  <=>  |s| <= isqrt(budget // w), with s = di*xi + c.
        r = isqrt(budget // wi)
        if i == 0:
            if wi * r * r == budget:
                for s in (r,) if top else (r, -r) if r else (0,):
                    x0, rest = divmod(s - c, di)  # x_0 = (s - c) / D_1 where integral
                    if not rest:
                        found.append((x0, *x[1:]))
            return
        for xi in range(0 if top else -((c + r) // di), (r - c) // di + 1):
            s = di * xi + c
            x[i] = xi
            descend(i - 1, budget - wi * s * s, top and not xi)
        x[i] = 0

    descend(k - 1, scale * -norm, True)
    found += [tuple(map(neg, v)) for v in found]
    return tuple(sorted(found))


def enumerate_vectors(lat: Sublattice, norm: int) -> list[PicClass]:
    """All v in the integer span of lat.basis with v.v = norm, in ambient coordinates,
    ordered lexicographically by basis coordinates."""
    return list(map(PicClass, lat.pic_coordinates(enumerate_coordinates(lat, norm))))


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
