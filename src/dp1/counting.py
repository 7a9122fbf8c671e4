"""Degree-2 class sets, their signed sums, and the tabulated counts.

For each deformation class the candidate classes of canonical degree 2 split
into strata B^0 = {-2K}, B^2 = {-2K-e : e a root of the class lattice} and
B^4 = {-2K-v : v.v = -4}.  Each class carries the Z/4 value of its stratum
vector; signed sums weight classes by i^q in {+1, -1} (odd values never occur
here and are a hard error).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import attrgetter
from typing import Callable, NamedTuple

from . import golden
from .lattice import MINUS_2K, ZERO, LatticeError, PicClass, Sublattice, enumerate_coordinates
from .pin import code_coordinates, qhat_code, qhat_from_coordinates
from .real_forms import DeformationClass, bertini_dual, get_class, lambda_basis
from .roots import lex_positive


class BClass(NamedTuple):
    """A degree-2 candidate class alpha = -2K - v with its quadratic value."""

    stratum: int  # 0, 2 or 4: the negated square of v
    v: PicClass
    alpha: PicClass
    qhat: int


def twist(c: DeformationClass) -> tuple[int, ...]:
    """The class's q as data: t_i = q(b_i) - b_i.b_i on its simple roots, read off
    its blowup-model code, or 2 each where q vanishes on them."""
    basis = lambda_basis(c.id).basis
    if c.code is None:
        return (2,) * len(basis)
    return tuple(qhat_code(c.code, b) - b.square for b in basis)


@lru_cache(maxsize=None)
def b_classes_cached(class_id: str, k: int) -> tuple[BClass, ...]:
    c = get_class(class_id)
    if k == 0:
        return (BClass(0, ZERO, MINUS_2K, 0),)
    lat = lambda_basis(class_id)
    if lat.rank == 0:
        return ()
    t = twist(c)
    coords = enumerate_coordinates(lat, -2 * k)
    return tuple(BClass(2 * k, v, MINUS_2K - v, qhat_from_coordinates(x, -2 * k, t))
                 for x, v in zip(coords, map(PicClass, lat.pic_coordinates(coords))))


def b_classes(c: DeformationClass, k: int) -> tuple[BClass, ...]:
    """The stratum B^{2k} of the class, k in {0, 1, 2}, with quadratic values filled."""
    if k not in (0, 1, 2):
        raise LatticeError(f"stratum index must be 0, 1 or 2, got {k}")
    return b_classes_cached(c.id, k)


def sign_of(qhat: int) -> int:
    if qhat % 2:
        raise LatticeError(f"odd quadratic value {qhat} on a degree-2 class")
    return 1 if qhat % 4 == 0 else -1


def signed_sum(c: DeformationClass, k: int) -> int:
    """Sum of i^q over B^{2k}; exact integer (only even values occur)."""
    return sum(sign_of(b.qhat) for b in b_classes(c, k))


def lattice_signed_sum(lat: Sublattice, k: int, twist: tuple[int, ...]) -> int:
    """Sum of i^q over the vectors of square -2k in lat, q given by a twist on its basis."""
    return sum(sign_of(qhat_from_coordinates(t, -2 * k, twist))
               for t in enumerate_coordinates(lat, -2 * k))


def c4_total(c: DeformationClass) -> int:
    return signed_sum(c, 2)


def c2_total(c: DeformationClass) -> int:
    """Signed genus-1 count: the root sum 2r times the cited Euler input chi - 1."""
    return signed_sum(c, 1) * (c.euler_char - 1)


def c0_total(c: DeformationClass) -> int:
    """Cited closed form for the base stratum count; not derived by enumeration."""
    return golden.ROW_FORMS["c0"](c.rank)


def signed_total(c: DeformationClass) -> int:
    """Full signed count over all three strata; class-independent (always 30)."""
    return c0_total(c) + c2_total(c) + c4_total(c)


def pair_signed_total(c: DeformationClass) -> int:
    """Signed count over a Bertini pair with doubled B^4 weights; always 96."""
    d = bertini_dual(c)
    return (c2_total(c) + 2 * c4_total(c)) + (c2_total(d) + 2 * c4_total(d))


class TableRow(NamedTuple):
    """One coefficient-type row of a classification table, in golden row order."""

    level: int
    signature: tuple[int, ...]  # real exceptional coefficients, descending
    pair_coeff: int | None  # the imaginary pair's coefficient, on r = 1 codes only
    count: int
    qhat: int

    @property
    def bilevel(self) -> tuple[int, int] | None:
        """(level mod 2, number of odd real coefficients) where the row has a pair
        column; the bi-level rule reads q = their sum mod 4."""
        if self.pair_coeff is None:
            return None
        return self.level % 2, sum(s % 2 for s in self.signature)


def _table_rows(c: DeformationClass, k: int, read: Callable[[BClass], PicClass]) -> list[TableRow]:
    """Rows by (level, signature, pair, q) of the code coordinates of read(b) over
    B^{2k}: a q that varies on a coefficient type gives that type one row per value."""
    code = c.code
    if code is None:
        raise LatticeError(f"{c.id} has no blowup-model code")
    n_real, has_pair = code.n_real, code.r == 1
    counts: Counter = Counter()
    for b in b_classes(c, k):
        x = code_coordinates(code, read(b))
        sig = tuple(sorted(x[1 : n_real + 1], reverse=True))
        counts[x[0], sig, x[n_real + 1] if has_pair else None, b.qhat] += 1
    rows = [TableRow(level, sig, pair, count, q) for (level, sig, pair, q), count in counts.items()]
    rows.sort(key=lambda t: (t.level, tuple(-s for s in t.signature), -(t.pair_coeff or 0), t.qhat))
    return rows


def classify_roots(c: DeformationClass) -> list[TableRow]:
    """Root table of a code class: rows by (level, type), roots folded by sign."""
    return _table_rows(c, 1, lambda b: b.v if lex_positive(b.v) else -b.v)


def count_report(c: DeformationClass) -> tuple[list[list[int]], list[list[int]]]:
    """Row totals of a code class: [count, signed sum] of B^2 and of B^4, once from
    the strata and once from the classify_levels rows.  Not a verify record: the
    rows partition the same strata, so the two halves agree whatever q is."""
    strata = [[len(b_classes(c, k)), signed_sum(c, k)] for k in (1, 2)]
    by_rows = [[sum(r.count for r in rows), sum(r.count * sign_of(r.qhat) for r in rows)]
               for rows in (classify_levels(c, 1), classify_levels(c, 2))]
    return strata, by_rows


def classify_levels(c: DeformationClass, k: int) -> list[TableRow]:
    """Level/bi-level rows of B^{2k} for a code class."""
    if k not in (1, 2):
        raise LatticeError(f"stratum index must be 1 or 2, got {k}")
    return _table_rows(c, k, attrgetter("alpha"))
