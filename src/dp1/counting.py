"""Degree-2 class sets, their signed sums, and the tabulated counts.

For each deformation class the candidate classes of canonical degree 2 split
into strata B^0 = {-2K}, B^2 = {-2K-e : e a root of the class lattice} and
B^4 = {-2K-v : v.v = -4}.  Signed sums weight each class by i^q, q the Z/4 value
of its stratum vector (odd values never occur here and are a hard error).  A
stratum is plain columns (`Stratum`), and no class object is built per vector:
q is evaluated over a whole stratum at once (`pin.qhat_columns`), and alpha =
-2K - v is read off its packed columns (`alpha_columns`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import neg, sub
from typing import Callable, NamedTuple

from . import golden
from .lattice import MINUS_2K, RANK, Columns, LatticeError, enumerate_coordinates
from .pin import code_columns, qhat_code, qhat_columns
from .real_forms import DeformationClass, bertini_dual, get_class, lambda_basis

ORDERED = bytes(range(128, 256)) + bytes(range(128))  # a signed byte lane as value + 128: order kept


class Stratum(NamedTuple):
    """B^{2k} as columns, in search order: each stratum vector v as its coefficient
    9-tuple, with alpha = -2K - v, and its quadratic value q, one byte each.
    `columns` are the coefficient columns of the vs (`lattice.Columns`), and `xs`
    the search's coordinate columns over the simple roots (`Columns`)."""

    k: int
    vs: tuple[tuple[int, ...], ...]
    qs: bytes
    columns: Columns
    xs: Columns


def _pack(vs) -> Columns:
    # The RANK coefficient columns of a list of 9-tuples.
    return Columns.pack(len(vs), list(zip(*vs)) or [()] * RANK)


def twist(c: DeformationClass) -> tuple[int, ...]:
    """The class's q as data: t_i = q(b_i) - b_i.b_i on its simple roots, read off
    its blowup-model code, or 2 each where q vanishes on them."""
    return tuple(2 if c.code is None else qhat_code(c.code, b) - b.square
                 for b in lambda_basis(c.id).basis)


@lru_cache(maxsize=None)
def b_classes_cached(class_id: str, k: int) -> Stratum:
    c, lat = get_class(class_id), lambda_basis(class_id)
    xs, columns = lat.pic_columns(enumerate_coordinates(lat, -2 * k) if k else [(0,) * lat.rank])
    return Stratum(k, tuple(columns.rows()), qhat_columns(xs, -2 * k, twist(c)), columns, xs)


def b_classes(c: DeformationClass, k: int) -> Stratum:
    """The stratum B^{2k} of the class, k in {0, 1, 2}; B^0 is the coordinate row 0."""
    if k not in (0, 1, 2):
        raise LatticeError(f"stratum index must be 0, 1 or 2, got {k}")
    return b_classes_cached(c.id, k)


def sign_of(qhat: int) -> int:
    if qhat % 2:
        raise LatticeError(f"odd quadratic value {qhat} on a degree-2 class")
    return 1 if qhat % 4 == 0 else -1


def signed_sum(c: DeformationClass, k: int, twist: tuple[int, ...] | None = None) -> int:
    """Sum of i^q over B^{2k}, counted per q: an odd q raises, the first one met.
    Given a twist on the class's simple roots, q is read with it off the stratum's
    coordinate columns instead of its stored qs (the cross-model records)."""
    s = b_classes(c, k)
    qs = s.qs if twist is None else qhat_columns(s.xs, -2 * k, twist)
    zeros, twos = qs.count(0), qs.count(2)
    return zeros - twos if zeros + twos == len(qs) else sum(map(sign_of, qs))


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


def _table_rows(c: DeformationClass, k: int, read: Callable[[Stratum], Columns]) -> list[TableRow]:
    """Rows by (level, signature, pair, q) of the code coordinates of the columns
    read(B^{2k}): a q that varies on a coefficient type gives it one row per value.
    Real lanes become bytes u + 128, order kept; each present byte's 0/1 lanes sum
    to its count per vector, so rows are counted over the counts in C and each
    signature is rebuilt from its counts."""
    code = c.code
    if code is None:
        raise LatticeError(f"{c.id} has no blowup-model code")
    s = b_classes(c, k)
    columns = code_columns(code, read(s))
    lanes = columns.unpack()
    real = [bytes(lane).translate(ORDERED) for lane in lanes[1 : code.n_real + 1]]
    marks = bytes(range(255, -1, -1)).translate(None, bytes(range(256)).translate(None, b"".join(real)))
    counts = [sum(int.from_bytes(lane.translate(bytes(m) + b"\1" + bytes(255 - m)), "little")
                  for lane in real).to_bytes(len(s.qs), "little") for m in marks]
    pairs = lanes[-1] if code.r == 1 else [None] * len(s.qs)
    rows = [TableRow(level, sum(((m - 128,) * n for m, n in zip(marks, ns)), ()), pair, count, q)
            for (level, pair, q, *ns), count in Counter(zip(lanes[0], pairs, s.qs, *counts)).items()]
    rows.sort(key=lambda t: (t.level, tuple(-s for s in t.signature), -(t.pair_coeff or 0), t.qhat))
    return rows


def alpha_of(v: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of alpha = -2K - v."""
    return tuple(map(sub, MINUS_2K.coeffs, v))


def alpha_columns(s: Stratum) -> Columns:
    """The RANK coefficient columns of alpha = -2K - v over the stratum: m - column,
    m the coefficient of -2K, each one `Columns.combine`."""
    what, cols = f"an alpha of B^{2 * s.k}", s.columns
    return cols._replace(cols=tuple(cols.combine(((-1, c),), what, m)
                                    for m, c in zip(MINUS_2K.coeffs, cols.cols)))


def classify_roots(c: DeformationClass) -> list[TableRow]:
    """Root table of a code class: rows by (level, type), roots folded by sign (the
    lex-positive of v and -v is the larger tuple)."""
    return _table_rows(c, 1, lambda s: _pack([max(v, tuple(map(neg, v))) for v in s.vs]))


def count_report(c: DeformationClass) -> tuple[list[list[int]], list[list[int]]]:
    """Row totals of a code class: [count, signed sum] of B^2 and of B^4, once from
    the strata and once from the classify_levels rows.  Not a verify record: the
    rows partition the same strata, so the two halves agree whatever q is."""
    strata = [[len(b_classes(c, k).vs), signed_sum(c, k)] for k in (1, 2)]
    by_rows = [[sum(r.count for r in rows), sum(r.count * sign_of(r.qhat) for r in rows)]
               for rows in (classify_levels(c, 1), classify_levels(c, 2))]
    return strata, by_rows


def classify_levels(c: DeformationClass, k: int) -> list[TableRow]:
    """Level/bi-level rows of B^{2k} for a code class."""
    if k not in (1, 2):
        raise LatticeError(f"stratum index must be 1 or 2, got {k}")
    return _table_rows(c, k, alpha_columns)
