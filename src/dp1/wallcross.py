"""Lattice-level wall-crossing checks: limit splittings, orthogonal-root sums,
reflection pairing, and the per-degeneration balance table, all computed by
the one kernel `delta_table`.

A nodal degeneration contributes a root E of the class lattice with q(E) = 0.
Curves limit onto D + rE; the admissible (r, D) are cut out by the numeric
filters extracted from the degeneration analysis and reproduce fixed small
tables as a function of (stratum, v.E).  Classes pairing off under the
reflection in E cancel; classes orthogonal to E aggregate to rank-linear sums.

The reflection facts belong to the class, not to E, and `q_index_cached` checks
them once on the class's simple roots b: each stratum is closed under s_b and
q(s_b v) = q(v) + (v.b)(q(b) + 2) mod 4.  The simple reflections generate the
Weyl group and every root is conjugate to a simple one, so this is the same law
for every root E; for q(E) = 0 it shifts q by 2 exactly when |v.E| = 1.
`delta_table` keeps only the per-root work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import golden
from .lattice import MINUS_K, MINUS_2K, LatticeError, PicClass, dot_tuples
from .counting import BClass, b_classes, sign_of
from .real_forms import DeformationClass, get_class, lambda_basis


@dataclass(frozen=True)
class SplittingCase:
    """One admissible limit splitting alpha = D + r*E."""

    r: int
    d: PicClass
    d_square: int
    d_dot_e: int
    d_stratum: int  # stratum of D: 0, 2 or 4

    @property
    def summary(self) -> tuple[int, int, int, int]:
        return (self.r, self.d_stratum, self.d_square, self.d_dot_e)


# The admissible splittings as a function of (stratum of alpha, v.E):
# tuples (r, stratum of D, D.D, D.E).
SPLITTING_TABLE: dict[tuple[int, int], tuple[tuple[int, int, int, int], ...]] = {
    (0, 0): ((1, 2, 2, 2),),
    (2, 1): ((1, 2, 2, 1),),
    (2, 0): ((1, 4, 0, 2),),
    (2, 2): ((2, 2, 2, 2),),
    (2, -1): (),
    (2, -2): (),
    (4, 1): ((1, 4, 0, 1),),
    (4, 2): ((2, 4, 0, 2),),
    (4, 0): (),
    (4, -1): (),
    (4, -2): (),
}

MAX_MULTIPLICITY = 4  # proofs bound r by 2; searching further verifies the bound

# The DeltaTable field behind each golden.TABLE7 row, in that order.
DELTA_FIELDS = ("d41", "d42", "d20", "d21", "d22")


@lru_cache(maxsize=None)
def vanishing_roots_cached(class_id: str) -> tuple[PicClass, ...]:
    return tuple(b.v for b in b_classes(get_class(class_id), 1) if b.qhat == 0)


@lru_cache(maxsize=None)
def q_index_cached(class_id: str) -> tuple[dict[tuple[int, ...], int], ...]:
    """{v: q} of the B^0, B^2 and B^4 stratum vectors of the class, after checking
    on every simple root b that s_b(v) = v + (v.b)b stays in v's stratum with
    q(s_b v) = q(v) + (v.b)(q(b) + 2) mod 4."""
    c = get_class(class_id)
    q_of = tuple({b.v.coeffs: b.qhat for b in b_classes(c, k)} for k in (0, 1, 2))
    for b in lambda_basis(class_id).basis:
        bc = b.coeffs
        q_b = q_of[1].get(bc)
        if q_b is None:
            raise LatticeError(f"simple root {b} is missing from B^2 of {class_id}")
        for by_v in q_of:
            for vc, q in by_v.items():
                t = dot_tuples(vc, bc)
                q_image = by_v.get(tuple(x + t * y for x, y in zip(vc, bc)))
                if q_image is None:
                    raise LatticeError(f"reflection left the stratum: {PicClass(vc)} by {b}")
                if q_image != (q + t * (q_b + 2)) % 4:
                    raise LatticeError(f"reflection law failed at {PicClass(vc)} by {b}")
    return q_of


def vanishing_roots(c: DeformationClass) -> tuple[PicClass, ...]:
    """All roots of the class lattice with vanishing quadratic value."""
    return vanishing_roots_cached(c.id)


def splittings(alpha: BClass, e: PicClass) -> list[SplittingCase]:
    """Admissible splittings alpha = D + r*E for r >= 1.

    Necessary conditions from the degeneration analysis: D.(-K-E) >= 0,
    D.E >= 1, D.D >= -1, and D must again be a degree-2 stratum class
    (D.D in {4, 2, 0}, the last forcing the deepest stratum).
    """
    cases = []
    for r in range(1, MAX_MULTIPLICITY + 1):
        d = alpha.alpha - r * e
        if d.dot(MINUS_K - e) < 0:
            continue
        de = d.dot(e)
        if de < 1:
            continue
        dsq = d.square
        if dsq < -1:
            continue
        w = MINUS_2K - d
        stratum = {0: 0, -2: 2, -4: 4}.get(w.square)
        if stratum is None:
            continue
        cases.append(SplittingCase(r, d, dsq, de, stratum))
    return cases


@dataclass(frozen=True)
class DeltaTable:
    """The five signed edge-count differences of one degeneration, with the
    orthogonal-root sum behind d42/d20 and the count of (stratum, v.E) keys
    whose limit splittings disagree with SPLITTING_TABLE."""

    d41: int
    d42: int
    d20: int
    d21: int
    d22: int
    orth: int
    split_mismatches: int
    cited: tuple[str, ...] = ("d22",)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return tuple(getattr(self, f) for f in DELTA_FIELDS)

    @property
    def balance(self) -> int:
        """Doubled deep-stratum delta plus the genus-one deltas; always 12."""
        return 2 * self.d42 + self.d20 + self.d22


def delta_table(c: DeformationClass, e: PicClass) -> DeltaTable:
    """The wall-crossing kernel: one pass over B^0, B^2 and B^4 against E.

    E must be in the B^2 index of `q_index_cached` (so a root of the class
    lattice) with q(E) = 0; stratum closure and the reflection law are checked
    there, once per class, and not here.  Each v.E is computed once.  The first class seen for every (stratum, v.E) key has
    its limit splittings checked against SPLITTING_TABLE.  The classes with
    |v.E| = 1 pair off under the reflection with q shifted by 2, so i^q summed
    over them cancels to d21 = d41 = 0.  The orthogonal sum adds i^q over the
    roots with v.E = 0; it equals 2(r-1).  d22 = 2(chi - 1) is the cited Euler input.
    """
    q_e = q_index_cached(c.id)[1].get(e.coeffs)
    if q_e is None:
        raise LatticeError(f"{e} is not a root of the {c.id} class lattice")
    if q_e != 0:
        raise LatticeError(f"{e} has nonzero quadratic value")
    ec = e.coeffs
    seen: set[tuple[int, int]] = set()
    mismatches = orth = 0
    pairing = {2: 0, 4: 0}
    for k in (0, 1, 2):
        for b in b_classes(c, k):
            t = dot_tuples(b.v.coeffs, ec)
            key = (b.stratum, t)
            if key not in seen:
                seen.add(key)
                got = tuple(s.summary for s in splittings(b, e))
                mismatches += got != SPLITTING_TABLE.get(key)
            if abs(t) == 1:
                pairing[b.stratum] += sign_of(b.qhat)
            elif t == 0 and k == 1:
                orth += sign_of(b.qhat)
    return DeltaTable(
        d41=pairing[4],
        d42=2 * orth,
        d20=-2 * orth,
        d21=pairing[2],
        d22=2 * (c.euler_char - 1),
        orth=orth,
        split_mismatches=mismatches,
    )


def delta_expected(c: DeformationClass) -> tuple[int, int, int, int, int]:
    """The golden.TABLE7 formulas evaluated at this class's rank and its dual's."""
    return tuple(formula(c.rank, 8 - c.rank) for _, _, formula in golden.TABLE7)
