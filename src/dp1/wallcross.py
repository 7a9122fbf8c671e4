"""Lattice-level wall-crossing checks: limit splittings, orthogonal-root sums,
reflection pairing, and the per-degeneration balance table, all computed by
the one kernel `delta_table`.

A nodal degeneration contributes a root E of the class lattice with q(E) = 0.
Curves limit onto D + rE; the admissible (r, D) are cut out by the numeric
filters extracted from the degeneration analysis and reproduce fixed small
tables as a function of (stratum, v.E).  Classes pairing off under the
reflection in E cancel; classes orthogonal to E aggregate to rank-linear sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import golden
from .lattice import MINUS_K, MINUS_2K, LatticeError, PicClass, dot_tuples
from .counting import BClass, b_classes, sign_of
from .real_forms import DeformationClass, get_class


@dataclass(frozen=True)
class VanishingRoot:
    """A root of the class lattice on which the quadratic function vanishes."""

    class_id: str
    e: PicClass


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
def vanishing_roots_cached(class_id: str) -> tuple[VanishingRoot, ...]:
    c = get_class(class_id)
    out = []
    for b in b_classes(c, 1):
        if b.qhat == 0:
            out.append(VanishingRoot(class_id, b.v))
    return tuple(out)


@lru_cache(maxsize=None)
def q_index_cached(class_id: str) -> tuple[dict[tuple[int, ...], int], ...]:
    """{v: q} of the B^0, B^2 and B^4 stratum vectors of the class."""
    c = get_class(class_id)
    return tuple({b.v.coeffs: b.qhat for b in b_classes(c, k)} for k in (0, 1, 2))


def vanishing_roots(c: DeformationClass) -> tuple[VanishingRoot, ...]:
    """All roots of the class lattice with vanishing quadratic value."""
    return vanishing_roots_cached(c.id)


def splittings(alpha: BClass, root: VanishingRoot) -> list[SplittingCase]:
    """Admissible splittings alpha = D + r*E for r >= 1.

    Necessary conditions from the degeneration analysis: D.(-K-E) >= 0,
    D.E >= 1, D.D >= -1, and D must again be a degree-2 stratum class
    (D.D in {4, 2, 0}, the last forcing the deepest stratum).
    """
    if alpha.class_id != root.class_id:
        raise LatticeError(f"class mismatch: {alpha.class_id} vs {root.class_id}")
    e = root.e
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


def delta_table(c: DeformationClass, root: VanishingRoot) -> DeltaTable:
    """The wall-crossing kernel: one pass over B^0, B^2 and B^4 against E.

    Each v.E is computed once.  The first class seen for every (stratum, v.E)
    key has its limit splittings checked against SPLITTING_TABLE.  The orthogonal
    sum adds i^q over the roots with v.E = 0; it equals 2(r-1).  The reflection
    in E must keep each stratum, shift q by 2 when |v.E| = 1 (a fixed-point-free
    pairing, so i^q summed over those classes cancels to d21 = d41 = 0) and leave
    q unchanged otherwise.  d22 is the cited Euler input.
    """
    strata = [b_classes(c, k) for k in (0, 1, 2)]
    q_of = q_index_cached(c.id)
    _check_root(c, root, q_of[1])
    ec = root.e.coeffs
    seen: set[tuple[int, int]] = set()
    mismatches = orth = 0
    pairing = {2: 0, 4: 0}
    for k, bs in enumerate(strata):
        by_v = q_of[k]
        for b in bs:
            vc = b.v.coeffs
            t = dot_tuples(vc, ec)
            key = (b.stratum, t)
            if key not in seen:
                seen.add(key)
                got = tuple(s.summary for s in splittings(b, root))
                mismatches += got != SPLITTING_TABLE.get(key)
            q_image = by_v.get(tuple(x + t * y for x, y in zip(vc, ec)))  # v + (v.E)E
            if q_image is None:
                raise LatticeError(f"reflection left the stratum: {b.v} by {root.e}")
            if abs(t) == 1:
                if q_image != (b.qhat + 2) % 4:
                    raise LatticeError(f"pairing shift failed at {b.v}")
                pairing[b.stratum] += sign_of(b.qhat)
            elif q_image != b.qhat:
                raise LatticeError(f"reflection invariance failed at {b.v}")
            elif t == 0 and k == 1:
                orth += sign_of(b.qhat)
    return DeltaTable(
        d41=pairing[4],
        d42=2 * orth,
        d20=-2 * orth,
        d21=pairing[2],
        d22=-2 * (c.rank - (8 - c.rank)),
        orth=orth,
        split_mismatches=mismatches,
    )


def delta_expected(c: DeformationClass) -> tuple[int, int, int, int, int]:
    """The golden.TABLE7 formulas evaluated at this class's rank and its dual's."""
    return tuple(formula(c.rank, 8 - c.rank) for _, _, formula in golden.TABLE7)


def _check_root(c: DeformationClass, root: VanishingRoot,
                root_q: dict[tuple[int, ...], int]) -> None:
    """Reject E unless it is a root of the class lattice with q(E) = 0; root_q maps
    the B^2 stratum vectors (the class lattice's roots) to their q."""
    if root.class_id != c.id:
        raise LatticeError(f"root belongs to {root.class_id}, not {c.id}")
    if root.e.square != -2 or root.e.dot(MINUS_K) != 0:
        raise LatticeError(f"{root.e} is not a root of the degree-0 lattice")
    q = root_q.get(root.e.coeffs)
    if q is None:
        raise LatticeError(f"{root.e} is not a root of the {c.id} class lattice")
    if q != 0:
        raise LatticeError(f"{root.e} has nonzero quadratic value")
