"""Lattice-level wall-crossing checks: limit splittings, orthogonal-root sums,
reflection pairing, and the per-degeneration balance table.

A nodal degeneration contributes a root E of the class lattice with q(E) = 0.
Curves limit onto D + rE, cut out by the filters of the degeneration analysis.
With t = v.E they read only D.E = 2r - t, D.(-K-E) = 2 + t - 2r, and D.D and
(-2K-D)^2, the stratum's alpha.alpha and v.v plus 2rt - 2r^2: the splittings
are one table of (stratum, t), with |t| <= 2 by Cauchy-Schwarz, frozen as
`golden.SPLITTING_TABLE`, and `splitting_summaries` runs one class per key.
Classes pairing off under the reflection in E cancel and classes orthogonal to
E sum to rank-linear values; `delta_table` counts both at one root.

The reflection facts belong to the class, not to E: `q_index_cached` checks on
the class's simple roots b that B^2 and B^4 are closed under s_b with q(s_b v) =
q(v) + (v.b)(q(b) + 2) mod 4, on the search's coordinates, where s_b moves one.
The simple reflections generate the Weyl group and every root is conjugate to a
simple one, so this is the law for every root E; for q(E) = 0 it shifts q by 2
iff |v.E| = 1.
"""

from __future__ import annotations

from functools import lru_cache
from operator import ne
from typing import NamedTuple

from . import golden
from .lattice import FORM, MINUS_K, MINUS_2K, Column, Columns, LatticeError, PicClass
from .counting import alpha_of, b_classes, sign_of
from .pin import MOD4
from .real_forms import DeformationClass, bertini_dual, get_class, lambda_basis

MAX_MULTIPLICITY = 4  # proofs bound r by 2; searching further verifies the bound

# Byte lanes of the wall-crossing kernel (see _pairing_lanes).
BIAS, NEG = 64, 128
SIGN_LANES = bytes(0 if q % 2 else BIAS + NEG * (q % 4 == 2) for q in range(256))  # 0: odd q
LEGAL = bytes(BIAS + sign + t for sign in (0, NEG) for t in range(-2, 3))  # the lanes with |v.E| <= 2
UNSIGNED = bytes(x % NEG for x in range(256))  # a lane's BIAS + v.E, without q's sign bit
FOLD = bytes(x + 2 * (x % NEG == BIAS - 1) for x in range(256))  # the lanes at v.E = -1 onto +1

# d22 = 2(chi - 1) is the cited Euler input in every class, with or without a vanishing root.
CITED_FIELDS = ("d22",)


@lru_cache(maxsize=None)
def vanishing_roots_cached(class_id: str) -> tuple[PicClass, ...]:
    s = b_classes(get_class(class_id), 1)
    return tuple(PicClass(v) for v, q in zip(s.vs, s.qs) if q == 0)


@lru_cache(maxsize=None)
def q_index_cached(class_id: str) -> dict[tuple[int, ...], int]:
    """{v: q} of the B^2 stratum vectors of the class, after checking on every simple
    root b_i that B^2 and B^4 are closed under s_i(v) = v + (v.b_i)b_i with q(s_i v) =
    q(v) + (v.b_i)(q(b_i) + 2) mod 4.  The check reads each stratum's search
    coordinates x over the simple roots (`Stratum.xs`), whose keys (`_keys`) name
    their vectors and must be distinct: s_i is injective, so the n images are the n
    classes.  s_i moves x_i alone, by t = v.b_i off the Cartan row of b_i, so one
    packed pass per (b_i, stratum) forms t, the predicted q and the image column
    x_i + t by `Columns.combine`, looks each image's q up by its key, and names the
    first class whose image is missing or whose q differs."""
    lat, strata = lambda_basis(class_id), [b_classes(get_class(class_id), k) for k in (1, 2)]
    q_of = dict(zip(strata[0].vs, strata[0].qs))
    packs = []
    for s in strata:
        xs, name = s.xs, f"B^{2 * s.k} of {class_id}"
        own = dict(zip(_keys(xs, xs.cols), s.qs))
        if len(own) < xs.n:
            raise LatticeError(f"{name} lists a class twice")
        packs.append((s.vs, xs, Columns.pack(xs.n, [s.qs]).cols[0], own, f"a reflection of {name}"))
    for i, (b, row) in enumerate(zip(lat.basis, lat.gram)):
        q_b = q_of.get(b.coeffs)
        if q_b is None:
            raise LatticeError(f"simple root {b} is missing from B^2 of {class_id}")
        for vs, xs, qs, own, what in packs:
            t = xs.combine(zip(row, xs.cols), what)
            q_images = xs.combine(((1, qs), ((q_b + 2) % 4, t)), what)
            want = list(bytes(xs.lanes(q_images.packed)).translate(MOD4))
            images = list(xs.cols)
            images[i] = xs.combine(((1, images[i]), (1, t)), what)
            got = list(map(own.get, _keys(xs, images)))
            if got != want:
                j = list(map(ne, got, want)).index(True)
                v = PicClass(vs[j])
                raise LatticeError(f"reflection left the stratum: {v} by {b}" if got[j] is None
                                   else f"reflection law failed at {v} by {b}")
    return q_of


def _keys(cols: Columns, images: list[Column]) -> memoryview:
    # The coordinate lanes of n vectors, given as at most 8 packed columns, as one 64-bit int each.
    rows = bytearray(8 * cols.n)
    for j, col in enumerate(images):
        rows[j::8] = cols.lanes(col.packed)
    return memoryview(rows).cast("q")


@lru_cache(maxsize=None)
def packed_stratum(class_id: str, k: int) -> tuple[int, int, tuple[int, ...]]:
    """(size, base, columns) of B^{2k} of the class, one byte lane per class in stratum
    order: base, one translate of the q bytes, holds BIAS plus NEG where q = 2 mod 4
    (`sign_of` names the first odd q); sum_j x_j columns_j packs every v.x at once."""
    s = b_classes(get_class(class_id), k)
    lanes = bytes(s.qs).translate(SIGN_LANES)
    if 0 in lanes:
        sign_of(s.qs[lanes.index(0)])
    columns = tuple(f * x for f, (x, _) in zip(FORM, s.columns.cols))  # FORM_j times packed column j
    return len(s.vs), int.from_bytes(lanes, "little"), columns


def _pairing_lanes(c: DeformationClass, e: PicClass, k: int) -> bytes:
    """The wall-crossing kernel: one byte per class of B^{2k} in stratum order,
    BIAS + v.E plus NEG where q(v) = 2 mod 4, read off base + sum_j E_j * column_j
    of `packed_stratum` (zero coefficients of E skipped).  The lattice is negative
    definite, so (v.E)^2 <= (v.v)(E.E) <= 8: no lane carries, and a stratum whose
    lanes are not all among the ten values with |v.E| <= 2 raises."""
    n, acc, columns = packed_stratum(c.id, k)
    for x, column in zip(e.coeffs, columns):
        if x:
            acc += x * column
    # The mask keeps a carry or borrow past the top lane in it, for the translate to catch.
    lanes = (acc & ((1 << 8 * n) - 1)).to_bytes(n, "little")
    n = len(lanes.translate(None, LEGAL))
    if n:
        raise LatticeError(f"{n} classes of B^{2 * k} of {c.id} have |v.E| > 2 for {e}")
    return lanes


def vanishing_roots(c: DeformationClass) -> tuple[PicClass, ...]:
    """All roots of the class lattice with vanishing quadratic value."""
    return vanishing_roots_cached(c.id)


def splitting_witnesses(c: DeformationClass, e: PicClass) -> dict[tuple[int, int], tuple[int, ...]]:
    """{(stratum, v.E): v}, v the first class of each key in stratum order: the
    first lane of each v.E value among `_pairing_lanes` at E."""
    witnesses = {}
    for k in (0, 1, 2):
        values, vs = _pairing_lanes(c, e, k).translate(UNSIGNED), b_classes(c, k).vs
        firsts = sorted((i, t) for t in range(-2, 3) if (i := values.find(BIAS + t)) >= 0)
        witnesses.update(((2 * k, t), vs[i]) for i, t in firsts)
    return witnesses


def splitting_summaries(c: DeformationClass) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """{(stratum, v.E): `splittings`} at the class's first vanishing root E, each key
    run on the alpha of its `splitting_witnesses` class: golden.SPLITTING_TABLE's layout."""
    e = vanishing_roots(c)[0]
    return {key: tuple(splittings(PicClass(alpha_of(v)), e))
            for key, v in splitting_witnesses(c, e).items()}


def splittings(alpha: PicClass, e: PicClass) -> list[tuple[int, int, int, int]]:
    """Admissible splittings alpha = D + r*E for r >= 1, as the rows (r, stratum of
    D, D.D, D.E) of golden.SPLITTING_TABLE.  Necessary conditions from the
    degeneration analysis: D.(-K-E) >= 0, D.E >= 1, D.D >= -1, and D must again be
    a degree-2 stratum class (D.D in {4, 2, 0}, the last forcing the deepest stratum)."""
    cases = []
    for r in range(1, MAX_MULTIPLICITY + 1):
        d = alpha - r * e
        if d.dot(MINUS_K - e) < 0 or d.dot(e) < 1 or d.square < -1:
            continue
        stratum = {0: 0, -2: 2, -4: 4}.get((MINUS_2K - d).square)
        if stratum is not None:
            cases.append((r, stratum, d.square, d.dot(e)))
    return cases


class DeltaTable(NamedTuple):
    """The five signed edge-count differences of one degeneration, in
    golden.TABLE7 row order."""

    d41: int
    d42: int
    d20: int
    d21: int
    d22: int

    @property
    def orth(self) -> int:
        """The orthogonal-root sum behind d42 and d20; always 2(r - 1)."""
        return self.d42 // 2

    @property
    def balance(self) -> int:
        """Doubled deep-stratum delta plus the genus-one deltas; always 12."""
        return 2 * self.d42 + self.d20 + self.d22


def delta_table(c: DeformationClass, e: PicClass) -> DeltaTable:
    """The wall-crossing sums at one root E, off the `_pairing_lanes` of B^2 and B^4.
    E must be in the B^2 index of `q_index_cached` (a root of the class lattice)
    with q(E) = 0; stratum closure and the reflection law are checked there, once
    per class.  The classes with |v.E| = 1 pair off under the reflection with q
    shifted by 2, so d21 = d41 = 0; the orthogonal sum over roots with v.E = 0 is
    2(r-1); d22 = 2(chi - 1) is the cited Euler input."""
    q_e = q_index_cached(c.id).get(e.coeffs)
    if q_e is None:
        raise LatticeError(f"{e} is not a root of the {c.id} class lattice")
    if q_e != 0:
        raise LatticeError(f"{e} has nonzero quadratic value")
    b2, b4 = (_pairing_lanes(c, e, k).translate(FOLD) for k in (1, 2))
    orth, d21, d41 = (lanes.count(BIAS + t) - lanes.count(BIAS + NEG + t)
                      for lanes, t in ((b2, 0), (b2, 1), (b4, 1)))
    return DeltaTable(d41, 2 * orth, -2 * orth, d21, 2 * (c.euler_char - 1))


def delta_expected(c: DeformationClass) -> tuple[int, int, int, int, int]:
    """The golden.TABLE7 formulas evaluated at this class's rank and its dual's."""
    return tuple(formula(c.rank, bertini_dual(c).rank) for _, _, formula in golden.TABLE7)
