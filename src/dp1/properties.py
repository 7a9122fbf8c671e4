"""Seeded randomized property suite.

Every property runs a fixed number of deterministic instances (fixed seed) and
reports instance/failure counts.  The tier-1 suite runs all nine via `run_all`;
`verify` reports only `cremona_compatibility` and `box_scan_oracle`, which no
other record decides."""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from math import isqrt
from operator import mul
from typing import NamedTuple

from . import counting, pin, real_forms
from .lattice import (
    K,
    ZERO,
    PicClass,
    Sublattice,
    enumerate_coordinates,
    enumerate_vectors,
    pic,
    reflect,
)

SEED = 20260810


class PropertyResult(NamedTuple):
    name: str
    instances: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.instances > 0


def _rand_class(rng: random.Random, bound: int = 4) -> PicClass:
    return PicClass(tuple(rng.randrange(-bound, bound + 1) for _ in range(9)))


def _make_real(x: PicClass, r: int) -> PicClass:
    c = list(x.coeffs)
    for i, j in pin.PAIRS[:r]:
        c[j] = c[i]
    return PicClass(tuple(c))


def _all_codes() -> list[pin.Code]:
    codes = []
    for length in (9, 7, 5, 3, 1):
        for combo in itertools.product((1, 3), repeat=length):
            if sum(combo) % 4 == 1:
                codes.append(pin.Code(combo))
    return codes


def quadratic_law_code(n: int, rng: random.Random) -> PropertyResult:
    """q(x+y) = q(x) + q(y) + 2(x.y) mod 4 for both blowup-model codes."""
    fails = 0
    for _ in range(n):
        code = pin.POSITIVE_CODE if rng.random() < 0.5 else pin.NEGATIVE_CODE
        x = _make_real(_rand_class(rng), code.r)
        y = _make_real(_rand_class(rng), code.r)
        lhs = pin.qhat_code(code, x + y)
        rhs = (pin.qhat_code(code, x) + pin.qhat_code(code, y) + 2 * x.dot(y)) % 4
        fails += lhs != rhs
    return PropertyResult("quadratic_law_code", n, fails)


def _vanishing_basis_lattices() -> list[Sublattice]:
    return [real_forms.lambda_basis(c.id)
            for c in real_forms.deformation_classes()
            if c.code is None and c.rank >= 1]


def quadratic_law_basis(n: int, rng: random.Random) -> PropertyResult:
    """The vanishing-basis twist on random span elements: the law, negation and the
    recursive expansion q(u + m*b) = q(u) + q(m*b) + 2 u.(m*b), q(m*b) = (m^2-m)(-2);
    and parity q(x) = x.x mod 2 and negation q(-x) = q(x) for a code on a random class."""
    lattices = _vanishing_basis_lattices()
    fails = 0
    for _ in range(n):
        lat = rng.choice(lattices)
        t = (2,) * lat.rank
        cx = tuple(rng.randrange(-3, 4) for _ in range(lat.rank))
        cy = tuple(rng.randrange(-3, 4) for _ in range(lat.rank))
        x, y = lat.from_coordinates(cx), lat.from_coordinates(cy)
        qx = pin.qhat_from_coordinates(cx, x.square, t)
        qy = pin.qhat_from_coordinates(cy, y.square, t)
        cxy = tuple(a + b for a, b in zip(cx, cy))
        fails += pin.qhat_from_coordinates(cxy, (x + y).square, t) != (qx + qy + 2 * x.dot(y)) % 4
        fails += (qx - x.square) % 2 != 0
        fails += pin.qhat_from_coordinates(tuple(-a for a in cx), x.square, t) != qx
        oracle = 0
        partial = ZERO
        for m, b in zip(cx, lat.basis):
            step = m * b
            oracle = (oracle + (m * m - m) * (-2) + 2 * partial.dot(step)) % 4
            partial = partial + step
        fails += oracle != qx
        code = pin.POSITIVE_CODE if rng.random() < 0.5 else pin.NEGATIVE_CODE
        z = _make_real(_rand_class(rng), code.r)
        qz = pin.qhat_code(code, z)
        fails += (qz - z.square) % 2 != 0 or pin.qhat_code(code, -z) != qz
    return PropertyResult("quadratic_law_basis", n, fails)


def reflection_properties(n: int, rng: random.Random) -> PropertyResult:
    """Reflections are involutive and preserve the intersection form."""
    roots = enumerate_vectors(real_forms.kperp(), -2)
    fails = 0
    for _ in range(n):
        e = rng.choice(roots)
        a, b = _rand_class(rng), _rand_class(rng)
        ra, rb = reflect(a, e), reflect(b, e)
        fails += reflect(ra, e) != a or ra.dot(rb) != a.dot(b)
        if a.dot(e) == 0:
            fails += ra != a
    return PropertyResult("reflection_properties", n, fails)


def minus_k_value_all_codes() -> PropertyResult:
    """q(-K) = 1 for every admissible code (the code-sum relation)."""
    codes = _all_codes()
    fails = sum(pin.qhat_code(code, -K) != 1 for code in codes)
    return PropertyResult("minus_k_value_all_codes", len(codes), fails)


def cremona_compatibility() -> PropertyResult:
    """A Cremona move on the code and the matching reflection on classes commute:
    every move on both blowup-model codes, on the simple roots of the code's class
    lattice.  That is enough: qhat_code is x.x plus a linear form mod 4 (the premise
    quadratic_law_code checks), and a reflection s_e is an integral isometry, so
    q_new(s_e x) - q_old(x) is linear mod 4 and vanishes on the lattice iff it
    vanishes on a Z-basis of it."""
    simple = {c.code: real_forms.lambda_basis(c.id).basis
              for c in real_forms.deformation_classes() if c.code is not None}
    moved = [(code, pin.move_root(move), pin.Code(pin.apply_move(code.residues, move)))
             for code in simple for move in pin.moves(code)]
    pairs = [(code, e, new, x) for code, e, new in moved for x in simple[code]]
    fails = sum(pin.qhat_code(new, reflect(x, e)) != pin.qhat_code(code, x) for code, e, new, x in pairs)
    return PropertyResult("cremona_compatibility", len(pairs), fails)


def weyl_images(images: int, rng: random.Random) -> Iterator[tuple[Sublattice, list[Sublattice]]]:
    """Each vanishing-basis class lattice with `images` bases moved by 1-6 root reflections."""
    for lat in _vanishing_basis_lattices():
        roots = enumerate_vectors(lat, -2)
        moved = []
        for _ in range(images):
            basis = list(lat.basis)
            for _ in range(rng.randrange(1, 7)):
                e = rng.choice(roots)
                basis = [reflect(b, e) for b in basis]
            moved.append(Sublattice.span(basis))
        yield lat, moved


def weyl_basis_robustness(images: int, rng: random.Random) -> PropertyResult:
    """Each Weyl word permutes the ambient norm -2 and -4 shells.  A reflection is an
    isometry, so a moved basis keeps its canonical gram and reuses its coordinate
    search: this is no enumerator oracle (box_scan_oracle is that)."""
    def shells(lat: Sublattice) -> list[list[tuple[int, ...]]]:
        return [sorted(lat.pic_coordinates(enumerate_coordinates(lat, norm))) for norm in (-2, -4)]

    checks = fails = 0
    for lat, moved in weyl_images(images, rng):
        want = shells(lat)
        checks += len(moved)
        fails += sum(shells(m) != want for m in moved)
    return PropertyResult("weyl_basis_robustness", checks, fails)


def enumeration_closure() -> PropertyResult:
    """Every B^2 and B^4 vector set is closed under negation.  Closure under the
    reflections is checked per class by wallcross.q_index_cached, on every vector
    and every simple root."""
    checks = fails = 0
    for c in real_forms.deformation_classes():
        for k in (1, 2):
            vs = {b.v.coeffs for b in counting.b_classes(c, k)}
            fails += sum(tuple(-x for x in v) not in vs for v in vs)
            checks += len(vs)
    return PropertyResult("enumeration_closure", checks, fails)


def _det(m: list[list[int]]) -> int:
    """Integer determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]))


def _box_scan(lat: Sublattice, norm: int) -> list[tuple[int, ...]]:
    """Independent oracle: scan the full coordinate box |x_i| <= sqrt(n * (Q^-1)_ii),
    with (Q^-1)_ii = det(Q without row and column i) / det(Q) by Cramer's rule."""
    q = [[-x for x in row] for row in lat.gram]
    n, det_q = -norm, _det(q)
    bounds = [isqrt(n * _det([row[:i] + row[i + 1:] for j, row in enumerate(q) if j != i]) // det_q)
              for i in range(lat.rank)]
    return sorted(x for x in itertools.product(*[range(-b, b + 1) for b in bounds])
                  if sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, lat.gram)) == norm)


def box_scan_oracle() -> PropertyResult:
    """Full box-scan agreement with the recursive enumeration on rank <= 3 lattices."""
    l1, l2, l3, l4 = (pic(0, 1, -1, 0, 0, 0, 0, 0, 0), pic(0, 0, 1, -1, 0, 0, 0, 0, 0),
                      pic(0, 0, 0, 1, -1, 0, 0, 0, 0), pic(0, 0, 0, 0, 0, 1, -1, 0, 0))
    lattices = [
        Sublattice.span([l1]),
        Sublattice.span([l1, l4]),
        Sublattice.span([l1, l2]),           # A2
        Sublattice.span([l1, l2, l3]),       # A3
        Sublattice.span([l1, l3, pic(1, -1, -1, -1, 0, 0, 0, 0, 0)]),
    ]
    checks = fails = 0
    for lat in lattices:
        for norm in (-2, -4, -6, -8):
            checks += 1
            fails += enumerate_coordinates(lat, norm) != _box_scan(lat, norm)
    return PropertyResult("box_scan_oracle", checks, fails)


def alpha_qhat_consistency() -> PropertyResult:
    """For code classes, the ambient code's q(-2K - v) equals the stored q(v),
    which the simple-root twist gave, on every vector of B^2 and B^4."""
    checks = fails = 0
    for c in real_forms.deformation_classes():
        if c.code is None:
            continue
        for k in (1, 2):
            for b in counting.b_classes(c, k):
                checks += 1
                fails += pin.qhat_code(c.code, b.alpha) != b.qhat
    return PropertyResult("alpha_qhat_consistency", checks, fails)


def run_all() -> list[PropertyResult]:
    # Each seeded property draws from its own generator: no verdict hangs on another's draws.
    return [
        quadratic_law_code(1000, random.Random(SEED)),
        quadratic_law_basis(1000, random.Random(SEED)),
        reflection_properties(1000, random.Random(SEED)),
        minus_k_value_all_codes(),
        cremona_compatibility(),
        weyl_basis_robustness(20, random.Random(SEED)),
        enumeration_closure(),
        box_scan_oracle(),
        alpha_qhat_consistency(),
    ]
