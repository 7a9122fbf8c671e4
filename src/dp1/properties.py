"""Seeded randomized property suite shared by the test suite and the verifier.

Every property runs a fixed number of deterministic instances (fixed seed) and
reports instance/failure counts, so the CLI report and pytest see the same
evidence.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import counting, pin, real_forms
from .lattice import (
    K,
    PicClass,
    Sublattice,
    enumerate_coordinates,
    enumerate_vectors,
    pic,
    reflect,
)

SEED = 20260810


@dataclass(frozen=True)
class PropertyResult:
    name: str
    instances: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.instances > 0


def _rand_class(rng: random.Random, bound: int = 4) -> PicClass:
    return PicClass(tuple(rng.randint(-bound, bound) for _ in range(9)))


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


def quadratic_law_basis(n: int, rng: random.Random) -> PropertyResult:
    """Same law for the vanishing-basis evaluator, on random span elements."""
    lattices = [real_forms.lambda_basis(c.id).sublattice
                for c in real_forms.deformation_classes()
                if c.qhat_model == "basis" and c.rank >= 1]
    fails = 0
    for _ in range(n):
        lat = rng.choice(lattices)
        cx = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        cy = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        x, y = lat.from_coordinates(cx), lat.from_coordinates(cy)
        cxy = tuple(a + b for a, b in zip(cx, cy))
        lhs = pin.qhat_from_coordinates(cxy, (x + y).square)
        rhs = (pin.qhat_from_coordinates(cx, x.square)
               + pin.qhat_from_coordinates(cy, y.square) + 2 * x.dot(y)) % 4
        fails += lhs != rhs
    return PropertyResult("quadratic_law_basis", n, fails)


def parity_and_negation(n: int, rng: random.Random) -> PropertyResult:
    """q(x) = x.x mod 2 and q(-x) = q(x), across both evaluators."""
    fails = 0
    for _ in range(n):
        if rng.random() < 0.5:
            code = pin.POSITIVE_CODE if rng.random() < 0.5 else pin.NEGATIVE_CODE
            x = _make_real(_rand_class(rng), code.r)
            q, qn = pin.qhat_code(code, x), pin.qhat_code(code, -x)
        else:
            lat = real_forms.lambda_basis("M-2-connected").sublattice
            cx = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
            x = lat.from_coordinates(cx)
            q = pin.qhat_from_coordinates(cx, x.square)
            qn = pin.qhat_from_coordinates(tuple(-a for a in cx), x.square)
        fails += (q - x.square) % 2 != 0 or q != qn
    return PropertyResult("parity_and_negation", n, fails)


def vanishing_basis_closed_form(n: int, rng: random.Random) -> PropertyResult:
    """Closed form x.x + 2*sum(coords) equals the recursive quadratic expansion."""
    lattices = [real_forms.lambda_basis(c.id).sublattice
                for c in real_forms.deformation_classes()
                if c.qhat_model == "basis" and c.rank >= 1]
    fails = 0
    for _ in range(n):
        lat = rng.choice(lattices)
        coords = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        x = lat.from_coordinates(coords)
        # Recursive oracle: q(u + n*b) = q(u) + q(n*b) + 2 u.(n*b), q(n*b) = (n^2-n)(-2).
        q = 0
        partial = pic(0, 0, 0, 0, 0, 0, 0, 0, 0)
        for ni, b in zip(coords, lat.basis):
            step = ni * b
            q = (q + (ni * ni - ni) * (-2) + 2 * partial.dot(step)) % 4
            partial = partial + step
        fails += q != pin.qhat_from_coordinates(coords, x.square)
    return PropertyResult("vanishing_basis_closed_form", n, fails)


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
    """A Cremona move on the code and the matching reflection on classes commute.

    Exhaustive over all moves and all roots for both blowup-model codes.
    """
    kp = real_forms.kperp()
    roots8 = enumerate_vectors(kp, -2)
    checks = fails = 0
    code = pin.POSITIVE_CODE
    for i, j, k in itertools.combinations(range(1, 9), 3):
        e = pic(1, *[-1 if t in (i, j, k) else 0 for t in range(1, 9)])
        new = pin.cremona_code(code, i, j, k)
        for x in roots8:
            checks += 1
            fails += pin.qhat_code(new, reflect(x, e)) != pin.qhat_code(code, x)
    e7 = real_forms.lambda_basis("M-1-connected").sublattice
    roots7 = enumerate_vectors(e7, -2)
    code = pin.NEGATIVE_CODE
    for i, j, k in itertools.combinations(range(1, 7), 3):
        e = pic(1, *[-1 if t in (i, j, k) else 0 for t in range(1, 9)])
        new = pin.cremona_code(code, i, j, k)
        for x in roots7:
            checks += 1
            fails += pin.qhat_code(new, reflect(x, e)) != pin.qhat_code(code, x)
    for i in range(1, 7):
        e = pic(1, *[-1 if t in (i, 7, 8) else 0 for t in range(1, 9)])
        new = pin.cremona_imaginary(code, i)
        for x in roots7:
            checks += 1
            fails += pin.qhat_code(new, reflect(x, e)) != pin.qhat_code(code, x)
    return PropertyResult("cremona_compatibility", checks, fails)


def weyl_basis_robustness(images: int, rng: random.Random) -> PropertyResult:
    """Signed sums are unchanged on Weyl-transformed vanishing root bases."""
    checks = fails = 0
    for c in real_forms.deformation_classes():
        if c.qhat_model != "basis" or c.rank == 0:
            continue
        lat = real_forms.lambda_basis(c.id).sublattice
        roots = enumerate_vectors(lat, -2)
        want2, want4 = 2 * c.rank, 2 * c.rank * (c.rank - 1)
        for _ in range(images):
            basis = list(lat.basis)
            for _ in range(rng.randint(1, 6)):
                e = rng.choice(roots)
                basis = [reflect(b, e) for b in basis]
            moved = Sublattice.span(basis)
            s2 = sum(1 if pin.qhat_from_coordinates(t, -2) == 0 else -1
                     for t in enumerate_coordinates(moved, -2))
            s4 = sum(1 if pin.qhat_from_coordinates(t, -4) == 0 else -1
                     for t in enumerate_coordinates(moved, -4))
            checks += 1
            fails += (s2, s4) != (want2, want4)
    return PropertyResult("weyl_basis_robustness", checks, fails)


def enumeration_closure(n: int, rng: random.Random) -> PropertyResult:
    """Vector sets are closed under negation and under reflections in lattice roots."""
    checks = fails = 0
    for c in real_forms.deformation_classes():
        if c.rank == 0:
            continue
        roots = [b.v for b in counting.b_classes(c, 1)]
        for k in (1, 2):
            vs = [b.v for b in counting.b_classes(c, k)]
            if not vs:
                continue
            coeff_set = {v.coeffs for v in vs}
            fails += any((-v).coeffs not in coeff_set for v in vs)
            checks += len(vs)
            for _ in range(min(n, len(roots))):
                e = rng.choice(roots)
                v = rng.choice(vs)
                checks += 1
                fails += reflect(v, e).coeffs not in coeff_set
    return PropertyResult("enumeration_closure", checks, fails)


def _box_scan(lat: Sublattice, norm: int) -> list[tuple[int, ...]]:
    """Independent oracle: scan the full coordinate box |x_i| <= sqrt(n * (Q^-1)_ii)."""
    k = lat.rank
    q = [[Fraction(-lat.gram[i][j]) for j in range(k)] for i in range(k)]
    inv = _invert(q)
    n = -norm
    bounds = []
    for i in range(k):
        b = n * inv[i][i]
        r = 0
        while (r + 1) * (r + 1) <= b:
            r += 1
        bounds.append(r)
    out = []
    for combo in itertools.product(*[range(-b, b + 1) for b in bounds]):
        val = sum(q[i][j] * combo[i] * combo[j] for i in range(k) for j in range(k))
        if val == n:
            out.append(combo)
    return sorted(out)


def _invert(m: list[list[Fraction]]) -> list[list[Fraction]]:
    k = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[k:] for row in a]


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


def alpha_qhat_consistency(n: int, rng: random.Random) -> PropertyResult:
    """For code classes, q(-2K - v) evaluated directly equals q(v)."""
    fails = 0
    pool = []
    for cid in ("M-connected", "M-1-connected"):
        c = real_forms.get_class(cid)
        pool += [(c, b) for b in counting.b_classes(c, 1)]
        pool += [(c, b) for b in counting.b_classes(c, 2)]
    sample = rng.sample(pool, min(n, len(pool)))
    for c, b in sample:
        fails += pin.qhat_code(counting.CODES[c.id], b.alpha) != b.qhat
    return PropertyResult("alpha_qhat_consistency", len(sample), fails)


def run_all(seed: int = SEED) -> list[PropertyResult]:
    rng = random.Random(seed)
    return [
        quadratic_law_code(1000, rng),
        quadratic_law_basis(1000, rng),
        parity_and_negation(1000, rng),
        vanishing_basis_closed_form(1000, rng),
        reflection_properties(1000, rng),
        minus_k_value_all_codes(),
        cremona_compatibility(),
        weyl_basis_robustness(20, rng),
        enumeration_closure(40, rng),
        box_scan_oracle(),
        alpha_qhat_consistency(1000, rng),
    ]
