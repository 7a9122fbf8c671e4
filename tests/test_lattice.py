import itertools
import random
from math import isqrt, lcm
from operator import mul

import pytest

from conftest import l, unimodular
from dp1 import lattice, properties, real_forms
from dp1.lattice import (
    K,
    MINUS_K,
    MINUS_2K,
    ZERO,
    Columns,
    LatticeError,
    PicClass,
    Sublattice,
    enumerate_coordinates,
    enumerate_vectors,
    integer_kernel,
    pic,
    reflect,
)

RNG = random.Random(421)
H = l(0)
L = tuple(l(i) for i in range(1, 9))


def rand_class(bound=5):
    return PicClass(tuple(RNG.randint(-bound, bound) for _ in range(9)))


def test_form_values():
    assert H.dot(H) == 1
    assert K.dot(K) == 1
    for i, li in enumerate(L):
        assert li.dot(li) == -1
        assert H.dot(li) == 0
        for lj in L[i + 1:]:
            assert li.dot(lj) == 0


def test_intersect_expansion_example():
    a = pic(1, -1, -1, -1, 0, 0, 0, 0, 0)  # h - l1 - l2 - l3
    b = pic(0, 1, -1, 0, 0, 0, 0, 0, 0)  # l1 - l2
    assert a.dot(b) == 0


def test_intersect_symmetric_bilinear():
    for _ in range(200):
        a, b, c = rand_class(), rand_class(), rand_class()
        assert a.dot(b) == b.dot(a)
        assert (a + b).dot(c) == a.dot(c) + b.dot(c)
        n = RNG.randint(-4, 4)
        assert (n * a).dot(b) == n * a.dot(b)


def test_degree():
    assert -MINUS_K.dot(K) == 1
    assert -MINUS_2K.dot(K) == 2
    assert -L[0].dot(K) == 1
    assert MINUS_2K.square == 4


def test_reflect_basics():
    e = pic(0, 1, -1, 0, 0, 0, 0, 0, 0)
    assert reflect(e, e) == -e
    a = pic(2, 1, 1, 0, 0, 0, 0, 0, 0)
    assert a.dot(e) == 0 and reflect(a, e) == a
    for _ in range(200):
        x = rand_class()
        assert reflect(reflect(x, e), e) == x
        y = rand_class()
        assert reflect(x, e).dot(reflect(y, e)) == x.dot(y)


def test_reflect_rejects_non_root():
    with pytest.raises(LatticeError):
        reflect(H, H)
    with pytest.raises(LatticeError):
        reflect(H, MINUS_2K)


def test_pic_class_validation():
    with pytest.raises(LatticeError):
        PicClass((1, 2, 3))
    with pytest.raises(LatticeError):
        PicClass((1.0,) * 9)  # type: ignore[arg-type]
    with pytest.raises(LatticeError):
        PicClass((0,) * 8 + ("1",))  # type: ignore[arg-type]
    with pytest.raises(LatticeError):
        H + PicClass((0,) * 10)
    assert PicClass((True,) + (0,) * 8) == H  # an int subclass is an int


def test_span_rejects_non_kperp_and_dependent():
    with pytest.raises(LatticeError):
        Sublattice.span([H])
    e = pic(0, 1, -1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(LatticeError):
        Sublattice.span([e, 2 * e])


def test_span_names_the_first_basis_vector_off_k_perp():
    # Every stratum vector is spanned by a class's basis, so this guard is what keeps
    # each of them in K-perp: the reflection check reads coordinates and trusts it.
    e = pic(0, 1, -1, 0, 0, 0, 0, 0, 0)
    message = r"^basis vector \(1; 1,-1,0,0,0,0,0,0\) is not orthogonal to K$"
    with pytest.raises(LatticeError, match=message):
        Sublattice.span([e, e + H, H])


def test_enumerate_rejects_bad_norm(kperp):
    with pytest.raises(LatticeError):
        enumerate_vectors(kperp, 0)
    with pytest.raises(LatticeError):
        enumerate_vectors(kperp, 2)
    with pytest.raises(LatticeError, match="negative norm"):
        enumerate_coordinates(Sublattice.span([]), 0)


def test_e8_cardinalities(kperp):
    assert len(enumerate_vectors(kperp, -2)) == 240
    assert len(enumerate_vectors(kperp, -4)) == 2160


def test_enumeration_is_sorted_and_deterministic(kperp):
    a = enumerate_coordinates(kperp, -2)
    b = enumerate_coordinates(kperp, -2)
    assert a == b == sorted(a)
    va = enumerate_vectors(kperp, -2)
    assert all(v.square == -2 and v.dot(K) == 0 for v in va)


def test_enumerate_rank_zero():
    assert enumerate_vectors(Sublattice.span([]), -2) == []


def test_orthogonal_seeds_count():
    seeds = [pic(0, 1, -1, 0, 0, 0, 0, 0, 0), pic(0, 0, 0, 1, -1, 0, 0, 0, 0),
             pic(0, 0, 0, 0, 0, 1, -1, 0, 0), pic(0, 0, 0, 0, 0, 0, 0, 1, -1)]
    for m in range(1, 5):
        lat = Sublattice.span(seeds[:m])
        n4 = len(enumerate_vectors(lat, -4))
        assert n4 == 2 * m * (m - 1)  # 4 * C(m, 2)


def test_enumeration_returns_a_fresh_list(kperp):
    first = enumerate_coordinates(kperp, -2)
    want = list(first)
    first.clear()
    assert enumerate_coordinates(kperp, -2) == want and len(want) == 240


def test_weyl_moved_bases_keep_their_canonical_gram():
    # A reflection is an isometry, so no moved basis of weyl_basis_robustness can
    # reach a new coordinate search; box_scan_oracle is the enumerator's oracle.
    pairs = [(lat, m) for lat, moved in properties.weyl_images(20, random.Random(properties.SEED))
             for m in moved]
    assert len(pairs) == 160
    assert all(m.gram == lat.gram for lat, m in pairs)
    assert sum(m.basis != lat.basis for lat, m in pairs) > 100


# Theta-series coefficients of each class lattice: the number of vectors of
# norm -2, -4, -6, -8 (E8: 240 sigma_3(n)).
SHELLS = {
    "E8": (240, 2160, 6720, 17520),
    "E7": (126, 756, 2072, 4158),
    "D6": (60, 252, 544, 1020),
    "D4+A1": (26, 72, 144, 218),
    "D4": (24, 24, 96, 24),
    "4A1": (8, 24, 32, 24),
    "3A1": (6, 12, 8, 6),
    "2A1": (4, 4, 0, 4),
    "A1": (2, 0, 0, 2),
    "0": (0, 0, 0, 0),
}


@pytest.mark.parametrize("c", real_forms.deformation_classes(), ids=lambda c: c.id)
def test_class_lattice_shell_counts(c):
    lat = real_forms.lambda_basis(c.id)
    got = tuple(len(enumerate_coordinates(lat, n)) for n in (-2, -4, -6, -8))
    assert got == SHELLS[c.lambda_type]


@pytest.mark.parametrize("c", [c for c in real_forms.deformation_classes() if c.rank],
                         ids=lambda c: c.id)
def test_weyl_moved_bases_give_the_same_vectors(c):
    # Reflections keep the gram and the lattice, so each moved basis reuses the
    # canonical search, and each shell must come back as the same set of ambient
    # vectors: the Weyl word permutes it.
    rng = random.Random(f"weyl:{c.id}")
    lat = real_forms.lambda_basis(c.id)
    roots = enumerate_vectors(lat, -2)
    want = {n: set(enumerate_vectors(lat, n)) for n in (-2, -4, -6)}
    for _ in range(3):
        basis = list(lat.basis)
        for _ in range(rng.randint(3, 6)):
            e = rng.choice(roots)
            basis = [reflect(b, e) for b in basis]
        moved = Sublattice.span(basis)
        for n, vectors in want.items():
            got = enumerate_vectors(moved, n)
            assert len(got) == len(vectors) and set(got) == vectors


@pytest.mark.parametrize("name", [c.id for c in real_forms.deformation_classes() if c.rank > 1]
                         + ["K-perp"])
def test_gram_changing_bases_give_the_same_vectors(name):
    # A unimodular basis change keeps the lattice but not the gram.  Each new gram
    # has a norm below -2, so it is no Cartan matrix and gets searches of its own,
    # and each shell must come back as the same set of ambient vectors.  (Rank 1
    # has no gram-changing basis change.)  Coordinates on a moved basis may pass a
    # byte lane, so each is converted on its own.
    lat = real_forms.kperp() if name == "K-perp" else real_forms.lambda_basis(name)
    rng = random.Random(f"unimodular:{name}")
    want = {n: set(enumerate_vectors(lat, n)) for n in (-2, -4, -6, -8)}
    for _ in range(2):
        moved = Sublattice.span([lat.from_coordinates(tuple(row)) for row in unimodular(rng, lat.rank)])
        assert min(moved.gram[i][i] for i in range(lat.rank)) < -2
        for n, vectors in want.items():
            got = list(map(moved.from_coordinates, enumerate_coordinates(moved, n)))
            assert len(got) == len(vectors) and set(got) == vectors


def test_rank_one_shells_are_read_off_the_last_level():
    # On A1 the whole search is its last level, where 2 x^2 = -norm has the two
    # solutions +-x or none.
    a1 = real_forms.lambda_basis("M-1-split")
    assert [enumerate_coordinates(a1, n) for n in (-2, -4, -6, -8, -10)] == [
        [(-1,), (1,)], [], [], [(-2,), (2,)], []]


def per_norm_box_scan(lat, norm):
    """The box scan at one norm, sorted: the reference of the bucketed `_box_scan`."""
    q = [[-x for x in row] for row in lat.gram]
    n, det_q = -norm, properties._det(q)
    bounds = [isqrt(n * properties._det([row[:i] + row[i + 1:] for j, row in enumerate(q) if j != i])
                    // det_q) for i in range(lat.rank)]
    return sorted(x for x in itertools.product(*[range(-b, b + 1) for b in bounds])
                  if sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, lat.gram)) == norm)


def _small_rank_bases(c):
    # The class lattice and the seeded gram-changed bases of
    # test_gram_changing_bases_give_the_same_vectors.
    lat = real_forms.lambda_basis(c.id)
    rng = random.Random(f"unimodular:{c.id}")
    moved = ([lat.from_coordinates(tuple(row)) for row in unimodular(rng, lat.rank)]
             for _ in range(2 if lat.rank > 1 else 0))
    return [lat, *map(Sublattice.span, moved)]


SMALL_RANKS = [c for c in real_forms.deformation_classes() if 0 < c.rank <= 4]


@pytest.mark.parametrize("c", SMALL_RANKS, ids=lambda c: c.id)
def test_search_equals_the_box_scan_on_small_ranks(c):
    # The box-scan oracle of the property suite, each norm read off one scan at -8.
    for basis in _small_rank_bases(c):
        shells = properties._box_scan(basis, -8)
        for n in (-2, -4, -6, -8):
            assert enumerate_coordinates(basis, n) == shells.get(n, []), (basis.gram, n)


def test_the_bucketed_box_scan_equals_one_scan_per_norm(monkeypatch):
    # On the five oracle lattices (one scan each, at -8) and the small-rank bases,
    # every bucket from -2 to -8 is the scan of its own box.
    scans, bucketed = [], properties._box_scan

    def spy(lat, norm):
        scans.append((lat, norm))
        return bucketed(lat, norm)

    monkeypatch.setattr(properties, "_box_scan", spy)
    assert properties.box_scan_oracle() == ("box_scan_oracle", 20, 0)
    assert len(scans) == 5 and {norm for _, norm in scans} == {-8}
    for lat in [lat for lat, _ in scans] + [b for c in SMALL_RANKS for b in _small_rank_bases(c)]:
        shells = bucketed(lat, -8)
        assert [shells.get(n, []) for n in (-2, -4, -6, -8)] == [
            per_norm_box_scan(lat, n) for n in (-2, -4, -6, -8)], lat.gram


def full_tree_search(gram, norm):
    """`_search` over the whole tree, both signs of every x, sorted: its reference."""
    k = len(gram)
    rows = lattice._ldl([[-x for x in row] for row in gram])
    minors = [1] + [row[i] for i, row in enumerate(rows)]
    dens = list(map(mul, minors, minors[1:]))
    scale = lcm(*dens)
    w = [scale // d for d in dens]
    tails = [row[i + 1:] for i, row in enumerate(rows)]
    found = []
    x = [0] * k

    def descend(i, budget):
        wi, di = w[i], rows[i][i]
        c = sum(map(mul, tails[i], x[i + 1:]))
        r = isqrt(budget // wi)
        if i == 0:
            if wi * r * r == budget:
                for s in (r, -r) if r else (0,):
                    x0, rest = divmod(s - c, di)
                    if not rest:
                        found.append((x0, *x[1:]))
            return
        for xi in range(-((c + r) // di), (r - c) // di + 1):
            s = di * xi + c
            x[i] = xi
            descend(i - 1, budget - wi * s * s)
        x[i] = 0

    descend(k - 1, scale * -norm)
    return tuple(sorted(found))


def _lattice_named(name):
    """K-perp or a class lattice by id; "raw <id>" is the class's raw lattice and
    "moved <name>" the first seeded unimodular basis change of <name>."""
    kind, _, rest = name.partition(" ")
    if kind == "raw":
        return real_forms._raw_lattice(real_forms.get_class(rest))
    if kind == "moved":
        lat = _lattice_named(rest)
        rows = unimodular(random.Random(f"unimodular:{rest}"), lat.rank)
        return Sublattice.span([lat.from_coordinates(tuple(row)) for row in rows])
    return real_forms.kperp() if name == "K-perp" else real_forms.lambda_basis(name)


CLASS_IDS = [c.id for c in real_forms.deformation_classes() if c.rank]


@pytest.mark.parametrize("name", ["K-perp", *CLASS_IDS, *(f"raw {cid}" for cid in CLASS_IDS),
                                  "moved K-perp", "moved M-1-connected", "moved M-2-connected"])
def test_half_tree_search_equals_the_full_tree(name):
    # Each shell is closed under negation and misses 0, so walking the x whose top
    # nonzero coordinate is positive and adding every -x must give the full tree's list.
    lat = _lattice_named(name)
    for norm in (-2, -4, -6, -8):
        assert lattice._search.__wrapped__(lat.gram, norm) == full_tree_search(lat.gram, norm), norm


def test_span_rejects_a_dependent_basis(kperp):
    # The LDL's definiteness check is also the independence check: a repeated
    # vector, and a sum of two vectors of a gram-changed basis put among them,
    # each make a pivot vanish.
    basis = [kperp.from_coordinates(tuple(row)) for row in unimodular(random.Random("dependent"), 8)]
    for dependent in ([basis[0], basis[0]], basis[:5] + [basis[1] + basis[3]] + basis[5:]):
        with pytest.raises(LatticeError, match="matrix is not positive definite"):
            Sublattice.span(dependent)


def test_bulk_conversion_equals_from_coordinates(kperp):
    lattices = [real_forms.lambda_basis(c.id) for c in real_forms.deformation_classes()]
    lattices += [kperp] + [m for _, moved in properties.weyl_images(20, random.Random(properties.SEED))
                           for m in moved]
    assert len(lattices) == 11 + 1 + 160
    for lat in lattices:
        for n in (-2, -4, -6, -8):
            coords = enumerate_coordinates(lat, n)
            assert lat.pic_coordinates(coords) == [lat.from_coordinates(x).coeffs for x in coords]


def test_bulk_conversion_of_rank_zero_and_of_no_vectors(kperp):
    zero = Sublattice.span([])
    assert zero.pic_coordinates([]) == kperp.pic_coordinates([]) == []
    assert zero.pic_coordinates([(), ()]) == [zero.from_coordinates(()).coeffs] * 2


def test_a_basis_over_the_lane_bound_raises():
    # A lane holds +-127.  Coordinates past a signed byte raise at packing, and a list
    # whose Pic lanes may pass 127 raises before forming them; enumerate_vectors has no
    # other path, so it raises alike.  Each error names the bound.
    e = pic(0, 1, -1, 0, 0, 0, 0, 0, 0)
    edge, over = Sublattice.span([127 * e]), Sublattice.span([64 * e])
    assert edge.pic_coordinates([(1,), (-1,)]) == [(127 * e).coeffs, (-127 * e).coeffs]
    with pytest.raises(LatticeError, match="^a coefficient of the list may pass the lane bound 127$"):
        over.pic_coordinates([(1,), (-2,)])
    with pytest.raises(LatticeError, match="^a coefficient of the list may pass the lane bound 127$"):
        enumerate_vectors(over, 4 * over.gram[0][0])
    unit = Sublattice.span([e])
    assert unit.pic_coordinates([(127,), (-127,)]) == [(127 * e).coeffs, (-127 * e).coeffs]
    for x in (128, 300):
        with pytest.raises(LatticeError, match="^a packed value passes the lane bound 127$"):
            unit.pic_columns([(1,), (x,)])
    # -128 fills a byte, and its top of 128 raises at the first sum.
    with pytest.raises(LatticeError, match="^a coefficient of the list may pass the lane bound 127$"):
        unit.pic_columns([(1,), (-128,)])
    with pytest.raises(LatticeError, match="^a packed value passes the lane bound 127$"):
        enumerate_vectors(unit, 128 * 128 * unit.gram[0][0])


def test_a_sum_of_columns_carries_its_bound_into_the_next():
    # The tops are read off the lanes at packing; a sum's top is its bound, not its
    # widest lane, and the next sum that takes it as a term is checked against it.
    cols = Columns.pack(2, [(100, -100), (-20, 20)])
    first, second = cols.cols
    assert (first.top, second.top) == (100, 20)
    t = cols.combine(((1, first), (1, second)), "t", 3)
    assert (list(cols.lanes(t.packed)), t.top) == ([83, -77], 123)
    # t + second has lanes 63 and -57, but its bound 123 + 20 passes 127.
    with pytest.raises(LatticeError, match="^t plus one may pass the lane bound 127$"):
        cols.combine(((1, t), (1, second)), "t plus one")
    back = cols.combine(((1, t),), "t less three", -3)
    assert (list(cols.lanes(back.packed)), back.top) == ([80, -80], 126)


def test_integer_kernel_saturation():
    assert integer_kernel([(1, 1)], 2) == [(1, -1)] or integer_kernel([(1, 1)], 2) == [(-1, 1)]
    # The kernel lattice is primitive: (1,-1), never (2,-2).
    (v,) = integer_kernel([(1, 1)], 2)
    assert sorted(map(abs, v)) == [1, 1]
    assert integer_kernel([(2, 0)], 2) == [(0, 1)]
    assert len(integer_kernel([], 3)) == 3


def test_integer_kernel_matches_constraints():
    rows = [(3, 1, -2, 0), (0, 2, 2, -1)]
    basis = integer_kernel(rows, 4)
    assert len(basis) == 2
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_coordinates_roundtrip(kperp):
    for _ in range(50):
        coords = tuple(RNG.randint(-3, 3) for _ in range(8))
        v = kperp.from_coordinates(coords)
        assert kperp.coordinates_of(v) == coords
    with pytest.raises(LatticeError):
        kperp.coordinates_of(H)
    zero = Sublattice.span([])
    assert zero.coordinates_of(ZERO) == ()
    with pytest.raises(LatticeError):
        zero.coordinates_of(H)


def test_coordinates_rejects_non_integral():
    e = pic(0, 1, -1, 0, 0, 0, 0, 0, 0)
    doubled = Sublattice.span([2 * e])
    with pytest.raises(LatticeError):
        doubled.coordinates_of(e)


def test_box_scan_oracle_shares_no_private_lattice_code():
    # The oracle checks the enumerator, so its module binds none of lattice's internals.
    private = [v for name, v in vars(lattice).items() if name.startswith("_") and not name.startswith("__")]
    assert [name for name, v in vars(properties).items() if any(v is p for p in private)] == []
