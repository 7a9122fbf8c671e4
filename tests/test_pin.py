import hashlib
import importlib
import pkgutil
import random
from collections import deque

import pytest

from conftest import root_h3, vanishing_qhat
import dp1
from dp1 import pin, properties, real_forms
from dp1.lattice import LANE, MINUS_K, MINUS_2K, LatticeError, ZERO, enumerate_vectors, pic, reflect
from dp1.pin import (
    NEGATIVE_CODE,
    POSITIVE_CODE,
    Code,
    apply_move,
    qhat_code,
    reachable_codes,
)
from dp1.real_forms import lambda_basis

RNG = random.Random(99)


def test_code_validation():
    Code((1,) * 9)
    Code((3,) * 7)
    with pytest.raises(LatticeError):
        Code((1,) * 8)  # even length
    with pytest.raises(LatticeError):
        Code((1, 1, 2, 1, 1, 1, 1, 1, 1))  # residue not +-1
    with pytest.raises(LatticeError):
        Code((3, 1, 1, 1, 1, 1, 1, 1, 1))  # sum = 3 mod 4


def test_qhat_code_values():
    assert qhat_code(POSITIVE_CODE, pic(0, 1, -1, 0, 0, 0, 0, 0, 0)) == 2
    assert qhat_code(POSITIVE_CODE, pic(1, -1, -1, -1, 0, 0, 0, 0, 0)) == 0
    assert qhat_code(NEGATIVE_CODE, pic(1, -1, 0, 0, 0, 0, 0, 0, 0)) == 2
    assert qhat_code(POSITIVE_CODE, ZERO) == 0
    assert qhat_code(NEGATIVE_CODE, pic(2, -1, -1, 0, 0, 0, 0, -1, -1)) == 2


def test_qhat_code_minus_k_and_minus_2k():
    for code in (POSITIVE_CODE, NEGATIVE_CODE):
        assert qhat_code(code, MINUS_K) == 1
        assert qhat_code(code, MINUS_2K) == 0


def test_qhat_code_rejects_non_real():
    with pytest.raises(LatticeError):
        qhat_code(NEGATIVE_CODE, pic(0, 0, 0, 0, 0, 0, 0, 1, -1))


def test_cremona_move_rows():
    move = ("cremona", 1, 2, 3)
    assert apply_move(POSITIVE_CODE.residues, move)[:4] == (3, 3, 3, 3)
    mixed = Code((1, 1, 3, 3, 1, 1, 1, 1, 1)).residues
    assert apply_move(mixed, move)[:4] == (3, 3, 1, 1)
    inert = Code((1, 1, 1, 3, 1, 1, 1, 1, 3)).residues
    assert apply_move(inert, move) == inert
    assert apply_move(apply_move(POSITIVE_CODE.residues, move), move) == POSITIVE_CODE.residues


def test_cremona_index_validation():
    with pytest.raises(LatticeError):
        apply_move(POSITIVE_CODE.residues, ("cremona", 2, 2, 3))
    with pytest.raises(LatticeError):
        apply_move(NEGATIVE_CODE.residues, ("cremona", 5, 6, 7))  # only 6 real classes at r=1
    with pytest.raises(LatticeError):
        apply_move(POSITIVE_CODE.residues, ("swap", 1))  # r = 0
    for i in (0, 7):
        with pytest.raises(LatticeError):
            apply_move(NEGATIVE_CODE.residues, ("swap", i))


def test_cremona_imaginary_swap():
    code = Code((1, 3, 1, 1, 3, 3, 1)).residues
    once = apply_move(code, ("swap", 1))
    assert once[0] == 3 and once[1] == 1
    assert apply_move(once, ("swap", 1)) == code


def test_cremona_preserves_code_relation():
    residues = (1, 1, 1, 1, 1, 3, 3, 3, 3)
    for _ in range(50):
        i, j, k = sorted(RNG.sample(range(1, 9), 3))
        residues = Code(apply_move(residues, ("cremona", i, j, k))).residues
        assert sum(residues) % 4 == 1


def _replay(residues, moves):
    for move in moves:
        residues = apply_move(residues, move)
    return residues


def test_normalize_positive_seed():
    seed = Code((1, 1, 1, 1, 1, 3, 3, 3, 3))
    seen = reachable_codes(seed)
    best = min(seen)
    assert best == (1,) * 9
    assert _replay(seed.residues, seen[best]) == best


def test_normalize_negative_seed_reaches_all_minus():
    seed = Code((1, 1, 1, 1, 3, 3, 3))
    seen = reachable_codes(seed)
    assert (3,) * 7 in seen
    assert _replay(seed.residues, seen[(3,) * 7]) == (3,) * 7


def test_normalize_all_plus_is_fixed():
    seen = reachable_codes(POSITIVE_CODE)
    best = min(seen)
    assert best == POSITIVE_CODE.residues
    assert seen[best] == []


# (least code, orbit size) of each Cremona orbit of the 341 admissible codes, by
# code length and then least code.
ORBITS = [
    ((1,) * 9, 135), ((1,) * 7 + (3,) * 2, 120), ((1,) + (3,) * 8, 1),
    ((1,) * 6 + (3,), 28), ((1,) * 4 + (3,) * 3, 36),
    ((1,) * 5, 6), ((1,) * 3 + (3,) * 2, 10),
    ((1, 1, 3), 3), ((3, 3, 3), 1),
    ((1,), 1),
]


def test_orbit_census_partitions_every_code():
    left = {code.residues: code for code in properties._all_codes()}
    orbits = []
    while left:
        seen = reachable_codes(next(iter(left.values())))
        orbits.append((min(seen), len(seen)))
        for residues in seen:
            del left[residues]  # a KeyError: two orbits meet, or a walk left the codes
    assert orbits == ORBITS
    assert sum(size for _, size in orbits) == 341


# (orbit size, sha256 prefix of the walk's (code, witness) items in order) per seed.
WALKS = {
    (1, 1, 1, 1, 1, 3, 3, 3, 3): (135, "c72c4734a556d8f5"),
    (1, 1, 1, 1, 3, 3, 3): (36, "3abcf5b249e22b62"),
}


def test_orbit_walk_keeps_its_witnesses_and_builds_one_code_per_new_code(monkeypatch):
    built = []
    validate = Code.__post_init__

    def counted(code):
        built.append(code.residues)
        validate(code)

    monkeypatch.setattr(Code, "__post_init__", counted)
    for seed, (size, digest) in WALKS.items():
        built.clear()
        seen = reachable_codes(Code(seed))
        assert len(seen) == size
        assert hashlib.sha256(repr(list(seen.items())).encode()).hexdigest()[:16] == digest
        # The seed and each newly reached code are validated once, not each move's image.
        assert len(built) <= size + 1
        assert set(built) == set(seen)


def _residue_move(residues, move):
    """The move on residue tuples as stated on codes: a triple i < j < k replaces each
    of a0, a_i, a_j, a_k with the sum of the other three mod 4; a swap exchanges a0
    and a_i.  The reference of `flips`."""
    a = list(residues)
    if move[0] == "cremona":
        _, i, j, k = move
        s = a[0] + a[i] + a[j] + a[k]
        a[0], a[i], a[j], a[k] = (s - a[0]) % 4, (s - a[i]) % 4, (s - a[j]) % 4, (s - a[k]) % 4
    else:
        _, i = move
        a[0], a[i] = a[i], a[0]
    return tuple(a)


def _residue_walk(code):
    """The breadth-first orbit walk on residue tuples by `_residue_move`."""
    seen = {code.residues: []}
    queue = deque([code.residues])
    while queue:
        cur = queue.popleft()
        for move in pin.moves(code):
            new = _residue_move(cur, move)
            if new not in seen:
                seen[Code(new).residues] = seen[cur] + [move]
                queue.append(new)
    return seen


def test_flips_move_every_code_as_the_residue_rule():
    assert pin.flips(("cremona", 1, 2, 3), 8) == (0b1111, 0)
    assert pin.flips(("swap", 2), 6) == (0b101, 1)
    codes = properties._all_codes()
    assert len(codes) == 341
    for code in codes:
        for move in pin.moves(code):
            assert apply_move(code.residues, move) == _residue_move(code.residues, move), (code, move)


def test_the_bit_walk_equals_the_residue_walk_on_every_orbit():
    for least, size in ORBITS:
        seen = reachable_codes(Code(least))
        assert len(seen) == size
        assert list(seen.items()) == list(_residue_walk(Code(least)).items())


def test_move_set_and_roots():
    # Lexicographic triples, then the swaps: reachable_codes' witnesses follow this order.
    e8, e7 = pin.moves(POSITIVE_CODE), pin.moves(NEGATIVE_CODE)
    assert (len(e8), len(e7)) == (56, 26)
    assert e8[:2] == [("cremona", 1, 2, 3), ("cremona", 1, 2, 4)] and e8[-1] == ("cremona", 6, 7, 8)
    assert e7[19:] == [("cremona", 4, 5, 6)] + [("swap", i) for i in range(1, 7)]
    assert pin.move_root(("cremona", 2, 4, 8)) == root_h3(2, 4, 8)
    assert pin.move_root(("swap", 3)) == root_h3(3, 7, 8)
    assert apply_move((1, 3, 1, 1, 1, 1, 1), ("swap", 1)) == (3, 1, 1, 1, 1, 1, 1)


def test_code_coordinates_read_h_the_real_classes_and_each_pair_once():
    x = pic(2, -1, -1, 0, 0, 0, 0, -3, -3)
    assert pin.code_coordinates(POSITIVE_CODE, x.coeffs) == x.coeffs
    assert pin.code_coordinates(NEGATIVE_CODE, x.coeffs) == (2, -1, -1, 0, 0, 0, 0, -3)
    assert pin.code_coordinates(pin.Code((1, 1, 3)), x.coeffs) == (2, -1, -1, -3, 0, 0)


def test_cremona_matches_reflection_spotcheck():
    e = root_h3(1, 2, 3)
    new = Code(apply_move(POSITIVE_CODE.residues, ("cremona", 1, 2, 3)))
    for x in (pic(0, 1, 0, 0, 0, 0, 0, 0, 0), pic(1, -1, -1, 0, -1, 0, 0, 0, 0), MINUS_K):
        assert qhat_code(new, reflect(x, e)) == qhat_code(POSITIVE_CODE, x)


def _identity_moves(monkeypatch):
    monkeypatch.setattr(pin, "apply_move", lambda residues, move: residues)


def _shift_two_residues(monkeypatch):
    # E8's (1,2,3) move with residues 4 and 5 moved by 2: still a valid code.
    good = pin.apply_move

    def shifted(residues, move):
        new = good(residues, move)
        if residues != POSITIVE_CODE.residues or move != ("cremona", 1, 2, 3):
            return new
        return tuple((a + 2) % 4 if t in (4, 5) else a for t, a in enumerate(new))

    monkeypatch.setattr(pin, "apply_move", shifted)


def _every_root_cremona_check():
    """The exhaustive check: every move on every root of the code's class lattice,
    as (checks, failures)."""
    roots = {POSITIVE_CODE: enumerate_vectors(lambda_basis("M-connected"), -2),
             NEGATIVE_CODE: enumerate_vectors(lambda_basis("M-1-connected"), -2)}
    moved = [(code, pin.move_root(move), Code(pin.apply_move(code.residues, move)))
             for code in roots for move in pin.moves(code)]
    pairs = [(code, e, new, x) for code, e, new in moved for x in roots[code]]
    return len(pairs), sum(qhat_code(new, reflect(x, e)) != qhat_code(code, x)
                           for code, e, new, x in pairs)


def test_cremona_compatibility_sees_an_identity_move(monkeypatch):
    # Every move left the code alone: each (move, simple root) pair counts, and a
    # pair fails wherever the reflection changes q.
    _identity_moves(monkeypatch)
    res = properties.cremona_compatibility()
    assert (res.instances, res.failures) == (630, 315)


def _per_instance_cremona_check():
    """The property as a loop over every (code, move, simple root), one reflect and one
    qhat_code each, as (checks, failures): the reference of the packed pass."""
    simple = {POSITIVE_CODE: real_forms.lambda_basis("M-connected").basis,
              NEGATIVE_CODE: real_forms.lambda_basis("M-1-connected").basis}
    old = {code: [(x, qhat_code(code, x)) for x in basis] for code, basis in simple.items()}
    moved = [(code, pin.move_root(move), Code(pin.apply_move(code.residues, move)))
             for code in simple for move in pin.moves(code)]
    pairs = [(e, new, x, q) for code, e, new in moved for x, q in old[code]]
    return len(pairs), sum(qhat_code(new, reflect(x, e)) != q for e, new, x, q in pairs)


# (perturbation, property's (checks, failures), exhaustive loop's (checks, failures))
CREMONA_FAULTS = {
    "true_moves": (lambda monkeypatch: None, (630, 0), (16716, 0)),
    "identity_moves": (_identity_moves, (630, 315), (16716, 7552)),
    "two_residues_shifted": (_shift_two_residues, (630, 2), (16716, 112)),
}


@pytest.mark.parametrize("fault", list(CREMONA_FAULTS))
def test_cremona_simple_roots_agree_with_every_root(monkeypatch, fault):
    # q_new(s_e x) - q_old(x) is linear mod 4, so the simple roots decide it.
    perturb, simple, exhaustive = CREMONA_FAULTS[fault]
    perturb(monkeypatch)
    res = properties.cremona_compatibility()
    assert (res.instances, res.failures) == simple == _per_instance_cremona_check()
    assert _every_root_cremona_check() == exhaustive
    assert res.passed == (exhaustive[1] == 0)


def _moved_e8_basis(scale):
    """E8's simple roots with b_1 + scale * w in place of b_1, w = -b_5 - 2b_6 - b_7 - b_8
    = (-1; 1,1,1,0,-1,-1,1,1): still a basis of the lattice (w is in the span of the
    others), and some move's reflection of w has a lane 4 times w's widest."""
    lat = lambda_basis("M-connected")
    b = lat.basis
    w = -b[4] - 2 * b[5] - b[6] - b[7]
    return type(lat).span([b[0] + scale * w, *b[1:]])


def _with_e8_basis(monkeypatch, basis):
    good = real_forms.lambda_basis
    monkeypatch.setattr(real_forms, "lambda_basis",
                        lambda cid: basis if cid == "M-connected" else good(cid))


def _widest_image(basis):
    return max(max(map(abs, reflect(x, pin.move_root(move)).coeffs))
               for move in pin.moves(POSITIVE_CODE) for x in basis.basis)


@pytest.mark.parametrize("fault", list(CREMONA_FAULTS))
def test_the_packed_cremona_pass_is_exact_on_wider_lanes(monkeypatch, fault):
    # Any Z-basis decides the property, so the packed pass on a moved basis (lanes up
    # to 20, within the bound) must count what the per-instance loop counts.
    perturb, simple, _ = CREMONA_FAULTS[fault]
    basis = _moved_e8_basis(5)
    _with_e8_basis(monkeypatch, basis)
    perturb(monkeypatch)
    assert _widest_image(basis) == 20
    res = properties.cremona_compatibility()
    assert (res.instances, res.failures) == _per_instance_cremona_check()
    assert (res.instances, res.passed) == (simple[0], simple[1] == 0)


def test_a_cremona_image_lane_past_the_bound_raises(monkeypatch):
    # With scale 32 some image x + (x.e)e has a lane past LANE, which a wrapped lane
    # would read as a small coefficient: the pass raises before evaluating.
    basis = _moved_e8_basis(32)
    _with_e8_basis(monkeypatch, basis)
    assert _widest_image(basis) > LANE
    message = f"an image of a simple root of M-connected may pass the lane bound {LANE}"
    with pytest.raises(LatticeError, match=f"^{message}$"):
        properties.cremona_compatibility()


def test_each_seeded_property_draws_alone(monkeypatch):
    # run_all hands each seeded property a generator in the seed's state, so its
    # verdict equals the property's run alone.
    sizes = {"quadratic_law_code": 1000, "quadratic_law_basis": 1000,
             "reflection_properties": 1000, "weyl_basis_robustness": 20}
    seeded = random.Random(properties.SEED).getstate()
    starts = {}
    for name in sizes:
        def spy(n, rng, prop=getattr(properties, name), name=name):
            starts[name] = rng.getstate() == seeded
            return prop(n, rng)
        monkeypatch.setattr(properties, name, spy)
    results = {r.name: r for r in properties.run_all()}
    assert starts == dict.fromkeys(sizes, True)
    monkeypatch.undo()
    for name, n in sizes.items():
        assert getattr(properties, name)(n, random.Random(properties.SEED)) == results[name]


class _Draws(random.Random):
    """A generator that logs every bounded draw (behind randrange and choice) and
    every random(): the instances a property draws, as data."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def _randbelow(self, n):
        k = super()._randbelow(n)
        self.log.append((n, k))
        return k

    def random(self):
        x = super().random()
        self.log.append(x)
        return x


# (instances, draws, sha256 prefix of the draw log) of each seeded property at SEED.
DRAWS = {
    "quadratic_law_code": (1000, 19000, "99c957ed7bed5960"),
    "quadratic_law_basis": (1000, 18170, "be2f712c4f7523fd"),
    "reflection_properties": (1000, 19000, "8c16a889838ea489"),
    "weyl_basis_robustness": (20, 734, "d83b9557e74443d4"),
}


def test_each_seeded_property_draws_the_pinned_instances():
    for name, (n, draws, digest) in DRAWS.items():
        rng = _Draws(properties.SEED)
        assert getattr(properties, name)(n, rng).failures == 0
        assert (len(rng.log), hashlib.sha256(repr(rng.log).encode()).hexdigest()[:16]) == (draws, digest)


def test_vanishing_basis_values():
    lat = lambda_basis("M-2-connected")
    b = lat.basis
    for bi in b:
        assert vanishing_qhat(lat, bi) == 0
        assert vanishing_qhat(lat, -bi) == 0
    orth = next((i, j) for i in range(6) for j in range(i + 1, 6) if b[i].dot(b[j]) == 0)
    adj = next((i, j) for i in range(6) for j in range(i + 1, 6) if b[i].dot(b[j]) == 1)
    assert vanishing_qhat(lat, b[orth[0]] + b[orth[1]]) == 0
    assert vanishing_qhat(lat, b[adj[0]] + b[adj[1]]) == 2


def test_vanishing_basis_rejects_outside_span():
    lat = lambda_basis("M-4")
    with pytest.raises(LatticeError):
        vanishing_qhat(lat, MINUS_K)
    with pytest.raises(LatticeError):
        vanishing_qhat(lat, pic(0, 1, 0, 0, 0, 0, 0, 0, 0))


def test_only_pin_and_real_forms_bind_the_pair_layout():
    # Code coordinates read the pairs in pin; real_forms builds the lattices from them.
    modules = [importlib.import_module(f"dp1.{m.name}") for m in pkgutil.iter_modules(dp1.__path__)]
    binders = sorted(m.__name__ for m in modules if hasattr(m, "PAIRS"))
    assert binders == ["dp1.pin", "dp1.real_forms"]
