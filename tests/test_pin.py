import hashlib
import importlib
import pkgutil
import random

import pytest

from conftest import root_h3, vanishing_qhat
import dp1
from dp1 import pin, properties
from dp1.lattice import MINUS_K, MINUS_2K, LatticeError, ZERO, enumerate_vectors, pic, reflect
from dp1.pin import (
    NEGATIVE_CODE,
    POSITIVE_CODE,
    Code,
    cremona_code,
    cremona_imaginary,
    normalize_code,
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
    assert cremona_code(POSITIVE_CODE, 1, 2, 3).residues[:4] == (3, 3, 3, 3)
    mixed = Code((1, 1, 3, 3, 1, 1, 1, 1, 1))
    assert cremona_code(mixed, 1, 2, 3).residues[:4] == (3, 3, 1, 1)
    inert = Code((1, 1, 1, 3, 1, 1, 1, 1, 3))
    assert cremona_code(inert, 1, 2, 3).residues == inert.residues
    back = cremona_code(cremona_code(POSITIVE_CODE, 1, 2, 3), 1, 2, 3)
    assert back.residues == POSITIVE_CODE.residues


def test_cremona_index_validation():
    with pytest.raises(LatticeError):
        cremona_code(POSITIVE_CODE, 2, 2, 3)
    with pytest.raises(LatticeError):
        cremona_code(NEGATIVE_CODE, 5, 6, 7)  # only 6 real classes at r=1
    with pytest.raises(LatticeError):
        cremona_imaginary(POSITIVE_CODE, 1)  # r = 0


def test_cremona_imaginary_swap():
    code = Code((1, 3, 1, 1, 3, 3, 1))
    once = cremona_imaginary(code, 1)
    assert once.residues[0] == 3 and once.residues[1] == 1
    assert cremona_imaginary(once, 1).residues == code.residues


def test_cremona_preserves_code_relation():
    code = Code((1, 1, 1, 1, 1, 3, 3, 3, 3))
    for _ in range(50):
        i, j, k = sorted(RNG.sample(range(1, 9), 3))
        code = cremona_code(code, i, j, k)
        assert sum(code.residues) % 4 == 1


def test_normalize_positive_seed():
    seed = Code((1, 1, 1, 1, 1, 3, 3, 3, 3))
    best, moves = normalize_code(seed)
    assert best.residues == (1,) * 9
    code = seed
    for move in moves:
        code = pin.apply_move(code, move)
    assert code.residues == best.residues


def test_normalize_negative_seed_reaches_all_minus():
    seed = Code((1, 1, 1, 1, 3, 3, 3))
    seen = reachable_codes(seed)
    assert (3,) * 7 in seen
    code = seed
    for move in seen[(3,) * 7]:
        code = pin.apply_move(code, move)
    assert code.residues == (3,) * 7


def test_normalize_all_plus_is_fixed():
    best, moves = normalize_code(POSITIVE_CODE)
    assert best.residues == POSITIVE_CODE.residues
    assert moves == []


def test_move_set_and_roots():
    # Lexicographic triples, then the swaps: normalize_code's witnesses follow this order.
    e8, e7 = pin.moves(POSITIVE_CODE), pin.moves(NEGATIVE_CODE)
    assert (len(e8), len(e7)) == (56, 26)
    assert e8[:2] == [("cremona", 1, 2, 3), ("cremona", 1, 2, 4)] and e8[-1] == ("cremona", 6, 7, 8)
    assert e7[19:] == [("cremona", 4, 5, 6)] + [("swap", i) for i in range(1, 7)]
    assert pin.move_root(("cremona", 2, 4, 8)) == root_h3(2, 4, 8)
    assert pin.move_root(("swap", 3)) == root_h3(3, 7, 8)
    assert pin.apply_move(NEGATIVE_CODE, ("swap", 2)) == cremona_imaginary(NEGATIVE_CODE, 2)


def test_code_coordinates_read_h_the_real_classes_and_each_pair_once():
    x = pic(2, -1, -1, 0, 0, 0, 0, -3, -3)
    assert pin.code_coordinates(POSITIVE_CODE, x) == x.coeffs
    assert pin.code_coordinates(NEGATIVE_CODE, x) == (2, -1, -1, 0, 0, 0, 0, -3)
    assert pin.code_coordinates(pin.Code((1, 1, 3)), x) == (2, -1, -1, -3, 0, 0)


def test_cremona_matches_reflection_spotcheck():
    e = root_h3(1, 2, 3)
    new = cremona_code(POSITIVE_CODE, 1, 2, 3)
    for x in (pic(0, 1, 0, 0, 0, 0, 0, 0, 0), pic(1, -1, -1, 0, -1, 0, 0, 0, 0), MINUS_K):
        assert qhat_code(new, reflect(x, e)) == qhat_code(POSITIVE_CODE, x)


def _identity_moves(monkeypatch):
    monkeypatch.setattr(pin, "cremona_code", lambda code, i, j, k: code)
    monkeypatch.setattr(pin, "cremona_imaginary", lambda code, i: code)


def _shift_two_residues(monkeypatch):
    # E8's (1,2,3) move with residues 4 and 5 moved by 2: still a valid code.
    move = pin.cremona_code

    def shifted(code, i, j, k):
        new = move(code, i, j, k)
        if code != POSITIVE_CODE or (i, j, k) != (1, 2, 3):
            return new
        return Code(tuple((a + 2) % 4 if t in (4, 5) else a for t, a in enumerate(new.residues)))

    monkeypatch.setattr(pin, "cremona_code", shifted)


def _every_root_cremona_check():
    """The exhaustive check: every move on every root of the code's class lattice,
    as (checks, failures)."""
    roots = {POSITIVE_CODE: enumerate_vectors(lambda_basis("M-connected"), -2),
             NEGATIVE_CODE: enumerate_vectors(lambda_basis("M-1-connected"), -2)}
    moved = [(code, pin.move_root(move), pin.apply_move(code, move))
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
    assert (res.instances, res.failures) == simple
    assert _every_root_cremona_check() == exhaustive
    assert res.passed == (exhaustive[1] == 0)


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
