import pytest

from conftest import BAD_4A1, corrupt_4a1_embedding
from dp1 import real_forms
from dp1.golden import ROOT_COUNTS
from dp1.lattice import LatticeError, Sublattice, enumerate_vectors, pic
from dp1.real_forms import (
    bertini_dual,
    bertini_pairs,
    get_class,
    lambda_basis,
    orthogonal_complement,
    saturate,
)
from dp1.roots import cartan_gram, root_system_type

RANKS = {"E8": 8, "E7": 7, "D6": 6, "D4+A1": 5, "4A1": 4, "D4": 4,
         "0": 0, "A1": 1, "2A1": 2, "3A1": 3}


def test_eleven_classes(all_classes):
    assert len(all_classes) == 11
    assert len({c.id for c in all_classes}) == 11
    assert len(bertini_pairs()) == 7


def test_rank_follows_lambda_type(all_classes):
    for c in all_classes:
        assert c.rank == RANKS[c.lambda_type]
        assert c.euler_char == 9 - 2 * c.rank


def test_named_lookups():
    top = get_class("M-connected")
    assert (top.lambda_type, top.rank, top.topology) == ("E8", 8, "RP2#4T2")
    split = get_class("M-split")
    assert (split.lambda_type, split.rank, split.topology) == ("0", 0, "RP2+4S2")
    with pytest.raises(LatticeError):
        get_class("M-5")


def test_bertini_pairing(all_classes):
    expected = {"E8": "0", "E7": "A1", "D6": "2A1", "D4+A1": "3A1",
                "4A1": "4A1", "D4": "D4", "0": "E8", "A1": "E7",
                "2A1": "D6", "3A1": "D4+A1"}
    for c in all_classes:
        d = bertini_dual(c)
        assert bertini_dual(d) is c
        assert d.lambda_type == expected[c.lambda_type]
        assert c.rank + d.rank == 8
        assert c.euler_char + d.euler_char == 2
        assert c.smith_type == d.smith_type


def test_lambda_basis_shapes(all_classes):
    for c in all_classes:
        lat = lambda_basis(c.id)
        assert lat.rank == c.rank
        if c.rank:
            assert lat.gram == cartan_gram(c.lambda_type)
            assert len(enumerate_vectors(lat, -2)) == ROOT_COUNTS[c.lambda_type]
        else:
            assert lat.basis == ()


def test_e8_standard_basis():
    basis = lambda_basis("M-connected").basis
    chain = [pic(0, *[1 if t == i else (-1 if t == i + 1 else 0) for t in range(1, 9)])
             for i in range(1, 8)]
    assert list(basis[:7]) == chain
    assert basis[7] == pic(1, -1, -1, -1, 0, 0, 0, 0, 0)


def test_complement_types(all_classes):
    for c in all_classes:
        comp = orthogonal_complement(lambda_basis(c.id))
        dual_type = get_class(c.bertini_dual_id).lambda_type
        assert root_system_type(comp) == dual_type
        assert comp.rank == 8 - c.rank


def test_e7_complement_has_two_roots():
    comp = orthogonal_complement(lambda_basis("M-1-connected"))
    assert len(enumerate_vectors(comp, -2)) == 2


def test_four_a1_saturation_exactly_eight_roots():
    lat = lambda_basis("M-4")
    sat = saturate(lat)
    assert sat.rank == 4
    assert len(enumerate_vectors(sat, -2)) == 8


def test_root_system_type_labels(kperp):
    assert root_system_type(kperp) == "E8"
    assert root_system_type(Sublattice.span([])) == "0"
    assert root_system_type(lambda_basis("M-2-connected")) == "D6"
    rootless = Sublattice.span([2 * pic(0, 1, -1, 0, 0, 0, 0, 0, 0)])
    assert root_system_type(rootless) == "0"


def test_saturate_restores_primitive_vectors():
    e = pic(0, 1, -1, 0, 0, 0, 0, 0, 0)
    sat = saturate(Sublattice.span([2 * e]))
    assert sat.rank == 1
    assert len(enumerate_vectors(sat, -2)) == 2


def test_constructor_rejects_d4_saturating_quadruple(fresh_caches, monkeypatch):
    # Orthogonal root quadruple with integral half-sum: saturates to D4, so it
    # is not an admissible 4A1 model and must fail loudly.
    assert all(a.dot(b) == 0 for a in BAD_4A1 for b in BAD_4A1 if a != b)
    corrupt_4a1_embedding(monkeypatch)
    with pytest.raises(LatticeError):
        lambda_basis("M-4")


def test_simple_roots_that_miss_part_of_the_lattice_are_refused(fresh_caches, monkeypatch):
    # A1's simple root e against the raw lattice span(2e): the root gram is the
    # Cartan matrix and 2e has the integral coordinates (2,) over e, but span(e)
    # and span(2e) have determinants 2 and 8.
    e = lambda_basis("M-1-split").basis[0]
    assert Sublattice.span([e]).coordinates_of(2 * e) == (2,)
    raw = real_forms._raw_lattice
    monkeypatch.setattr(real_forms, "_raw_lattice",
                        lambda c: Sublattice.span([2 * e]) if c.id == "M-1-split" else raw(c))
    monkeypatch.setattr(real_forms, "identify", lambda lat: ("A1", (e,)))
    real_forms.lambda_basis.cache_clear()
    with pytest.raises(LatticeError, match="^M-1-split: the simple roots do not generate the class lattice"):
        lambda_basis("M-1-split")


def test_connected_forms_complement_their_partners():
    for cid in ("M-2-connected", "M-3-connected"):
        c = get_class(cid)
        mine = lambda_basis(cid)
        partner = lambda_basis(c.bertini_dual_id)
        for a in mine.basis:
            for b in partner.basis:
                assert a.dot(b) == 0
