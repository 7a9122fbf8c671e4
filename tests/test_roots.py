import random

import pytest

from dp1 import real_forms, roots
from dp1.lattice import Sublattice, enumerate_vectors
from dp1.roots import _simple_roots, identify, lex_positive
from test_lattice import unimodular

KINDS = ("raw", "cartan", "complement")


def lattice_of(kind: str, class_id: str) -> Sublattice:
    """The class lattice as built (raw), its simple-root basis, or its complement in K-perp."""
    basis = real_forms.lambda_basis(class_id)
    if kind == "raw":
        return real_forms._raw_lattice(real_forms.get_class(class_id))
    return basis if kind == "cartan" else real_forms.orthogonal_complement(basis)


def quadratic_simple_roots(vectors) -> set[tuple[int, ...]]:
    """The definition, as the reference: a positive root v is simple iff no v - p,
    p a positive root, is a positive root."""
    pos = {v.coeffs for v in vectors if lex_positive(v)}
    return {v for v in pos if not any(tuple(a - b for a, b in zip(v, p)) in pos for p in pos)}


def assert_simple_roots_match_the_definition(lat: Sublattice) -> None:
    vectors = enumerate_vectors(lat, -2)
    simple = _simple_roots(vectors)
    assert len(simple) == len({v.coeffs for v in simple})
    assert {v.coeffs for v in simple} == quadratic_simple_roots(vectors)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("c", real_forms.deformation_classes(), ids=lambda c: c.id)
def test_one_pass_simple_roots_match_the_definition(kind, c):
    lat = lattice_of(kind, c.id)
    assert_simple_roots_match_the_definition(lat)
    assert len(_simple_roots(enumerate_vectors(lat, -2))) == (c.rank if kind != "complement"
                                                              else real_forms.bertini_dual(c).rank)


@pytest.mark.parametrize("name", [c.id for c in real_forms.deformation_classes() if c.rank > 1]
                         + ["K-perp"])
def test_one_pass_simple_roots_on_gram_changed_bases(name):
    # The seeded unimodular basis changes of test_lattice: the same root set, listed
    # in another order, and the same simple roots.
    lat = real_forms.kperp() if name == "K-perp" else real_forms.lambda_basis(name)
    want = quadratic_simple_roots(enumerate_vectors(lat, -2))
    rng = random.Random(f"unimodular:{name}")
    for _ in range(2):
        moved = Sublattice.span([lat.from_coordinates(tuple(row)) for row in unimodular(rng, lat.rank)])
        assert_simple_roots_match_the_definition(moved)
        assert quadratic_simple_roots(enumerate_vectors(moved, -2)) == want


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("kind", KINDS)
def test_identify_ignores_the_order_of_its_roots(monkeypatch, kind, order):
    rng = random.Random(f"identify:{kind}")
    lattices = [lattice_of(kind, c.id) for c in real_forms.deformation_classes()]
    want = [identify(lat) for lat in lattices]
    listed = roots.enumerate_vectors

    def reordered(lat, norm):
        vectors = listed(lat, norm)
        if order == "reversed":
            return vectors[::-1]
        rng.shuffle(vectors)
        return vectors

    monkeypatch.setattr(roots, "enumerate_vectors", reordered)
    identify.cache_clear()  # else the reordered run reads the reference run's results
    assert [identify(lat) for lat in lattices] == want
    assert identify.cache_info().misses == len(set(lattices))
