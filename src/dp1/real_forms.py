"""The 11 real deformation classes of degree-1 del Pezzo surfaces and their
root lattices inside K-perp.

Each class pins a concrete sublattice: the four connected forms arise as
pair-equality kernels (the conjugation-fixed part of their blowup models) over
the imaginary pairs of `pin.PAIRS`, the (M-2)_I forms as the saturation of a D4
root set, and the split forms and M-4 as the orthogonal complement of the
kernel of their first rank pairs.  Every stored embedding is
re-verified at construction time: root type, rank, Cartan shape and generation
by its roots.  The root count and the complement type are checked by
`dp1 verify` (records `card_roots:<id>` and `complement_type:<id>`), not here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .lattice import (
    K,
    LatticeError,
    PicClass,
    Sublattice,
    form_row,
    integer_kernel,
    pic,
)
from .pin import NEGATIVE_CODE, PAIRS, POSITIVE_CODE, Code
from .roots import cartan_gram, identify


class DeformationClass(NamedTuple):
    """One of the 11 real deformation classes (metadata only; no topology computed)."""

    id: str
    topology: str
    smith_type: str
    lambda_type: str
    rank: int
    bertini_dual_id: str
    code: Code | None  # blowup-model code; None: q vanishes on the simple roots

    @property
    def euler_char(self) -> int:
        return 9 - 2 * self.rank


_CLASSES = (
    DeformationClass("M-connected", "RP2#4T2", "M", "E8", 8, "M-split", POSITIVE_CODE),
    DeformationClass("M-1-connected", "RP2#3T2", "M-1", "E7", 7, "M-1-split", NEGATIVE_CODE),
    DeformationClass("M-2-connected", "RP2#2T2", "M-2", "D6", 6, "M-2-split", None),
    DeformationClass("M-3-connected", "RP2#T2", "M-3", "D4+A1", 5, "M-3-split", None),
    DeformationClass("M-4", "RP2", "M-4", "4A1", 4, "M-4", None),
    DeformationClass("M-2-I-a", "RP2+K2", "(M-2)_I", "D4", 4, "M-2-I-a", None),
    DeformationClass("M-2-I-b", "(RP2#T2)+S2", "(M-2)_I", "D4", 4, "M-2-I-b", None),
    DeformationClass("M-split", "RP2+4S2", "M", "0", 0, "M-connected", None),
    DeformationClass("M-1-split", "RP2+3S2", "M-1", "A1", 1, "M-1-connected", None),
    DeformationClass("M-2-split", "RP2+2S2", "M-2", "2A1", 2, "M-2-connected", None),
    DeformationClass("M-3-split", "RP2+S2", "M-3", "3A1", 3, "M-3-connected", None),
)

_BY_ID = {c.id: c for c in _CLASSES}

# A D4 simple system (leaf, center, leaf, leaf) whose orthogonal complement in
# K-perp is again D4; found by exhaustive search over root quadruples.
_D4_SEED = [
    pic(0, 0, 0, 0, 0, 0, 0, 1, -1),
    pic(-3, 1, 1, 1, 1, 1, 1, 1, 2),
    pic(1, -1, 0, 0, 0, 0, 0, -1, -1),
    pic(2, 0, -1, -1, -1, -1, 0, -1, -1),
]


def deformation_classes() -> tuple[DeformationClass, ...]:
    """The 11 classes, connected/self-dual forms first."""
    return _CLASSES


def get_class(class_id: str) -> DeformationClass:
    try:
        return _BY_ID[class_id]
    except KeyError:
        raise LatticeError(f"unknown deformation class {class_id!r}") from None


def bertini_dual(c: DeformationClass) -> DeformationClass:
    return _BY_ID[c.bertini_dual_id]


def bertini_pairs() -> tuple[tuple[DeformationClass, DeformationClass], ...]:
    """The 7 Bertini pairs (self-dual classes paired with themselves)."""
    pairs = []
    seen: set[str] = set()
    for c in _CLASSES:
        if c.id in seen:
            continue
        d = bertini_dual(c)
        seen.update({c.id, d.id})
        pairs.append((c, d))
    return tuple(pairs)


def kperp() -> Sublattice:
    return _kernel_sublattice(())


@lru_cache(maxsize=None)
def _kernel_sublattice(extra_rows: tuple[tuple[int, ...], ...]) -> Sublattice:
    rows = [form_row(K)] + [tuple(r) for r in extra_rows]
    return Sublattice.span([PicClass(t) for t in integer_kernel(rows, 9)])


def orthogonal_complement(lat: Sublattice) -> Sublattice:
    """Saturated sublattice of K-perp orthogonal to every basis vector of lat."""
    return _kernel_sublattice(tuple(form_row(b) for b in lat.basis))


def saturate(lat: Sublattice) -> Sublattice:
    """Saturation of lat inside K-perp (primitive closure of its rational span)."""
    return orthogonal_complement(orthogonal_complement(lat))


def _raw_lattice(c: DeformationClass) -> Sublattice:
    if c.lambda_type == "D4":
        return saturate(Sublattice.span(_D4_SEED))
    # A connected form is the conjugation-fixed part of a blowup model with
    # 8 - rank imaginary pairs: the paired coordinates are equal.  A split form,
    # and M-4, is the complement of that kernel over its first rank pairs.
    connected = c.id.endswith("-connected")
    kernel = _kernel_sublattice(tuple(tuple(int(t == i) - int(t == j) for t in range(9))
                                      for i, j in PAIRS[:8 - c.rank if connected else c.rank]))
    return kernel if connected else orthogonal_complement(kernel)


@lru_cache(maxsize=None)
def lambda_basis(class_id: str) -> Sublattice:
    """Canonical simple-root basis of the class lattice, with all invariants enforced."""
    c = get_class(class_id)
    lat = _raw_lattice(c)
    label, simple = identify(lat)
    if label != c.lambda_type:
        raise LatticeError(f"{class_id}: stored lattice has root type {label}, expected {c.lambda_type}")
    if len(simple) != c.rank or lat.rank != c.rank:
        raise LatticeError(f"{class_id}: rank mismatch")
    basis = Sublattice.span(simple)
    if c.rank and basis.gram != cartan_gram(c.lambda_type):
        raise LatticeError(f"{class_id}: simple system does not match the {c.lambda_type} Cartan matrix")
    # The saturated kernel must be generated by its roots.
    for b in lat.basis:
        basis.coordinates_of(b)
    return basis
