import importlib
import pkgutil
import random

import pytest

import dp1
from dp1 import lattice, real_forms
from dp1.counting import Stratum
from dp1.lattice import RANK, Columns, LatticeError, PicClass, Sublattice, pic
from dp1.pin import qhat_from_coordinates


# Four pairwise-orthogonal roots with integral half-sum: their saturation is a
# full D4, so they are NOT a valid 4A1 model and the constructor must refuse.
BAD_4A1 = [
    pic(0, 0, 0, 0, 0, 0, 0, 1, -1),
    pic(1, -1, 0, 0, 0, 0, 0, -1, -1),
    pic(2, 0, -1, -1, -1, -1, 0, -1, -1),
    pic(-3, 1, 1, 1, 1, 1, 2, 1, 1),
]


def corrupt_4a1_embedding(monkeypatch) -> None:
    """Make the constructor build M-4 as the saturation of BAD_4A1."""
    raw = real_forms._raw_lattice
    monkeypatch.setattr(real_forms, "_raw_lattice", lambda c: real_forms.saturate(
        Sublattice.span(BAD_4A1)) if c.id == "M-4" else raw(c))


def break_the_enumerator(monkeypatch) -> None:
    """Make every short-vector search raise, whatever the lattice."""
    def broken(gram, norm):
        raise LatticeError(f"search of rank {len(gram)} at norm {norm} broke")

    monkeypatch.setattr(lattice, "_search", broken)


def stratum(k: int, vs, qs, xs: Columns | None = None) -> Stratum:
    """A stratum built by hand, to spoil or to repack one: qs as bytes, and the
    coefficient columns of vs packed (so past a lane it raises)."""
    return Stratum(k, vs, bytes(qs), Columns.pack(len(vs), list(zip(*vs)) or [()] * RANK), xs)


def model_caches() -> list:
    """Every module-level memoized function defined in a dp1 module."""
    modules = [importlib.import_module(f"dp1.{m.name}") for m in pkgutil.iter_modules(dp1.__path__)]
    return [fn for mod in modules for fn in vars(mod).values()
            if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__]


def clear_model_caches() -> None:
    """Reset every memoized lattice/model table (used by corruption tests)."""
    for fn in model_caches():
        fn.cache_clear()


@pytest.fixture
def fresh_caches():
    clear_model_caches()
    yield
    clear_model_caches()


@pytest.fixture(scope="session")
def kperp():
    return real_forms.kperp()


@pytest.fixture(scope="session")
def all_classes():
    return real_forms.deformation_classes()


def l(i: int) -> PicClass:
    return PicClass(tuple(1 if j == i else 0 for j in range(9)))


def root_h3(i: int, j: int, k: int) -> PicClass:
    return pic(1, *[-1 if t in (i, j, k) else 0 for t in range(1, 9)])


def vanishing_qhat(lat: Sublattice, x: PicClass) -> int:
    """q on x in the span of a root basis on which it vanishes: twist 2 on each root.
    Raises LatticeError, from coordinates_of, when x is outside the span."""
    return qhat_from_coordinates(lat.coordinates_of(x), x.square, (2,) * lat.rank)


def unimodular(rng: random.Random, k: int) -> list[list[int]]:
    """A seeded k x k integer matrix of determinant +-1: k additions of +-1 times
    one row to another, then a row permutation."""
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(k):
        i, j = rng.sample(range(k), 2)
        sign = rng.choice((-1, 1))
        m[i] = [a + sign * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m
