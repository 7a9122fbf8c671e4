"""The Z/4-valued quadratic function on real divisor classes.

One rule evaluates it: for x = sum n_i b_i over a basis b_i,

    q(x) = x.x + sum n_i t_i  (mod 4),  with twist t_i = q(b_i) - b_i.b_i,

which is the quadratic law q(x+y) = q(x) + q(y) + 2(x.y) summed over the basis
(the cross terms add up to x.x).  Each model is a twist on a basis:

* a blowup-model code: residues (a0, a1, ..., a_{8-2r}) in {+1, -1} mod 4, the
  values on h and on the real exceptional classes, with value 0 on each
  imaginary pair-sum: twist (a0 - 1, a_i + 1, 2) on {h, real l_i, pair sums};
* a root basis of the class lattice on which q vanishes: twist (2, ..., 2).

Cremona moves act on codes exactly as the corresponding reflections act on
classes; `moves`, `apply_move` and `move_root` state the move set, its action
and each move's reflection root once.  `apply_move` is the one move function: it
maps residue tuples to residue tuples, and `reachable_codes` walks whole orbits
on them, building a `Code` only for each newly reached code.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .lattice import LatticeError, PicClass, pic

Move = tuple  # ("cremona", i, j, k) or ("swap", i)

# Imaginary pairs fill in from the top coordinate slots downward.
PAIRS = ((7, 8), (5, 6), (3, 4), (1, 2))


class Code(NamedTuple("Code", [("residues", tuple)])):
    """Residues (a0, a1, ..., a_{8-2r}), each +-1 mod 4 (stored as 1 or 3)."""

    __slots__ = ()

    def __new__(cls, residues: tuple[int, ...]) -> "Code":
        code = tuple.__new__(cls, (residues,))
        code.__post_init__()
        return code

    def __post_init__(self) -> None:
        n = len(self.residues)
        if n not in (9, 7, 5, 3, 1) or any(a not in (1, 3) for a in self.residues):
            raise LatticeError(f"invalid code {self.residues!r}")
        if sum(self.residues) % 4 != 1:
            raise LatticeError(f"code {self.residues!r} violates sum = 1 mod 4")

    @property
    def r(self) -> int:
        return (9 - len(self.residues)) // 2

    @property
    def n_real(self) -> int:
        return len(self.residues) - 1

    @property
    def twist(self) -> tuple[int, ...]:
        """q(b) - b.b on h, the real l_i and the pair sums, in that order."""
        a0, *real = self.residues
        return (a0 - 1, *(a + 1 for a in real), *(2,) * self.r)


# Blowup-model codes of the two connected classes that admit one.
POSITIVE_CODE = Code((1,) * 9)  # M-connected, 8 real points
NEGATIVE_CODE = Code((3,) * 7)  # M-1-connected, 6 real points + 1 imaginary pair


def code_coordinates(code: Code, x: PicClass) -> tuple[int, ...]:
    """Coordinates of a real class over {h, real l_i, pair sums}: c0, the real c_i
    and the first slot of each imaginary pair."""
    c = x.coeffs
    coords = c[: code.n_real + 1]
    for i, j in PAIRS[: code.r]:
        if c[i] != c[j]:
            raise LatticeError(f"{x} is not real for a code with {code.r} imaginary pairs")
        coords += (c[i],)
    return coords


def qhat_code(code: Code, x: PicClass) -> int:
    """Value on a real class via the code's twist on its code coordinates."""
    return qhat_from_coordinates(code_coordinates(code, x), x.square, code.twist)


def qhat_from_coordinates(coords: tuple[int, ...], square: int, twist: tuple[int, ...]) -> int:
    """q(sum n_i b_i) = x.x + sum n_i t_i mod 4, given x.x and the twist t on the basis."""
    return (square + sum(map(mul, coords, twist))) % 4


def moves(code: Code) -> list[Move]:
    """Every Cremona move on codes of this shape: the real triples i < j < k in
    lexicographic order, then, with an imaginary pair, each real index's swap."""
    real = range(1, code.n_real + 1)
    swaps = [("swap", i) for i in real] if code.r else []
    return [("cremona", *ijk) for ijk in combinations(real, 3)] + swaps


def apply_move(residues: tuple[int, ...], move: Move) -> tuple[int, ...]:
    """The residues after one move of `moves`: a triple i < j < k replaces each of
    a0, a_i, a_j, a_k with the sum of the other three mod 4; a swap, which needs an
    imaginary pair, exchanges a0 and a_i."""
    kind, *idx = move
    n = len(residues) - 1
    a = list(residues)
    if kind == "cremona":
        i, j, k = idx
        if not (1 <= i < j < k <= n):
            raise LatticeError(f"invalid Cremona triple ({i},{j},{k}) for {n} real classes")
        total = a[0] + a[i] + a[j] + a[k]
        for t in (0, i, j, k):
            a[t] = (total - a[t]) % 4
    else:
        (i,) = idx
        if n >= 8:
            raise LatticeError("imaginary Cremona move needs at least one imaginary pair")
        if not (1 <= i <= n):
            raise LatticeError(f"invalid real index {i}")
        a[0], a[i] = a[i], a[0]
    return tuple(a)


def move_root(move: Move) -> PicClass:
    """The root whose reflection acts on classes as the move acts on codes:
    h - l_i - l_j - l_k for a triple, h - l_i minus the first imaginary pair for a swap."""
    kind, *idx = move
    slots = idx if kind == "cremona" else (*idx, *PAIRS[0])
    return pic(1, *(-1 if t in slots else 0 for t in range(1, 9)))


def reachable_codes(code: Code) -> dict[tuple[int, ...], list[Move]]:
    """Every code in the Cremona orbit of `code`, in breadth-first order, with a
    witnessing move sequence each.  The walk moves residue tuples and validates each
    newly reached one as a `Code` once."""
    seen: dict[tuple[int, ...], list[Move]] = {code.residues: []}
    queue = deque([code.residues])
    steps = moves(code)
    while queue:
        cur = queue.popleft()
        path = seen[cur]
        for move in steps:
            new = apply_move(cur, move)
            if new not in seen:
                seen[Code(new).residues] = path + [move]
                queue.append(new)
    return seen
