"""The Z/4-valued quadratic function on real divisor classes.

One rule evaluates it: for x = sum n_i b_i over a basis b_i,

    q(x) = x.x + sum n_i t_i  (mod 4),  with twist t_i = q(b_i) - b_i.b_i,

which is the quadratic law q(x+y) = q(x) + q(y) + 2(x.y) summed over the basis
(the cross terms add up to x.x).  Each model is a twist on a basis:

* a blowup-model code: residues (a0, a1, ..., a_{8-2r}) in {+1, -1} mod 4, the
  values on h and on the real exceptional classes, with value 0 on each
  imaginary pair-sum: twist (a0 - 1, a_i + 1, 2) on {h, real l_i, pair sums};
* a root basis of the class lattice on which q vanishes: twist (2, ..., 2).

`qhat_from_coordinates` applies the rule to one vector, `qhat_columns` to a
whole list at once.  Cremona moves act on codes exactly as the corresponding
reflections act on classes; `moves`, `apply_move` (the one move function, on
residue tuples) and `move_root` state the move set, its action and each move's
reflection root once, and `reachable_codes` walks whole orbits on residue
tuples, building a `Code` only for each newly reached code.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .lattice import LatticeError, PicClass, pic, unpack_lanes

Move = tuple  # ("cremona", i, j, k) or ("swap", i)
MOD4 = bytes(x % 4 for x in range(256))  # a signed byte lane's residue mod 4

# Imaginary pairs fill in from the top coordinate slots downward.
PAIRS = ((7, 8), (5, 6), (3, 4), (1, 2))


class Code(NamedTuple("Code", [("residues", tuple), ("twist", tuple)])):
    """Residues (a0, a1, ..., a_{8-2r}), each +-1 mod 4 (stored as 1 or 3), and the
    twist q(b) - b.b on h, the real l_i and the pair sums, in that order, stored once."""

    __slots__ = ()

    def __new__(cls, residues: tuple[int, ...]) -> "Code":
        code = tuple.__new__(cls, (residues, ()))
        code.__post_init__()
        a0, *real = residues
        return tuple.__new__(cls, (residues, (a0 - 1, *[a + 1 for a in real], *(2,) * code.r)))

    def __post_init__(self) -> None:
        n = len(self.residues)
        if n not in (9, 7, 5, 3, 1) or not {*self.residues} <= {1, 3}:
            raise LatticeError(f"invalid code {self.residues!r}")
        if sum(self.residues) % 4 != 1:
            raise LatticeError(f"code {self.residues!r} violates sum = 1 mod 4")

    @property
    def r(self) -> int:
        return (9 - len(self.residues)) // 2

    @property
    def n_real(self) -> int:
        return len(self.residues) - 1


# Blowup-model codes of the two connected classes that admit one.
POSITIVE_CODE = Code((1,) * 9)  # M-connected, 8 real points
NEGATIVE_CODE = Code((3,) * 7)  # M-1-connected, 6 real points + 1 imaginary pair


def code_coordinates(code: Code, c: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates over {h, real l_i, pair sums} of a real class with coefficients
    c: c0, the real c_i and the first slot of each imaginary pair."""
    coords = c[: code.n_real + 1]
    for i, j in PAIRS[: code.r]:
        if c[i] != c[j]:
            raise LatticeError(f"{PicClass(c)} is not real for a code with {code.r} imaginary pairs")
        coords += (c[i],)
    return coords


def code_columns(code: Code, columns: list) -> list:
    """The columns of `code_coordinates` over a list given by its RANK coefficient
    columns: where the two columns of an imaginary pair differ, the walk names the
    first non-real class."""
    if any(columns[i] != columns[j] for i, j in PAIRS[: code.r]):
        for c in zip(*columns):
            code_coordinates(code, c)
    return columns[: code.n_real + 1] + [columns[i] for i, _ in PAIRS[: code.r]]


def qhat_code(code: Code, x: PicClass) -> int:
    """Value on a real class via the code's twist on its code coordinates."""
    return qhat_from_coordinates(code_coordinates(code, x.coeffs), x.square, code.twist)


def qhat_from_coordinates(coords: tuple[int, ...], square: int, twist: tuple[int, ...]) -> int:
    """q(sum n_i b_i) = x.x + sum n_i t_i mod 4, given x.x and the twist t on the basis."""
    return (square + sum(map(mul, coords, twist))) % 4


def qhat_columns(columns: list[int], n: int, square: int, twist: tuple[int, ...]) -> bytes:
    """`qhat_from_coordinates` of n vectors of one square, one byte each, off their
    coordinate columns as `pack_lanes` ints (or any lanes congruent to them mod 4).
    Lanes are reduced mod 4 before the multiply-add: none passes 3 + 9 * 8 = 75."""
    acc = int.from_bytes(bytes((square % 4,)) * n, "little")
    for t, column in zip(twist, columns):
        if t % 4:
            acc += t % 4 * int.from_bytes(bytes(unpack_lanes(column, n)).translate(MOD4), "little")
    return acc.to_bytes(n, "little").translate(MOD4)


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
    n = len(residues) - 1
    a = list(residues)
    if move[0] == "cremona":
        _, i, j, k = move
        if not (1 <= i < j < k <= n):
            raise LatticeError(f"invalid Cremona triple ({i},{j},{k}) for {n} real classes")
        s = a[0] + a[i] + a[j] + a[k]
        a[0], a[i], a[j], a[k] = (s - a[0]) % 4, (s - a[i]) % 4, (s - a[j]) % 4, (s - a[k]) % 4
    else:
        _, i = move
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
