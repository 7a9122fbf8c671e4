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
reflections act on classes; `moves`, `flips` (the one move rule, on a code's
3-bits) and `move_root` state the move set, its action and each move's
reflection root once.  `apply_move` moves residue tuples by it, and
`reachable_codes` walks whole orbits on 3-bit ints, building a `Code` once for
each reached code.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import NamedTuple

from .lattice import Columns, LatticeError, PicClass, pic

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


def code_columns(code: Code, columns: Columns) -> Columns:
    """The `Columns` of `code_coordinates` over a list given by its RANK coefficient
    columns: where the two columns of an imaginary pair differ, the walk names the
    first non-real class."""
    cols = columns.cols
    if any(cols[i].packed != cols[j].packed for i, j in PAIRS[: code.r]):
        for c in columns.rows():
            code_coordinates(code, c)
    return columns._replace(cols=cols[: code.n_real + 1] + tuple(cols[i] for i, _ in PAIRS[: code.r]))


def qhat_code(code: Code, x: PicClass) -> int:
    """Value on a real class via the code's twist on its code coordinates."""
    return qhat_from_coordinates(code_coordinates(code, x.coeffs), x.square, code.twist)


def qhat_from_coordinates(coords: tuple[int, ...], square: int, twist: tuple[int, ...]) -> int:
    """q(sum n_i b_i) = x.x + sum n_i t_i mod 4, given x.x and the twist t on the basis."""
    return (square + sum(map(mul, coords, twist))) % 4


def qhat_columns(xs: Columns, square: int, twist: tuple[int, ...]) -> bytes:
    """`qhat_from_coordinates` of the xs.n vectors of one square, one byte each, off
    their coordinate `Columns` (or any lanes congruent to them mod 4).  Lanes are
    reduced mod 4 before the multiply-add: none passes 3 + 9 * 9 = 84."""
    acc = int.from_bytes(bytes((square % 4,)) * xs.n, "little")
    for t, (column, _) in zip(twist, xs.cols):
        if t % 4:
            acc += t % 4 * int.from_bytes(bytes(xs.lanes(column)).translate(MOD4), "little")
    return acc.to_bytes(xs.n, "little").translate(MOD4)


def moves(code: Code) -> list[Move]:
    """Every Cremona move on codes of this shape: the real triples i < j < k in
    lexicographic order, then, with an imaginary pair, each real index's swap."""
    real = range(1, code.n_real + 1)
    swaps = [("swap", i) for i in real] if code.r else []
    return [("cremona", *ijk) for ijk in combinations(real, 3)] + swaps


def flips(move: Move, n: int) -> tuple[int, int]:
    """A move of `moves` on codes with n real classes as (mask, parity) on the
    code's 3-bits (bit p set where a_p = 3): the masked bits flip where the number
    of them set has this parity.  With a = 1 + 2b, a triple gives a0, a_i, a_j, a_k
    each the sum of the other three mod 4, 3 where their b's sum to even: all four
    flip where an even number are 3.  A swap exchanges a0 and a_i: both flip where
    one is."""
    if move[0] == "cremona":
        _, i, j, k = move
        if not (1 <= i < j < k <= n):
            raise LatticeError(f"invalid Cremona triple ({i},{j},{k}) for {n} real classes")
        return 1 | 1 << i | 1 << j | 1 << k, 0
    _, i = move
    if n >= 8:
        raise LatticeError("imaginary Cremona move needs at least one imaginary pair")
    if not (1 <= i <= n):
        raise LatticeError(f"invalid real index {i}")
    return 1 | 1 << i, 1


def apply_move(residues: tuple[int, ...], move: Move) -> tuple[int, ...]:
    """The residues after one move of `moves`, by its `flips`."""
    mask, parity = flips(move, len(residues) - 1)
    mask *= sum(a >> 1 & mask >> p for p, a in enumerate(residues)) % 2 == parity
    return tuple(a ^ (mask >> p & 1) * 2 for p, a in enumerate(residues))


def move_root(move: Move) -> PicClass:
    """The root whose reflection acts on classes as the move acts on codes:
    h - l_i - l_j - l_k for a triple, h - l_i minus the first imaginary pair for a swap."""
    kind, *idx = move
    slots = idx if kind == "cremona" else (*idx, *PAIRS[0])
    return pic(1, *(-1 if t in slots else 0 for t in range(1, 9)))


def reachable_codes(code: Code) -> dict[tuple[int, ...], list[Move]]:
    """Every code in the Cremona orbit of `code`, in breadth-first order, with a
    witnessing move sequence each.  The walk moves 3-bit ints by each move's `flips`
    and validates each reached code as a `Code` once."""
    steps = [(move, *flips(move, code.n_real)) for move in moves(code)]
    seen: dict[int, list[Move]] = {sum(a >> 1 << p for p, a in enumerate(code.residues)): []}
    queue = [*seen]
    for cur in queue:
        path = seen[cur]
        for move, mask, parity in steps:
            new = cur ^ mask if (cur & mask).bit_count() % 2 == parity else cur
            if new not in seen:
                seen[new] = path + [move]
                queue.append(new)
    return {Code(tuple(1 | (b >> p & 1) << 1 for p in range(len(code.residues)))).residues: path
            for b, path in seen.items()}
