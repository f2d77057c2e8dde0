"""Numeric members of pattern classes: membership, sampling, decomposition.

Realization matrices hold plain Python scalars.  Tests and certificates use
ints and fractions.Fraction so that membership and rank statements are exact;
float and complex entries appear only in numeric oracle paths.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .errors import DimensionError, MembershipError
from .pattern import PatternMatrix
from .symbols import STAR, ZERO

__all__ = [
    "RealizationMatrix",
    "ValueDistribution",
    "contains",
    "sample_member",
    "decompose_sum",
    "derive_seed",
]

_EXACT_TYPES = (int, Fraction)


@dataclass(frozen=True)
class RealizationMatrix:
    """Immutable dense scalar matrix, stored row-major as a tuple."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.rows < 0 or self.cols < 0:
            raise DimensionError(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols}"
                f" entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RealizationMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(nrows, ncols, tuple([e for r in rows for e in r]))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RealizationMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, index: tuple[int, int]):
        i, j = index
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_rows(self) -> list[list]:
        # one walk over the entries: a tuple slice per row parks tuples on
        # CPython's free lists
        values = iter(self.entries)
        return [list(islice(values, self.cols)) for _ in range(self.rows)]

    def __add__(self, other: "RealizationMatrix") -> "RealizationMatrix":
        if not isinstance(other, RealizationMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return RealizationMatrix(
            self.rows,
            self.cols,
            tuple([a + b for a, b in zip(self.entries, other.entries)]),
        )

    def __sub__(self, other: "RealizationMatrix") -> "RealizationMatrix":
        if not isinstance(other, RealizationMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(
                f"cannot subtract {other.rows}x{other.cols} from"
                f" {self.rows}x{self.cols}"
            )
        return RealizationMatrix(
            self.rows,
            self.cols,
            tuple([a - b for a, b in zip(self.entries, other.entries)]),
        )

    def __matmul__(self, other: "RealizationMatrix") -> "RealizationMatrix":
        if not isinstance(other, RealizationMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by"
                f" {other.rows}x{other.cols}"
            )
        values = list(other.entries)  # list slices, not parked tuple slices
        columns = [values[j :: other.cols] for j in range(other.cols)]
        out = []
        for ri in self.to_rows():
            for cj in columns:
                out.append(sum(map(operator.mul, ri, cj)))
        return RealizationMatrix(self.rows, other.cols, tuple(out))

    def scaled(self, factor) -> "RealizationMatrix":
        return RealizationMatrix(
            self.rows, self.cols, tuple([factor * e for e in self.entries])
        )

    def transpose(self) -> "RealizationMatrix":
        entries = tuple([
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        ])
        return RealizationMatrix(self.cols, self.rows, entries)

    def block(self, row0: int, row1: int, col0: int, col1: int) -> "RealizationMatrix":
        """Submatrix of rows [row0, row1) and columns [col0, col1)."""
        if row0 < 0 or col0 < 0 or row1 > self.rows or col1 > self.cols:
            raise IndexError(
                f"rows [{row0}, {row1}) and columns [{col0}, {col1}) out of range"
                f" for {self.rows}x{self.cols}"
            )
        entries = tuple([
            self.entries[i * self.cols + j]
            for i in range(row0, row1)
            for j in range(col0, col1)
        ])
        return RealizationMatrix(row1 - row0, col1 - col0, entries)

    def is_exact(self) -> bool:
        return all(isinstance(e, _EXACT_TYPES) for e in self.entries)

    def rational_strings(self) -> list[list[str]]:
        """Entries rendered as exact rational strings, e.g. '3/2'."""
        if not self.is_exact():
            raise ValueError("matrix has non-rational entries")
        return [[str(Fraction(e)) for e in row] for row in self.to_rows()]

    def __str__(self) -> str:
        return "\n".join(" ".join([str(e) for e in row]) for row in self.to_rows())


@dataclass(frozen=True)
class ValueDistribution:
    """How pattern-class members are sampled.

    * entries get a random sign and a magnitude k / 64 with 32 <= k <= 128;
    ? entries are zero with quest_zero_probability and sampled like * otherwise.
    Sampled values are exact Fractions so membership checks stay exact.
    """

    quest_zero_probability: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.quest_zero_probability <= 1:
            raise ValueError("quest_zero_probability outside [0, 1]")


def derive_seed(base: int, *indices: int) -> int:
    """Stable 64-bit seed derived from a base seed and trial indices."""
    x = (base ^ 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    for i in indices:
        x ^= (i + 0x632BE59BD9B4E019) & 0xFFFFFFFFFFFFFFFF
        x = (x * 0xBF58476D1CE4E5B9 + 1) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
    return x


def contains(pattern: PatternMatrix, matrix: RealizationMatrix, tol=0) -> bool:
    """Pattern-class membership.

    Zero entries must satisfy |m| <= tol, star entries |m| > tol, quest
    entries are unconstrained.  With tol=0 and exact entries this is exact
    membership.
    """
    if tol < 0:
        raise ValueError("negative tolerance")
    if tol != tol:
        raise ValueError("NaN tolerance")
    if pattern.shape != matrix.shape:
        raise DimensionError(
            f"pattern {pattern.rows}x{pattern.cols} vs matrix"
            f" {matrix.rows}x{matrix.cols}"
        )
    exact = tol == 0
    # A falsy entry is 0 and a truthy one is nonzero or NaN, so abs (which
    # allocates a new Fraction) is needed only at a truthy 0 entry or with
    # a tolerance.  The cached Symbol tuple walks faster than the masks here.
    for sym, val in zip(pattern.entries, matrix.entries):
        if sym is ZERO:
            if val and abs(val) > tol:
                return False
        elif sym is STAR:
            if not val if exact else abs(val) <= tol:
                return False
    return True


def _halve(value):
    if isinstance(value, int):
        return Fraction(value, 2)
    if type(value) is Fraction:  # a third cheaper than value / 2
        return Fraction(value.numerator, 2 * value.denominator)
    return value / 2


# sign * k / 64 for k = 32..128, indexed by k - 32: every nonzero value
# sample_member draws, shared by every call
_POSITIVE = tuple([Fraction(k, 64) for k in range(32, 129)])
_NEGATIVE = tuple([-v for v in _POSITIVE])
_ZERO = Fraction(0)
# id of each grid value -> its half.  The two tables above keep every keyed
# value alive, so no other object can take one of these ids.
_HALVES = {id(v): _halve(v) for v in _POSITIVE + _NEGATIVE}


def _sample_row(nz: int, star: int, cols: int, draw, bits, quest_zero: float) -> list:
    """One row of sample_member, drawing from draw = random and
    bits = getrandbits of one random.Random.

    randint(32, 128) is 32 + bits(7), drawn again while bits(7) >= 97, and
    choice((1, -1)) is index bits(2), drawn again while bits(2) >= 2: this
    is random.Random._randbelow_with_getrandbits, so the stream is the one
    those two calls consume."""
    row = [_ZERO] * cols
    while nz:
        low = nz & -nz
        nz ^= low
        if star & low or draw() >= quest_zero:
            k = bits(7)
            while k >= 97:
                k = bits(7)
            sign = bits(2)
            while sign >= 2:
                sign = bits(2)
            row[low.bit_length() - 1] = _NEGATIVE[k] if sign else _POSITIVE[k]
    return row


def sample_member(pattern: PatternMatrix, dist: ValueDistribution) -> RealizationMatrix:
    """Deterministically sample a member of the pattern class (exact Fractions).

    Entries are drawn row-major from random.Random(dist.seed); a 0 entry
    draws nothing and is Fraction(0).  A ? entry draws random() and is
    Fraction(0) below quest_zero_probability.  Every other ? and every * is
    sign * k / 64, with k = randint(32, 128) drawn before
    sign = choice((1, -1)); _sample_row makes those two calls through
    getrandbits.  The values are shared Fractions from two module-level
    tables, one per sign.  A seed gives the same member across versions only while this
    order of calls is kept.
    """
    rng = random.Random(dist.seed)
    draw, bits = rng.random, rng.getrandbits
    quest_zero, cols = dist.quest_zero_probability, pattern.cols
    entries = []
    for n, s in zip(pattern.nz, pattern.star):
        entries += _sample_row(n, s, cols, draw, bits, quest_zero)
    return RealizationMatrix(pattern.rows, cols, tuple(entries))


def decompose_sum(
    total: RealizationMatrix, a: PatternMatrix, b: PatternMatrix
) -> tuple[RealizationMatrix, RealizationMatrix]:
    """Split a member of the class of a + b into members of the two classes.

    Returns (ra, rb) with ra in the class of `a`, rb in the class of `b`
    and ra + rb equal to `total` entry by entry, in exact arithmetic.  The
    entrywise choices are fixed:

      total 0: (0,0) patterns -> (0, 0); both of {*,?} -> (-1, 1);
               (0,?) or (?,0) -> (0, 0)
      total nonzero: sum pattern * -> value goes to the * side;
               both of {*,?} -> (half, half); (0,?) -> (0, value);
               (?,0) -> (value, 0)

    Raises MembershipError if `total` is not in the class of a + b.
    """
    if a.shape != b.shape:
        raise DimensionError(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )
    if total.shape != a.shape:
        raise DimensionError(
            f"sum member {total.rows}x{total.cols} vs patterns {a.rows}x{a.cols}"
        )
    values = iter(total.entries)  # a slice per row parks tuples on free lists
    left, right = [], []
    halves = _HALVES.get
    for i, (an, ast, bn, bst) in enumerate(zip(a.nz, a.star, b.nz, b.star)):
        both, stars = an & bn, ast | bst  # a * outside `both` makes a + b *
        for j, value in enumerate(islice(values, a.cols)):
            bit = 1 << j
            if both & bit:  # both in {*, ?}: halves, or a cancelling pair
                x = y = halves(id(value))
                if x is None:
                    x, y = (_halve(value),) * 2 if value else (-1, 1)
            elif not value and stars & bit:
                raise MembershipError(
                    f"entry ({i}, {j}) = 0 but the sum pattern is *", i, j
                )
            elif an & bit:  # (*, 0) or (?, 0)
                x, y = value, 0
            elif bn & bit:  # (0, *) or (0, ?)
                x, y = 0, value
            elif value:
                raise MembershipError(
                    f"entry ({i}, {j}) = {value} but the sum pattern is 0", i, j
                )
            else:
                x = y = 0
            left.append(x)
            right.append(y)
    shape = a.shape
    return (
        RealizationMatrix(shape[0], shape[1], tuple(left)),
        RealizationMatrix(shape[0], shape[1], tuple(right)),
    )
