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
    """Immutable dense scalar matrix, stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
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
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

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
        columns = [other.entries[j :: other.cols] for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            ri = self.row(i)
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
        return [
            [str(Fraction(e)) for e in self.row(i)] for i in range(self.rows)
        ]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True)
class ValueDistribution:
    """How pattern-class members are sampled.

    * entries get a random sign and a magnitude from star_magnitude_range;
    ? entries are zero with quest_zero_probability and sampled like * otherwise.
    Sampled values are exact Fractions so membership checks stay exact.
    """

    star_magnitude_range: tuple = (Fraction(1, 2), Fraction(2))
    quest_zero_probability: float = 0.25
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.star_magnitude_range
        if not lo > 0:
            raise ValueError("star magnitude lower bound must be positive")
        if hi < lo:
            raise ValueError("empty star magnitude range")
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
    if pattern.shape != matrix.shape:
        raise DimensionError(
            f"pattern {pattern.rows}x{pattern.cols} vs matrix"
            f" {matrix.rows}x{matrix.cols}"
        )
    for sym, val in zip(pattern.entries, matrix.entries):
        if sym is ZERO:
            if abs(val) > tol:
                return False
        elif sym is STAR:
            if abs(val) <= tol:
                return False
    return True


def _draw_nonzero(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    # rational magnitude in [lo, hi] at granularity 1/64 (refined if needed)
    denom = 64
    k_lo = -((-lo.numerator * denom) // lo.denominator)  # ceil(lo * denom)
    k_hi = (hi.numerator * denom) // hi.denominator  # floor(hi * denom)
    while k_hi < k_lo:
        denom *= 2
        k_lo = -((-lo.numerator * denom) // lo.denominator)
        k_hi = (hi.numerator * denom) // hi.denominator
    magnitude = Fraction(rng.randint(k_lo, k_hi), denom)
    sign = rng.choice((1, -1))
    return sign * magnitude


def sample_member(pattern: PatternMatrix, dist: ValueDistribution) -> RealizationMatrix:
    """Deterministically sample a member of the pattern class (exact Fractions)."""
    rng = random.Random(dist.seed)
    lo, hi = (Fraction(b) for b in dist.star_magnitude_range)
    entries = []
    for sym in pattern.entries:
        if sym is ZERO:
            entries.append(Fraction(0))
        elif sym is STAR:
            entries.append(_draw_nonzero(rng, lo, hi))
        else:  # QUEST
            if rng.random() < dist.quest_zero_probability:
                entries.append(Fraction(0))
            else:
                entries.append(_draw_nonzero(rng, lo, hi))
    return RealizationMatrix(pattern.rows, pattern.cols, tuple(entries))


def _halve(value):
    if isinstance(value, int):
        return Fraction(value, 2)
    return value / 2


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
    left = []
    right = []
    for idx, (sa, sb, value) in enumerate(zip(a.entries, b.entries, total.entries)):
        i, j = divmod(idx, a.cols) if a.cols else (idx, 0)
        nonzero = value != 0
        if sa is ZERO and sb is ZERO:
            if nonzero:
                raise MembershipError(
                    f"entry ({i}, {j}) = {value} but the sum pattern is 0", i, j
                )
            left.append(0)
            right.append(0)
        elif (sa is ZERO) != (sb is ZERO) and (sa is STAR or sb is STAR):
            # sum pattern is *: the value must be nonzero and goes to the * side
            if not nonzero:
                raise MembershipError(
                    f"entry ({i}, {j}) = 0 but the sum pattern is *", i, j
                )
            if sa is STAR:
                left.append(value)
                right.append(0)
            else:
                left.append(0)
                right.append(value)
        elif sa is ZERO:  # (0, ?)
            left.append(0)
            right.append(value)
        elif sb is ZERO:  # (?, 0)
            left.append(value)
            right.append(0)
        else:  # both in {*, ?}
            if nonzero:
                half = _halve(value)
                left.append(half)
                right.append(half)
            else:
                left.append(-1)
                right.append(1)
    shape = a.shape
    return (
        RealizationMatrix(shape[0], shape[1], tuple(left)),
        RealizationMatrix(shape[0], shape[1], tuple(right)),
    )
