"""Dense pattern matrices over {0, *, ?} with semiring algebra.

A pattern matrix fixes, for every position, whether the entry is zero,
nonzero, or arbitrary.  The set of real matrices consistent with a pattern
is its pattern class.  Addition and multiplication of pattern matrices
(entrywise / semiring product) over-approximate the corresponding
operations on pattern-class members.

Each row is stored as two Python-int bit masks: bit j of `nz[i]` is set
when entry (i, j) is not 0, and bit j of `star[i]` when it is *.  A ?
entry is a bit of nz that is clear in star, so star is always a subset of
nz.  All algebra runs on the masks; the Symbol tuple `entries` is derived
from them on first use.  The product rule is stated once, in
`_product_rows`; `@` and the powers of `_powers` both run on it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionError, TextParseError
from .symbols import QUEST, STAR, ZERO, Symbol

__all__ = [
    "PatternMatrix",
    "identity_pattern",
    "hstack",
    "vstack",
    "parse_pattern_text",
]

_TOKENS = frozenset("0*?")
_NZ_BITS = str.maketrans("0*?", "011")
_STAR_BITS = str.maketrans("0*?", "010")


def _masks(words: Iterable[str]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row masks (nz, star) of rows given as their tokens joined without
    spaces."""
    nz, star = [], []
    for word in words:
        word = word[::-1]  # the last column is the most significant bit
        nz.append(int(word.translate(_NZ_BITS) or "0", 2))
        star.append(int(word.translate(_STAR_BITS) or "0", 2))
    return tuple(nz), tuple(star)


# a row's token at each column, from the binary digits of its masks there
_DIGIT_TOKENS = {("0", "0"): "0", ("1", "0"): "?", ("1", "1"): "*"}


def _word(nz: int, star: int, cols: int) -> str:
    """The tokens of one row, joined without spaces, from its masks."""
    top = 1 << cols  # a leading 1 keeps each mask at cols binary digits
    # bin(...)[:2:-1] drops '0b1' and reverses, so column j is at index j
    digits = zip(bin(nz | top)[:2:-1], bin(star | top)[:2:-1])
    return "".join(map(_DIGIT_TOKENS.get, digits))


def _token(e: Symbol | str) -> str:
    return (e if isinstance(e, Symbol) else Symbol.from_token(e))._value_


def ones(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _product_rows(x_nz, x_star, y_nz, y_star) -> tuple[list[int], list[int]]:
    """Row masks of X @ Y: entry (i, j) is 0 when no k has both factors
    nonzero, * when exactly one k does and both of its factors are *, and ?
    otherwise.  Row i ORs together Y's rows at the set bits k of x_nz[i];
    x_star[i] is read only at those bits."""
    out_nz, out_star = [], []
    for n, s in zip(x_nz, x_star):
        reached = twice = starred = 0
        while n:
            low = n & -n
            k = low.bit_length() - 1
            row = y_nz[k]
            twice |= reached & row
            reached |= row
            if s & low:
                starred |= y_star[k]
            n ^= low
        out_nz.append(reached)
        out_star.append(starred & ~twice)
    return out_nz, out_star


def _powers(left: "PatternMatrix", a: "PatternMatrix"):
    """left, left A, left A^2, ... without end, each made when asked for.

    When every diagonal entry of A is ?, each power turns every nonzero of
    the last into ? and adds only columns reached from the row's frontier,
    the columns new at the last power; so only the frontier is multiplied.
    """
    if any(a[i, i] is not QUEST for i in range(a.rows)):
        while True:
            yield left
            left = left @ a
    nz, star = left.nz, left.star
    frontier = nz
    while True:
        yield left
        reached, starred = _product_rows(frontier, star, a.nz, a.star)
        frontier = [r & ~m for r, m in zip(reached, nz)]
        nz = [m | r for m, r in zip(nz, reached)]
        star = [s & f for s, f in zip(starred, frontier)]
        left = PatternMatrix._unchecked(left.rows, left.cols, nz, star)


class PatternMatrix:
    """Immutable dense matrix of Symbols, stored as row bit masks.

    `PatternMatrix(rows, cols, entries)` takes the Symbols row-major;
    `from_masks` takes the masks.  Zero-sized dimensions are permitted; they
    arise as degenerate block components (for example a system with no
    states or no inputs).
    """

    __slots__ = ("rows", "cols", "nz", "star", "_entries", "_columns")

    def __init__(self, rows: int, cols: int, entries: Sequence[Symbol]):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} pattern needs {rows * cols}"
                f" entries, got {len(entries)}"
            )
        if not all(isinstance(e, Symbol) for e in entries):
            raise TypeError("pattern entries must be Symbols")
        word = "".join([e._value_ for e in entries])
        rows_words = (word[i * cols : (i + 1) * cols] for i in range(rows))
        self._set(rows, cols, *_masks(rows_words))
        object.__setattr__(self, "_entries", entries)

    def _set(self, rows, cols, nz, star) -> None:
        setter = object.__setattr__
        setter(self, "rows", rows)
        setter(self, "cols", cols)
        setter(self, "nz", nz)
        setter(self, "star", star)
        setter(self, "_entries", None)
        setter(self, "_columns", None)

    def __setattr__(self, name, value):
        raise AttributeError("PatternMatrix is immutable")

    def __reduce__(self):
        return (PatternMatrix.from_masks, (self.rows, self.cols, self.nz, self.star))

    # -- construction ------------------------------------------------

    @classmethod
    def from_masks(
        cls, rows: int, cols: int, nz: Sequence[int], star: Sequence[int]
    ) -> "PatternMatrix":
        """Build from one (nz, star) mask pair per row; bit j is column j."""
        nz, star = tuple(nz), tuple(star)
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative shape {rows}x{cols}")
        if len(nz) != rows or len(star) != rows:
            raise DimensionError(
                f"{rows}x{cols} pattern needs {rows} row masks,"
                f" got {len(nz)} and {len(star)}"
            )
        for n, s in zip(nz, star):
            if n < 0 or n >> cols:
                raise DimensionError(f"row mask {n:#x} outside {cols} columns")
            if s & ~n:
                raise ValueError("star mask must be a subset of the nonzero mask")
        return cls._unchecked(rows, cols, nz, star)

    @classmethod
    def _unchecked(cls, rows, cols, nz, star) -> "PatternMatrix":
        """from_masks without its checks, for masks valid by construction."""
        self = cls.__new__(cls)
        self._set(rows, cols, tuple(nz), tuple(star))
        return self

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Symbol | str]]) -> "PatternMatrix":
        """Build from nested sequences of Symbols or '0'/'*'/'?' tokens."""
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls.from_masks(
            nrows, ncols, *_masks("".join([_token(e) for e in r]) for r in rows)
        )

    @classmethod
    def from_text(cls, text: str) -> "PatternMatrix":
        """Parse the whitespace-separated text format (see parse_pattern_text)."""
        return parse_pattern_text(text)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PatternMatrix":
        return cls.from_masks(rows, cols, (0,) * rows, (0,) * rows)

    @classmethod
    def filled(cls, rows: int, cols: int, symbol: Symbol) -> "PatternMatrix":
        full = (1 << cols) - 1
        nz = 0 if symbol is ZERO else full
        star = full if symbol is STAR else 0
        return cls.from_masks(rows, cols, (nz,) * rows, (star,) * rows)

    # -- access ------------------------------------------------------

    @property
    def entries(self) -> tuple[Symbol, ...]:
        """The Symbols row-major, derived from the masks on first use."""
        if self._entries is None:
            out = []
            for n, s in zip(self.nz, self.star):
                for j in range(self.cols):
                    out.append(ZERO if not n >> j & 1 else STAR if s >> j & 1 else QUEST)
            object.__setattr__(self, "_entries", tuple(out))
        return self._entries

    def __getitem__(self, index: tuple[int, int]) -> Symbol:
        i, j = index
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        if not self.nz[i] >> j & 1:
            return ZERO
        return STAR if self.star[i] >> j & 1 else QUEST

    def row(self, i: int) -> tuple[Symbol, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Symbol, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.rows}x{self.cols}")
        return self.entries[j :: self.cols]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_rows(self) -> list[list[Symbol]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "PatternMatrix":
        """The entries at the given rows and columns, in the order given."""
        # every index is checked, whatever the other selection holds
        shape = f"{self.rows}x{self.cols}"
        for kind, picks, size in (("row", rows, self.rows), ("column", cols, self.cols)):
            for x in picks:
                if not 0 <= x < size:
                    raise IndexError(f"{kind} {x} out of range for {shape}")
        words = (_word(self.nz[i], self.star[i], self.cols) for i in rows)
        return PatternMatrix.from_masks(
            len(rows), len(cols), *_masks("".join([w[j] for j in cols]) for w in words)
        )

    def column_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(nz, star) masks of the columns, bit i being row i; computed
        once per matrix."""
        if self._columns is None:
            cnz, cstar = [0] * self.cols, [0] * self.cols
            for i, (n, s) in enumerate(zip(self.nz, self.star)):
                bit = 1 << i
                for j in ones(n):
                    cnz[j] |= bit
                for j in ones(s):
                    cstar[j] |= bit
            object.__setattr__(self, "_columns", (tuple(cnz), tuple(cstar)))
        return self._columns

    # -- value semantics ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.nz == other.nz
            and self.star == other.star
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nz, self.star))

    def __repr__(self) -> str:
        return (
            f"PatternMatrix(rows={self.rows}, cols={self.cols},"
            f" entries={self.entries!r})"
        )

    # -- algebra -----------------------------------------------------

    def __add__(self, other: "PatternMatrix") -> "PatternMatrix":
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        # zero is the identity; two nonzeros give ?, so a * survives only
        # where the other summand is 0
        nz = [a | b for a, b in zip(self.nz, other.nz)]
        star = [
            (sa & ~nb) | (sb & ~na)
            for na, sa, nb, sb in zip(self.nz, self.star, other.nz, other.star)
        ]
        return PatternMatrix.from_masks(self.rows, self.cols, nz, star)

    def __matmul__(self, other: "PatternMatrix") -> "PatternMatrix":
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by"
                f" {other.rows}x{other.cols}"
            )
        # an all-0 row k of other adds nothing, so only the live rows are read
        live = 0
        for column in other.column_masks()[0]:
            live |= column
        live_nz = [n & live for n in self.nz]
        nz, star = _product_rows(live_nz, self.star, other.nz, other.star)
        return PatternMatrix._unchecked(self.rows, other.cols, nz, star)

    def transpose(self) -> "PatternMatrix":
        cnz, cstar = self.column_masks()
        out = PatternMatrix.from_masks(self.cols, self.rows, cnz, cstar)
        object.__setattr__(out, "_columns", (self.nz, self.star))
        return out

    # -- text format -------------------------------------------------

    def to_text(self) -> str:
        return "\n".join(
            " ".join(_word(n, s, self.cols)) for n, s in zip(self.nz, self.star)
        )

    def __str__(self) -> str:
        return self.to_text()


def identity_pattern(n: int) -> PatternMatrix:
    """n x n pattern with * on the diagonal and 0 elsewhere."""
    if n < 0:
        raise DimensionError(f"negative size {n}")
    diagonal = [1 << i for i in range(n)]
    return PatternMatrix.from_masks(n, n, diagonal, diagonal)


def hstack(blocks: Iterable[PatternMatrix]) -> PatternMatrix:
    """Concatenate blocks left to right; all row counts must agree."""
    blocks = list(blocks)
    if not blocks:
        raise DimensionError("hstack of no blocks")
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        shapes = ", ".join(f"{b.rows}x{b.cols}" for b in blocks)
        raise DimensionError(f"hstack row counts differ: {shapes}")
    nz = [0] * rows
    star = [0] * rows
    shift = 0
    for b in blocks:
        for i in range(rows):
            nz[i] |= b.nz[i] << shift
            star[i] |= b.star[i] << shift
        shift += b.cols
    return PatternMatrix.from_masks(rows, shift, nz, star)


def vstack(blocks: Iterable[PatternMatrix]) -> PatternMatrix:
    """Concatenate blocks top to bottom; all column counts must agree."""
    blocks = list(blocks)
    if not blocks:
        raise DimensionError("vstack of no blocks")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        shapes = ", ".join(f"{b.rows}x{b.cols}" for b in blocks)
        raise DimensionError(f"vstack column counts differ: {shapes}")
    return PatternMatrix.from_masks(
        sum(b.rows for b in blocks),
        cols,
        [n for b in blocks for n in b.nz],
        [s for b in blocks for s in b.star],
    )


def parse_pattern_text(text: str) -> PatternMatrix:
    """Parse the pattern text format.

    One row per line, entries are the tokens 0, * and ? separated by
    whitespace.  Blank lines and text after # are ignored.
    """
    words: list[str] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not _TOKENS.issuperset(tokens):
            bad = next(tok for tok in tokens if tok not in _TOKENS)
            raise TextParseError(f"not a pattern symbol: {bad!r}", lineno)
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise TextParseError(
                f"row has {len(tokens)} entries, expected {width}", lineno
            )
        words.append("".join(tokens))
    if not words:
        raise TextParseError("no pattern rows found")
    return PatternMatrix.from_masks(len(words), width, *_masks(words))
