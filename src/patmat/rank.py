"""Strong full-rank decisions for pattern matrices, with certificates.

A pattern matrix has full row rank (in the strong sense) when every member
of its pattern class has full row rank.  The decision procedure is a pivot
elimination: repeatedly find a column whose only nonzero entry among the
remaining rows is a *, and delete that row and column.  Eliminating every
row certifies the property: the single-* column forces the corresponding
coordinate of any left null vector to vanish, row by row.

The elimination state can be resumed: after appending columns to the
right, continuing from where it stalled takes exactly the pivots of a
fresh run on the wider pattern, so the output-controllability test runs one
elimination through all of its growing prefixes.

On success the verdict carries the pivot sequence, which can be replayed
against the pattern by verify_certificate.  On failure it carries the
stalled rows and the columns that were not pivots; the residual they leave
is pattern.submatrix(rows, cols).  refutation returns the verdict of its
own elimination and, exactly when that stalls, turns the stalled rows into
an explicit member W with deficient rank together with a left null vector
y of W.  The pair is a proof that verify_refutation replays without
elimination or rank: y is exact and nonzero, W is an exact member of the
class, and y.W = 0 column by column, at a cost of one membership pass plus
O(cols) per nonzero entry of y.  refute_full_rank returns the member
alone, or None when the pattern has full row rank.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import DimensionError
from .pattern import PatternMatrix, ones
from .symbols import STAR, ZERO

if TYPE_CHECKING:
    from .realization import RealizationMatrix

__all__ = [
    "StallReport",
    "RankVerdict",
    "full_row_rank",
    "full_column_rank",
    "verify_certificate",
    "verify_refutation",
    "strongly_nonsingular_square",
    "numeric_rank",
    "grid_witness_search",
    "refutation",
    "refute_full_rank",
    "pencil_full_rank",
]

# grid_witness_search's values: zero first, then by magnitude, positive first
_GRID = (0, 1, -1, 2, -2)


@functools.cache
def _realization():
    """The realization module, imported when the first witness is built or
    checked, so that a decision without a witness loads no member
    arithmetic.  Callers read its attributes at call time."""
    from . import realization

    return realization


@dataclass(frozen=True)
class StallReport:
    """Why elimination stopped, and where: the stalled rows and the unpivoted
    columns, ascending.  A stall on the shape alone names neither."""

    reason: str
    rows: tuple[int, ...] = ()
    cols: tuple[int, ...] = ()


@dataclass(frozen=True)
class RankVerdict:
    """Outcome of a strong full-rank decision.

    full_rank=True comes with one pivot (row, col) per row in elimination
    order; full_rank=False comes with a stall report and, from refutation
    and pencil_full_rank, an exact rank-deficient member as witness together
    with the null vector that proves its deficiency (a right null vector
    for a tall pencil, a left one otherwise).
    """

    full_rank: bool
    pivots: tuple[tuple[int, int], ...] = ()
    stall: Optional[StallReport] = None
    witness: Optional[RealizationMatrix] = None
    null_vector: Optional[tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# pivot elimination


class _Elimination:
    """Pivot elimination over a pattern whose columns arrive in blocks.

    A column is eligible when exactly one remaining row is nonzero in it and
    that entry is *.  Each column keeps the count of its remaining nonzeros
    and the sum of their row indices, so the lone row of a column whose
    count is 1 is that sum; deleting a pivot row updates only the columns
    the row meets.  The eligible columns are the set bits of one mask.

    extend() appends a block of columns, counted over the remaining rows
    only, and run() continues from where the last run stopped.  Appended
    columns lie to the right of every earlier column, and a column's
    eligibility depends only on the remaining rows, so a run on the blocks
    so far takes exactly the pivots of a fresh run on their composite.
    """

    __slots__ = (
        "rows", "cols", "nz", "star", "count", "total", "eligible", "rows_left",
        "pivots",
    )

    def __init__(self, rows: int):
        self.rows = rows
        self.cols = 0
        self.nz = self.star = (0,) * rows
        self.count: list[int] = []
        self.total: list[int] = []
        self.eligible = 0
        self.rows_left = (1 << rows) - 1
        self.pivots: list[tuple[int, int]] = []

    def extend(self, block: PatternMatrix) -> None:
        """Append the columns of a block with the same row count."""
        nz, star, width = block.nz, block.star, block.cols
        shift = self.cols
        if shift:
            rows = ones(self.rows_left)
            self.nz = [a | b << shift for a, b in zip(self.nz, nz)]
            self.star = [a | b << shift for a, b in zip(self.star, star)]
        else:
            # no column yet, so no pivot either: every row remains, and the
            # block's masks are taken over as they are
            rows = range(self.rows)
            self.nz, self.star = nz, star
        count = [0] * width
        total = [0] * width
        for i in rows:
            for j in ones(nz[i]):
                count[j] += 1
                total[j] += i
        eligible = 0
        for j in range(width):
            if count[j] == 1 and star[total[j]] >> j & 1:
                eligible |= 1 << j
        self.eligible |= eligible << shift
        self.count += count
        self.total += total
        self.cols += width

    def run(self) -> None:
        """Pivot on the lowest eligible column until every row is gone or
        no column is eligible."""
        nz, star, count, total = self.nz, self.star, self.count, self.total
        eligible, rows_left, pivots = self.eligible, self.rows_left, self.pivots
        while rows_left and eligible:
            col = (eligible & -eligible).bit_length() - 1
            row = total[col]
            pivots.append((row, col))
            rows_left ^= 1 << row
            # every eligible column the pivot row meets had it as its lone
            # nonzero, the pivot column among them; they are now empty for good
            eligible &= ~nz[row]
            for j in ones(nz[row]):
                count[j] -= 1
                total[j] -= row
                if count[j] == 1 and star[total[j]] >> j & 1:
                    eligible |= 1 << j
        self.eligible, self.rows_left = eligible, rows_left

    def verdict(self) -> RankVerdict:
        """The verdict on the columns so far, after run()."""
        return _verdict(self.rows, self.cols, self.pivots, self.rows_left)


def _verdict(
    rows: int, cols: int, pivots: Sequence[tuple[int, int]], rows_left: int
) -> RankVerdict:
    """The verdict of an elimination over rows x cols that took the pivots
    and left the rows of the mask rows_left."""
    if rows > cols:
        return RankVerdict(False, stall=StallReport("more rows than columns"))
    pivots = tuple(pivots)
    if not rows_left:
        return RankVerdict(True, pivots)
    pivoted = {c for _, c in pivots}
    unpivoted = tuple([j for j in range(cols) if j not in pivoted])
    stalled = tuple(ones(rows_left))
    stall = StallReport("no eligible pivot column", stalled, unpivoted)
    return RankVerdict(False, pivots, stall)


def full_row_rank(pattern: PatternMatrix) -> RankVerdict:
    """Decide whether every member of the pattern class has full row rank.

    The lowest eligible column is pivoted at each step."""
    state = _Elimination(pattern.rows)
    state.extend(pattern)
    if pattern.rows <= pattern.cols:
        state.run()
    return state.verdict()


def full_column_rank(pattern: PatternMatrix) -> RankVerdict:
    """Row-rank decision on the transpose, with coordinates mapped back."""
    return _from_transpose(full_row_rank(pattern.transpose()))


def _from_transpose(verdict: RankVerdict) -> RankVerdict:
    """A row-rank verdict on the transpose, read back: pivots and stall
    swapped, a witness transposed, and its null vector now a right one."""
    pivots = tuple([(j, i) for (i, j) in verdict.pivots])
    stall, witness = verdict.stall, verdict.witness
    if stall is not None:
        # a stall on the shape alone names no rows
        reason = stall.reason if stall.rows else "more columns than rows"
        stall = StallReport(reason, rows=stall.cols, cols=stall.rows)
    if witness is not None:
        witness = witness.transpose()
    return RankVerdict(verdict.full_rank, pivots, stall, witness, verdict.null_vector)


def verify_certificate(
    pattern: PatternMatrix, pivots: Sequence[tuple[int, int]]
) -> bool:
    """Replay a success certificate: every pivot column must have exactly
    one nonzero among the rows still active at that step, at the pivot row,
    and that entry must be *; all rows must be consumed.  Pivots that are
    not a list or tuple of int pairs fail the replay."""
    if not isinstance(pivots, (tuple, list)) or len(pivots) != pattern.rows:
        return False
    cnz, _ = pattern.column_masks()
    active_rows = (1 << pattern.rows) - 1
    active_cols = (1 << pattern.cols) - 1
    for pivot in pivots:
        if not (isinstance(pivot, (tuple, list)) and len(pivot) == 2):
            return False
        i, j = pivot
        if type(i) is not int or type(j) is not int:
            return False
        if i < 0 or j < 0 or not (active_rows >> i & 1 and active_cols >> j & 1):
            return False
        # a * at (i, j) and no other nonzero among the active rows
        if not pattern.star[i] >> j & 1 or cnz[j] & active_rows != 1 << i:
            return False
        active_rows ^= 1 << i
        active_cols ^= 1 << j
    return True


def verify_refutation(
    pattern: PatternMatrix,
    witness: RealizationMatrix,
    null_vector: Sequence,
) -> bool:
    """Replay a refutation: the witness W must be an exact member of the
    pattern class and the null vector y exact, nonzero and one entry per
    row, with y.W = 0 column by column.  Then W has rank below its row
    count.  The sums run over the nonzero entries of y only, so the check
    costs one membership pass plus O(cols) per such entry.  A witness that
    is not a RealizationMatrix, or a null vector that is not a list or
    tuple, fails the replay."""
    realization = _realization()
    if not (
        isinstance(witness, realization.RealizationMatrix)
        and isinstance(null_vector, (tuple, list))
        and witness.shape == pattern.shape
        and len(null_vector) == pattern.rows
        and all(isinstance(y, (int, Fraction)) for y in null_vector)
        and any(null_vector)
        and witness.is_exact()
        and realization.contains(pattern, witness, 0)
    ):
        return False
    # W is a member, so it vanishes off the pattern's nonzeros
    cols, entries = pattern.cols, witness.entries
    total = [0] * cols
    for i, y in enumerate(null_vector):
        if y:
            base = i * cols
            for j in ones(pattern.nz[i]):
                total[j] += y * entries[base + j]
    return not any(total)


# ---------------------------------------------------------------------------
# square cross-check, independent of the pivot elimination: breadth-first
# augmenting paths, then Kahn's topological order; O(rows x nonzeros)


def strongly_nonsingular_square(pattern: PatternMatrix) -> bool:
    """True iff the rows-by-columns bipartite graph of nonzero entries has
    exactly one perfect matching and every matched entry is *.  Row r points
    to the row matched to each other column r meets.  A cycle there would
    give a second matching, so the matching is unique iff Kahn's order
    removes every row."""
    if pattern.rows != pattern.cols:
        raise DimensionError(
            f"square pattern required, got {pattern.rows}x{pattern.cols}"
        )
    n = pattern.rows
    adj = [ones(mask) for mask in pattern.nz]
    match_col = [-1] * n  # column -> matched row
    match_row = [-1] * n  # row -> matched column
    searched_by = [-1] * n  # column -> the last root whose search reached it
    reached_from = [-1] * n  # column -> the row that search reached it from
    for root in range(n):
        queue = [root]
        free = -1
        for r in queue:
            for c in adj[r]:
                if searched_by[c] != root:
                    searched_by[c] = root
                    reached_from[c] = r
                    if match_col[c] < 0:
                        free = c
                        break
                    queue.append(match_col[c])
            if free >= 0:
                break
        if free < 0:
            return False  # no perfect matching at all
        while free >= 0:  # flip the path back to the root, which had no column
            r = reached_from[free]
            match_col[free] = r
            match_row[r], free = free, match_row[r]
    if any(not pattern.star[match_col[c]] >> c & 1 for c in range(n)):
        return False
    indegree = [-1] * n  # each row's own matched entry is counted once too many
    for cols in adj:
        for c in cols:
            indegree[match_col[c]] += 1
    order = [r for r in range(n) if not indegree[r]]
    for r in order:
        for c in adj[r]:  # r's own matched entry takes r below 0, for good
            s = match_col[c]
            indegree[s] -= 1
            if not indegree[s]:
                order.append(s)
    return len(order) == n


# ---------------------------------------------------------------------------
# numeric rank


def numeric_rank(matrix: RealizationMatrix, tol=0) -> int:
    """Rank by row reduction.

    With exact (int or Fraction) entries and tol=0 the result is the exact
    rank.  Otherwise (float and complex entries of the numeric oracles, or
    tol > 0) a partial-pivoting reduction counts a pivot candidate with
    absolute value at most tol times the largest initial absolute entry as
    zero.
    """
    if tol < 0:
        raise ValueError("negative tolerance")
    if tol != tol:
        raise ValueError("NaN tolerance")
    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    if tol == 0 and matrix.is_exact():
        return _exact_rank(matrix.to_rows())
    return _scaled_rank(matrix.to_rows(), tol)


def _exact_rank(a: list[list]) -> int:
    """Rank of int or Fraction rows by Bareiss's fraction-free elimination
    (Math. Comp. 22, 1968).  Each row is first scaled to integers by the lcm
    of its denominators; every later division is exact, so an entry never
    grows past the size of a minor of the scaled matrix."""
    scaled = []
    for row in a:
        scale = math.lcm(*(e.denominator for e in row))
        scaled.append([e.numerator * (scale // e.denominator) for e in row])
    a = scaled
    rows, cols = len(a), len(a[0])
    r = 0
    previous = 1
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), -1)
        if pivot < 0:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        pv = pr[c]
        for i in range(r + 1, rows):
            ai = a[i]
            q = ai[c]
            for k in range(c + 1, cols):
                ai[k] = (ai[k] * pv - pr[k] * q) // previous
            ai[c] = 0
        previous = pv
        r += 1
        if r == rows:
            break
    return r


def _scaled_rank(a: list[list], tol) -> int:
    rows, cols = len(a), len(a[0])
    scale = max(abs(x) for row in a for x in row)
    if scale == 0:
        return 0
    threshold = tol * scale
    r = 0
    for c in range(cols):
        pivot = max(range(r, rows), key=lambda i: abs(a[i][c]))
        if abs(a[pivot][c]) <= threshold:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        pv = pr[c]
        for i in range(r + 1, rows):
            f = a[i][c] / pv
            if f != 0:
                ai = a[i]
                for k in range(c, cols):
                    ai[k] -= f * pr[k]
        r += 1
        if r == rows:
            break
    return r


# ---------------------------------------------------------------------------
# refutation: explicit rank-deficient members


def grid_witness_search(pattern: PatternMatrix) -> Optional[RealizationMatrix]:
    """Exhaustive search over the grid 0, 1, -1, 2, -2 for a rank-deficient
    member.

    ? entries range over all grid values, * entries over the nonzero ones.
    Returns the first witness in the grid's order, or None when no member on
    the grid is rank deficient.
    """
    rows, cols = pattern.rows, pattern.cols
    if rows == 0:
        return None
    free = [i for i, s in enumerate(pattern.entries) if s is not ZERO]
    domains = [_GRID[1:] if pattern.entries[i] is STAR else _GRID for i in free]
    template = [0] * (rows * cols)
    for combo in itertools.product(*domains):
        for pos, v in zip(free, combo):
            template[pos] = v
        a = [template[i * cols : (i + 1) * cols] for i in range(rows)]
        if _exact_rank(a) < rows:
            return _realization().RealizationMatrix(rows, cols, tuple(template))
    return None


def refutation(pattern: PatternMatrix) -> RankVerdict:
    """The row-rank verdict of one elimination; exactly when that stalls, it
    carries an exact member W of the pattern class with rank below the row
    count and a left null vector y of W.  With more rows than columns the
    elimination still runs, to place W and y where it stalls.

    The pair is built from where elimination stalls.  Every pivoted column
    is zero on the stalled rows R, and no other column meets R in a lone *
    without a ?.  y is (-1)^k on the k-th row of R and 0 on every other row;
    each column is then filled so that y.W = 0: a lone * gets 1 and the
    first ? on R cancels it; two or more * get the signs of their rows, the
    last one balancing the rest.  Rows outside R take 1 on * and 0 on ?.
    The pair is checked by verify_refutation, in time linear in the size of
    the pattern; a failed check raises RuntimeError.
    """
    state = _Elimination(pattern.rows)
    state.extend(pattern)
    state.run()
    verdict = state.verdict()
    if not state.rows_left:
        return verdict
    stalled = ones(state.rows_left)
    rows, cols = pattern.rows, pattern.cols
    sign = [0] * rows
    for k, r in enumerate(stalled):
        sign[r] = -1 if k & 1 else 1
    entries = [0] * (rows * cols)
    for i, mask in enumerate(pattern.star):
        if not sign[i]:
            for j in ones(mask):
                entries[i * cols + j] = 1
    cnz, cstar = pattern.column_masks()
    on_stall = state.rows_left
    for j in range(cols):
        stars = ones(cstar[j] & on_stall)
        if len(stars) == 1:
            # a lone * would have been a pivot, so a ? shares the column
            s = stars[0]
            quests = cnz[j] & ~cstar[j] & on_stall
            q = (quests & -quests).bit_length() - 1
            entries[s * cols + j] = 1
            entries[q * cols + j] = -sign[s] * sign[q]
        elif stars:
            for r in stars[:-1]:
                entries[r * cols + j] = sign[r]
            last = stars[-1]
            entries[last * cols + j] = -(len(stars) - 1) * sign[last]
    witness = _realization().RealizationMatrix(rows, cols, tuple(entries))
    null_vector = tuple(sign)
    if not verify_refutation(pattern, witness, null_vector):
        raise RuntimeError(
            f"stall witness failed its null-vector check:\n{pattern.to_text()}"
        )
    return RankVerdict(False, verdict.pivots, verdict.stall, witness, null_vector)


def refute_full_rank(pattern: PatternMatrix) -> Optional[RealizationMatrix]:
    """Exact member of the pattern class with rank below the row count, or
    None when the pattern has full row rank: the witness of refutation,
    whose left null vector proves the deficiency."""
    return refutation(pattern).witness


# ---------------------------------------------------------------------------
# matrix pencils


def pencil_full_rank(a: PatternMatrix, b: PatternMatrix) -> RankVerdict:
    """Decide whether A - lambda*B has full rank for every pair of members
    and every nonzero complex lambda; equivalent to full rank of a + b,
    decided by refutation on a + b, or on its transpose when a + b is tall.
    A deficient verdict carries its proof, a witness member of a + b and its
    null vector; for a tall pencil that is a right null vector, and
    verify_refutation replays the pair on the transposes."""
    if a.shape != b.shape:
        raise DimensionError(
            f"pencil patterns differ: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )
    total = a + b
    if total.rows <= total.cols:
        return refutation(total)
    return _from_transpose(refutation(total.transpose()))
