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
stalled residual, and refutation turns the stalled rows into an explicit
member W with deficient rank together with a left null vector y of W; it
returns None exactly when the pattern has full row rank.  The pair is a
proof that verify_refutation replays without elimination or rank: y is
exact and nonzero, W is an exact member of the class, and y.W = 0 column
by column, at a cost of one membership pass plus O(cols) per nonzero
entry of y.  refute_full_rank returns the member alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError
from .pattern import PatternMatrix, ones
from .realization import RealizationMatrix, contains
from .symbols import STAR, ZERO

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


@dataclass(frozen=True)
class StallReport:
    """Why elimination stopped: reason plus the surviving submatrix."""

    reason: str
    rows: tuple[int, ...] = ()
    cols: tuple[int, ...] = ()
    residual: Optional[PatternMatrix] = None


@dataclass(frozen=True)
class RankVerdict:
    """Outcome of a strong full-rank decision.

    full_rank=True comes with one pivot (row, col) per row in elimination
    order; full_rank=False comes with a stall report and, when a refuter
    was consulted, an exact rank-deficient member as witness together with
    the left null vector that proves its deficiency.
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
        if self.rows > self.cols:
            return RankVerdict(False, stall=StallReport("more rows than columns"))
        if not self.rows_left:
            return RankVerdict(True, tuple(self.pivots))
        # the remaining columns fall into at most len(pivots) + 1 maximal
        # runs between pivot columns; each stalled row is cut run by run
        runs = []
        cols: list[int] = []
        start = 0
        for c in sorted([c for _, c in self.pivots]) + [self.cols]:
            if c > start:
                runs.append((start, (1 << c - start) - 1, len(cols)))
                cols += range(start, c)
            start = c + 1
        rows = ones(self.rows_left)
        nz, star = [], []
        for i in rows:
            n, s = self.nz[i], self.star[i]
            rn = rs = 0
            for start, keep, offset in runs:
                rn |= (n >> start & keep) << offset
                rs |= (s >> start & keep) << offset
            nz.append(rn)
            star.append(rs)
        residual = PatternMatrix.from_masks(len(rows), len(cols), nz, star)
        stall = StallReport(
            "no eligible pivot column", tuple(rows), tuple(cols), residual
        )
        return RankVerdict(False, tuple(self.pivots), stall)


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
    verdict = full_row_rank(pattern.transpose())
    pivots = tuple([(j, i) for (i, j) in verdict.pivots])
    stall = None
    if verdict.stall is not None:
        s = verdict.stall
        reason = (
            "more columns than rows"
            if s.reason == "more rows than columns"
            else s.reason
        )
        stall = StallReport(
            reason,
            rows=s.cols,
            cols=s.rows,
            residual=s.residual.transpose() if s.residual is not None else None,
        )
    return RankVerdict(verdict.full_rank, pivots, stall)


def verify_certificate(
    pattern: PatternMatrix, pivots: Sequence[tuple[int, int]]
) -> bool:
    """Replay a success certificate: every pivot column must have exactly
    one nonzero among the rows still active at that step, at the pivot row,
    and that entry must be *; all rows must be consumed."""
    if len(pivots) != pattern.rows:
        return False
    cnz, _ = pattern.column_masks()
    active_rows = (1 << pattern.rows) - 1
    active_cols = (1 << pattern.cols) - 1
    for i, j in pivots:
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
    costs one membership pass plus O(cols) per such entry."""
    if witness.shape != pattern.shape or len(null_vector) != pattern.rows:
        return False
    if not (
        all(isinstance(y, (int, Fraction)) for y in null_vector)
        and any(null_vector)
        and witness.is_exact()
        and contains(pattern, witness, 0)
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
# square cross-check via bipartite matching


def strongly_nonsingular_square(pattern: PatternMatrix) -> bool:
    """True iff the rows-by-columns bipartite graph of nonzero entries has
    exactly one perfect matching and every matched entry is *."""
    if pattern.rows != pattern.cols:
        raise DimensionError(
            f"square pattern required, got {pattern.rows}x{pattern.cols}"
        )
    n = pattern.rows
    if n == 0:
        return True
    adj = [ones(mask) for mask in pattern.nz]

    match_col = [-1] * n  # column -> matched row

    def augment(root: int) -> bool:
        # depth-first search for an augmenting path, kept on an explicit
        # stack so that long alternating paths cannot overflow the call stack
        seen = [False] * n
        stack = [(root, iter(adj[root]))]
        path_cols: list[int] = []  # path_cols[k] leaves the row of stack[k]
        while stack:
            for c in stack[-1][1]:
                if not seen[c]:
                    seen[c] = True
                    break
            else:
                stack.pop()
                if path_cols:
                    path_cols.pop()
                continue
            path_cols.append(c)
            if match_col[c] == -1:
                for (r, _), col in zip(stack, path_cols):
                    match_col[col] = r
                return True
            stack.append((match_col[c], iter(adj[match_col[c]])))
        return False

    for r in range(n):
        if not augment(r):
            return False  # no perfect matching at all

    if any(not pattern.star[match_col[c]] >> c & 1 for c in range(n)):
        return False

    # uniqueness: the matching is unique iff there is no alternating cycle;
    # walk row -> row via (non-matching edge, matching edge) pairs
    match_row = [-1] * n
    for c in range(n):
        match_row[match_col[c]] = c
    succ = [
        [match_col[c] for c in adj[r] if c != match_row[r]] for r in range(n)
    ]
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    stack: list[tuple[int, int]] = []
    for start in range(n):
        if color[start]:
            continue
        stack.append((start, 0))
        color[start] = 1
        while stack:
            node, idx = stack[-1]
            if idx < len(succ[node]):
                stack[-1] = (node, idx + 1)
                nxt = succ[node][idx]
                if color[nxt] == 1:
                    return False  # alternating cycle: a second matching exists
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                stack.pop()
    return True


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
            return RealizationMatrix(rows, cols, tuple(template))
    return None


def refutation(
    pattern: PatternMatrix,
) -> Optional[tuple[RealizationMatrix, tuple[int, ...]]]:
    """An exact member W of the pattern class with rank below the row count
    and a left null vector y of W, or None when the pattern has full row
    rank.

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
    if not state.rows_left:
        return None
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
    witness = RealizationMatrix(rows, cols, tuple(entries))
    null_vector = tuple(sign)
    if not verify_refutation(pattern, witness, null_vector):
        raise RuntimeError(
            f"stall witness failed its null-vector check:\n{pattern.to_text()}"
        )
    return witness, null_vector


def refute_full_rank(pattern: PatternMatrix) -> Optional[RealizationMatrix]:
    """Exact member of the pattern class with rank below the row count, or
    None when the pattern has full row rank: the witness of refutation,
    whose left null vector proves the deficiency."""
    found = refutation(pattern)
    return None if found is None else found[0]


# ---------------------------------------------------------------------------
# matrix pencils


def pencil_full_rank(a: PatternMatrix, b: PatternMatrix) -> RankVerdict:
    """Decide whether A - lambda*B has full rank for every pair of members
    and every nonzero complex lambda; equivalent to full rank of a + b."""
    if a.shape != b.shape:
        raise DimensionError(
            f"pencil patterns differ: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )
    total = a + b
    if total.rows <= total.cols:
        return full_row_rank(total)
    return full_column_rank(total)
