"""Property tests beyond the exhaustive small-shape sweeps.

Hypothesis runs derandomized, without a deadline or an example database, so
every run checks the same examples.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patmat import (
    MembershipError,
    PatternMatrix,
    RealizationMatrix,
    ValueDistribution,
    Verdict,
    check_output_controllability,
    contains,
    decompose_sum,
    full_row_rank,
    hstack,
    numeric_rank,
    parse_pattern_text,
    refutation,
    refute_full_rank,
    sample_member,
    verify_certificate,
    verify_refutation,
    vstack,
)
from patmat.oracles import _sums_to
from patmat.rank import _Elimination
from patmat.symbols import QUEST, STAR, ZERO, add_symbol, mul_symbol
from patmat.systems import ConditionCheck, StructuredIOSystem

from helpers import shuffle_columns

SYMBOLS = (ZERO, STAR, QUEST)
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def patterns(draw, max_rows=40, max_cols=60):
    """Random patterns; about half get a planted triangular * block, which
    makes them full row rank, and then a few entries flipped at random, which
    may break it again."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    weights = draw(st.sampled_from([(1, 1, 1), (6, 3, 1), (8, 1, 1), (3, 1, 6)]))
    rng = draw(st.randoms(use_true_random=False))
    grid = [rng.choices(SYMBOLS, weights, k=cols) for _ in range(rows)]
    if rows <= cols and draw(st.booleans()):
        for i, c in enumerate(rng.sample(range(cols), rows)):
            for r in range(i):
                grid[r][c] = ZERO
            grid[i][c] = STAR
        for _ in range(draw(st.integers(0, 3))):
            grid[rng.randrange(rows)][rng.randrange(cols)] = rng.choice(SYMBOLS)
    return PatternMatrix(rows, cols, tuple(s for row in grid for s in row))


@st.composite
def exact_matrices(draw, max_size=30):
    """Random int or Fraction matrices; some rows are replaced by integer
    combinations of the others, planting a rank deficiency."""
    rows = draw(st.integers(1, max_size))
    cols = draw(st.integers(1, max_size))
    fractions = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))

    def scalar():
        if fractions:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        return rng.randint(-3, 3)

    a = [[scalar() for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        for _ in range(draw(st.integers(0, rows - 1))):
            target = rng.randrange(rows)
            sources = [i for i in range(rows) if i != target]
            picked = rng.sample(sources, rng.randint(1, min(3, len(sources))))
            coeffs = [rng.randint(-2, 2) for _ in picked]
            a[target] = [
                sum(k * a[i][j] for k, i in zip(coeffs, picked)) for j in range(cols)
            ]
    return RealizationMatrix.from_rows(a)


def _reference_rank(a: list[list]) -> int:
    """Plain Gaussian elimination over the rationals, for comparison."""
    a = [[Fraction(e) for e in row] for row in a]
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        pivot = max(range(r, rows), key=lambda i: abs(a[i][c]))
        if a[pivot][c] == 0:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        pv = pr[c]
        for i in range(r + 1, rows):
            f = a[i][c] / pv
            if f:
                ai = a[i]
                for k in range(c, cols):
                    ai[k] -= f * pr[k]
        r += 1
        if r == rows:
            break
    return r


@PROPERTY
@given(patterns())
def test_refutation_exists_exactly_when_elimination_stalls(pattern):
    verdict = full_row_rank(pattern)
    witness = refute_full_rank(pattern)
    if verdict.full_rank:
        assert witness is None
        assert verify_certificate(pattern, verdict.pivots)
    else:
        assert witness is not None
        assert contains(pattern, witness, 0)
        assert numeric_rank(witness, 0) < pattern.rows
        assert verify_refutation(pattern, witness, refutation(pattern)[1])


@st.composite
def product_pairs(draw, max_side=60):
    """Patterns X (r x k) and Y (k x c) with small-integer members x and y."""
    r, k, c = (draw(st.integers(1, max_side)) for _ in range(3))
    weights = draw(st.sampled_from([(1, 1, 1), (6, 3, 1), (8, 1, 1)]))
    # a seeded Random is much faster here than drawing every entry through
    # hypothesis, and stays reproducible under derandomize
    rng = draw(st.randoms(use_true_random=True))

    def pair(rows, cols):
        symbols = rng.choices(SYMBOLS, weights, k=rows * cols)
        values = [
            0 if s is ZERO
            else rng.choice((-2, -1, 1, 2)) if s is STAR
            else rng.randint(-2, 2)
            for s in symbols
        ]
        return (
            PatternMatrix(rows, cols, tuple(symbols)),
            RealizationMatrix(rows, cols, tuple(values)),
        )

    return pair(r, k) + pair(k, c)


@PROPERTY
@given(exact_matrices())
def test_exact_rank_matches_rational_elimination(matrix):
    assert numeric_rank(matrix, 0) == _reference_rank(matrix.to_rows())


@PROPERTY
@given(patterns(), st.randoms(use_true_random=False))
def test_verdict_does_not_depend_on_pivot_order(pattern, rng):
    shuffled = shuffle_columns(rng, pattern)
    verdict = full_row_rank(shuffled)
    assert verdict.full_rank == full_row_rank(pattern).full_rank
    if verdict.full_rank:
        assert verify_certificate(shuffled, verdict.pivots)


@PROPERTY
@given(product_pairs())
def test_member_product_lies_in_pattern_product(pair):
    x_pattern, x, y_pattern, y = pair
    assert contains(x_pattern @ y_pattern, x @ y, 0)


# ---------------------------------------------------------------------------
# the bit-mask core against symbol-by-symbol references
#
# The references below are the entrywise Symbol-table algebra and the
# column-scanning elimination that the mask implementation replaced.  They
# read only `entries`, which for these patterns is the tuple passed in.


def _ref_add(a, b):
    return tuple(add_symbol(x, y) for x, y in zip(a.entries, b.entries))


def _ref_matmul(a, b):
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                acc = add_symbol(
                    acc, mul_symbol(a.entries[i * a.cols + k], b.entries[k * b.cols + j])
                )
                if acc is QUEST:
                    break  # absorbing for addition
            out.append(acc)
    return tuple(out)


def _ref_transpose(a):
    return tuple(a.entries[i * a.cols + j] for j in range(a.cols) for i in range(a.rows))


def _ref_hstack(blocks):
    return tuple(
        s for i in range(blocks[0].rows) for b in blocks
        for s in b.entries[i * b.cols : (i + 1) * b.cols]
    )


def _ref_eliminate(pattern):
    """Lowest eligible column first, rescanning every active column at
    every step."""
    e, cols = pattern.entries, pattern.cols
    active_rows = list(range(pattern.rows))
    active_cols = list(range(cols))
    pivots = []
    while active_rows:
        eligible = []
        for j in active_cols:
            nonzero = [i for i in active_rows if e[i * cols + j] is not ZERO]
            if len(nonzero) == 1 and e[nonzero[0] * cols + j] is STAR:
                eligible.append((j, nonzero[0]))
        if not eligible:
            return pivots, (tuple(active_rows), tuple(active_cols))
        col, row = eligible[0]
        pivots.append((row, col))
        active_rows.remove(row)
        active_cols.remove(col)
    return pivots, None


def _grid(rng, rows, cols, weights):
    return PatternMatrix(rows, cols, tuple(rng.choices(SYMBOLS, weights, k=rows * cols)))


WEIGHTS = st.sampled_from([(1, 1, 1), (6, 3, 1), (8, 1, 1), (20, 2, 1), (3, 1, 6)])


@st.composite
def shaped_triples(draw):
    """Three sides r, k, c (up to 60, 80, 80) and a symbol mix."""
    r = draw(st.integers(0, 60))
    k = draw(st.integers(0, 80))
    c = draw(st.integers(0, 80))
    # a seeded Random, as in product_pairs, keeps large grids cheap to draw
    return r, k, c, draw(WEIGHTS), draw(st.randoms(use_true_random=True))


@PROPERTY
@given(shaped_triples())
def test_mask_algebra_matches_symbol_tables(triple):
    r, k, c, weights, rng = triple
    a, b = _grid(rng, r, k, weights), _grid(rng, r, k, weights)
    y = _grid(rng, k, c, weights)
    assert (a + b).entries == _ref_add(a, b)
    assert a + b == PatternMatrix(r, k, _ref_add(a, b))
    assert (a @ y).entries == _ref_matmul(a, y)
    assert a @ y == PatternMatrix(r, c, _ref_matmul(a, y))
    assert a.transpose() == PatternMatrix(k, r, _ref_transpose(a))
    z = _grid(rng, r, c, weights)
    assert hstack([a, z, b]) == PatternMatrix(r, 2 * k + c, _ref_hstack([a, z, b]))
    w = _grid(rng, c, k, weights)
    assert vstack([a, w]) == PatternMatrix(r + c, k, a.entries + w.entries)
    if r and k:
        assert parse_pattern_text(a.to_text()) == a


@PROPERTY
@given(patterns(max_rows=60, max_cols=80))
def test_elimination_matches_reference(pattern):
    verdict = full_row_rank(pattern)
    if pattern.rows > pattern.cols:
        return
    pivots, stall = _ref_eliminate(pattern)
    assert verdict.pivots == tuple(pivots)
    if stall is None:
        assert verdict.full_rank
    else:
        assert (verdict.stall.rows, verdict.stall.cols) == stall
        rows, cols = stall
        residual = tuple(pattern.entries[i * pattern.cols + j] for i in rows for j in cols)
        assert verdict.stall.residual.entries == residual


# ---------------------------------------------------------------------------
# resumable elimination against fresh runs on the composite


@st.composite
def column_blocks(draw):
    """Up to four blocks with a common row count, each 0 to 30 columns
    wide, so that prefixes may be narrower than tall, stall, or be empty."""
    rows = draw(st.integers(1, 30))
    widths = draw(st.lists(st.integers(0, 30), min_size=1, max_size=4))
    weights = draw(WEIGHTS)
    rng = draw(st.randoms(use_true_random=True))
    return [_grid(rng, rows, width, weights) for width in widths]


@PROPERTY
@given(column_blocks())
def test_resumed_elimination_matches_fresh_run(blocks):
    state = _Elimination(blocks[0].rows)
    for k, block in enumerate(blocks):
        state.extend(block)
        state.run()
        assert state.verdict() == full_row_rank(hstack(blocks[: k + 1]))


def _ref_output_controllability(system):
    """The prefix loop the resumable state replaced: stack every prefix of
    [D CB CAB ...] afresh and run a fresh elimination on it."""
    blocks, names, conditions = [], [], []
    left = system.C
    for k in range(system.n + 1):
        if k == 0:
            blocks.append(system.D)
        else:
            blocks.append(left @ system.B)
            left = left @ system.A
        names.append(("D", "CB", "CAB")[k] if k < 3 else f"CA^{k - 1}B")
        composite = hstack(blocks)
        condition = ConditionCheck(
            "[" + " ".join(names) + "]", composite.shape, full_row_rank(composite)
        )
        conditions.append(condition)
        if condition.passed:
            return Verdict.HOLDS, tuple(conditions)
    return Verdict.INCONCLUSIVE, tuple(conditions)


def _io_system(rng, n, m, p, weights):
    return StructuredIOSystem(
        _grid(rng, n, n, weights),
        _grid(rng, n, m, weights),
        _grid(rng, p, n, weights),
        _grid(rng, p, m, weights),
    )


@st.composite
def io_systems(draw):
    """Random (A, B, C, D) with n up to 10 states, m up to 4 inputs and p
    up to 6 outputs; any of them may be 0."""
    n = draw(st.integers(0, 10))
    m = draw(st.integers(0, 4))
    p = draw(st.integers(0, 6))
    return _io_system(draw(st.randoms(use_true_random=True)), n, m, p, draw(WEIGHTS))


@PROPERTY
@given(io_systems())
@example(_io_system(Random(1), 6, 2, 0, (1, 1, 1)))
@example(_io_system(Random(2), 6, 0, 3, (1, 1, 1)))
@example(_io_system(Random(3), 0, 2, 3, (1, 1, 1)))
def test_output_controllability_matches_prefix_reference(system):
    report = check_output_controllability(system)
    assert (report.verdict, report.conditions) == _ref_output_controllability(system)


# ---------------------------------------------------------------------------
# sampling, membership and decomposition against the entry-by-entry Symbol
# walks that the mask and truthiness code replaced


def _ref_contains(pattern, matrix, tol):
    for sym, val in zip(pattern.entries, matrix.entries):
        if sym is ZERO:
            if abs(val) > tol:
                return False
        elif sym is STAR:
            if abs(val) <= tol:
                return False
    return True


def _ref_draw_nonzero(rng):
    magnitude = Fraction(rng.randint(32, 128), 64)
    sign = rng.choice((1, -1))
    return sign * magnitude


def _ref_sample_member(pattern, dist):
    rng = Random(dist.seed)
    entries = []
    for sym in pattern.entries:
        if sym is ZERO:
            entries.append(Fraction(0))
        elif sym is STAR:
            entries.append(_ref_draw_nonzero(rng))
        elif rng.random() < dist.quest_zero_probability:
            entries.append(Fraction(0))
        else:
            entries.append(_ref_draw_nonzero(rng))
    return RealizationMatrix(pattern.rows, pattern.cols, tuple(entries))


def _ref_decompose_sum(total, a, b):
    left, right = [], []
    for idx, (sa, sb, value) in enumerate(zip(a.entries, b.entries, total.entries)):
        i, j = divmod(idx, a.cols)
        nonzero = value != 0
        if sa is ZERO and sb is ZERO:
            if nonzero:
                raise MembershipError(
                    f"entry ({i}, {j}) = {value} but the sum pattern is 0", i, j
                )
            left.append(0)
            right.append(0)
        elif (sa is ZERO) != (sb is ZERO) and (sa is STAR or sb is STAR):
            if not nonzero:
                raise MembershipError(
                    f"entry ({i}, {j}) = 0 but the sum pattern is *", i, j
                )
            left.append(value if sa is STAR else 0)
            right.append(0 if sa is STAR else value)
        elif sa is ZERO:
            left.append(0)
            right.append(value)
        elif sb is ZERO:
            left.append(value)
            right.append(0)
        elif nonzero:
            half = Fraction(value, 2) if isinstance(value, int) else value / 2
            left.append(half)
            right.append(half)
        else:
            left.append(-1)
            right.append(1)
    return (
        RealizationMatrix(a.rows, a.cols, tuple(left)),
        RealizationMatrix(a.rows, a.cols, tuple(right)),
    )


def _typed(matrix):
    """Entries by type and repr, so that -0.0 and NaNs compare strictly."""
    return [(type(e), repr(e)) for e in matrix.entries]


QUEST_ZERO = st.sampled_from([0.0, 0.25, 1.0])


@PROPERTY
@given(
    st.integers(0, 30), st.integers(0, 30), WEIGHTS, QUEST_ZERO,
    st.integers(0, 2**64 - 1), st.randoms(use_true_random=True),
)
def test_sampling_matches_symbol_walk(rows, cols, weights, quest_zero, seed, rng):
    pattern = _grid(rng, rows, cols, weights)
    dist = ValueDistribution(quest_zero, seed)
    assert _typed(sample_member(pattern, dist)) == _typed(_ref_sample_member(pattern, dist))


NAN = float("nan")
# scalars that are 0, tiny (0 only under tol 1e-9), nonzero, or NaN
ZEROISH = (0, False, Fraction(0), 0.0, -0.0, 0j, 1e-12, Fraction(1, 10**12), -1e-12j)
NONZERO = (1, -2, True, Fraction(3, 7), 0.5, -4e-3, float("inf"), complex(1, -1), 2j)
ODD = (NAN, complex(NAN, 0), complex(0, NAN))
EXACT = (0, 1, -1, 2, Fraction(0), Fraction(1, 2), Fraction(-3, 128), Fraction(5, 64))


def _scalars(rng, pattern):
    """A value per entry: mostly one that fits its symbol, sometimes any."""
    out = []
    for sym in pattern.entries:
        pool = ZEROISH if sym is ZERO else NONZERO if sym is STAR else ZEROISH + NONZERO
        out.append(rng.choice(pool if rng.random() < 0.95 else ZEROISH + NONZERO + ODD))
    return RealizationMatrix(pattern.rows, pattern.cols, tuple(out))


@PROPERTY
@given(st.integers(0, 12), st.integers(0, 12), WEIGHTS, st.randoms(use_true_random=True))
def test_membership_matches_symbol_walk(rows, cols, weights, rng):
    pattern = _grid(rng, rows, cols, weights)
    members = [_scalars(rng, pattern) for _ in range(20)]
    members.append(sample_member(pattern, ValueDistribution(seed=rng.getrandbits(32))))
    for matrix in members:
        for tol in (0, 1e-9):
            assert contains(pattern, matrix, tol) is _ref_contains(pattern, matrix, tol)


@PROPERTY
@given(st.integers(0, 12), st.integers(0, 12), WEIGHTS, st.randoms(use_true_random=True))
def test_decomposition_matches_symbol_walk(rows, cols, weights, rng):
    a, b = _grid(rng, rows, cols, weights), _grid(rng, rows, cols, weights)
    total = a + b
    cases = [
        sample_member(total, ValueDistribution(quest_zero_probability=q, seed=k))
        for k, q in enumerate((0.0, 0.25, 1.0))
    ]
    cases += [_scalars(rng, total) for _ in range(10)]
    for matrix in cases:
        try:
            expected = _ref_decompose_sum(matrix, a, b)
        except MembershipError as error:
            with pytest.raises(MembershipError) as info:
                decompose_sum(matrix, a, b)
            got = info.value
            assert (str(got), got.row, got.col) == (str(error), error.row, error.col)
        else:
            left, right = decompose_sum(matrix, a, b)
            assert (_typed(left), _typed(right)) == tuple(map(_typed, expected))
            if matrix.is_exact():
                # the round trip's sum check against the built sum, on
                # exact members as the round trip uses it
                other = list(matrix.entries)
                for _ in range(rng.randint(1, 2) if other else 0):
                    other[rng.randrange(len(other))] = rng.choice(EXACT)
                other = RealizationMatrix(rows, cols, tuple(other))
                for target in (matrix, other):
                    assert _sums_to(left, right, target) is (left + right == target)
