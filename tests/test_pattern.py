"""Pattern matrix algebra, block operations and the text format."""

import itertools
import pickle
import random

import pytest

from patmat import (
    DimensionError,
    PatternMatrix,
    TextParseError,
    hstack,
    identity_pattern,
    parse_pattern_text,
    vstack,
)
from patmat.symbols import QUEST, STAR, ZERO

from helpers import random_pattern, random_shape

P = PatternMatrix.from_text


class TestAddition:
    def test_zero_matrix_is_identity(self):
        a = P("* 0\n? *")
        assert a + PatternMatrix.zeros(2, 2) == a

    def test_star_plus_star(self):
        assert P("*") + P("*") == P("?")

    def test_entrywise_table(self):
        assert P("* ?\n0 *") + P("* 0\n* 0") == P("? ?\n* *")

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match="2x2.*2x3"):
            P("* 0\n0 *") + P("* 0 0\n0 * 0")

    def test_commutative_and_associative(self):
        rng = random.Random(101)
        for _ in range(200):
            rows, cols = random_shape(rng, 4, 4)
            a = random_pattern(rng, rows, cols)
            b = random_pattern(rng, rows, cols)
            c = random_pattern(rng, rows, cols)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)


class TestMultiplication:
    def test_outer_product_is_all_star(self):
        col = P("*\n*")
        row = P("* *")
        assert col @ row == P("* *\n* *")

    def test_identity_is_left_neutral(self):
        rng = random.Random(7)
        for _ in range(50):
            b = random_pattern(rng, 3, rng.randint(1, 4))
            assert identity_pattern(3) @ b == b
            assert b @ identity_pattern(b.cols) == b

    def test_identity_example(self):
        b = P("0 ?\n* 0")
        assert P("* 0\n0 *") @ b == b

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DimensionError, match="2x2.*3x1"):
            P("* 0\n0 *") @ P("*\n*\n*")

    def test_associative_exhaustive_2x2(self):
        # integer-encode the 81 two-by-two patterns and tabulate products
        symbols = (ZERO, STAR, QUEST)
        patterns = [
            PatternMatrix(2, 2, combo)
            for combo in itertools.product(symbols, repeat=4)
        ]
        index = {pat: k for k, pat in enumerate(patterns)}
        product = [
            [index[a @ b] for b in patterns] for a in patterns
        ]
        for i in range(81):
            row_i = product[i]
            for j in range(81):
                left = product[row_i[j]]
                row_j = product[j]
                for k in range(81):
                    assert left[k] == row_i[row_j[k]]

    def test_associative_random_3x3(self):
        rng = random.Random(55)
        for _ in range(300):
            a = random_pattern(rng, 3, 3)
            b = random_pattern(rng, 3, 3)
            c = random_pattern(rng, 3, 3)
            assert (a @ b) @ c == a @ (b @ c)


class TestIdentityPattern:
    def test_small_sizes(self):
        assert identity_pattern(1) == P("*")
        assert identity_pattern(2) == P("* 0\n0 *")

    def test_adding_identity_flips_diagonal(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = random_pattern(rng, n, n)
            shifted = a + identity_pattern(n)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        expected = STAR if a[i, j] is ZERO else QUEST
                    else:
                        expected = a[i, j]
                    assert shifted[i, j] is expected


class TestTranspose:
    def test_example(self):
        assert P("* 0\n? *").transpose() == P("* ?\n0 *")

    def test_involution(self):
        rng = random.Random(9)
        for _ in range(100):
            a = random_pattern(rng, *random_shape(rng, 4, 4))
            assert a.transpose().transpose() == a

    def test_column_from_row(self):
        assert P("* ? 0").transpose() == P("*\n?\n0")


class TestStacking:
    def test_hstack_example(self):
        assert hstack([P("*"), P("0")]) == P("* 0")

    def test_vstack_example(self):
        assert vstack([P("* 0"), P("? *")]) == P("* 0\n? *")

    def test_shape_arithmetic(self):
        stacked = hstack([P("* 0\n0 *"), P("?\n?")])
        assert stacked.shape == (2, 3)

    def test_hstack_row_mismatch(self):
        with pytest.raises(DimensionError, match="row counts"):
            hstack([P("*"), P("*\n*")])

    def test_vstack_col_mismatch(self):
        with pytest.raises(DimensionError, match="column counts"):
            vstack([P("* *"), P("*")])

    def test_empty_block_list(self):
        with pytest.raises(DimensionError):
            hstack([])
        with pytest.raises(DimensionError):
            vstack([])

    def test_stacking_round_trip(self):
        rng = random.Random(21)
        for _ in range(50):
            rows = rng.randint(1, 3)
            a = random_pattern(rng, rows, rng.randint(1, 3))
            b = random_pattern(rng, rows, rng.randint(1, 3))
            stacked = hstack([a, b])
            assert stacked.shape == (rows, a.cols + b.cols)
            for i in range(rows):
                assert stacked.row(i) == a.row(i) + b.row(i)


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(50):
            a = random_pattern(rng, *random_shape(rng, 5, 5))
            assert parse_pattern_text(a.to_text()) == a

    def test_comments_and_blanks(self):
        text = "# leading comment\n\n* 0  # trailing\n\n? *\n"
        assert parse_pattern_text(text) == P("* 0\n? *")

    def test_bad_token_reports_line(self):
        with pytest.raises(TextParseError, match="line 2"):
            parse_pattern_text("* 0\n* x\n")

    def test_ragged_rows_rejected(self):
        with pytest.raises(TextParseError, match="expected 2"):
            parse_pattern_text("* 0\n*\n")

    def test_empty_input_rejected(self):
        with pytest.raises(TextParseError):
            parse_pattern_text("# nothing here\n")


class TestValueSemantics:
    def test_equality_is_entrywise(self):
        assert P("* 0") == P("* 0")
        assert P("* 0") != P("* ?")
        assert P("*") != P("*\n*")

    def test_hashable(self):
        seen = {P("* 0"), P("* 0"), P("0 *")}
        assert len(seen) == 2

    def test_entry_count_validated(self):
        with pytest.raises(DimensionError):
            PatternMatrix(2, 2, (ZERO, STAR, QUEST))

    @pytest.mark.parametrize(
        "build, error, match",
        [
            (lambda: PatternMatrix(-1, 0, ()), DimensionError, "negative shape"),
            (lambda: PatternMatrix(1, 2, ("*", "0")), TypeError, "Symbols"),
            (lambda: identity_pattern(-1), DimensionError, "negative size"),
            (lambda: PatternMatrix.from_rows([["*", "0"], ["*"]]), DimensionError,
             "ragged rows"),
        ],
        ids=["negative-shape", "non-symbol-entries", "negative-identity",
             "ragged-rows"],
    )
    def test_constructor_rejects_bad_input(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    @pytest.mark.parametrize(
        "rows, cols, nz, star, error, match",
        [
            (-1, 2, (), (), DimensionError, "negative shape"),
            (2, 2, (0b01,), (0b01,), DimensionError, "needs 2 row masks"),
            (1, 2, (0b100,), (0,), DimensionError, "outside 2 columns"),
            (1, 2, (-1,), (0,), DimensionError, "outside 2 columns"),
            (1, 2, (0b01,), (0b10,), ValueError, "subset of the nonzero mask"),
        ],
        ids=["negative-shape", "mask-count", "bit-at-cols", "negative-mask",
             "star-outside-nz"],
    )
    def test_from_masks_rejects_bad_input(self, rows, cols, nz, star, error, match):
        with pytest.raises(error, match=match):
            PatternMatrix.from_masks(rows, cols, nz, star)

    def test_assignment_is_refused(self):
        a = P("* 0")
        with pytest.raises(AttributeError, match="immutable"):
            a.rows = 3
        assert a.rows == 1

    @pytest.mark.parametrize("text", ["* 0\n? *", "0 0 0", "?\n*\n0"])
    def test_pickle_round_trip_keeps_equality(self, text):
        a = P(text)
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and copy.shape == a.shape
        assert copy.entries == a.entries

    def test_to_rows_and_str(self):
        a = P("* 0\n? *")
        assert a.to_rows() == [[STAR, ZERO], [QUEST, STAR]]
        assert str(a) == "* 0\n? *"

    def test_indexing(self):
        a = P("* 0\n? *")
        assert a[0, 0] is STAR and a[1, 0] is QUEST
        with pytest.raises(IndexError):
            a[2, 0]
        assert a.row(1) == (QUEST, STAR) and a.column(0) == (STAR, QUEST)
        for access in (a.row, a.column):
            for index in (2, -1):
                with pytest.raises(IndexError, match="out of range for 2x2"):
                    access(index)


class TestSubmatrix:
    A = P("* 0 ?\n? * 0\n0 ? *")

    def test_rows_and_columns_in_the_order_given(self):
        assert self.A.submatrix((0, 2), (1, 2)) == P("0 ?\n? *")
        assert self.A.submatrix((2, 0), (2, 0, 0)) == P("* 0 0\n? * *")
        assert self.A.submatrix(range(3), range(3)) == self.A

    def test_empty_selections(self):
        assert self.A.submatrix((), ()) == PatternMatrix(0, 0, ())
        assert self.A.submatrix((1,), ()) == PatternMatrix(1, 0, ())
        assert self.A.submatrix((), (0, 2)) == PatternMatrix(0, 2, ())

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ((3,), (0,)), ((0,), (3,)), ((-1,), (0,)),
            # an index is checked even when the other selection is empty
            ((3,), ()), ((-1,), ()), ((), (3,)), ((), (-1,)),
        ],
    )
    def test_out_of_range_raises(self, rows, cols):
        with pytest.raises(IndexError):
            self.A.submatrix(rows, cols)
