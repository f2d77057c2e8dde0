"""Membership, sampling and the exact sum decomposition."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from patmat import (
    DimensionError,
    MembershipError,
    PatternMatrix,
    RealizationMatrix,
    ValueDistribution,
    contains,
    decompose_sum,
    derive_seed,
    numeric_rank,
    sample_member,
)

from patmat.oracles import _sums_to, minkowski_roundtrip
from patmat.realization import _HALVES, _NEGATIVE, _POSITIVE, _sample_row
from patmat.symbols import QUEST, STAR

from helpers import random_pattern, random_shape

P = PatternMatrix.from_text
R = RealizationMatrix.from_rows


class TestContains:
    def test_star_and_zero(self):
        assert contains(P("* 0"), R([[3, 0]]), 0)

    def test_star_violated_by_zero(self):
        assert not contains(P("* 0"), R([[0, 0]]), 0)

    def test_quest_admits_zero(self):
        assert contains(P("?"), R([[0]]), 0)

    def test_zero_violated(self):
        assert not contains(P("0"), R([[Fraction(1, 10**9)]]), 0)

    def test_tolerance_blurs_small_entries(self):
        m = R([[1e-12, 0.5]])
        assert not contains(P("0 *"), m, 0)
        assert contains(P("0 *"), m, 1e-9)
        assert not contains(P("* 0"), m, 1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            contains(P("* 0"), R([[1], [0]]), 0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="negative tolerance"):
            contains(P("*"), R([[1]]), -1)
        # under NaN every comparison is False, so any matrix would be a member
        with pytest.raises(ValueError, match="NaN tolerance"):
            contains(P("* 0\n0 *"), R([[0, 5], [7, 0]]), float("nan"))


class TestSampleMember:
    def test_all_zero_pattern_gives_zero_matrix(self):
        pattern = PatternMatrix.zeros(3, 2)
        for seed in (0, 1, 99):
            member = sample_member(pattern, ValueDistribution(seed=seed))
            assert all(e == 0 for e in member.entries)

    def test_output_is_always_a_member(self):
        rng = random.Random(31)
        for trial in range(300):
            pattern = random_pattern(rng, *random_shape(rng, 4, 4))
            dist = ValueDistribution(
                quest_zero_probability=rng.choice((0.0, 0.25, 1.0)),
                seed=derive_seed(5, trial),
            )
            member = sample_member(pattern, dist)
            assert contains(pattern, member, 0)
            assert member.is_exact()

    def test_deterministic_for_fixed_seed(self):
        pattern = P("* ? 0\n? * ?")
        dist = ValueDistribution(seed=1234)
        assert sample_member(pattern, dist) == sample_member(pattern, dist)

    def test_quest_probability_extremes(self):
        pattern = PatternMatrix.filled(4, 4, QUEST)
        zeros = sample_member(
            pattern, ValueDistribution(quest_zero_probability=1.0, seed=8)
        )
        assert all(e == 0 for e in zeros.entries)
        dense = sample_member(
            pattern, ValueDistribution(quest_zero_probability=0.0, seed=8)
        )
        assert all(e != 0 for e in dense.entries)

    def test_star_magnitudes_within_range(self):
        pattern = PatternMatrix.filled(5, 5, STAR)
        member = sample_member(pattern, ValueDistribution(seed=77))
        assert all(Fraction(1, 2) <= abs(e) <= 2 for e in member.entries)

    def test_sampled_values_lie_on_the_fixed_grid(self):
        # every nonzero is sign * k / 64 with 32 <= k <= 128, and a large
        # sample reaches each of the 194 grid points, the ends included
        grid = {Fraction(k, 64) for k in range(32, 129)}
        grid |= {-v for v in grid}
        seen = set()
        for seed, pattern in enumerate(
            (PatternMatrix.filled(40, 40, STAR), PatternMatrix.filled(12, 12, QUEST))
        ):
            member = sample_member(pattern, ValueDistribution(seed=seed))
            nonzero = {e for e in member.entries if e}
            assert all(type(e) is Fraction for e in nonzero)
            assert nonzero <= grid
            seen |= nonzero
        assert seen == grid

    def test_distribution_fields(self):
        names = tuple(f.name for f in dataclasses.fields(ValueDistribution))
        assert names == ("quest_zero_probability", "seed")

    def test_check_draws_script_runs(self):
        # the stdlib-only draw-contract script that pytest does not collect
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "tests/check_draws.py", "200"],
            cwd=root, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "200 members" in done.stdout and "identical" in done.stdout

    def test_pinned_draws(self):
        # seed in, same numbers out: these are the draws of the Symbol-walk
        # sampler, row-major, at each ? zero probability
        pattern = P("* ? 0\n? * ?\n0 ? *")
        pinned = {
            0.0: "-83/64 113/64 0 23/16 -9/8 41/64 0 19/32 -59/32",
            0.25: "-83/64 0 0 -11/8 105/64 -69/64 0 0 13/16",
            1.0: "-83/64 0 0 0 -11/8 0 0 0 -69/64",
        }
        for quest_zero, values in pinned.items():
            member = sample_member(
                pattern, ValueDistribution(quest_zero_probability=quest_zero, seed=2021)
            )
            assert member.entries == tuple(Fraction(v) for v in values.split())
            assert all(type(e) is Fraction for e in member.entries)

    def test_draw_kernel_matches_randint_and_choice(self):
        # _sample_row draws through getrandbits; a twin generator making the
        # documented calls must give the same value and be left in the same
        # state, which the next random() of each shows
        for seed in range(2000):
            kernel, twin = random.Random(seed), random.Random(seed)
            (value,) = _sample_row(1, 1, 1, kernel.random, kernel.getrandbits, 0.25)
            k = twin.randint(32, 128)
            sign = twin.choice((1, -1))
            # the value is one of the shared grid Fractions, the halves' keys
            assert value == Fraction(sign * k, 64) and id(value) in _HALVES
            assert kernel.random() == twin.random()
            # a ? entry draws random() first and is zero below the probability
            (value,) = _sample_row(1, 0, 1, kernel.random, kernel.getrandbits, 0.25)
            if twin.random() < 0.25:
                assert value == 0 and type(value) is Fraction
            else:
                k = twin.randint(32, 128)
                sign = twin.choice((1, -1))
                assert value == Fraction(sign * k, 64) and id(value) in _HALVES
            assert kernel.random() == twin.random()

    def test_distribution_validation(self):
        for q in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                ValueDistribution(quest_zero_probability=q)


class TestDecomposeSum:
    def test_cancelling_pair_for_zero_entry(self):
        left, right = decompose_sum(R([[0]]), P("*"), P("*"))
        assert left == R([[-1]]) and right == R([[1]])

    def test_halving_for_double_quest(self):
        left, right = decompose_sum(R([[5]]), P("?"), P("?"))
        assert left == R([[Fraction(5, 2)]]) and right == R([[Fraction(5, 2)]])

    def test_star_side_takes_the_value(self):
        left, right = decompose_sum(R([[7]]), P("*"), P("0"))
        assert left == R([[7]]) and right == R([[0]])
        left, right = decompose_sum(R([[7]]), P("0"), P("*"))
        assert left == R([[0]]) and right == R([[7]])

    def test_quest_zero_pairs(self):
        left, right = decompose_sum(R([[0, 4]]), P("0 0"), P("? ?"))
        assert left == R([[0, 0]]) and right == R([[0, 4]])
        left, right = decompose_sum(R([[0, 4]]), P("? ?"), P("0 0"))
        assert left == R([[0, 4]]) and right == R([[0, 0]])

    def test_round_trip_random(self):
        rng = random.Random(17)
        for trial in range(300):
            rows, cols = random_shape(rng, 4, 4)
            a = random_pattern(rng, rows, cols)
            b = random_pattern(rng, rows, cols)
            member = sample_member(
                a + b,
                ValueDistribution(
                    quest_zero_probability=rng.choice((0.0, 0.25, 1.0)),
                    seed=derive_seed(23, trial),
                ),
            )
            left, right = decompose_sum(member, a, b)
            assert contains(a, left, 0)
            assert contains(b, right, 0)
            assert left + right == member

    def test_halves_table_covers_the_grid(self):
        grid = _POSITIVE + _NEGATIVE
        assert len(_HALVES) == len(set(grid)) == 194
        for v in grid:
            half = _HALVES[id(v)]
            assert type(half) is Fraction and half == Fraction(v, 2)

    def test_values_outside_the_table_are_halved_as_before(self):
        v = _NEGATIVE[75 - 32]
        copy = Fraction(v.numerator, v.denominator)
        assert copy is not v and id(copy) not in _HALVES
        cases = [
            (v, Fraction(-75, 128)),
            (copy, Fraction(-75, 128)),
            (5, Fraction(5, 2)),
            (0.75, 0.375),
        ]
        for value, half in cases:
            left, right = decompose_sum(R([[value]]), P("?"), P("*"))
            for part in (left, right):
                (x,) = part.entries
                assert x == half and type(x) is type(half)

    def test_sum_check_on_shared_halves(self):
        total = R([[Fraction(3, 4), 3, Fraction(-5, 8)]])
        halves = R([[Fraction(3, 8), Fraction(3, 2), Fraction(-5, 16)]])
        assert _sums_to(halves, halves, total)
        for wrong in (Fraction(3, 4), Fraction(3, 16), Fraction(-3, 8)):
            bad = R([[wrong, Fraction(3, 2), Fraction(-5, 16)]])
            assert not _sums_to(bad, bad, total)
        # an int sum entry takes the Fraction sum: same answer as left + right
        for half in (Fraction(3, 2), Fraction(1, 2), Fraction(3, 4)):
            left = R([[Fraction(3, 8), half, Fraction(-5, 16)]])
            assert _sums_to(left, left, total) is (left + left == total)

    def test_membership_violation_names_entry(self):
        with pytest.raises(MembershipError, match=r"\(0, 1\)") as info:
            decompose_sum(R([[1, 5]]), P("* 0"), P("0 0"))
        assert info.value.row == 0 and info.value.col == 1
        with pytest.raises(MembershipError, match=r"\(0, 0\)"):
            decompose_sum(R([[0]]), P("*"), P("0"))

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            decompose_sum(R([[1]]), P("* *"), P("* *"))
        with pytest.raises(DimensionError):
            decompose_sum(R([[1]]), P("*"), P("* *"))


class TestMinkowskiContainment:
    def test_sum_and_product_classes_contain_member_results(self):
        rng = random.Random(41)
        for trial in range(1000):
            rows, cols = random_shape(rng, 4, 4)
            a = random_pattern(rng, rows, cols)
            b = random_pattern(rng, rows, cols)
            ra = sample_member(a, ValueDistribution(seed=derive_seed(1, trial)))
            rb = sample_member(b, ValueDistribution(seed=derive_seed(2, trial)))
            assert contains(a + b, ra + rb, 0)
            inner = rng.randint(1, 4)
            c = random_pattern(rng, rows, inner)
            d = random_pattern(rng, inner, cols)
            rc = sample_member(c, ValueDistribution(seed=derive_seed(3, trial)))
            rd = sample_member(d, ValueDistribution(seed=derive_seed(4, trial)))
            assert contains(c @ d, rc @ rd, 0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_roundtrip_counts_below_one_are_rejected(self, trials):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            minkowski_roundtrip(P("* ?"), P("? 0"), trials=trials)


class TestProductStrictness:
    def test_rank_two_member_of_outer_product_class(self):
        product = P("*\n*") @ P("* *")
        member = R([[1, 1], [1, 2]])
        assert contains(product, member, 0)
        # rank 2, so no outer product of vectors reaches it
        assert numeric_rank(member, 0) == 2


class TestRealizationOps:
    def test_arithmetic(self):
        a = R([[1, 2], [3, 4]])
        b = R([[5, 6], [7, 8]])
        assert a + b == R([[6, 8], [10, 12]])
        assert b - a == R([[4, 4], [4, 4]])
        assert a @ b == R([[19, 22], [43, 50]])
        assert a.scaled(2) == R([[2, 4], [6, 8]])
        assert a.transpose() == R([[1, 3], [2, 4]])
        listed = RealizationMatrix(2, 2, [1, 2, 3, 4])
        assert listed == a and hash(listed) == hash(a)
        assert type(listed.entries) is tuple

    def test_product_matches_triple_loop(self):
        rng = random.Random(61)
        scalars = {
            "int": lambda: rng.randint(-5, 5),
            "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            "complex": lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        }
        for kind, scalar in scalars.items():
            for rows, inner, cols in [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)] + [
                (rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12))
                for _ in range(20)
            ]:
                a = [[scalar() for _ in range(inner)] for _ in range(rows)]
                b = [[scalar() for _ in range(cols)] for _ in range(inner)]
                expected = []
                for i in range(rows):
                    for j in range(cols):
                        acc = 0
                        for k in range(inner):
                            acc = acc + a[i][k] * b[k][j]
                        expected.append(acc)
                product = RealizationMatrix(rows, inner, tuple(x for r in a for x in r)) @ (
                    RealizationMatrix(inner, cols, tuple(x for r in b for x in r))
                )
                assert product.shape == (rows, cols), kind
                assert product.entries == tuple(expected), kind

    def test_block(self):
        a = R([[1, 2, 3], [4, 5, 6]])
        assert a.block(0, 2, 1, 3) == R([[2, 3], [5, 6]])

    def test_rational_strings(self):
        a = R([[Fraction(3, 2), -1]])
        assert a.rational_strings() == [["3/2", "-1"]]
        with pytest.raises(ValueError):
            R([[0.5]]).rational_strings()

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            R([[1]]) + R([[1, 2]])
        with pytest.raises(DimensionError):
            R([[1, 2]]) @ R([[1, 2]])

    @pytest.mark.parametrize(
        "build, error, match",
        [
            (lambda: RealizationMatrix(-1, 0, ()), DimensionError, "negative shape"),
            (lambda: RealizationMatrix(2, 2, (1, 2, 3)), DimensionError,
             "needs 4 entries, got 3"),
            (lambda: R([[1, 2], [3]]), DimensionError, "ragged rows"),
            (lambda: R([[1, 2]])[1, 0], IndexError, "out of range for 1x2"),
            (lambda: R([[1, 2]])[0, -1], IndexError, "out of range for 1x2"),
            (lambda: R([[1]]) - R([[1, 2]]), DimensionError, "1x1"),
            (lambda: R([[1, 2], [3, 4]]).row(2), IndexError, "out of range for 2x2"),
            (lambda: R([[1, 2], [3, 4]]).row(-1), IndexError, "out of range for 2x2"),
            (lambda: R([[1, 2], [3, 4]]).block(0, 1, 0, 3), IndexError,
             "out of range for 2x2"),
            (lambda: R([[1, 2], [3, 4]]).block(-1, 1, 0, 2), IndexError,
             "out of range for 2x2"),
            (lambda: R([[1, 2], [3, 4]]).block(1, 0, 0, 2), DimensionError,
             "negative shape"),
        ],
        ids=["negative-shape", "entry-count", "ragged", "row-index",
             "column-index", "sub-shape", "row-past-end", "row-negative",
             "block-past-end", "block-negative", "block-reversed"],
    )
    def test_bad_input_is_rejected(self, build, error, match):
        with pytest.raises(error, match=match):
            build()
