"""Elimination decisions, certificates, refutation and numeric oracles."""

import random
from fractions import Fraction

import pytest

from patmat import (
    DimensionError,
    PatternMatrix,
    RealizationMatrix,
    ValueDistribution,
    contains,
    derive_seed,
    full_column_rank,
    full_row_rank,
    grid_witness_search,
    hstack,
    identity_pattern,
    numeric_rank,
    parse_pattern_text,
    pencil_full_rank,
    refutation,
    refute_full_rank,
    sample_member,
    strongly_nonsingular_square,
    verify_certificate,
    verify_refutation,
)
from patmat import oracles, rank
from patmat.oracles import pencil_agreement, pencil_refutation_witness, rank_soundness
from patmat.symbols import STAR, ZERO

from helpers import random_pattern, random_shape, shuffle_columns

P = PatternMatrix.from_text
R = RealizationMatrix.from_rows


def _thousand_row_stall():
    """A lower-triangular * diagonal with ? sprinkled over every column,
    and rows 300 and 700 given the same support, all *."""
    rng = random.Random(1000)
    n, cols = 1000, 1050
    nz, star = [], []
    for i in range(n):
        quests = sum(1 << j for j in rng.sample(range(cols), 3))
        nz.append(1 << i | quests)
        star.append(1 << i)
    nz[300] = nz[700] = star[300] = star[700] = nz[300]
    return PatternMatrix.from_masks(n, cols, nz, star)


class TestFullRowRank:
    def test_triangular_two_by_two(self):
        pattern = P("* 0\n? *")
        verdict = full_row_rank(pattern)
        assert verdict.full_rank
        # the only eligible column at step one is the second one
        assert verdict.pivots == ((1, 1), (0, 0))
        assert verify_certificate(pattern, verdict.pivots)

    def test_all_star_square_stalls(self):
        verdict = full_row_rank(P("* *\n* *"))
        assert not verdict.full_rank
        assert verdict.stall.reason == "no eligible pivot column"
        assert verdict.stall.rows == (0, 1)
        # the all-ones member has rank 1
        assert numeric_rank(R([[1, 1], [1, 1]]), 0) == 1

    def test_identity_next_to_anything(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 5)
            b = random_pattern(rng, n, rng.randint(1, 4))
            assert full_row_rank(hstack([identity_pattern(n), b])).full_rank

    def test_two_pivot_wide_pattern(self):
        pattern = P("* * 0\n0 * *")
        verdict = full_row_rank(pattern)
        assert verdict.full_rank
        assert len(verdict.pivots) == 2
        assert verify_certificate(pattern, verdict.pivots)
        member = sample_member(pattern, ValueDistribution(seed=5))
        assert numeric_rank(member, 0) == 2

    def test_more_rows_than_columns_short_circuits(self):
        verdict = full_row_rank(P("*\n*"))
        assert not verdict.full_rank
        assert verdict.stall.reason == "more rows than columns"
        assert verdict.pivots == ()

    def test_empty_matrix_is_vacuously_full_rank(self):
        assert full_row_rank(PatternMatrix(0, 3, ())).full_rank

    def test_quest_pivot_is_never_eligible(self):
        assert not full_row_rank(P("? 0\n0 *")).full_rank

    def test_long_lower_bidiagonal(self):
        # row i is * in columns i-1 and i: only the last column starts out
        # eligible, and each pivot frees the column to its left
        n = 1200
        text = "\n".join(
            " ".join("*" if j in (i - 1, i) else "0" for j in range(n)) for i in range(n)
        )
        pattern = parse_pattern_text(text)
        verdict = full_row_rank(pattern)
        assert verdict.full_rank
        assert verdict.pivots == tuple((i, i) for i in reversed(range(n)))
        assert verify_certificate(pattern, verdict.pivots)


class TestFullColumnRank:
    def test_single_column_with_star(self):
        verdict = full_column_rank(P("*\n?"))
        assert verdict.full_rank
        assert verdict.pivots == ((0, 0),)

    def test_all_quest_column_fails(self):
        verdict = full_column_rank(P("?\n?"))
        assert not verdict.full_rank
        witness_t = refute_full_rank(P("?\n?").transpose())
        assert witness_t is not None
        assert all(e == 0 for e in witness_t.entries)

    def test_wide_matrix_short_circuits(self):
        verdict = full_column_rank(P("* *"))
        assert not verdict.full_rank
        assert verdict.stall.reason == "more columns than rows"

    def test_square_row_and_column_verdicts_agree_exhaustively(self):
        import itertools

        from patmat.symbols import QUEST, STAR, ZERO

        for combo in itertools.product((ZERO, STAR, QUEST), repeat=9):
            pattern = PatternMatrix(3, 3, combo)
            assert (
                full_row_rank(pattern).full_rank
                == full_column_rank(pattern).full_rank
            )


class TestCertificates:
    def test_certificate_replays(self):
        rng = random.Random(23)
        for _ in range(200):
            rows = rng.randint(1, 4)
            pattern = random_pattern(rng, rows, rng.randint(rows, 6))
            verdict = full_row_rank(pattern)
            if verdict.full_rank:
                assert verify_certificate(pattern, verdict.pivots)
                assert len(verdict.pivots) == pattern.rows
                assert len({i for i, _ in verdict.pivots}) == pattern.rows
                assert len({j for _, j in verdict.pivots}) == pattern.rows

    def test_corrupted_certificates_fail(self):
        pattern = P("* * 0\n0 * *")
        pivots = full_row_rank(pattern).pivots
        assert verify_certificate(pattern, pivots)
        assert not verify_certificate(pattern, pivots[::-1])
        assert not verify_certificate(pattern, pivots[:1])
        assert not verify_certificate(pattern, ((0, 1), (1, 2)))
        assert not verify_certificate(pattern, ((0, 0), (0, 0)))


class TestPivotConfluence:
    def test_random_pivot_orders_never_change_the_verdict(self):
        rng = random.Random(29)
        for _ in range(500):
            pattern = random_pattern(rng, rng.randint(1, 5), rng.randint(1, 8))
            reference = full_row_rank(pattern).full_rank
            for trial in range(10):
                trial_rng = random.Random(derive_seed(31, trial))
                shuffled = shuffle_columns(trial_rng, pattern)
                verdict = full_row_rank(shuffled)
                assert verdict.full_rank == reference
                if verdict.full_rank:
                    assert verify_certificate(shuffled, verdict.pivots)


class TestInvariances:
    def test_column_monotonicity(self):
        rng = random.Random(37)
        for _ in range(200):
            rows = rng.randint(1, 4)
            pattern = random_pattern(rng, rows, rng.randint(rows, 6))
            if not full_row_rank(pattern).full_rank:
                continue
            extra = random_pattern(rng, rows, rng.randint(1, 4))
            assert full_row_rank(hstack([pattern, extra])).full_rank

    def test_permutation_invariance(self):
        rng = random.Random(43)
        for _ in range(500):
            rows, cols = random_shape(rng, 4, 5)
            pattern = random_pattern(rng, rows, cols)
            reference = full_row_rank(pattern).full_rank
            row_perm = list(range(rows))
            col_perm = list(range(cols))
            rng.shuffle(row_perm)
            rng.shuffle(col_perm)
            permuted = PatternMatrix(
                rows,
                cols,
                tuple(
                    pattern[row_perm[i], col_perm[j]]
                    for i in range(rows)
                    for j in range(cols)
                ),
            )
            assert full_row_rank(permuted).full_rank == reference


class TestStronglyNonsingular:
    def test_unique_star_matching(self):
        assert strongly_nonsingular_square(P("* ?\n0 *"))

    def test_two_matchings(self):
        assert not strongly_nonsingular_square(P("* *\n* *"))

    def test_quest_on_the_unique_matching(self):
        assert not strongly_nonsingular_square(P("? 0\n0 *"))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            strongly_nonsingular_square(P("* 0"))

    def test_long_alternating_paths_do_not_recurse(self):
        # lower bidiagonal: row i is nonzero in columns i-1 and i, so every
        # augmenting search walks back through all earlier rows
        n = 1200
        entries = tuple(
            STAR if j in (i - 1, i) else ZERO for i in range(n) for j in range(n)
        )
        assert strongly_nonsingular_square(PatternMatrix(n, n, entries))

    def test_agrees_with_elimination_on_random_squares(self):
        rng = random.Random(47)
        for _ in range(500):
            n = rng.randint(1, 4)
            pattern = random_pattern(rng, n, n)
            assert (
                strongly_nonsingular_square(pattern)
                == full_row_rank(pattern).full_rank
            )


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(R([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 0) == 3

    def test_all_ones_wide(self):
        assert numeric_rank(R([[1, 1, 1], [1, 1, 1]]), 0) == 1

    def test_rank_two_example(self):
        assert numeric_rank(R([[1, 1], [1, 2]]), 0) == 2

    def test_exact_fractions_near_cancellation(self):
        tiny = Fraction(1, 10**30)
        assert numeric_rank(R([[1, 1], [1, 1 + tiny]]), 0) == 2
        assert numeric_rank(R([[1, 1], [1, 1]]), 0) == 1

    def test_float_tolerance(self):
        nearly = R([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        assert numeric_rank(nearly, 1e-9) == 1
        assert numeric_rank(nearly, 1e-15) == 2

    def test_complex_entries(self):
        assert numeric_rank(R([[1j, 1], [1, -1j]]), 1e-12) == 1
        assert numeric_rank(R([[1j, 1], [1, 1j]]), 1e-12) == 2

    def test_zero_and_empty(self):
        assert numeric_rank(RealizationMatrix.zeros(2, 3), 0) == 0
        assert numeric_rank(RealizationMatrix(0, 0, ()), 0) == 0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            numeric_rank(R([[1]]), -0.5)


class TestRefutation:
    def test_all_star_square_yields_all_ones(self):
        witness = refute_full_rank(P("* *\n* *"))
        assert witness == R([[1, 1], [1, 1]])

    def test_equal_rows_heuristic_target(self):
        pattern = P("* * ?\n? * *")
        witness = refute_full_rank(pattern)
        assert witness is not None
        assert witness.row(0) == witness.row(1) == (1, 1, 1)

    def test_strongly_full_rank_pattern_has_no_witness(self):
        assert refute_full_rank(P("* 0\n? *")) is None

    def test_more_rows_than_columns_trivial_witness(self):
        witness = refute_full_rank(P("*\n*"))
        assert witness is not None
        assert contains(P("*\n*"), witness, 0)

    def test_grid_search_finds_cancellations(self):
        witness = grid_witness_search(P("* *\n* *"))
        assert witness == R([[1, 1], [1, 1]])
        assert grid_witness_search(P("* 0\n0 *")) is None

    def test_witnesses_are_exact_members_with_deficient_rank(self):
        rng = random.Random(53)
        found = 0
        for _ in range(300):
            rows = rng.randint(1, 3)
            pattern = random_pattern(rng, rows, rng.randint(rows, 4))
            if full_row_rank(pattern).full_rank:
                continue
            witness = refute_full_rank(pattern)
            assert witness is not None, pattern.to_text()
            assert witness.is_exact()
            assert contains(pattern, witness, 0)
            assert numeric_rank(witness, 0) < pattern.rows
            assert verify_refutation(pattern, *refutation(pattern))
            found += 1
        assert found > 50

    def test_row_subset_strategy_beyond_grid_and_equal_rows(self):
        # every row pair has a 0/* clash, yet the three rows together
        # support a vanishing combination, so an exact witness must still
        # be produced.
        pattern = P("* 0 * ? ? ?\n0 * ? * ? ?\n? ? 0 0 ? ?")
        assert not full_row_rank(pattern).full_rank
        witness = refute_full_rank(pattern)
        assert witness is not None
        assert witness.is_exact()
        assert contains(pattern, witness, 0)
        assert numeric_rank(witness, 0) < 3

    def test_refuter_agrees_with_elimination_on_all_2x3_patterns(self):
        import itertools

        from patmat.symbols import QUEST, STAR, ZERO

        for combo in itertools.product((ZERO, STAR, QUEST), repeat=6):
            pattern = PatternMatrix(2, 3, combo)
            if full_row_rank(pattern).full_rank:
                continue
            witness = refute_full_rank(pattern)
            assert witness is not None, pattern.to_text()
            assert numeric_rank(witness, 0) < 2


class TestVerifyRefutation:
    # rows 1 and 3 stall; y = (0, 1, 0, -1)
    PATTERN = P("* 0 0 0 0\n0 * * ? 0\n0 0 0 0 *\n0 * ? * 0")

    def test_refutation_pairs_the_witness_with_its_null_vector(self):
        witness, y = refutation(self.PATTERN)
        assert witness == refute_full_rank(self.PATTERN)
        assert y == (0, 1, 0, -1)
        assert full_row_rank(self.PATTERN).stall.rows == (1, 3)
        assert verify_refutation(self.PATTERN, witness, y)
        assert refutation(P("* 0\n? *")) is None

    def test_mutants_are_rejected(self):
        pattern = self.PATTERN
        witness, y = refutation(pattern)
        rows = witness.to_rows()

        def member(i, j, value):
            changed = [list(r) for r in rows]
            changed[i][j] = value
            return R(changed)

        # one flipped sign, the zero vector, a float and a short vector
        assert not verify_refutation(pattern, witness, (0, 1, 0, 1))
        assert not verify_refutation(pattern, witness, (0, 0, 0, 0))
        assert not verify_refutation(pattern, witness, (0, 1.0, 0, -1))
        assert not verify_refutation(pattern, witness, (0, 1, 0))
        # one changed entry, still in the class: y.W no longer vanishes
        assert contains(pattern, member(1, 1, 2), 0)
        assert not verify_refutation(pattern, member(1, 1, 2), y)
        # the same values as floats
        assert not verify_refutation(pattern, witness.scaled(1.0), y)
        # outside the class, on a row y ignores: only membership catches it
        assert not verify_refutation(pattern, member(0, 1, 5), y)
        assert not verify_refutation(P("* 0 0 0\n0 * * ?"), witness, y[:2])

    def test_exact_rank_is_never_consulted(self, monkeypatch):
        patterns = [P("* *\n* *"), P("*\n*"), P("* * ?\n? * *"), self.PATTERN]
        expected = [refute_full_rank(p) for p in patterns]

        def forbidden(*args):
            raise AssertionError("exact rank called")

        monkeypatch.setattr(rank, "_exact_rank", forbidden)
        monkeypatch.setattr(rank, "numeric_rank", forbidden)
        assert [refute_full_rank(p) for p in patterns] == expected

    def test_failed_check_raises(self, monkeypatch):
        monkeypatch.setattr(rank, "verify_refutation", lambda *args: False)
        with pytest.raises(RuntimeError):
            refute_full_rank(P("* *\n* *"))

    def test_thousand_row_stall(self):
        pattern = _thousand_row_stall()
        verdict = full_row_rank(pattern)
        assert not verdict.full_rank
        witness, y = refutation(pattern)
        assert tuple(i for i, v in enumerate(y) if v) == verdict.stall.rows
        assert len(verdict.stall.rows) > 100
        assert verify_refutation(pattern, witness, y)

    def test_transposed_column_and_pencil_routes(self):
        rng = random.Random(61)
        columns = pencils = 0
        for _ in range(300):
            cols = rng.randint(1, 3)
            pattern = random_pattern(rng, rng.randint(cols, 5), cols)
            if not full_column_rank(pattern).full_rank:
                witness_t, y = refutation(pattern.transpose())
                assert verify_refutation(pattern.transpose(), witness_t, y)
                columns += 1
            a, b = (random_pattern(rng, *pattern.shape) for _ in range(2))
            found = pencil_refutation_witness(a, b)
            if found is not None:
                total, work = found[2], a + b
                if work.rows > work.cols:
                    total, work = total.transpose(), work.transpose()
                assert verify_refutation(work, total, refutation(work)[1])
                pencils += 1
        assert columns > 50 and pencils > 50


class TestRankSoundnessSampling:
    def test_sampled_members_of_full_rank_patterns_have_full_rank(self):
        rng = random.Random(59)
        probs = (0.0, 0.25, 1.0)
        checked = 0
        for _ in range(40):
            rows = rng.randint(1, 3)
            pattern = random_pattern(rng, rows, rng.randint(rows, 5))
            if not full_row_rank(pattern).full_rank:
                continue
            for t in range(200):
                dist = ValueDistribution(
                    quest_zero_probability=probs[t % 3],
                    seed=derive_seed(61, checked, t),
                )
                member = sample_member(pattern, dist)
                assert numeric_rank(member, 0) == pattern.rows
            checked += 1
        assert checked > 3


class TestPencil:
    def test_disjoint_stars_spread_over_the_sum(self):
        assert pencil_full_rank(P("* 0"), P("0 *")).full_rank

    def test_single_star_pair_cancels(self):
        verdict = pencil_full_rank(P("*"), P("*"))
        assert not verdict.full_rank
        left, right, total = pencil_refutation_witness(P("*"), P("*"))
        # lambda = -1 turns the pencil into the sum, which is the zero matrix
        assert left - right.scaled(-1) == total
        assert total == R([[0]])
        assert left.entries[0] != 0 and right.entries[0] != 0

    def test_identity_pair_cancels(self):
        assert not pencil_full_rank(identity_pattern(2), identity_pattern(2)).full_rank

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pencil_full_rank(P("*"), P("* 0"))

    def test_tall_pencil_uses_column_rank(self):
        assert pencil_full_rank(P("*\n0"), P("0\n*")).full_rank
        assert not pencil_full_rank(P("*\n0"), P("*\n0")).full_rank

    def test_sampling_agreement_on_random_pairs(self):
        rng = random.Random(67)
        for trial in range(30):
            a = random_pattern(rng, 3, 4, weights=(5, 3, 2))
            b = random_pattern(rng, 3, 4, weights=(5, 3, 2))
            result = pencil_agreement(a, b, trials=20, seed=trial, lam_count=8)
            assert result.ok, (a.to_text(), b.to_text(), result)


class TestRankOracleHelper:
    def test_full_rank_report(self):
        result = rank_soundness(P("* 0\n? *"), trials=50, seed=0)
        assert result.ok and result.trials == 50

    def test_deficient_report_carries_witness(self):
        result = rank_soundness(P("* *\n* *"), trials=50, seed=0)
        assert result.ok
        assert "witness" in result.detail

    def test_deficient_report_runs_no_exact_rank(self, monkeypatch):
        # the left null vector proves the deficiency; a Bareiss rank of the
        # witness would cost cubic time for a number the report does not need
        def forbidden(*args):
            raise AssertionError("exact rank called")

        monkeypatch.setattr(oracles, "numeric_rank", forbidden)
        monkeypatch.setattr(rank, "numeric_rank", forbidden)
        monkeypatch.setattr(rank, "_exact_rank", forbidden)
        for pattern in (P("* *\n* *"), _thousand_row_stall()):
            result = rank_soundness(pattern, trials=50, seed=0)
            assert (result.trials, result.passes, result.counterexample) == (1, 1, None)
            assert result.detail == (
                f"verdict not full rank; witness of rank < {pattern.rows} found,"
                " proved by its left null vector"
            )
