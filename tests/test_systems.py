"""System-level property checks and their sampling cross-validations."""

import random

import pytest

from patmat import (
    DimensionError,
    PatternMatrix,
    RealizationMatrix,
    StructuredDescriptorSystem,
    StructuredIOSystem,
    ValueDistribution,
    Verdict,
    build_output_ctrl_pattern,
    check_descriptor,
    check_iso,
    check_output_controllability,
    check_ssc,
    contains,
    derive_seed,
    full_row_rank,
    hstack,
    identity_pattern,
    member_is_regular,
    numeric_rank,
    refutation,
    regularity_diagnostic,
    sample_member,
    verify_refutation,
    vstack,
)
from patmat.oracles import (
    iso_deficiency_witness,
    iso_stacked_rank_check,
    output_ctrl_sampling,
)
from patmat.symbols import ZERO

from helpers import random_pattern

P = PatternMatrix.from_text
R = RealizationMatrix.from_rows


def random_io_system(rng, nmax=3, weights=(5, 3, 2)):
    n, m, p = rng.randint(1, nmax), rng.randint(1, nmax), rng.randint(1, nmax)
    return StructuredIOSystem(
        random_pattern(rng, n, n, weights),
        random_pattern(rng, n, m, weights),
        random_pattern(rng, p, n, weights),
        random_pattern(rng, p, m, weights),
    )


class TestCheckSsc:
    def test_chain_with_top_input_holds(self):
        report = check_ssc(P("0 0\n* 0"), P("*\n0"))
        assert report.verdict is Verdict.HOLDS
        assert all(c.passed for c in report.conditions)

    def test_identity_state_with_zero_input_fails(self):
        report = check_ssc(identity_pattern(2), PatternMatrix.zeros(2, 1))
        assert report.verdict is Verdict.FAILS
        names = [c.name for c in report.conditions if not c.passed]
        assert names == ["[A+I B]"]

    def test_full_selector_input_always_holds(self):
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randint(1, 4)
            a = random_pattern(rng, n, n)
            report = check_ssc(a, identity_pattern(n))
            assert report.verdict is Verdict.HOLDS

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            check_ssc(P("* 0"), P("*"))
        with pytest.raises(DimensionError):
            check_ssc(P("*"), P("*\n*"))


class TestCheckDescriptor:
    def test_identity_e_matches_ssc(self):
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = random_pattern(rng, n, n)
            b = random_pattern(rng, n, rng.randint(1, 3))
            ssc = check_ssc(a, b)
            desc = check_descriptor(
                StructuredDescriptorSystem(identity_pattern(n), a, b)
            )
            assert desc.conditions[0].passed  # [E B] with E = I
            expected = (
                Verdict.HOLDS
                if ssc.verdict is Verdict.HOLDS
                else Verdict.INCONCLUSIVE
            )
            assert desc.verdict is expected
            assert desc.rank_conditions_hold == (ssc.verdict is Verdict.HOLDS)

    def test_zero_row_in_e_and_b_is_inconclusive(self):
        system = StructuredDescriptorSystem(
            P("* 0\n0 0"), P("0 0\n0 *"), P("0\n0")
        )
        report = check_descriptor(system)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.rank_conditions_hold is False
        assert not report.conditions[0].passed  # [E B]

    def test_all_three_conditions_pass(self):
        system = StructuredDescriptorSystem(
            P("* 0\n0 0"), P("0 0\n0 *"), P("*\n*")
        )
        report = check_descriptor(system)
        assert report.verdict is Verdict.HOLDS
        assert report.rank_conditions_hold is True
        assert [c.name for c in report.conditions] == ["[E B]", "[A B]", "[A+E B]"]

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            StructuredDescriptorSystem(P("* 0"), P("*"), P("*"))
        with pytest.raises(DimensionError):
            StructuredDescriptorSystem(P("*"), P("*"), P("*\n*"))


class TestCheckIso:
    def test_colliding_columns_fail(self):
        system = StructuredIOSystem(P("0"), P("0"), P("*"), P("*"))
        report = check_iso(system)
        assert report.verdict is Verdict.FAILS
        # witness: C = D = 1 makes the two columns equal
        member = R([[0, 0], [1, 1]])
        assert numeric_rank(member, 0) == 1

    def test_two_outputs_hold(self):
        system = StructuredIOSystem(
            P("0"), P("0"), P("*\n0"), P("0\n*")
        )
        report = check_iso(system)
        assert report.verdict is Verdict.HOLDS
        assert all(c.passed for c in report.conditions)

    def test_degenerate_empty_system_holds_vacuously(self):
        system = StructuredIOSystem(
            PatternMatrix(0, 0, ()),
            PatternMatrix(0, 0, ()),
            PatternMatrix(1, 0, ()),
            PatternMatrix(1, 0, ()),
        )
        report = check_iso(system)
        assert report.verdict is Verdict.HOLDS

    def test_sampling_soundness_when_holds(self):
        rng = random.Random(79)
        checked = 0
        while checked < 10:
            system = random_io_system(rng)
            report = check_iso(system)
            if report.verdict is not Verdict.HOLDS:
                continue
            result = iso_stacked_rank_check(
                system, members=40, lam_count=10, tol=1e-9, seed=checked
            )
            assert result.ok, result
            checked += 1

    def test_sampling_catches_a_deficient_member(self):
        # [[A - lambda I, B], [C, D]] = [[-lambda, 0], [c, d]]: rank 1 at 0
        system = StructuredIOSystem(P("0"), P("0"), P("*"), P("*"))
        assert check_iso(system).verdict is Verdict.FAILS
        result = iso_stacked_rank_check(system, members=5, lam_count=4)
        assert result.ok is False
        assert result.counterexample == {"trial": 0, "lambda": repr(0j)}

    def test_exact_witness_when_fails(self):
        rng = random.Random(83)
        refuted = 0
        while refuted < 8:
            system = random_io_system(rng)
            report = check_iso(system)
            if report.verdict is not Verdict.FAILS:
                continue
            refutation = iso_deficiency_witness(system)
            assert refutation is not None
            witness = refutation.witness
            total = system.n + system.m
            assert witness.is_exact()
            # column rank deficiency, checked exactly on the transpose
            assert numeric_rank(witness.transpose(), 0) < total
            n = system.n
            if refutation.diagonal_shift is not None:
                assert (
                    refutation.state_part + refutation.diagonal_shift
                    == witness.block(0, n, 0, n)
                )
                assert contains(system.A, refutation.state_part, 0)
                assert contains(
                    identity_pattern(n), refutation.diagonal_shift, 0
                )
            else:
                assert contains(system.A, refutation.state_part, 0)
            refuted += 1

    def test_witness_passes_the_null_vector_check(self):
        # the witness refutes the transposed composite, so its transpose
        # has a left null vector
        rng = random.Random(89)
        refuted = 0
        while refuted < 8:
            system = random_io_system(rng)
            found = iso_deficiency_witness(system)
            if found is None:
                continue
            a = system.A
            if found.condition == "[[A+I B],[C D]]":
                a = a + identity_pattern(system.n)
            composite = vstack(
                [hstack([a, system.B]), hstack([system.C, system.D])]
            ).transpose()
            _, y = refutation(composite)
            assert verify_refutation(composite, found.witness.transpose(), y)
            refuted += 1


    @pytest.mark.parametrize(
        "a, b, c, d, match",
        [
            ("* 0 0\n0 * 0", "*\n*", "* *", "*", "A must be square, got 2x3"),
            ("* 0\n0 *", "*\n*\n*", "* *", "*", "B must have 2 rows, got 3"),
            ("* 0\n0 *", "*\n*", "* * *", "*", "C must have 2 columns, got 3"),
            ("* 0\n0 *", "*\n*", "* *", "* *", "D must be 1x1, got 1x2"),
        ],
        ids=["a", "b", "c", "d"],
    )
    def test_io_system_shape_validation(self, a, b, c, d, match):
        with pytest.raises(DimensionError, match=match):
            StructuredIOSystem(P(a), P(b), P(c), P(d))


class TestBuildOutputCtrlPattern:
    def test_zero_d_contributes_zero_columns(self):
        system = StructuredIOSystem(
            P("? *\n* ?"), P("*\n0"), P("* 0"), PatternMatrix.zeros(1, 1)
        )
        built = build_output_ctrl_pattern(system, 0)
        assert built.column(0) == (ZERO,)

    def test_identity_b_and_c(self):
        a = P("? 0\n0 ?")
        system = StructuredIOSystem(
            a, identity_pattern(2), identity_pattern(2), PatternMatrix.zeros(2, 2)
        )
        built = build_output_ctrl_pattern(system, 0)
        assert built == PatternMatrix.from_rows(
            [["0", "0", "*", "0"], ["0", "0", "0", "*"]]
        )

    def test_shape_is_p_by_m_blocks(self):
        rng = random.Random(89)
        for _ in range(30):
            system = random_io_system(rng)
            n, m, p = system.n, system.m, system.p
            built = build_output_ctrl_pattern(system, n - 1)
            assert built.shape == (p, m * (n + 1))

    def test_power_bounds(self):
        system = StructuredIOSystem(
            P("?"), P("*"), P("*"), P("0")
        )
        with pytest.raises(ValueError):
            build_output_ctrl_pattern(system, 1)
        with pytest.raises(ValueError):
            build_output_ctrl_pattern(system, -1)


class TestCheckOutputControllability:
    def test_star_in_d_alone_suffices(self):
        system = StructuredIOSystem(
            P("? ?\n? ?"), P("?\n?"), P("? ?"), P("*")
        )
        report = check_output_controllability(system)
        assert report.verdict is Verdict.HOLDS
        assert len(report.conditions) == 1  # stopped at [D]

    def test_star_cancellation_is_inconclusive(self):
        system = StructuredIOSystem(
            identity_pattern(2), P("*\n*"), P("* *"), P("0")
        )
        report = check_output_controllability(system)
        assert report.verdict is Verdict.INCONCLUSIVE
        # a member with CB = 2 is output controllable, so Fails would be wrong
        cb = R([[1, 1]]) @ R([[1], [1]])
        assert numeric_rank(cb, 0) == 1

    def test_early_stop_equals_full_matrix_verdict(self):
        rng = random.Random(97)
        for _ in range(500):
            system = random_io_system(rng, nmax=4)
            report = check_output_controllability(system)
            full = build_output_ctrl_pattern(system, system.n - 1)
            expected = (
                Verdict.HOLDS
                if full_row_rank(full).full_rank
                else Verdict.INCONCLUSIVE
            )
            assert report.verdict is expected

    def test_block_product_containment(self):
        rng = random.Random(101)
        for trial in range(100):
            system = random_io_system(rng)
            n = system.n
            full = build_output_ctrl_pattern(system, n - 1)
            ra = sample_member(system.A, ValueDistribution(seed=derive_seed(7, trial, 0)))
            rb = sample_member(system.B, ValueDistribution(seed=derive_seed(7, trial, 1)))
            rc = sample_member(system.C, ValueDistribution(seed=derive_seed(7, trial, 2)))
            rd = sample_member(system.D, ValueDistribution(seed=derive_seed(7, trial, 3)))
            blocks = [rd]
            left = rc
            for _ in range(n):
                blocks.append(left @ rb)
                left = left @ ra
            stacked = [
                [x for block in blocks for x in block.row(i)]
                for i in range(system.p)
            ]
            member = RealizationMatrix.from_rows(stacked)
            assert contains(full, member, 0)

    def test_sampled_members_reach_full_output_rank(self):
        rng = random.Random(103)
        checked = 0
        while checked < 10:
            system = random_io_system(rng)
            report = check_output_controllability(system)
            if report.verdict is not Verdict.HOLDS:
                continue
            result = output_ctrl_sampling(system, trials=100, seed=checked)
            assert result.ok, result
            checked += 1


class TestRegularity:
    def test_identity_e_is_always_regular(self):
        system = StructuredDescriptorSystem(
            identity_pattern(3), P("? ? ?\n? ? ?\n? ? ?"), P("*\n*\n*")
        )
        regular, total = regularity_diagnostic(system, trials=20)
        assert (regular, total) == (20, 20)

    def test_zero_pencil_is_never_regular(self):
        system = StructuredDescriptorSystem(
            PatternMatrix.zeros(2, 2), PatternMatrix.zeros(2, 2), P("*\n*")
        )
        regular, total = regularity_diagnostic(system, trials=10)
        assert (regular, total) == (0, 10)

    def test_member_level_decision(self):
        assert member_is_regular(R([[1, 0], [0, 1]]), R([[0, 0], [0, 0]]))
        assert not member_is_regular(
            R([[1, 0], [0, 0]]), R([[1, 0], [0, 0]])
        )
        # singular E with regular pencil
        assert member_is_regular(R([[1, 0], [0, 0]]), R([[0, 1], [1, 0]]))

    @pytest.mark.parametrize(
        "e, a",
        [([[1, 0]], [[1, 0]]), ([[1]], [[1, 0], [0, 1]])],
        ids=["wide", "unequal"],
    )
    def test_member_level_shape_validation(self, e, a):
        with pytest.raises(DimensionError, match="square of equal size"):
            member_is_regular(R(e), R(a))
