"""System-level property checks and their sampling cross-validations."""

import copy
import dataclasses
import pickle
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from patmat import (
    DimensionError,
    DirectedGraph,
    NetworkProblem,
    PatternMatrix,
    RankVerdict,
    RealizationMatrix,
    ConditionCheck,
    StructuredDescriptorSystem,
    StructuredIOSystem,
    ValueDistribution,
    Verdict,
    build_output_ctrl_pattern,
    check_descriptor,
    check_iso,
    check_output_controllability,
    check_ssc,
    check_target_controllability,
    contains,
    derive_seed,
    full_row_rank,
    hstack,
    identity_pattern,
    numeric_rank,
    qualitative_pattern,
    refutation,
    sample_member,
    selector_pattern,
    verify_refutation,
    vstack,
)
from patmat import oracles
from patmat.oracles import (
    OracleResult,
    iso_deficiency_witness,
    iso_stacked_rank_check,
    minkowski_roundtrip,
    output_ctrl_sampling,
    pencil_agreement,
    rank_soundness,
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


@pytest.fixture
def built(monkeypatch):
    """The number of pattern matrices and rank verdicts constructed during
    the test, by kind."""
    counts = Counter()
    set_masks, init_verdict = PatternMatrix._set, RankVerdict.__init__

    def counted_set(*args):
        counts["pattern"] += 1
        set_masks(*args)

    def counted_init(*args, **kwargs):
        counts["verdict"] += 1
        init_verdict(*args, **kwargs)

    monkeypatch.setattr(PatternMatrix, "_set", counted_set)
    monkeypatch.setattr(RankVerdict, "__init__", counted_init)
    return counts


def twin_leaf_problem(n):
    """The path 0 -> ... -> n-3 with twin leaves n-2 and n-1 of vertex 3,
    led from vertex 0; the twins' rows never separate, so the test stays
    inconclusive through all n powers."""
    edges = [(v, v + 1) for v in range(n - 3)] + [(3, n - 2), (3, n - 1)]
    graph = DirectedGraph.from_edges(n, edges)
    return NetworkProblem(graph, (0,), (0, 3, n - 2, n - 1))


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
            assert iso_deficiency_witness(system) is None
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

    @pytest.mark.parametrize("members, lam_count", [(5, 0), (0, 3), (-1, 3)])
    def test_counts_below_one_are_rejected(self, members, lam_count):
        # with no lambda (or no member) the failing system would pass 5/5
        system = StructuredIOSystem(P("0"), P("0"), P("*"), P("*"))
        assert not iso_stacked_rank_check(system, members=5, lam_count=3).ok
        with pytest.raises(ValueError, match="must be at least 1"):
            iso_stacked_rank_check(system, members=members, lam_count=lam_count)

    def test_conditions_carry_their_composites(self):
        assert [f.name for f in dataclasses.fields(ConditionCheck)] == [
            "name", "pattern", "verdict"
        ]
        system = StructuredIOSystem(P("0 *\n* 0"), P("*\n0"), P("? *"), P("0"))
        a_shifted = system.A + identity_pattern(2)
        expected = [
            vstack([hstack([system.A, system.B]), hstack([system.C, system.D])]),
            vstack([hstack([a_shifted, system.B]), hstack([system.C, system.D])]),
        ]
        report = check_iso(system)
        assert [c.pattern for c in report.conditions] == expected
        assert [c.shape for c in report.conditions] == [(3, 3), (3, 3)]

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
            y = refutation(composite).null_vector
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

    @pytest.mark.parametrize(
        "a_23, powers",
        [
            # column 3 is reached from both frontier columns 1 and 2: ?
            ("*", ["* 0 0 0", "? * * 0", "? ? ? ?"]),
            # column 3 is reached from column 1 alone, both factors *: *
            ("0", ["* 0 0 0", "? * * 0", "? ? ? *"]),
        ],
    )
    def test_quest_diagonal_powers_grow_from_the_frontier(self, a_23, powers):
        a = P(f"? * * 0\n0 ? 0 *\n0 0 ? {a_23}\n0 0 0 ?")
        system = StructuredIOSystem(
            a, identity_pattern(4), P("* 0 0 0"), PatternMatrix.zeros(1, 4)
        )
        built = build_output_ctrl_pattern(system, 2)
        assert built == P(" ".join(["0 0 0 0", *powers]))

    @pytest.mark.parametrize("diagonal, products_with_a", [("?", 0), ("*", 3)])
    def test_quest_diagonal_forms_no_product_with_a(
        self, monkeypatch, diagonal, products_with_a
    ):
        a = P(f"{diagonal} * 0 0\n0 ? * 0\n0 0 ? *\n* 0 0 ?")
        system = StructuredIOSystem(a, P("*\n0\n0\n0"), P("0 0 0 *"), P("0"))
        right_factors = []
        product = PatternMatrix.__matmul__

        def recorded(left, right):
            right_factors.append(right)
            return product(left, right)

        monkeypatch.setattr(PatternMatrix, "__matmul__", recorded)
        assert build_output_ctrl_pattern(system, 3) == P("0 0 * ? ?")
        assert sum(f is a for f in right_factors) == products_with_a

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
        # with no states, [D] is the only condition, and no power is named
        no_states = StructuredIOSystem(
            PatternMatrix.zeros(0, 0), PatternMatrix.zeros(0, 1),
            PatternMatrix.zeros(1, 0), P("?"),
        )
        report = check_output_controllability(no_states)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert [cond.name for cond in report.conditions] == ["[D]"]
        assert report.notes == (
            "sufficient rank test failed on [D], as there are no states;"
            " no conclusion about the family"
        )

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

    @pytest.mark.parametrize(
        "read",
        [
            lambda cond: cond,
            hash,
            repr,
            lambda cond: pickle.loads(pickle.dumps(cond)),
            copy.deepcopy,
            lambda cond: dataclasses.replace(cond, name="renamed"),
        ],
        ids=["eq", "hash", "repr", "pickle", "deepcopy", "replace"],
    )
    def test_conditions_read_as_eager_ones(self, read):
        # each prefix's pattern and verdict are built on first read; the
        # draws include shape stalls, elimination stalls and passes
        rng = random.Random(107)
        for _ in range(40):
            system = random_io_system(rng, nmax=4)
            eager = [
                ConditionCheck(cond.name, cond.pattern, cond.verdict)
                for cond in check_output_controllability(system).conditions
            ]
            lazy = check_output_controllability(system).conditions
            assert [read(cond) for cond in lazy] == [read(cond) for cond in eager]

    def test_shape_and_passed_build_no_pattern_or_verdict(self, built):
        report = check_target_controllability(twin_leaf_problem(12))
        read = [(cond.shape, cond.passed) for cond in report.conditions]
        assert built["verdict"] == 0
        blocks = built["pattern"]  # the products of the blocks, no composite
        assert read == [
            (cond.pattern.shape, cond.verdict.full_rank) for cond in report.conditions
        ]
        assert built["pattern"] - blocks == len(report.conditions)

    def test_inconclusive_network_builds_only_the_verdict_read(self, built):
        n = 12
        report = check_target_controllability(twin_leaf_problem(n))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert len(report.conditions) == n + 1
        last = report.conditions[-1]
        assert last.verdict is last.verdict  # built once, on the first read
        assert built["verdict"] == 1

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

    def test_thirty_two_vertex_path_samples_in_integers(self):
        # the directed path 1 -> ... -> 32 led from vertex 1, with targets
        # every third vertex: each trial forms 32 powers C A^k, which as
        # Fraction products took seconds per trial
        n = 32
        targets = range(0, n, 3)
        zeros = [0] * len(targets)
        system = StructuredIOSystem(
            qualitative_pattern(DirectedGraph(n, [(i, i + 1) for i in range(n - 1)])),
            selector_pattern(range(n), (0,), n),
            selector_pattern(targets, range(n), n),
            PatternMatrix.from_masks(len(targets), 1, zeros, zeros),
        )
        started = time.perf_counter()
        result = output_ctrl_sampling(system, trials=10)
        assert time.perf_counter() - started < 3
        assert result.ok and result.trials == 10

    def test_integer_products_are_scaled_member_products(self):
        # the reference is the Fraction product of the members themselves
        rng = random.Random(107)
        for k in range(50):
            rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
            x, y = (
                sample_member(random_pattern(rng, *shape), ValueDistribution(seed=k))
                for shape in ((rows, inner), (inner, cols))
            )
            product = oracles._int_product(oracles._times_64(x), oracles._times_64(y))
            assert product == [[4096 * v for v in row] for row in (x @ y).to_rows()]

    def test_sample_off_the_sixty_fourths_is_refused(self, monkeypatch):
        # every sampled nonzero is +-k/64, so the integer products may
        # scale by 64; any other entry is a broken draw, not a failed trial
        system = StructuredIOSystem(P("0"), P("*"), P("*"), P("0"))
        third = R([[Fraction(1, 3)]])
        monkeypatch.setattr(oracles, "sample_member", lambda pattern, dist: third)
        with pytest.raises(RuntimeError, match="1/3 is not a multiple of 1/64"):
            output_ctrl_sampling(system, trials=1)

    def test_sampling_that_checks_nothing_does_not_pass(self):
        system = StructuredIOSystem(P("0"), P("0"), P("*"), P("0"))
        assert check_output_controllability(system).verdict is Verdict.INCONCLUSIVE
        result = output_ctrl_sampling(system)
        assert (result.trials, result.passes) == (0, 0)
        assert result.detail == "verdict not Holds; nothing to check"
        assert not result.ok

    def test_ok_needs_at_least_one_trial(self):
        assert not OracleResult("x", 0, 0).ok
        assert OracleResult("x", 2, 2).ok
        assert not OracleResult("x", 2, 1).ok

    @pytest.mark.parametrize(
        "check, failure, run",
        [
            ("_sums_to", False, lambda: minkowski_roundtrip(P("* ?"), P("? 0"), trials=4)),
            ("numeric_rank", -1, lambda: pencil_agreement(
                P("* 0\n0 *"), P("0 0\n0 0"), trials=4, lam_count=1)),
            ("numeric_rank", -1, lambda: rank_soundness(P("* 0\n? *"), trials=4)),
            ("numeric_rank", -1, lambda: iso_stacked_rank_check(
                StructuredIOSystem(P("0"), P("*"), P("*"), P("0")),
                members=4, lam_count=1)),
            ("numeric_rank", -1, lambda: output_ctrl_sampling(
                StructuredIOSystem(P("0"), P("*"), P("*"), P("0")), trials=4)),
        ],
        ids=["minkowski", "pencil", "rank", "iso_sampling", "output_ctrl_sampling"],
    )
    def test_first_counterexample_is_kept(self, monkeypatch, check, failure, run):
        # one check per trial; trials 1 and 2 of 4 fail, and the report
        # keeps trial 1's counterexample
        original = getattr(oracles, check)
        calls = []

        def failing(*args):
            calls.append(args)
            return failure if len(calls) in (2, 3) else original(*args)

        monkeypatch.setattr(oracles, check, failing)
        result = run()
        assert len(calls) == result.trials == 4
        assert result.passes == 2
        assert result.counterexample["trial"] == 1
        assert result.ok is False

    @pytest.mark.parametrize("trials", [0, -1])
    def test_sampling_counts_below_one_are_rejected(self, trials):
        system = StructuredIOSystem(P("0"), P("*"), P("*"), P("0"))
        assert check_output_controllability(system).verdict is Verdict.HOLDS
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            output_ctrl_sampling(system, trials=trials)
