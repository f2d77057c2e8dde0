"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with its runtime; tolerances and
trial counts are fixed here and must not be loosened.
"""

import itertools
import random
import time
from contextlib import contextmanager

from patmat import (
    PatternMatrix,
    RealizationMatrix,
    StructuredDescriptorSystem,
    StructuredIOSystem,
    ValueDistribution,
    Verdict,
    check_descriptor,
    check_iso,
    check_ssc,
    check_target_controllability,
    contains,
    decompose_sum,
    derive_seed,
    full_row_rank,
    grid_witness_search,
    identity_pattern,
    numeric_rank,
    parse_graph,
    pencil_full_rank,
    sample_member,
    strongly_nonsingular_square,
    verify_certificate,
)
from patmat.network import NetworkProblem, qualitative_pattern, selector_pattern
from patmat.oracles import (
    iso_deficiency_witness,
    iso_stacked_rank_check,
    pencil_refutation_witness,
    sample_lambdas,
)
from patmat.symbols import QUEST, STAR, ZERO
from patmat.systems import build_output_ctrl_pattern

from helpers import fig1_graph_text, random_pattern

SYMBOLS = (ZERO, STAR, QUEST)


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"FAIL criterion {number} ({elapsed:.2f}s): {description}", flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number} ({elapsed:.2f}s): {description}", flush=True)
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


def test_criterion_1_symbol_tables():
    from patmat.symbols import add_symbol, mul_symbol

    addition = {
        (ZERO, ZERO): ZERO, (ZERO, STAR): STAR, (ZERO, QUEST): QUEST,
        (STAR, ZERO): STAR, (STAR, STAR): QUEST, (STAR, QUEST): QUEST,
        (QUEST, ZERO): QUEST, (QUEST, STAR): QUEST, (QUEST, QUEST): QUEST,
    }
    multiplication = {
        (ZERO, ZERO): ZERO, (ZERO, STAR): ZERO, (ZERO, QUEST): ZERO,
        (STAR, ZERO): ZERO, (STAR, STAR): STAR, (STAR, QUEST): QUEST,
        (QUEST, ZERO): ZERO, (QUEST, STAR): QUEST, (QUEST, QUEST): QUEST,
    }
    with criterion(1, 5.0, "symbol addition and multiplication tables, 18 entries"):
        checked = 0
        for a, b in itertools.product(SYMBOLS, repeat=2):
            assert add_symbol(a, b) is addition[a, b]
            assert mul_symbol(a, b) is multiplication[a, b]
            checked += 2
        assert checked == 18


def test_criterion_2_product_example():
    with criterion(2, 5.0, "all-star outer product admits a rank-2 member"):
        product = PatternMatrix.from_text("*\n*") @ PatternMatrix.from_text("* *")
        assert product == PatternMatrix.from_text("* *\n* *")
        member = RealizationMatrix.from_rows([[1, 1], [1, 2]])
        assert contains(product, member, 0)
        assert numeric_rank(member, 0) == 2


def test_criterion_3_minkowski_sum_decomposition():
    with criterion(3, 5.0, "1000/1000 exact sum decompositions, zero tolerance"):
        rng = random.Random(303)
        verified = 0
        for trial in range(1000):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_pattern(rng, rows, cols)
            b = random_pattern(rng, rows, cols)
            member = sample_member(
                a + b,
                ValueDistribution(
                    quest_zero_probability=(0.0, 0.25, 1.0)[trial % 3],
                    seed=derive_seed(303, trial),
                ),
            )
            left, right = decompose_sum(member, a, b)
            assert contains(a, left, 0)
            assert contains(b, right, 0)
            assert left + right == member
            verified += 1
        assert verified == 1000


def test_criterion_4_rank_decision_vs_brute_force():
    with criterion(
        4, 60.0,
        "elimination vs grid oracle on all 729 2x3 patterns and matching"
        " criterion on all 19683 3x3 patterns",
    ):
        probs = (0.0, 0.25, 1.0)
        full_rank_count = 0
        for combo in itertools.product(SYMBOLS, repeat=6):
            pattern = PatternMatrix(2, 3, combo)
            verdict = full_row_rank(pattern)
            witness = grid_witness_search(pattern)
            if verdict.full_rank:
                assert witness is None, pattern.to_text()
                full_rank_count += 1
                for t in range(200):
                    member = sample_member(
                        pattern,
                        ValueDistribution(
                            quest_zero_probability=probs[t % 3],
                            seed=derive_seed(404, full_rank_count, t),
                        ),
                    )
                    assert numeric_rank(member, 0) == 2
            else:
                assert witness is not None, pattern.to_text()
                assert contains(pattern, witness, 0)
                assert numeric_rank(witness, 0) < 2
        assert full_rank_count > 0

        agreements = 0
        for combo in itertools.product(SYMBOLS, repeat=9):
            pattern = PatternMatrix(3, 3, combo)
            assert (
                full_row_rank(pattern).full_rank
                == strongly_nonsingular_square(pattern)
            )
            agreements += 1
        assert agreements == 3 ** 9


def test_criterion_5_pencil_agreement():
    with criterion(
        5, 30.0,
        "pencil sampling and exact refutation on 200 random 3x4 pairs",
    ):
        rng = random.Random(505)
        true_cases = 0
        false_cases = 0
        for trial in range(200):
            a = random_pattern(rng, 3, 4, weights=(5, 3, 2))
            b = random_pattern(rng, 3, 4, weights=(5, 3, 2))
            verdict = pencil_full_rank(a, b)
            if verdict.full_rank:
                true_cases += 1
                lambdas = sample_lambdas(20, derive_seed(505, trial))
                for t in range(100):
                    ra = sample_member(
                        a, ValueDistribution(seed=derive_seed(506, trial, t))
                    )
                    rb = sample_member(
                        b, ValueDistribution(seed=derive_seed(507, trial, t))
                    )
                    for lam in lambdas:
                        assert lam != 0
                        assert numeric_rank(ra - rb.scaled(lam), 1e-9) == 3
            else:
                false_cases += 1
                parts = pencil_refutation_witness(a, b)
                assert parts is not None, (a.to_text(), b.to_text())
                left, right, total = parts
                assert contains(a, left, 0)
                assert contains(b, right, 0)
                # lambda = -1: the pencil of the parts is exactly the sum
                assert left - right.scaled(-1) == total
                assert numeric_rank(total, 0) < 3
        assert true_cases + false_cases == 200
        assert true_cases > 0 and false_cases > 0


def test_criterion_6_descriptor_ssc_coincidence():
    with criterion(
        6, 10.0,
        "descriptor check with E = I matches the state-space check on 200"
        " random pairs",
    ):
        rng = random.Random(606)
        for _ in range(200):
            n = rng.randint(1, 4)
            a = random_pattern(rng, n, n)
            b = random_pattern(rng, n, rng.randint(1, 3))
            ssc = check_ssc(a, b)
            descriptor = check_descriptor(
                StructuredDescriptorSystem(identity_pattern(n), a, b)
            )
            assert descriptor.conditions[0].passed  # [E B] with E = I
            assert descriptor.rank_conditions_hold == (
                ssc.verdict is Verdict.HOLDS
            )
            expected = (
                Verdict.HOLDS
                if ssc.verdict is Verdict.HOLDS
                else Verdict.INCONCLUSIVE
            )
            assert descriptor.verdict is expected


FIG1_GOLDEN_BLOCK = [
    "0 0 * 0 ? * ? ? ?",
    "0 0 0 * * ? ? ? ?",
    "0 0 0 0 * * ? ? ?",
    "0 0 0 0 0 * ? ? ?",
    "0 0 0 0 0 0 * ? ?",
    "0 0 0 0 0 0 0 * ?",
    "0 0 0 0 0 0 0 0 *",
]


def test_criterion_7_figure_one_golden():
    with criterion(
        7, 5.0,
        "network example reproduces the printed 7x9 block and is target"
        " controllable",
    ):
        graph = parse_graph(fig1_graph_text())
        assert graph.n == 9 and len(graph.edges) == 13
        problem = NetworkProblem(graph, leaders=(0, 1), targets=tuple(range(7)))
        everyone = tuple(range(9))
        system = StructuredIOSystem(
            qualitative_pattern(graph),
            selector_pattern(everyone, problem.leaders, 9),
            selector_pattern(problem.targets, everyone, 9),
            PatternMatrix.zeros(7, 2),
        )
        full = build_output_ctrl_pattern(system, 8)
        for i, row_text in enumerate(FIG1_GOLDEN_BLOCK):
            assert [full[i, j].token for j in range(9)] == row_text.split(), i

        block = PatternMatrix.from_text("\n".join(FIG1_GOLDEN_BLOCK))
        verdict = full_row_rank(block)
        assert verdict.full_rank
        assert len(verdict.pivots) == 7
        assert verify_certificate(block, verdict.pivots)

        report = check_target_controllability(problem)
        assert report.verdict is Verdict.HOLDS
        assert len(report.conditions[-1].verdict.pivots) == 7


def test_criterion_8_iso_soundness():
    with criterion(
        8, 30.0,
        "ISO sampling soundness on 100 holding systems and exact witnesses"
        " for 20 failing ones",
    ):
        rng = random.Random(808)

        def random_system():
            n, m, p = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            return StructuredIOSystem(
                random_pattern(rng, n, n, weights=(5, 3, 2)),
                random_pattern(rng, n, m, weights=(5, 3, 2)),
                random_pattern(rng, p, n, weights=(5, 3, 2)),
                random_pattern(rng, p, m, weights=(5, 3, 2)),
            )

        holds_checked = 0
        fails_checked = 0
        attempts = 0
        while (holds_checked < 100 or fails_checked < 20) and attempts < 50000:
            attempts += 1
            system = random_system()
            report = check_iso(system)
            if report.verdict is Verdict.HOLDS and holds_checked < 100:
                holds_checked += 1
                result = iso_stacked_rank_check(
                    system, members=100, lam_count=20, tol=1e-9,
                    seed=derive_seed(808, holds_checked),
                )
                assert result.ok, result
            elif report.verdict is Verdict.FAILS and fails_checked < 20:
                fails_checked += 1
                refutation = iso_deficiency_witness(system)
                assert refutation is not None
                witness = refutation.witness
                assert witness.is_exact()
                assert numeric_rank(witness.transpose(), 0) < system.n + system.m
                n = system.n
                top_left = witness.block(0, n, 0, n)
                if refutation.diagonal_shift is not None:
                    assert (
                        refutation.state_part + refutation.diagonal_shift
                        == top_left
                    )
                    assert contains(system.A, refutation.state_part, 0)
                    assert contains(
                        identity_pattern(n), refutation.diagonal_shift, 0
                    )
                else:
                    assert refutation.state_part == top_left
                    assert contains(system.A, refutation.state_part, 0)
        assert holds_checked == 100
        assert fails_checked == 20
