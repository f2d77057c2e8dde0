"""Sampling oracles that cross-validate the symbolic decisions.

Every oracle draws deterministic samples (seed in, same numbers out),
checks a numeric statement against the corresponding pattern-level
verdict, and reports pass/fail counts plus the first counterexample.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .pattern import PatternMatrix, identity_pattern
from .rank import _from_transpose, numeric_rank, pencil_full_rank, refutation
from .realization import (
    RealizationMatrix,
    ValueDistribution,
    contains,
    decompose_sum,
    derive_seed,
    sample_member,
)
from .systems import (
    StructuredIOSystem,
    Verdict,
    check_iso,
    check_output_controllability,
)

__all__ = [
    "OracleResult",
    "minkowski_roundtrip",
    "pencil_agreement",
    "pencil_refutation_witness",
    "rank_soundness",
    "sample_lambdas",
    "iso_stacked_rank_check",
    "IsoRefutation",
    "iso_deficiency_witness",
    "output_ctrl_sampling",
]

_QUEST_PROBS = (0.25, 0.0, 1.0)


@dataclass(frozen=True)
class OracleResult:
    name: str
    trials: int
    passes: int
    counterexample: Optional[dict] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.trials > 0 and self.passes == self.trials


def _require_counts(**counts: int) -> None:
    """Reject a sample count below 1: an oracle that checks nothing must not
    report a pass."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")


def _dist(seed: int, index: int, quest_prob: float = 0.25) -> ValueDistribution:
    return ValueDistribution(
        quest_zero_probability=quest_prob, seed=derive_seed(seed, index)
    )


def _sums_to(
    left: RealizationMatrix, right: RealizationMatrix, total: RealizationMatrix
) -> bool:
    """left + right == total for exact (int or Fraction) entries, without
    building the sum: where one part is the int 0 that decompose_sum puts
    there, the other part is compared, and an entry equals itself.  Equal
    Fraction halves of a Fraction entry are compared as 2x == value on
    integers, which builds no Fraction."""
    for x, y, value in zip(left.entries, right.entries, total.entries):
        if x is y and type(x) is Fraction and type(value) is Fraction:
            if 2 * x.numerator * value.denominator != value.numerator * x.denominator:
                return False
            continue
        if type(x) is int and not x:
            x = y
        elif not (type(y) is int and not y):
            x = x + y
        if x is not value and not x == value:
            return False
    return True


def _run_trials(name: str, trials: int, trial, detail: str) -> OracleResult:
    """Run trial(t) for t = 0, ..., trials - 1 in order; trial returns None
    on a pass and its counterexample dict on a failure.  The first
    counterexample is kept; detail is formatted with passes and trials."""
    passes = 0
    counterexample = None
    for t in range(trials):
        failure = trial(t)
        if failure is None:
            passes += 1
        elif counterexample is None:
            counterexample = failure
    return OracleResult(
        name, trials, passes, counterexample,
        detail.format(passes=passes, trials=trials),
    )


def _is_split(a: PatternMatrix, b: PatternMatrix, parts: tuple) -> bool:
    """parts = (left, right, total): left is a member of a, right one of b,
    and left + right == total."""
    return contains(a, parts[0], 0) and contains(b, parts[1], 0) and _sums_to(*parts)


def _sample_system(system: StructuredIOSystem, seed: int, t: int) -> list:
    """Members of A, B, C and D for trial t, drawn in that order."""
    patterns = (system.A, system.B, system.C, system.D)
    return [sample_member(x, _dist(seed, 4 * t + k)) for k, x in enumerate(patterns)]


def _times_64(member: RealizationMatrix) -> list[list[int]]:
    """The rows of 64 times a sampled member, as ints: every sampled nonzero
    is +-k/64, so the scaled member is an integer matrix."""
    values = []
    for v in member.entries:
        if 64 % v.denominator:
            raise RuntimeError(f"sampled entry {v} is not a multiple of 1/64")
        values.append(v.numerator * (64 // v.denominator))
    cols = member.cols
    return [values[i * cols : (i + 1) * cols] for i in range(member.rows)]


def _int_product(left: list[list[int]], right: list[list[int]]) -> list[list[int]]:
    """left @ right on int rows, adding a row of right per nonzero of left."""
    width = len(right[0]) if right else 0
    product = []
    for row in left:
        total = [0] * width
        for x, other in zip(row, right):
            if x:
                total = [s + x * y for s, y in zip(total, other)]
        product.append(total)
    return product


def minkowski_roundtrip(
    a: PatternMatrix, b: PatternMatrix, trials: int = 1000, seed: int = 0
) -> OracleResult:
    """Sample members of the class of a + b and split each with
    decompose_sum; the parts must be members and must sum back exactly."""
    _require_counts(trials=trials)
    total = a + b

    def trial(t: int) -> Optional[dict]:
        member = sample_member(total, _dist(seed, t, _QUEST_PROBS[t % 3]))
        if _is_split(a, b, (*decompose_sum(member, a, b), member)):
            return None
        return {"trial": t, "member": member.to_rows()}

    return _run_trials(
        "minkowski", trials, trial, "{passes}/{trials} decompositions verified"
    )


def sample_lambdas(count: int, seed: int, include_zero: bool = False) -> list[complex]:
    """Deterministic nonzero complex samples: random unit-circle angles
    scaled by magnitudes 0.5, 1 and 2 (plus 0 when requested)."""
    rng = random.Random(derive_seed(seed, 0x1A))
    values: list[complex] = [0j] if include_zero else []
    while len(values) < count:
        angle = rng.uniform(0.0, 2.0 * cmath.pi)
        magnitude = rng.choice((0.5, 1.0, 2.0))
        values.append(magnitude * cmath.exp(1j * angle))
    return values[:count]


def _first_deficient_lambda(
    m: RealizationMatrix,
    e: RealizationMatrix,
    lambdas: list[complex],
    needed: int,
    tol: float,
    t: int,
) -> Optional[dict]:
    """Counterexample of trial t at the first lambda where
    numeric_rank(m - lambda*e, tol) < needed, or None.  Both members are
    converted to complex once, not once per lambda."""
    m_values = [complex(x) for x in m.entries]
    e_values = [complex(x) for x in e.entries]
    for lam in lambdas:
        shifted = tuple(x - lam * y for x, y in zip(m_values, e_values))
        if numeric_rank(RealizationMatrix(m.rows, m.cols, shifted), tol) < needed:
            return {"trial": t, "lambda": repr(lam)}
    return None


def pencil_refutation_witness(
    a: PatternMatrix, b: PatternMatrix
) -> Optional[tuple[RealizationMatrix, RealizationMatrix, RealizationMatrix]]:
    """Exact witness for a failed pencil verdict: the witness of
    pencil_full_rank, a member of the summed class with deficient rank,
    split into (A part, B part, sum).  At lambda = -1 the pencil of the
    parts equals the deficient sum.  None means the pencil has full rank."""
    witness = pencil_full_rank(a, b).witness
    if witness is None:
        return None
    left, right = decompose_sum(witness, a, b)
    return left, right, witness


def pencil_agreement(
    a: PatternMatrix,
    b: PatternMatrix,
    trials: int = 100,
    seed: int = 0,
    lam_count: int = 20,
    tol: float = 1e-9,
) -> OracleResult:
    """Cross-check the pencil verdict, decided by the one elimination of
    pencil_refutation_witness, against sampled members.  Verdict true: for
    sampled member pairs and nonzero complex lambdas, A - lambda*B must have
    full numeric rank.  Verdict false: an exact deficient witness must exist
    at lambda = -1; its left null vector, checked where it is built, proves
    the deficiency."""
    _require_counts(trials=trials, lam_count=lam_count)
    parts = pencil_refutation_witness(a, b)
    if parts is None:
        expected = min(a.rows, a.cols)
        lambdas = sample_lambdas(lam_count, seed)

        def trial(t: int) -> Optional[dict]:
            ra = sample_member(a, _dist(seed, 2 * t))
            rb = sample_member(b, _dist(seed, 2 * t + 1))
            return _first_deficient_lambda(ra, rb, lambdas, expected, tol, t)

        return _run_trials(
            "pencil", trials, trial,
            "verdict full rank; {passes}/{trials} sampled pencils full rank",
        )
    deficient = _is_split(a, b, parts)
    return OracleResult(
        "pencil", 1, 1 if deficient else 0,
        None if deficient else {"witness": parts[2].to_rows()},
        "verdict not full rank; exact deficient witness at lambda=-1",
    )


def rank_soundness(
    pattern: PatternMatrix, trials: int = 200, seed: int = 0
) -> OracleResult:
    """If the row-rank verdict is positive, every sampled member must have
    exact rank equal to the row count; otherwise report the refutation."""
    _require_counts(trials=trials)
    verdict = refutation(pattern)  # raises RuntimeError unless its null vector checks
    if verdict.full_rank:
        def trial(t: int) -> Optional[dict]:
            member = sample_member(pattern, _dist(seed, t, _QUEST_PROBS[t % 3]))
            if numeric_rank(member, 0) == pattern.rows:
                return None
            return {"trial": t, "member": member.to_rows()}

        return _run_trials(
            "rank", trials, trial,
            "verdict full row rank; {passes}/{trials} samples at full rank",
        )
    return OracleResult(
        "rank", 1, 1, None,
        f"verdict not full rank; witness of rank < {pattern.rows} found,"
        " proved by its left null vector",
    )


def iso_stacked_rank_check(
    system: StructuredIOSystem,
    members: int = 100,
    lam_count: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> OracleResult:
    """For an ISO verdict of Holds: sampled members of (A, B, C, D) must
    give [[A - lambda I, B], [C, D]] full column rank for sampled lambdas
    including zero.  That matrix is the pencil M - lambda*E with
    M = [[A B],[C D]] and E = [[I 0],[0 0]], ranked like the pencil oracle's
    by numeric_rank with tolerance tol."""
    _require_counts(members=members, lam_count=lam_count)
    n, m, p = system.n, system.m, system.p
    lambdas = sample_lambdas(lam_count, seed, include_zero=True)
    shift = RealizationMatrix.from_rows(
        [[int(i == j) for j in range(n + m)] for i in range(n)]
        + [[0] * (n + m) for _ in range(p)]
    )

    def trial(t: int) -> Optional[dict]:
        ra, rb, rc, rd = _sample_system(system, seed, t)
        base = RealizationMatrix.from_rows(
            [x + y for x, y in zip(ra.to_rows(), rb.to_rows())]
            + [x + y for x, y in zip(rc.to_rows(), rd.to_rows())]
        )
        return _first_deficient_lambda(base, shift, lambdas, n + m, tol, t)

    return _run_trials(
        "iso_sampling", members, trial,
        "{passes}/{trials} sampled members kept full column rank",
    )


@dataclass(frozen=True)
class IsoRefutation:
    """Exact witness for a failed ISO check.

    `witness` is a member of the failing composite pattern with deficient
    column rank.  For the shifted composite the top-left block splits as
    state_part + diagonal_shift with diagonal_shift a member of the starred
    identity class, exhibiting the violation at lambda = 1.
    """

    condition: str
    witness: RealizationMatrix
    state_part: RealizationMatrix
    diagonal_shift: Optional[RealizationMatrix]


def iso_deficiency_witness(system: StructuredIOSystem) -> Optional[IsoRefutation]:
    """Produce an exact column-rank-deficient member for the first failing
    condition of check_iso by refuting the transpose of its composite; None
    when both composites have full column rank."""
    n = system.n
    for shifted, cond in enumerate(check_iso(system).conditions):
        if cond.passed:
            continue
        witness = _from_transpose(refutation(cond.pattern.transpose())).witness
        state_part, diagonal_shift = witness.block(0, n, 0, n), None
        if shifted:  # the top-left block is a member of A + I
            state_part, diagonal_shift = decompose_sum(
                state_part, system.A, identity_pattern(n)
            )
        return IsoRefutation(cond.name, witness, state_part, diagonal_shift)
    return None


def output_ctrl_sampling(
    system: StructuredIOSystem, trials: int = 100, seed: int = 0
) -> OracleResult:
    """When the output controllability verdict is Holds, every sampled
    member realization of [D, CB, ..., CA^(n-1)B] must have exact rank p."""
    _require_counts(trials=trials)
    report = check_output_controllability(system)
    if report.verdict is not Verdict.HOLDS:
        return OracleResult(
            "output_ctrl_sampling", 0, 0, None, "verdict not Holds; nothing to check"
        )
    n, p = system.n, system.p

    def trial(t: int) -> Optional[dict]:
        # block k of [64 D, 64C 64B, ...] is block k of the member times
        # 64^(k+1), a positive scale that keeps the rank
        ra, rb, rc, rd = map(_times_64, _sample_system(system, seed, t))
        blocks = [rd]
        left = rc
        for _ in range(n):
            blocks.append(_int_product(left, rb))
            left = _int_product(left, ra)
        stacked = [
            [x for block in blocks for x in block[i]] for i in range(p)
        ]
        member = RealizationMatrix.from_rows(stacked)
        return None if numeric_rank(member, 0) == p else {"trial": t}

    return _run_trials(
        "output_ctrl_sampling", trials, trial,
        "{passes}/{trials} sampled members at full output rank",
    )
