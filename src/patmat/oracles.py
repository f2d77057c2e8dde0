"""Sampling oracles that cross-validate the symbolic decisions.

Every oracle draws deterministic samples (seed in, same numbers out),
checks a numeric statement against the corresponding pattern-level
verdict, and reports pass/fail counts plus the first counterexample.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from typing import Optional

from .pattern import PatternMatrix, hstack, identity_pattern, vstack
from .rank import (
    full_row_rank,
    numeric_rank,
    pencil_full_rank,
    refutation,
    refute_full_rank,
)
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
        return self.passes == self.trials


def _dist(seed: int, index: int, quest_prob: float = 0.25) -> ValueDistribution:
    return ValueDistribution(
        quest_zero_probability=quest_prob, seed=derive_seed(seed, index)
    )


def _sums_to(
    left: RealizationMatrix, right: RealizationMatrix, total: RealizationMatrix
) -> bool:
    """left + right == total for exact (int or Fraction) entries, without
    building the sum: where one part is the int 0 that decompose_sum puts
    there, the other part is compared, and an entry equals itself."""
    for x, y, value in zip(left.entries, right.entries, total.entries):
        if type(x) is int and not x:
            x = y
        elif not (type(y) is int and not y):
            x = x + y
        if x is not value and not x == value:
            return False
    return True


def minkowski_roundtrip(
    a: PatternMatrix, b: PatternMatrix, trials: int = 1000, seed: int = 0
) -> OracleResult:
    """Sample members of the class of a + b and split each with
    decompose_sum; the parts must be members and must sum back exactly."""
    total = a + b
    passes = 0
    counterexample = None
    for t in range(trials):
        member = sample_member(total, _dist(seed, t, _QUEST_PROBS[t % 3]))
        left, right = decompose_sum(member, a, b)
        if (
            contains(a, left, 0)
            and contains(b, right, 0)
            and _sums_to(left, right, member)
        ):
            passes += 1
        elif counterexample is None:
            counterexample = {"trial": t, "member": member.to_rows()}
    return OracleResult(
        "minkowski", trials, passes, counterexample,
        f"{passes}/{trials} decompositions verified",
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
) -> Optional[complex]:
    """First lambda at which numeric_rank(m - lambda*e, tol) < needed, or
    None.  Both members are converted to complex once, not once per lambda."""
    m_values = [complex(x) for x in m.entries]
    e_values = [complex(x) for x in e.entries]
    for lam in lambdas:
        shifted = tuple(x - lam * y for x, y in zip(m_values, e_values))
        if numeric_rank(RealizationMatrix(m.rows, m.cols, shifted), tol) < needed:
            return lam
    return None


def pencil_refutation_witness(
    a: PatternMatrix, b: PatternMatrix
) -> Optional[tuple[RealizationMatrix, RealizationMatrix, RealizationMatrix]]:
    """Exact witness for a failed pencil verdict: a member of the summed
    class with deficient rank, split into (A part, B part, sum).  At
    lambda = -1 the pencil of the parts equals the deficient sum.  None
    means the pencil has full rank."""
    total = a + b
    work = total if total.rows <= total.cols else total.transpose()
    witness = refute_full_rank(work)
    if witness is None:
        return None
    if total.rows > total.cols:
        witness = witness.transpose()
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
    """Cross-check pencil_full_rank against sampled members.

    Verdict true: for sampled member pairs and nonzero complex lambdas,
    A - lambda*B must have full numeric rank.  Verdict false: an exact
    deficient witness must exist at lambda = -1.
    """
    verdict = pencil_full_rank(a, b)
    expected = min(a.rows, a.cols)
    if verdict.full_rank:
        lambdas = sample_lambdas(lam_count, seed)
        passes = 0
        counterexample = None
        for t in range(trials):
            ra = sample_member(a, _dist(seed, 2 * t))
            rb = sample_member(b, _dist(seed, 2 * t + 1))
            bad = _first_deficient_lambda(ra, rb, lambdas, expected, tol)
            if bad is None:
                passes += 1
            elif counterexample is None:
                counterexample = {"trial": t, "lambda": repr(bad)}
        return OracleResult(
            "pencil", trials, passes, counterexample,
            f"verdict full rank; {passes}/{trials} sampled pencils full rank",
        )
    left, right, total = pencil_refutation_witness(a, b)
    deficient = (
        contains(a, left, 0)
        and contains(b, right, 0)
        and left - right.scaled(-1) == total
        and numeric_rank(total, 0) < expected
    )
    return OracleResult(
        "pencil", 1, 1 if deficient else 0,
        None if deficient else {"witness": total.to_rows()},
        "verdict not full rank; exact deficient witness at lambda=-1",
    )


def rank_soundness(
    pattern: PatternMatrix, trials: int = 200, seed: int = 0
) -> OracleResult:
    """If the row-rank verdict is positive, every sampled member must have
    exact rank equal to the row count; otherwise report the refutation."""
    verdict = full_row_rank(pattern)
    if verdict.full_rank:
        passes = 0
        counterexample = None
        for t in range(trials):
            member = sample_member(
                pattern, _dist(seed, t, _QUEST_PROBS[t % 3])
            )
            if numeric_rank(member, 0) == pattern.rows:
                passes += 1
            elif counterexample is None:
                counterexample = {"trial": t, "member": member.to_rows()}
        return OracleResult(
            "rank", trials, passes, counterexample,
            f"verdict full row rank; {passes}/{trials} samples at full rank",
        )
    refutation(pattern)  # raises RuntimeError unless its null vector checks
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
    n, m, p = system.n, system.m, system.p
    lambdas = sample_lambdas(lam_count, seed, include_zero=True)
    shift = RealizationMatrix.from_rows(
        [[int(i == j) for j in range(n + m)] for i in range(n)]
        + [[0] * (n + m) for _ in range(p)]
    )
    passes = 0
    counterexample = None
    for t in range(members):
        ra = sample_member(system.A, _dist(seed, 4 * t))
        rb = sample_member(system.B, _dist(seed, 4 * t + 1))
        rc = sample_member(system.C, _dist(seed, 4 * t + 2))
        rd = sample_member(system.D, _dist(seed, 4 * t + 3))
        base = RealizationMatrix.from_rows(
            [ra.row(i) + rb.row(i) for i in range(n)]
            + [rc.row(i) + rd.row(i) for i in range(p)]
        )
        bad = _first_deficient_lambda(base, shift, lambdas, n + m, tol)
        if bad is None:
            passes += 1
        elif counterexample is None:
            counterexample = {"trial": t, "lambda": repr(bad)}
    return OracleResult(
        "iso_sampling", members, passes, counterexample,
        f"{passes}/{members} sampled members kept full column rank",
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
    """Produce an exact column-rank-deficient member for a failing ISO
    composite by refuting its transpose; None when both composites have
    full column rank."""
    n = system.n
    bottom = hstack([system.C, system.D])
    composites = (
        ("[[A B],[C D]]", hstack([system.A, system.B]), False),
        (
            "[[A+I B],[C D]]",
            hstack([system.A + identity_pattern(n), system.B]),
            True,
        ),
    )
    for name, top, shifted in composites:
        pattern = vstack([top, bottom])
        witness_t = refute_full_rank(pattern.transpose())
        if witness_t is None:
            continue
        witness = witness_t.transpose()
        top_left = witness.block(0, n, 0, n)
        if shifted:
            state_part, diagonal_shift = decompose_sum(
                top_left, system.A, identity_pattern(n)
            )
        else:
            state_part, diagonal_shift = top_left, None
        return IsoRefutation(name, witness, state_part, diagonal_shift)
    return None


def output_ctrl_sampling(
    system: StructuredIOSystem, trials: int = 100, seed: int = 0
) -> OracleResult:
    """When the output controllability verdict is Holds, every sampled
    member realization of [D, CB, ..., CA^(n-1)B] must have exact rank p."""
    report = check_output_controllability(system)
    if report.verdict is not Verdict.HOLDS:
        return OracleResult(
            "output_ctrl_sampling", 0, 0, None, "verdict not Holds; nothing to check"
        )
    n, p = system.n, system.p
    passes = 0
    counterexample = None
    for t in range(trials):
        ra = sample_member(system.A, _dist(seed, 4 * t))
        rb = sample_member(system.B, _dist(seed, 4 * t + 1))
        rc = sample_member(system.C, _dist(seed, 4 * t + 2))
        rd = sample_member(system.D, _dist(seed, 4 * t + 3))
        blocks = [rd.to_rows()]
        left = rc
        for _ in range(n):
            blocks.append((left @ rb).to_rows())
            left = left @ ra
        stacked = [
            [x for block in blocks for x in block[i]] for i in range(p)
        ]
        member = RealizationMatrix.from_rows(stacked)
        if numeric_rank(member, 0) == p:
            passes += 1
        elif counterexample is None:
            counterexample = {"trial": t}
    return OracleResult(
        "output_ctrl_sampling", trials, passes, counterexample,
        f"{passes}/{trials} sampled members at full output rank",
    )
