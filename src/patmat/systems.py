"""Strong structural property checks for structured linear systems.

Each check assembles composite pattern matrices and reduces the question
to strong full-rank decisions.  Verdicts are three-valued: properties with
a necessary-and-sufficient rank test report Holds or Fails, while
sufficient-only tests report Holds or Inconclusive so that a failed
sufficient condition is never presented as a refutation.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import DimensionError
from .pattern import PatternMatrix, _powers, hstack, identity_pattern, vstack
from .rank import RankVerdict, _Elimination, _verdict, full_column_rank, full_row_rank

__all__ = [
    "Verdict",
    "SystemProperty",
    "ConditionCheck",
    "AnalysisReport",
    "StructuredDescriptorSystem",
    "StructuredIOSystem",
    "check_ssc",
    "check_descriptor",
    "check_iso",
    "build_output_ctrl_pattern",
    "check_output_controllability",
]


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class SystemProperty(enum.Enum):
    SSC = "ssc"
    REGULAR_SSC = "regular_ssc"
    ISO = "input_state_observability"
    OUTPUT_CONTROLLABILITY = "output_controllability"


class _Cut:
    """A resumable elimination as it stood after one run(): the prefix's
    shape, row masks, pivots and remaining rows.  extend() replaces the mask
    lists instead of changing them, so the cut keeps them as they are; run()
    appends to the pivot list, so the cut copies it."""

    __slots__ = ("rows", "cols", "nz", "star", "pivots", "rows_left")

    def __init__(self, state: _Elimination):
        self.rows, self.cols = state.rows, state.cols
        self.nz, self.star = state.nz, state.star
        self.pivots = tuple(state.pivots)
        self.rows_left = state.rows_left


@dataclass(frozen=True)
class ConditionCheck:
    """A composite pattern and the strong full-rank verdict on it; a stall's
    residual is pattern.submatrix(stall.rows, stall.cols).

    A condition taken from a cut of an elimination builds its pattern and
    verdict on first read; its shape and passed need neither."""

    name: str
    pattern: PatternMatrix
    verdict: RankVerdict

    @classmethod
    def _from_cut(cls, name: str, cut: _Cut) -> "ConditionCheck":
        cond = cls.__new__(cls)
        object.__setattr__(cond, "name", name)
        object.__setattr__(cond, "_cut", cut)
        return cond

    def __getattr__(self, attr):
        # called only for an attribute not set yet
        cut = self.__dict__.get("_cut")
        if cut is None or attr not in ("pattern", "verdict"):
            raise AttributeError(f"'ConditionCheck' object has no attribute {attr!r}")
        if attr == "pattern":
            value = PatternMatrix.from_masks(cut.rows, cut.cols, cut.nz, cut.star)
        else:
            value = _verdict(cut.rows, cut.cols, cut.pivots, cut.rows_left)
        object.__setattr__(self, attr, value)
        return value

    def __getstate__(self):
        # the fields, built if need be, and no cut
        return {"name": self.name, "pattern": self.pattern, "verdict": self.verdict}

    @property
    def shape(self) -> tuple[int, int]:
        cut = self.__dict__.get("_cut")
        return self.pattern.shape if cut is None else (cut.rows, cut.cols)

    @property
    def passed(self) -> bool:
        cut = self.__dict__.get("_cut")
        if cut is None:
            return self.verdict.full_rank
        return cut.rows <= cut.cols and not cut.rows_left


@dataclass(frozen=True)
class AnalysisReport:
    property: SystemProperty
    verdict: Verdict
    conditions: tuple[ConditionCheck, ...]
    notes: str = ""
    rank_conditions_hold: Optional[bool] = None


@dataclass(frozen=True)
class StructuredDescriptorSystem:
    """Patterns (E, A, B) for E x' = A x + B u with E possibly singular."""

    E: PatternMatrix
    A: PatternMatrix
    B: PatternMatrix

    def __post_init__(self):
        n = self.E.rows
        if self.E.cols != n or self.A.shape != (n, n):
            raise DimensionError(
                f"E and A must be square of equal size, got E {self.E.rows}x"
                f"{self.E.cols}, A {self.A.rows}x{self.A.cols}"
            )
        if self.B.rows != n:
            raise DimensionError(
                f"B must have {n} rows, got {self.B.rows}x{self.B.cols}"
            )

    @property
    def n(self) -> int:
        return self.E.rows

    @property
    def m(self) -> int:
        return self.B.cols


@dataclass(frozen=True)
class StructuredIOSystem:
    """Patterns (A, B, C, D) for x' = A x + B u, y = C x + D u."""

    A: PatternMatrix
    B: PatternMatrix
    C: PatternMatrix
    D: PatternMatrix

    def __post_init__(self):
        n = self.A.rows
        if self.A.cols != n:
            raise DimensionError(f"A must be square, got {self.A.rows}x{self.A.cols}")
        if self.B.rows != n:
            raise DimensionError(f"B must have {n} rows, got {self.B.rows}")
        if self.C.cols != n:
            raise DimensionError(f"C must have {n} columns, got {self.C.cols}")
        if self.D.shape != (self.C.rows, self.B.cols):
            raise DimensionError(
                f"D must be {self.C.rows}x{self.B.cols}, got"
                f" {self.D.rows}x{self.D.cols}"
            )

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def p(self) -> int:
        return self.C.rows


def _condition(name: str, pattern: PatternMatrix, column: bool = False) -> ConditionCheck:
    verdict = full_column_rank(pattern) if column else full_row_rank(pattern)
    return ConditionCheck(name, pattern, verdict)


def check_ssc(a: PatternMatrix, b: PatternMatrix) -> AnalysisReport:
    """Strong structural controllability of (A, B).

    Holds iff [A B] and [A+I B] both have full row rank; the test is
    necessary and sufficient, so failure reports Fails.
    """
    if a.rows != a.cols:
        raise DimensionError(f"A must be square, got {a.rows}x{a.cols}")
    if b.rows != a.rows:
        raise DimensionError(f"B must have {a.rows} rows, got {b.rows}")
    n = a.rows
    cond1 = _condition("[A B]", hstack([a, b]))
    cond2 = _condition("[A+I B]", hstack([a + identity_pattern(n), b]))
    holds = cond1.passed and cond2.passed
    return AnalysisReport(
        SystemProperty.SSC,
        Verdict.HOLDS if holds else Verdict.FAILS,
        (cond1, cond2),
        notes="necessary and sufficient rank test",
    )


def check_descriptor(system: StructuredDescriptorSystem) -> AnalysisReport:
    """Regular strong structural controllability of (E, A, B).

    The three full-row-rank conditions on [E B], [A B] and [A+E B] hold for
    every member exactly when all three pattern tests pass
    (rank_conditions_hold).  Passing is sufficient for all regular members
    to be controllable, but not necessary, so the verdict is Holds or
    Inconclusive, never Fails.
    """
    e, a, b = system.E, system.A, system.B
    conds = (
        _condition("[E B]", hstack([e, b])),
        _condition("[A B]", hstack([a, b])),
        _condition("[A+E B]", hstack([a + e, b])),
    )
    all_pass = all(c.passed for c in conds)
    return AnalysisReport(
        SystemProperty.REGULAR_SSC,
        Verdict.HOLDS if all_pass else Verdict.INCONCLUSIVE,
        conds,
        notes=(
            "rank conditions are necessary and sufficient for the member-wise"
            " rank test; controllability of all regular members follows when"
            " they pass but their failure is not a refutation"
        ),
        rank_conditions_hold=all_pass,
    )


def check_iso(system: StructuredIOSystem) -> AnalysisReport:
    """Strong structural input-state observability of (A, B, C, D).

    Holds iff [[A B],[C D]] and [[A+I B],[C D]] both have full column rank;
    necessary and sufficient, so failure reports Fails.
    """
    a, b, c, d = system.A, system.B, system.C, system.D
    n = system.n
    top = hstack([a, b])
    bottom = hstack([c, d])
    top_shifted = hstack([a + identity_pattern(n), b])
    cond1 = _condition("[[A B],[C D]]", vstack([top, bottom]), column=True)
    cond2 = _condition("[[A+I B],[C D]]", vstack([top_shifted, bottom]), column=True)
    holds = cond1.passed and cond2.passed
    return AnalysisReport(
        SystemProperty.ISO,
        Verdict.HOLDS if holds else Verdict.FAILS,
        (cond1, cond2),
        notes="necessary and sufficient rank test",
    )


def _output_ctrl_blocks(system: StructuredIOSystem):
    """The blocks D, CB, CAB, CA^2B, ... without end, each made when asked
    for: D, then each power C A^k of pattern._powers times B."""
    yield system.D
    for power in _powers(system.C, system.A):
        yield power @ system.B


def build_output_ctrl_pattern(
    system: StructuredIOSystem, max_power: int
) -> PatternMatrix:
    """[D, CB, CAB, ..., C A^max_power B] as one pattern matrix."""
    n = system.n
    if not 0 <= max_power <= n - 1:
        raise ValueError(f"max_power must be in [0, {n - 1}], got {max_power}")
    return hstack(itertools.islice(_output_ctrl_blocks(system), max_power + 2))


def check_output_controllability(system: StructuredIOSystem) -> AnalysisReport:
    """Strong structural output controllability of (A, B, C, D).

    Tests full row rank of [D], then [D CB], and so on up to the power
    n-1, stopping at the first success (appending columns cannot destroy
    full row rank).  The rank test is sufficient only, so the verdict is
    Holds or Inconclusive.

    One elimination runs through all the prefixes: each power appends its
    block to the state and resumes from the previous stall, which takes the
    same pivots and stall as eliminating the prefix afresh.  Each prefix's
    condition is a cut of the state, whose composite and verdict are built
    only when read.
    """
    n = system.n
    state = _Elimination(system.p)
    conditions = []
    names = []
    for k, block in enumerate(itertools.islice(_output_ctrl_blocks(system), n + 1)):
        state.extend(block)
        state.run()
        names.append(("D", "CB", "CAB")[k] if k < 3 else f"CA^{k - 1}B")
        cond = ConditionCheck._from_cut("[" + " ".join(names) + "]", _Cut(state))
        conditions.append(cond)
        if cond.passed:
            verdict = Verdict.HOLDS
            notes = "sufficient rank test passed on a column prefix"
            break
    else:
        verdict = Verdict.INCONCLUSIVE
        tested = f"through power {n - 1}" if n else "on [D], as there are no states"
        notes = f"sufficient rank test failed {tested}; no conclusion about the family"
    return AnalysisReport(
        SystemProperty.OUTPUT_CONTROLLABILITY, verdict, tuple(conditions), notes=notes
    )
