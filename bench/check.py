"""Correctness checks that do not use the code under test.

Patterns are plain text rows of '0', '*' and '?'; numbers are ints and
Fractions.  The checks replay patmat's certificates against the generator's
own text, recompute exact ranks with Fraction elimination, and rebuild the
output-controllability prefixes of a network with their own semiring.  Any
failed check raises CheckError.

Why a replay proves a verdict: a pivot list that consumes every row shows
full row rank for every member.  A valid partial pivot list that leaves
rows on which no column has a lone '*' is a genuine stall, and the pivot
criterion is confluent (the verdict does not depend on the pivot order),
so a genuine stall proves "not full rank".
"""

from __future__ import annotations

from fractions import Fraction


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _consume(rows: list[str], pivots) -> tuple[set, set]:
    """Apply pivots in order; each must be a '*' that is the only nonzero of
    its column among the rows still active.  Returns the active rows and
    columns left over."""
    active_rows = set(range(len(rows)))
    active_cols = set(range(len(rows[0]) if rows else 0))
    for i, j in pivots:
        _require(i in active_rows and j in active_cols, f"pivot {(i, j)} not active")
        _require(rows[i][j] == "*", f"pivot {(i, j)} is {rows[i][j]!r}, not '*'")
        _require(
            all(rows[r][j] == "0" for r in active_rows if r != i),
            f"pivot column {j} has another nonzero among active rows",
        )
        active_rows.remove(i)
        active_cols.remove(j)
    return active_rows, active_cols


def replay_full_rank(rows: list[str], pivots) -> None:
    """The pivots certify full row rank of the pattern."""
    left, _ = _consume(rows, pivots)
    _require(not left, f"certificate leaves rows {sorted(left)} uneliminated")


def replay_stall(rows: list[str], pivots, stall_rows, stall_cols) -> None:
    """The pivots plus the reported residual prove that elimination stalls:
    the residual is what the pivots leave, and none of its columns has a
    lone '*' on the residual rows."""
    if len(rows) > (len(rows[0]) if rows else 0):
        return  # more rows than columns: deficient without elimination
    left_rows, left_cols = _consume(rows, pivots)
    _require(left_rows == set(stall_rows), "stall rows differ from replayed residual")
    _require(left_cols == set(stall_cols), "stall columns differ from replayed residual")
    _require(bool(left_rows), "stall reported with no residual rows")
    for j in left_cols:
        nonzero = [r for r in left_rows if rows[r][j] != "0"]
        _require(
            not (len(nonzero) == 1 and rows[nonzero[0]][j] == "*"),
            f"residual column {j} still has a lone '*'",
        )


def transpose(rows: list[str]) -> list[str]:
    return ["".join(col) for col in zip(*rows)] if rows else []


def replay_column_rank(rows: list[str], pivots, stall=None) -> None:
    """Column-rank certificates are row-rank certificates of the transpose
    with each (row, col) pivot swapped."""
    t = transpose(rows)
    swapped = [(j, i) for i, j in pivots]
    if stall is None:
        replay_full_rank(t, swapped)
    else:
        replay_stall(t, swapped, stall[1], stall[0])


def exact_rank(matrix: list[list]) -> int:
    """Rank by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, len(a)):
            if a[r][c] != 0:
                f = a[r][c] / a[rank][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def check_member(rows: list[str], matrix: list[list]) -> None:
    """matrix lies in the pattern class: zero where '0', nonzero where '*'."""
    _require(len(matrix) == len(rows), "witness has the wrong row count")
    for pattern_row, values in zip(rows, matrix):
        _require(len(values) == len(pattern_row), "witness has the wrong column count")
        for symbol, value in zip(pattern_row, values):
            _require(
                isinstance(value, (int, Fraction)), f"witness entry {value!r} is not exact"
            )
            if symbol == "0":
                _require(value == 0, "witness is nonzero where the pattern is '0'")
            elif symbol == "*":
                _require(value != 0, "witness is zero where the pattern is '*'")


def check_deficient_witness(rows: list[str], matrix: list[list]) -> None:
    """matrix is a member of the class with rank below the row count."""
    check_member(rows, matrix)
    _require(exact_rank(matrix) < len(rows), "witness has full row rank")


def parse_exact(token: str):
    value = Fraction(token)
    return int(value) if value.denominator == 1 else value


# ---------------------------------------------------------------------------
# pattern algebra on text rows, for the composite matrices of system checks

_ADD = {("0", "0"): "0", ("0", "*"): "*", ("*", "0"): "*"}


def add(x: list[str], y: list[str]) -> list[str]:
    """Entrywise pattern sum: 0 is the identity, any other pair gives '?'."""
    return [
        "".join(_ADD.get((s, t), "?") for s, t in zip(rx, ry)) for rx, ry in zip(x, y)
    ]


def identity(n: int) -> list[str]:
    return ["0" * i + "*" + "0" * (n - i - 1) for i in range(n)]


def hcat(*blocks: list[str]) -> list[str]:
    return ["".join(parts) for parts in zip(*blocks)]


def _mul(s: str, t: str) -> str:
    if s == "0" or t == "0":
        return "0"
    return "*" if s == t == "*" else "?"


def _sum(s: str, t: str) -> str:
    return _ADD.get((s, t), "?")


def target_prefix(n: int, edges, leader: int, targets, powers: int) -> list[str]:
    """[D, C B, C A B, ..., C A^(powers-1) B] of the network system with one
    leader: A is '?' on the diagonal and '*' at (v, u) for each edge u -> v,
    B selects the leader, C the (sorted) targets, D is zero."""
    into: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u != v:
            into[v].append(u)
    vec = ["0"] * n
    vec[leader] = "*"
    columns = ["0" * len(targets)]
    for _ in range(powers):
        columns.append("".join(vec[t] for t in targets))
        nxt = []
        for i in range(n):
            acc = _mul("?", vec[i])
            for u in into[i]:
                acc = _sum(acc, vec[u])  # edge entries are '*', the identity
            nxt.append(acc)
        vec = nxt
    return ["".join(col[r] for col in columns) for r in range(len(targets))]
