"""The benchmark's checker rejects wrong certificates and witnesses.

    python3 -m pytest -q bench/test_check.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
from check import CheckError  # noqa: E402

TRIANGLE = ["*00", "**0", "?**"]  # lower triangular, '*' diagonal
TRIANGLE_PIVOTS = [(2, 2), (1, 1), (0, 0)]
STALLED = ["**0", "**0", "00*"]  # two equal rows


def test_valid_certificate_and_stall_pass():
    check.replay_full_rank(TRIANGLE, TRIANGLE_PIVOTS)
    check.replay_stall(STALLED, [(2, 2)], (0, 1), (0, 1))


@pytest.mark.parametrize("pivots", [
    [(1, 1), (2, 2), (0, 0)],  # (1, 1) is not alone in its column yet
    [(2, 2), (1, 1)],  # row 0 never eliminated
    [(2, 2), (1, 0), (0, 1)],  # (0, 1) is '0'
    [(2, 2), (2, 1), (0, 0)],  # row 2 used twice
])
def test_tampered_pivot_list_rejected(pivots):
    with pytest.raises(CheckError):
        check.replay_full_rank(TRIANGLE, pivots)


def test_false_stall_rejected():
    # the residual still has a lone '*' in column 2
    with pytest.raises(CheckError):
        check.replay_stall(TRIANGLE, [], (0, 1, 2), (0, 1, 2))
    # the residual is not what the pivots leave
    with pytest.raises(CheckError):
        check.replay_stall(STALLED, [(2, 2)], (0, 1), (0, 1, 2))


def test_witness_outside_class_rejected():
    with pytest.raises(CheckError):  # nonzero where the pattern is '0'
        check.check_deficient_witness(STALLED, [[1, 1, 0], [1, 1, 0], [1, 0, 1]])
    with pytest.raises(CheckError):  # zero where the pattern is '*'
        check.check_deficient_witness(STALLED, [[1, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_full_rank_witness_rejected():
    with pytest.raises(CheckError):
        check.check_deficient_witness(STALLED, [[1, 1, 0], [1, 2, 0], [0, 0, 1]])


def test_deficient_witness_accepted():
    check.check_deficient_witness(STALLED, [[1, Fraction(1, 2), 0], [2, 1, 0], [0, 0, 3]])


def test_exact_rank():
    assert check.exact_rank([[1, 2], [2, 4]]) == 1
    assert check.exact_rank([[Fraction(1, 3), 1], [1, 3]]) == 1
    assert check.exact_rank([[0, 1], [1, 0]]) == 2


def test_column_certificate_of_transpose():
    check.replay_column_rank(check.transpose(TRIANGLE), [(j, i) for i, j in TRIANGLE_PIVOTS])
    with pytest.raises(CheckError):
        check.replay_column_rank(check.transpose(TRIANGLE), [(0, 0), (1, 1), (2, 2)])


def test_target_prefix_of_a_path():
    # 0 -> 1 -> 2; target 2 is first reached, along the path alone, at power 2
    prefix = check.target_prefix(3, [(0, 1), (1, 2)], 0, [1, 2], 3)
    assert prefix == ["00*?", "000*"]


def test_planted_answers_hold_in_exact_arithmetic():
    # a member of a planted holding pattern has full rank; a planted
    # stalled pattern has a member with two equal rows
    rng = random.Random(7)
    rows = gen.rank_pattern(rng, 8, 2, 3, True)
    member = [[{"0": 0, "*": 1, "?": 2}[s] * (1 + i + j) for j, s in enumerate(r)]
              for i, r in enumerate(rows)]
    assert check.exact_rank(member) == 8
    stalled = gen.rank_pattern(rng, 8, 2, 3, False)
    supports = [r for r in stalled if "?" not in r]
    assert len(supports) > len(set(supports))
