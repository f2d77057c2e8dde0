"""Exhaustive checks of the symbol tables and their algebraic laws."""

import itertools

import pytest

from patmat.symbols import QUEST, STAR, ZERO, Symbol, add_symbol, mul_symbol

ALL = (ZERO, STAR, QUEST)

# frozen copies of the two tables, row symbol first
ADDITION_TABLE = {
    (ZERO, ZERO): ZERO,
    (ZERO, STAR): STAR,
    (ZERO, QUEST): QUEST,
    (STAR, ZERO): STAR,
    (STAR, STAR): QUEST,
    (STAR, QUEST): QUEST,
    (QUEST, ZERO): QUEST,
    (QUEST, STAR): QUEST,
    (QUEST, QUEST): QUEST,
}

MULTIPLICATION_TABLE = {
    (ZERO, ZERO): ZERO,
    (ZERO, STAR): ZERO,
    (ZERO, QUEST): ZERO,
    (STAR, ZERO): ZERO,
    (STAR, STAR): STAR,
    (STAR, QUEST): QUEST,
    (QUEST, ZERO): ZERO,
    (QUEST, STAR): QUEST,
    (QUEST, QUEST): QUEST,
}


def test_addition_table_exact():
    for pair, expected in ADDITION_TABLE.items():
        assert add_symbol(*pair) is expected


def test_multiplication_table_exact():
    for pair, expected in MULTIPLICATION_TABLE.items():
        assert mul_symbol(*pair) is expected


def test_selected_entries():
    assert add_symbol(ZERO, STAR) is STAR
    assert add_symbol(STAR, STAR) is QUEST
    assert add_symbol(ZERO, ZERO) is ZERO
    for x in ALL:
        assert add_symbol(QUEST, x) is QUEST
    assert mul_symbol(STAR, STAR) is STAR
    assert mul_symbol(ZERO, QUEST) is ZERO
    assert mul_symbol(STAR, QUEST) is QUEST


@pytest.mark.parametrize("op", [add_symbol, mul_symbol])
def test_commutative(op):
    for a, b in itertools.product(ALL, repeat=2):
        assert op(a, b) is op(b, a)


@pytest.mark.parametrize("op", [add_symbol, mul_symbol])
def test_associative(op):
    for a, b, c in itertools.product(ALL, repeat=3):
        assert op(op(a, b), c) is op(a, op(b, c))


def test_zero_is_additive_identity():
    for a in ALL:
        assert add_symbol(a, ZERO) is a


def test_zero_absorbs_products():
    for a in ALL:
        assert mul_symbol(a, ZERO) is ZERO


def test_star_is_multiplicative_identity():
    for a in ALL:
        assert mul_symbol(a, STAR) is a


def test_mul_distributes_over_add():
    for a, b, c in itertools.product(ALL, repeat=3):
        left = mul_symbol(a, add_symbol(b, c))
        right = add_symbol(mul_symbol(a, b), mul_symbol(a, c))
        assert left is right


def test_exactly_three_symbols():
    assert len(Symbol) == 3
    assert {s.token for s in Symbol} == {"0", "*", "?"}


def test_from_token():
    assert [Symbol.from_token(t) for t in "0*?"] == [ZERO, STAR, QUEST]
    with pytest.raises(ValueError, match="not a pattern symbol: 'x'"):
        Symbol.from_token("x")
