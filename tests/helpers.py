"""Shared randomized-test utilities."""

import random
from pathlib import Path

from patmat import PatternMatrix
from patmat.symbols import QUEST, STAR, ZERO

SYMBOLS = (ZERO, STAR, QUEST)

DATA_DIR = Path(__file__).parent / "data"


def random_pattern(rng: random.Random, rows: int, cols: int, weights=(1, 1, 1)):
    entries = tuple(rng.choices(SYMBOLS, weights=weights, k=rows * cols))
    return PatternMatrix(rows, cols, entries)


def shuffle_columns(rng: random.Random, pattern: PatternMatrix) -> PatternMatrix:
    """The pattern with its columns in a random order.  Lowest-column
    elimination on it takes the original's pivots in another order."""
    order = list(range(pattern.cols))
    rng.shuffle(order)
    entries = tuple(pattern[i, j] for i in range(pattern.rows) for j in order)
    return PatternMatrix(pattern.rows, pattern.cols, entries)


def random_shape(rng: random.Random, max_rows: int, max_cols: int):
    return rng.randint(1, max_rows), rng.randint(1, max_cols)


def fig1_graph_text() -> str:
    return (DATA_DIR / "fig1.graph").read_text(encoding="utf-8")
