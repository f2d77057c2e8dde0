"""Seeded generators for the benchmark's inputs.

Everything here works on plain text rows ('0', '*', '?' characters) and
edge lists, never on patmat objects: the program under test only ever sees
the text these functions produce.  Every planted instance carries the answer
its construction guarantees, so the checker in check.py can judge a verdict
without asking patmat.

A "hidden order" is the row/column order in which a planted structure is
triangular; the generators shuffle rows and columns afterwards so that the
elimination has to find the structure itself.
"""

from __future__ import annotations

import random


def _grid(rows: int, cols: int) -> list[list[str]]:
    return [["0"] * cols for _ in range(rows)]


def _nonzero(rng: random.Random) -> str:
    return rng.choice("*?")


def as_rows(grid) -> list[str]:
    return ["".join(row) for row in grid]


def pattern_text(rows: list[str]) -> str:
    """The pattern file format: one row per line, tokens separated by spaces."""
    return "\n".join(" ".join(row) for row in rows) + "\n"


def _shuffled(rng: random.Random, grid, row_perm=None, col_perm=None):
    if row_perm is None:
        row_perm = rng.sample(range(len(grid)), len(grid))
    if col_perm is None:
        col_perm = rng.sample(range(len(grid[0])), len(grid[0]))
    return [[grid[r][c] for c in col_perm] for r in row_perm]


def _lower(rng: random.Random, grid, n: int, below: int, offset: int = 0):
    """Fill rows 0..n-1 of grid as lower triangular in columns 0..n-1:
    (k, k - offset) is '*' (when in range) and `below` random nonzeros sit
    further left."""
    for k in range(n):
        d = k - offset
        if d >= 0:
            grid[k][d] = "*"
        left = max(d, 0)
        for c in rng.sample(range(left), min(below, left)):
            grid[k][c] = _nonzero(rng)


def _sprinkle(rng, grid, rows, cols, density):
    for r in rows:
        for c in cols:
            if rng.random() < density:
                grid[r][c] = _nonzero(rng)


def _equal_star_rows(rng: random.Random, grid, lo: int, hi: int) -> None:
    """Make two rows a < b drawn from [lo, hi) carry the same support, all
    '*'.  The member with those two rows equal is rank deficient, so full row
    rank fails for the class.  Row a keeps its own entries; row b copies them."""
    a, b = sorted(rng.sample(range(lo, hi), 2))
    row = ["*" if s != "0" else "0" for s in grid[a]]
    grid[a] = list(row)
    grid[b] = list(row)


# ---------------------------------------------------------------------------
# structural workload: planted full-rank / stalled patterns and systems


def rank_pattern(rng: random.Random, n: int, extra: int, below: int, holds: bool):
    """n x (n + extra) pattern.  holds=True: a hidden lower-triangular n x n
    block with '*' diagonal gives every member full row rank.  holds=False:
    two rows early in the hidden order are made equal, so some member is
    rank deficient."""
    cols = n + extra
    g = _grid(n, cols)
    _lower(rng, g, n, below)
    _sprinkle(rng, g, range(n), range(n, cols), below / cols)
    if not holds:
        _equal_star_rows(rng, g, 1, max(3, n // 8))
    return as_rows(_shuffled(rng, g))


def _permute_system(blocks_rows, n, perm):
    """Apply one state permutation to the state rows/columns of each block."""
    out = []
    for grid, rows_are_states, cols_are_states in blocks_rows:
        g = grid
        if rows_are_states:
            g = [g[perm[i]] for i in range(n)]
        if cols_are_states:
            g = [[row[perm[j]] for j in range(n)] for row in g]
        out.append(as_rows(g))
    return out


def ssc_system(rng: random.Random, n: int, m: int, below: int, holds: bool):
    """(A, B) with A strictly lower triangular in a hidden state order with a
    '*' subdiagonal and B's first input driving the first state.  Then
    [A B] and [A+I B] each contain a triangular block with '*' diagonal, so
    SSC holds.  holds=False: two rows of [A B] get the same all-'*'
    support, so [A B] loses full row rank for some member and SSC fails."""
    a = _grid(n, n)
    _lower(rng, a, n, below, offset=1)
    b = _grid(n, m)
    b[0][0] = "*"
    _sprinkle(rng, b, range(n), range(1, m), below / (n + m))
    if not holds:
        ab = [a[i] + b[i] for i in range(n)]
        _equal_star_rows(rng, ab, 1, max(3, n // 8))
        a = [row[:n] for row in ab]
        b = [row[n:] for row in ab]
    perm = rng.sample(range(n), n)
    inputs = rng.sample(range(m), m)
    b = [[row[j] for j in inputs] for row in b]
    return _permute_system([(a, True, True), (b, True, False)], n, perm)


def descriptor_system(rng: random.Random, n: int, m: int, below: int, holds: bool):
    """(E, A, B): E lower triangular with '*' diagonal in the hidden state
    order of an ssc_system-style (A, B), so [E B], [A B] and [A+E B] all
    have full row rank (Holds).  holds=False plants equal rows in [A B], so
    the sufficient test is Inconclusive."""
    e = _grid(n, n)
    _lower(rng, e, n, below)
    a = _grid(n, n)
    _lower(rng, a, n, below, offset=1)
    b = _grid(n, m)
    b[0][0] = "*"
    _sprinkle(rng, b, range(n), range(1, m), below / (n + m))
    if not holds:
        ab = [a[i] + b[i] for i in range(n)]
        _equal_star_rows(rng, ab, 1, max(3, n // 8))
        a = [row[:n] for row in ab]
        b = [row[n:] for row in ab]
    perm = rng.sample(range(n), n)
    inputs = rng.sample(range(m), m)
    b = [[row[j] for j in inputs] for row in b]
    return _permute_system([(e, True, True), (a, True, True), (b, True, False)], n, perm)


def iso_system(rng: random.Random, n: int, m: int, below: int, holds: bool):
    """(A, B, C, D) with A strictly upper triangular in a hidden order with a
    '*' superdiagonal, one sensor on the first state and one sensor per
    input through D.  Both [[A B],[C D]] and [[A+I B],[C D]] then keep full
    column rank for every member (ISO holds).  holds=False: two state
    columns of [[A B],[C D]] get the same all-'*' support, so ISO fails."""
    p = 1 + m
    a = _grid(n, n)
    for k in range(n):
        if k + 1 < n:
            a[k][k + 1] = "*"
        right = list(range(k + 2, n))
        for c in rng.sample(right, min(below, len(right))):
            a[k][c] = _nonzero(rng)
    b = _grid(n, m)
    _sprinkle(rng, b, range(n), range(m), below / (n + m))
    c = _grid(p, n)
    c[0][0] = "*"
    d = _grid(p, m)
    for j in range(m):
        d[1 + j][j] = "*"
    if not holds:
        # columns of [[A],[C]]; transpose, plant equal rows, transpose back
        ac_t = [list(col) for col in zip(*(a + c))]
        _equal_star_rows(rng, ac_t, 1, max(3, n // 8))
        ac = [list(row) for row in zip(*ac_t)]
        a, c = ac[:n], ac[n:]
    perm = rng.sample(range(n), n)
    inputs = rng.sample(range(m), m)
    sensors = rng.sample(range(p), p)
    b = [[row[j] for j in inputs] for row in b]
    d = [[d[i][j] for j in inputs] for i in sensors]
    c = [c[i] for i in sensors]
    return _permute_system(
        [(a, True, True), (b, True, False), (c, False, True), (d, False, False)], n, perm
    )


# ---------------------------------------------------------------------------
# network workload


def path_network(rng: random.Random, n: int, back_edges: int, twins: bool):
    """Directed path 0 -> 1 -> ... plus random backward edges (u -> v with
    v < u).  Returns (sorted edges, twin pair or None).

    With only backward extra edges, a walk from vertex 0 reaches vertex t in
    no fewer than t steps, and in exactly t steps only along the path.  So
    with leader 0 and targets T, the prefix [D, CB, ..., C A^k B] first has
    full row rank at k = max(T): target controllability Holds there.

    twins=True adds two leaves with the same single in-neighbour.  Swapping
    them is a graph automorphism fixing the leader, so their rows in every
    prefix are symbolically identical and can never be eliminated: the
    sufficient test stays Inconclusive through all n powers."""
    path = n - 2 if twins else n
    edges = {(i, i + 1) for i in range(path - 1)}
    while len(edges) < path - 1 + back_edges:
        u = rng.randrange(1, path)
        edges.add((u, rng.randrange(u)))
    pair = None
    if twins:
        parent = rng.randrange(path)
        pair = (path, path + 1)
        edges.add((parent, path))
        edges.add((parent, path + 1))
    return sorted(edges), pair


def graph_text(n: int, edges) -> str:
    """The graph file format: header 'n <count>', then 1-based 'u v' lines."""
    return f"n {n}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in edges)


# ---------------------------------------------------------------------------
# soundness workload


def block_stall_pattern(rng: random.Random, n: int, extra: int, block: int, below: int):
    """n x (n + extra) pattern that stalls on a planted block of `block` rows.

    The other rows are lower triangular with a '*' diagonal in a hidden
    order, so elimination removes all of them.  The block rows meet only
    the block's own columns and the extra columns, each such column in 0,
    2 or 3 '*'s, so no block row can ever be pivoted.  Every pair of block
    rows differs in some column where one is '*' and the other '0', so no
    two rows can be made equal; the block itself always carries a vanishing
    combination.  Returns (rows, indices of the block rows)."""
    tri = n - block
    cols = n + extra
    while True:
        g = _grid(n, cols)
        _lower(rng, g, tri, below)
        for c in range(tri, cols):
            for r in rng.sample(range(tri, n), rng.choice((2, 3))):
                g[r][c] = "*"
        for c in range(n, cols):
            for r in range(tri):
                if rng.random() < 0.2:
                    g[r][c] = _nonzero(rng)
        block_rows = range(tri, n)
        if all(
            any((g[r][c] == "*") != (g[s][c] == "*") for c in range(tri, cols))
            for r in block_rows
            for s in block_rows
            if r < s
        ):
            break
    row_perm = rng.sample(range(n), n)
    shuffled = as_rows(_shuffled(rng, g, row_perm=row_perm))
    planted = sorted(i for i, r in enumerate(row_perm) if r >= tri)
    return shuffled, planted


def dense_lower(rng: random.Random, n: int) -> list[str]:
    """Square lower-triangular pattern with '*' diagonal and every entry
    below it nonzero ('*' or '?'); every member is nonsingular."""
    g = _grid(n, n)
    for i in range(n):
        g[i][i] = "*"
        for j in range(i):
            g[i][j] = _nonzero(rng)
    return as_rows(_shuffled(rng, g))


def pencil_pair(rng: random.Random, n: int, below: int, holds: bool):
    """Patterns a, b of one shape whose sum a + b has full rank (holds) or
    stalls on a planted block (not holds).  For holds, a carries the '*'
    diagonal of a hidden lower-triangular sum and b only entries below it."""
    if holds:
        a, b = _grid(n, n), _grid(n, n)
        for i in range(n):
            a[i][i] = "*"
            for j in rng.sample(range(i), min(below, i)):
                (a if rng.random() < 0.5 else b)[i][j] = _nonzero(rng)
        perm_r = rng.sample(range(n), n)
        perm_c = rng.sample(range(n), n)
        return (
            as_rows(_shuffled(rng, a, perm_r, perm_c)),
            as_rows(_shuffled(rng, b, perm_r, perm_c)),
        )
    total, _ = block_stall_pattern(rng, n, 0, 3, below)
    a, b = [], []
    for row in total:
        ra, rb = [], []
        for s in row:
            # split each symbol so that a + b gives it back exactly
            if s == "*":
                pick = rng.random() < 0.5
                ra.append("*" if pick else "0")
                rb.append("0" if pick else "*")
            elif s == "?":
                ra.append("?")
                rb.append(rng.choice("0*?"))
            else:
                ra.append("0")
                rb.append("0")
        a.append("".join(ra))
        b.append("".join(rb))
    return a, b


def random_pattern(rng: random.Random, rows: int, cols: int) -> list[str]:
    return ["".join(rng.choice("00*?") for _ in range(cols)) for _ in range(rows)]
