"""Directed networks with leader and target sets.

A directed graph induces the qualitative class of state matrices: the
off-diagonal zero/nonzero structure follows the edges, diagonal entries
are free.  Leader and target vertex sets become starred selector patterns,
and target controllability reduces to the output controllability test.

Vertices are numbered 1..n in files and command lines, 0..n-1 internally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import TextParseError, VertexRangeError
from .pattern import PatternMatrix
from .systems import AnalysisReport, StructuredIOSystem, check_output_controllability

__all__ = [
    "DirectedGraph",
    "NetworkProblem",
    "qualitative_pattern",
    "selector_pattern",
    "check_target_controllability",
    "parse_graph",
]


@dataclass(frozen=True)
class DirectedGraph:
    """Vertex count plus a frozenset of directed edges (u, v) meaning
    u -> v, both 0-based.  Self-loops may be stored; they do not affect the
    qualitative pattern, whose diagonal is always ?."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        if type(self.n) is not int:
            raise TypeError(f"vertex count {self.n!r} is not an integer")
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"edge ({u!r}, {v!r}) has a non-integer vertex")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise VertexRangeError(
                    f"edge ({u + 1}, {v + 1}) outside vertex range 1..{self.n}"
                )

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        return cls(n, edges)


@dataclass(frozen=True)
class NetworkProblem:
    """A graph with a nonempty leader set and a nonempty target set."""

    graph: DirectedGraph
    leaders: tuple[int, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "leaders", tuple(sorted(set(self.leaders))))
        object.__setattr__(self, "targets", tuple(sorted(set(self.targets))))
        if not self.leaders:
            raise ValueError("leader set is empty")
        if not self.targets:
            raise ValueError("target set is empty")
        for v in (*self.leaders, *self.targets):
            if type(v) is not int:
                raise TypeError(f"vertex {v!r} is not an integer")
            if not 0 <= v < self.graph.n:
                raise VertexRangeError(
                    f"vertex {v + 1} outside range 1..{self.graph.n}"
                )


def qualitative_pattern(graph: DirectedGraph) -> PatternMatrix:
    """State pattern of the network: entry (i, j) is ? on the diagonal,
    * when the graph has the edge j -> i, and 0 otherwise."""
    n = graph.n
    star = [0] * n
    for j, i in graph.edges:
        if i != j:
            star[i] |= 1 << j
    nz = [s | 1 << i for i, s in enumerate(star)]
    return PatternMatrix.from_masks(n, n, nz, star)


def selector_pattern(
    row_set: Sequence[int], col_set: Sequence[int], n: int
) -> PatternMatrix:
    """Starred submatrix of the n x n identity with rows indexed by row_set
    and columns by col_set (0-based vertex indices)."""
    for v in (*row_set, *col_set):
        if not 0 <= v < n:
            raise VertexRangeError(f"vertex {v + 1} outside range 1..{n}")
    positions: dict[int, int] = {}
    for k, c in enumerate(col_set):
        positions[c] = positions.get(c, 0) | 1 << k
    masks = [positions.get(r, 0) for r in row_set]
    return PatternMatrix.from_masks(len(row_set), len(col_set), masks, masks)


def check_target_controllability(problem: NetworkProblem) -> AnalysisReport:
    """Decide strong structural target controllability of (G; leaders;
    targets) via the output controllability test on the induced system
    (A, B, C, 0).  Holds is conclusive; otherwise Inconclusive."""
    n = problem.graph.n
    everyone = tuple(range(n))
    a = qualitative_pattern(problem.graph)
    b = selector_pattern(everyone, problem.leaders, n)
    c = selector_pattern(problem.targets, everyone, n)
    d = PatternMatrix.zeros(len(problem.targets), len(problem.leaders))
    report = check_output_controllability(StructuredIOSystem(a, b, c, d))
    notes = (
        f"target controllability of {len(problem.targets)} targets from"
        f" {len(problem.leaders)} leaders; " + report.notes
    )
    return replace(report, notes=notes)


def parse_graph(text: str) -> DirectedGraph:
    """Parse the edge-list format.

    The first non-comment line is `n <count>`; every following line `u v`
    declares the edge u -> v with 1-based endpoints.  Text after # is
    ignored.  Duplicate edges and self-loops are accepted with a warning;
    duplicates are stored once.
    """
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise TextParseError(
                    f"expected header 'n <count>', got {line!r}", lineno
                )
            try:
                n = int(fields[1])
            except ValueError:
                raise TextParseError(
                    f"vertex count is not an integer: {fields[1]!r}", lineno
                ) from None
            if n < 0:
                raise TextParseError(f"negative vertex count {n}", lineno)
            continue
        if len(fields) != 2:
            raise TextParseError(
                f"expected edge 'u v', got {line!r}", lineno
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise TextParseError(
                f"edge endpoints are not integers: {line!r}", lineno
            ) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise TextParseError(
                f"edge ({u}, {v}) outside vertex range 1..{n}", lineno
            )
        if u == v:
            warnings.warn(
                f"line {lineno}: self-loop ({u}, {v}) has no effect on the"
                " qualitative pattern (diagonal entries are already ?)",
                stacklevel=2,
            )
        edge = (u - 1, v - 1)
        if edge in seen:
            warnings.warn(f"line {lineno}: duplicate edge ({u}, {v})", stacklevel=2)
            continue
        seen.add(edge)
        edges.append(edge)
    if n is None:
        raise TextParseError("no header line 'n <count>' found")
    return DirectedGraph.from_edges(n, edges)
