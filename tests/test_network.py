"""Graphs, selectors, the edge-list format and target controllability."""

import random
import re

import pytest

from patmat import (
    DirectedGraph,
    NetworkProblem,
    PatternMatrix,
    RealizationMatrix,
    TextParseError,
    ValueDistribution,
    Verdict,
    VertexRangeError,
    check_target_controllability,
    derive_seed,
    full_row_rank,
    identity_pattern,
    numeric_rank,
    parse_graph,
    qualitative_pattern,
    sample_member,
    selector_pattern,
    verify_certificate,
)
from patmat.symbols import QUEST, STAR, ZERO
from patmat.systems import StructuredIOSystem, build_output_ctrl_pattern

from helpers import fig1_graph_text

P = PatternMatrix.from_text

FIG1_EDGES_1BASED = [
    (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (2, 3), (4, 5),
    (1, 2), (2, 1), (3, 4), (4, 3), (3, 9), (4, 8),
]

# the displayed 7x9 leading block of the output controllability pattern
FIG1_GOLDEN_BLOCK = [
    "0 0 * 0 ? * ? ? ?",
    "0 0 0 * * ? ? ? ?",
    "0 0 0 0 * * ? ? ?",
    "0 0 0 0 0 * ? ? ?",
    "0 0 0 0 0 0 * ? ?",
    "0 0 0 0 0 0 0 * ?",
    "0 0 0 0 0 0 0 0 *",
]


def fig1_graph() -> DirectedGraph:
    return DirectedGraph.from_edges(
        9, [(u - 1, v - 1) for u, v in FIG1_EDGES_1BASED]
    )


def fig1_problem() -> NetworkProblem:
    return NetworkProblem(fig1_graph(), leaders=(0, 1), targets=tuple(range(7)))


def fig1_system() -> StructuredIOSystem:
    problem = fig1_problem()
    n = problem.graph.n
    everyone = tuple(range(n))
    return StructuredIOSystem(
        qualitative_pattern(problem.graph),
        selector_pattern(everyone, problem.leaders, n),
        selector_pattern(problem.targets, everyone, n),
        PatternMatrix.zeros(len(problem.targets), len(problem.leaders)),
    )


class TestQualitativePattern:
    def test_two_cycle(self):
        graph = DirectedGraph.from_edges(2, [(0, 1), (1, 0)])
        assert qualitative_pattern(graph) == P("? *\n* ?")

    def test_edgeless(self):
        graph = DirectedGraph.from_edges(2, [])
        assert qualitative_pattern(graph) == P("? 0\n0 ?")

    def test_edge_direction_convention(self):
        # edge 1 -> 3 makes state 3 depend on state 1: entry (row 3, col 1)
        graph = DirectedGraph.from_edges(3, [(0, 2)])
        pattern = qualitative_pattern(graph)
        assert pattern[2, 0] is STAR
        assert pattern[0, 2] is ZERO

    def test_self_loop_leaves_diagonal_quest(self):
        graph = DirectedGraph.from_edges(2, [(0, 0)])
        assert qualitative_pattern(graph)[0, 0] is QUEST

    def test_sampled_members_satisfy_the_class_definition(self):
        rng = random.Random(5)
        graph = fig1_graph()
        pattern = qualitative_pattern(graph)
        for trial in range(50):
            member = sample_member(
                pattern,
                ValueDistribution(
                    quest_zero_probability=rng.choice((0.0, 0.25, 1.0)),
                    seed=derive_seed(11, trial),
                ),
            )
            for i in range(9):
                for j in range(9):
                    if i == j:
                        continue
                    assert (member[i, j] != 0) == ((j, i) in graph.edges)


class TestSelectorPattern:
    def test_leader_selector(self):
        b = selector_pattern(tuple(range(9)), (0, 1), 9)
        assert b.shape == (9, 2)
        stars = {(i, j) for i in range(9) for j in range(2) if b[i, j] is STAR}
        assert stars == {(0, 0), (1, 1)}

    def test_full_set_gives_starred_identity(self):
        assert selector_pattern(tuple(range(4)), tuple(range(4)), 4) == identity_pattern(4)

    def test_disjoint_sets_give_zero_block(self):
        assert selector_pattern((0, 1), (2, 3), 4) == PatternMatrix.zeros(2, 2)

    def test_out_of_range_vertex(self):
        with pytest.raises(VertexRangeError):
            selector_pattern((0, 5), (0,), 4)


class TestParseGraph:
    def test_basic_format(self):
        graph = parse_graph("n 3\n1 2\n2 3\n")
        assert graph.n == 3
        assert graph.edges == frozenset({(0, 1), (1, 2)})

    def test_out_of_range_endpoint(self):
        with pytest.raises(TextParseError, match="outside vertex range"):
            parse_graph("n 2\n5 1\n")

    def test_fig1_fixture(self):
        graph = parse_graph(fig1_graph_text())
        assert graph.n == 9
        assert len(graph.edges) == 13
        assert graph == fig1_graph()

    def test_malformed_line_reports_number(self):
        with pytest.raises(TextParseError, match="line 3"):
            parse_graph("n 2\n1 2\n1 two\n")
        with pytest.raises(TextParseError, match="line 1"):
            parse_graph("nodes 2\n")

    def test_duplicate_edge_warns_and_dedupes(self):
        with pytest.warns(UserWarning, match="duplicate edge"):
            graph = parse_graph("n 2\n1 2\n1 2\n")
        assert graph.edges == frozenset({(0, 1)})

    def test_self_loop_warns_but_is_stored(self):
        with pytest.warns(UserWarning, match="self-loop"):
            graph = parse_graph("n 2\n1 1\n")
        assert (0, 0) in graph.edges

    def test_comments_and_blank_lines(self):
        graph = parse_graph("# header\n\nn 2  # two vertices\n1 2\n")
        assert graph.edges == frozenset({(0, 1)})

    def test_missing_header(self):
        with pytest.raises(TextParseError, match="header"):
            parse_graph("# only comments\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("n two\n", "line 1: vertex count is not an integer: 'two'"),
            ("n -1\n", "line 1: negative vertex count -1"),
            ("n 3\n1 2\n1 2 3\n", "line 3: expected edge 'u v', got '1 2 3'"),
        ],
        ids=["non-integer-count", "negative-count", "three-fields"],
    )
    def test_bad_lines_are_rejected(self, text, match):
        with pytest.raises(TextParseError, match=re.escape(match)):
            parse_graph(text)

    def test_graph_validation(self):
        with pytest.raises(ValueError, match="negative vertex count -1"):
            DirectedGraph(-1, frozenset())
        with pytest.raises(VertexRangeError, match=re.escape("edge (1, 3)")):
            DirectedGraph.from_edges(2, [(0, 2)])


class TestNetworkProblem:
    def test_sets_are_sorted_and_deduplicated(self):
        problem = NetworkProblem(fig1_graph(), (1, 0, 1), (6, 5, 0))
        assert problem.leaders == (0, 1)
        assert problem.targets == (0, 5, 6)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            NetworkProblem(fig1_graph(), (), (0,))
        with pytest.raises(ValueError):
            NetworkProblem(fig1_graph(), (0,), ())

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexRangeError):
            NetworkProblem(fig1_graph(), (0, 9), (1,))


class TestFigureOneGolden:
    def test_leading_block_matches_symbol_for_symbol(self):
        full = build_output_ctrl_pattern(fig1_system(), 8)
        assert full.shape == (7, 20)
        for i, row_text in enumerate(FIG1_GOLDEN_BLOCK):
            expected = row_text.split()
            got = [full[i, j].token for j in range(9)]
            assert got == expected, f"row {i}"

    def test_golden_block_has_full_row_rank_with_seven_pivots(self):
        block = PatternMatrix.from_text("\n".join(FIG1_GOLDEN_BLOCK))
        verdict = full_row_rank(block)
        assert verdict.full_rank
        assert len(verdict.pivots) == 7
        assert verify_certificate(block, verdict.pivots)

    def test_target_controllability_holds(self):
        report = check_target_controllability(fig1_problem())
        assert report.verdict is Verdict.HOLDS
        success = report.conditions[-1]
        assert len(success.verdict.pivots) == 7
        # one pivot per target row, as in the upper triangular structure
        assert sorted(i for i, _ in success.verdict.pivots) == list(range(7))


class TestTargetControllability:
    def test_targets_equal_leaders_holds(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 6)
            edges = {
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
            }
            graph = DirectedGraph.from_edges(n, edges)
            leaders = tuple(
                sorted(rng.sample(range(n), rng.randint(1, n)))
            )
            report = check_target_controllability(
                NetworkProblem(graph, leaders, leaders)
            )
            assert report.verdict is Verdict.HOLDS

    def test_unreachable_isolated_target_is_inconclusive(self):
        # vertex 3 has no incoming edges and is not a leader
        graph = DirectedGraph.from_edges(3, [(0, 1), (1, 0)])
        report = check_target_controllability(
            NetworkProblem(graph, leaders=(0,), targets=(2,))
        )
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_long_path_holds_at_the_farthest_target(self):
        # on the path 1 -> 2 -> ... -> n with ? loops, C A^k B has a lone *
        # exactly in the row of target k + 1, so the test first holds at
        # the power of the farthest target, after n + 1 conditions
        n = 300
        graph = DirectedGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        targets = (0, n // 2, n - 1)
        report = check_target_controllability(NetworkProblem(graph, (0,), targets))
        assert report.verdict is Verdict.HOLDS
        assert len(report.conditions) == n + 1
        last = report.conditions[-1]
        assert last.name == f"[D CB CAB {' '.join(f'CA^{k}B' for k in range(2, n))}]"
        assert [(row, col) for row, col in last.verdict.pivots] == [
            (0, 1), (1, n // 2 + 1), (2, n)
        ]

    def test_long_twin_leaf_path_stays_inconclusive(self):
        # vertices 299 and 300 are twin leaves of vertex 150, so their rows
        # agree in every block and never separate: the test stalls on them
        # through all n powers, while targets 1 and 150 pivot in the blocks
        # CB and CA^149B
        n = 300
        edges = [(v, v + 1) for v in range(n - 3)] + [(149, n - 2), (149, n - 1)]
        graph = DirectedGraph.from_edges(n, edges)
        targets = (0, 149, n - 2, n - 1)
        report = check_target_controllability(NetworkProblem(graph, (0,), targets))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert len(report.conditions) == n + 1
        last = report.conditions[-1]
        assert last.shape == (4, n + 1)
        assert last.verdict.pivots == ((0, 1), (1, 150))
        assert last.verdict.stall.rows == (2, 3)
        assert last.verdict.stall.cols == (0, *range(2, 150), *range(151, n + 1))


class TestScalingReduction:
    def test_binary_and_starred_selector_ranks_agree(self):
        # rank of the output controllability matrix is invariant under the
        # nonzero row/column scalings that starred selectors introduce
        problem = fig1_problem()
        n = problem.graph.n
        p = len(problem.targets)
        system = fig1_system()
        a_pattern = system.A
        binary_b = RealizationMatrix.from_rows(
            [[1 if row == leader else 0 for leader in problem.leaders] for row in range(n)]
        )
        binary_c = RealizationMatrix.from_rows(
            [[1 if col == target else 0 for col in range(n)] for target in problem.targets]
        )
        for trial in range(100):
            ra = sample_member(
                a_pattern, ValueDistribution(seed=derive_seed(13, trial, 0))
            )
            rb = sample_member(
                system.B, ValueDistribution(seed=derive_seed(13, trial, 1))
            )
            rc = sample_member(
                system.C, ValueDistribution(seed=derive_seed(13, trial, 2))
            )

            def krylov(c, b):
                blocks = []
                left = c
                for _ in range(n):
                    blocks.append(left @ b)
                    left = left @ ra
                return RealizationMatrix.from_rows(
                    [
                        [x for block in blocks for x in block.row(i)]
                        for i in range(p)
                    ]
                )

            rank_binary = numeric_rank(krylov(binary_c, binary_b), 0)
            rank_starred = numeric_rank(krylov(rc, rb), 0)
            assert rank_binary == rank_starred
