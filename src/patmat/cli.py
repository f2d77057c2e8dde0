"""Command-line front end.

Subcommands operate on pattern text files and graph edge-list files,
print a human-readable report to stdout, and optionally write a JSON
report (schema version 1).  One table names each subcommand's help text
and arguments; it drives both the parser and the report's "inputs".
Exit status: 0 the property holds or the matrix passes, 1 it fails, 2 the
test is inconclusive, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from typing import Optional

from .errors import VertexRangeError
from .network import NetworkProblem, check_target_controllability, parse_graph
from .oracles import minkowski_roundtrip, pencil_agreement, rank_soundness
from .pattern import PatternMatrix, parse_pattern_text
from .rank import RankVerdict, full_row_rank, refutation
from .systems import (
    AnalysisReport,
    StructuredDescriptorSystem,
    StructuredIOSystem,
    Verdict,
    check_descriptor,
    check_iso,
    check_output_controllability,
    check_ssc,
)

__all__ = ["run", "main"]

SCHEMA_VERSION = "1"

_VERDICT_EXIT = {Verdict.HOLDS: 0, Verdict.FAILS: 1, Verdict.INCONCLUSIVE: 2}
_INPUT_ERROR = 3
_PENCIL_TOL = 1e-9

# oracle property -> (oracle, number of pattern files); each oracle takes
# the patterns, then its options as keywords
_ORACLES = {
    "minkowski": (minkowski_roundtrip, 2),
    "pencil": (pencil_agreement, 2),
    "rank": (rank_soundness, 1),
}

# subcommand -> (help text, argument names); the names are the parser's
# arguments and the keys of the JSON report's "inputs", in that order
_COMMANDS = {
    "add": ("entrywise sum of two patterns", ("left", "right")),
    "mul": ("semiring product of two patterns", ("left", "right")),
    "rank": ("strong full row rank with certificate", ("pattern",)),
    "ssc": ("strong structural controllability of (A, B)", ("a", "b")),
    "descriptor": (
        "regular strong structural controllability of (E, A, B)",
        ("e", "a", "b"),
    ),
    "iso": (
        "strong structural input-state observability of (A, B, C, D)",
        ("a", "b", "c", "d"),
    ),
    "output-ctrl": (
        "strong structural output controllability of (A, B, C, D)",
        ("a", "b", "c", "d"),
    ),
    "target": (
        "strong structural target controllability of a network",
        ("graph", "leaders", "targets"),
    ),
    "oracle": ("sampling cross-checks", ("property", "patterns")),
}


def _read_pattern(path: str) -> PatternMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_pattern_text(handle.read())


def _oracle_options(args) -> dict:
    """The options an oracle runs with, as its JSON report records them.
    Only pencil compares floating-point ranks, so only it takes --tol."""
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    options = {"trials": args.trials, "seed": args.seed}
    if args.property == "pencil":
        options["tol"] = _PENCIL_TOL if args.tol is None else args.tol
    elif args.tol is not None:
        raise ValueError(f"oracle {args.property} takes no --tol")
    return options


def _parse_vertex_list(text: str, n: int) -> tuple[int, ...]:
    """Comma list with dash ranges, 1-based: '1,2' or '1-7' or '1,3-5'.

    Every bound is checked against the vertex count n before a range is
    expanded, so an oversized range fails without being materialised.
    """
    out: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "-" in piece[1:]:  # allow a leading minus to fail int() below
            lo_text, hi_text = piece.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty vertex range {piece!r}")
        else:
            lo = hi = int(piece)
        for v in (lo, hi):
            if not 1 <= v <= n:
                raise VertexRangeError(f"vertex {v} outside range 1..{n}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"empty vertex list {text!r}")
    return tuple(v - 1 for v in out)


def _rank_verdict_json(verdict: RankVerdict) -> dict:
    stall = None
    if verdict.stall is not None:
        residual = verdict.stall.residual
        stall = {
            "reason": verdict.stall.reason,
            "rows": list(verdict.stall.rows),
            "cols": list(verdict.stall.cols),
            "residual": residual.to_text().splitlines() if residual else None,
        }
    return {
        "full_rank": verdict.full_rank,
        "pivots": [list(p) for p in verdict.pivots],
        "stall": stall,
        "witness": (
            None if verdict.witness is None else verdict.witness.rational_strings()
        ),
        "null_vector": (
            None if verdict.null_vector is None else list(verdict.null_vector)
        ),
    }


def _report(report: AnalysisReport) -> tuple[dict, int]:
    """Print a system report; return its JSON result and exit status."""
    print(f"property: {report.property.value}")
    for cond in report.conditions:
        status = "full rank" if cond.passed else "not full rank"
        print(f"  condition {cond.name} ({cond.shape[0]}x{cond.shape[1]}): {status}")
    if report.rank_conditions_hold is not None:
        print(f"  rank conditions hold: {report.rank_conditions_hold}")
    print(f"verdict: {report.verdict.value}")
    result = {
        "property": report.property.value,
        "verdict": report.verdict.value,
        "rank_conditions_hold": report.rank_conditions_hold,
        "conditions": [
            {
                "name": cond.name,
                "shape": list(cond.shape),
                **_rank_verdict_json(cond.verdict),
            }
            for cond in report.conditions
        ],
        "notes": report.notes,
    }
    return result, _VERDICT_EXIT[report.verdict]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patmat",
        description="Pattern-matrix algebra and strong structural system checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "target":
            p.add_argument("graph")
            p.add_argument("--leaders", required=True, metavar="LIST")
            p.add_argument("--targets", required=True, metavar="LIST")
        elif command == "oracle":
            p.add_argument("property", choices=tuple(_ORACLES))
            p.add_argument("patterns", nargs="+")
            p.add_argument("--trials", type=int, default=100)
            p.add_argument("--tol", type=float)
        else:
            for name in names:
                p.add_argument(name)
        p.add_argument("--json", metavar="PATH", help="write a JSON report")
        if command == "oracle":  # listed after --json in --help
            p.add_argument("--seed", type=int, default=0)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold into the input-error status
        return _INPUT_ERROR if exc.code not in (0, None) else 0
    started = time.perf_counter()
    command = args.command
    try:
        options = _oracle_options(args) if command == "oracle" else None
        result, status = _dispatch(args, options)
        if args.json is not None:
            names = _COMMANDS[command][1]
            payload = {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "inputs": {name: getattr(args, name) for name in names},
            }
            if options is not None:
                payload["options"] = options
            payload["result"] = result
            payload["timing_seconds"] = round(time.perf_counter() - started, 6)
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
    except (OSError, ValueError) as exc:  # every patmat error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_ERROR
    return status


def _dispatch(args, options: Optional[dict]) -> tuple[dict, int]:
    """Run the subcommand (an oracle with the given options) and print its
    text report; return the JSON result and the exit status."""
    command = args.command
    if command == "target":
        # the parser's warnings (self-loops, duplicate edges) become stable
        # `warning: ...` lines, printed every time and never raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with open(args.graph, "r", encoding="utf-8") as handle:
                    graph = parse_graph(handle.read())
            finally:
                for caught_warning in caught:
                    print(f"warning: {caught_warning.message}", file=sys.stderr)
        problem = NetworkProblem(
            graph,
            _parse_vertex_list(args.leaders, graph.n),
            _parse_vertex_list(args.targets, graph.n),
        )
        return _report(check_target_controllability(problem))

    if command == "oracle":
        oracle, arity = _ORACLES[args.property]
        patterns = [_read_pattern(path) for path in args.patterns]
        if len(patterns) != arity:
            files = "one pattern file" if arity == 1 else "two pattern files"
            raise ValueError(f"oracle {args.property} needs {files}")
        result = oracle(*patterns, **options)
        print(result.detail)
        if result.counterexample is not None:
            print(f"counterexample: {result.counterexample}")
        keys = ("name", "trials", "passes", "ok", "counterexample", "detail")
        return {key: getattr(result, key) for key in keys}, 0 if result.ok else 1

    patterns = [_read_pattern(getattr(args, name)) for name in _COMMANDS[command][1]]
    if command in ("add", "mul"):
        left, right = patterns
        result = left + right if command == "add" else left @ right
        print(result.to_text())
        return {"pattern": result.to_text().splitlines()}, 0

    if command == "rank":
        (pattern,) = patterns
        verdict = full_row_rank(pattern)
        if verdict.full_rank:
            pivot_text = ", ".join(f"({i}, {j})" for i, j in verdict.pivots)
            print(f"full row rank; pivots: {pivot_text or '(none)'}")
            return _rank_verdict_json(verdict), 0
        witness, null_vector = refutation(pattern)
        verdict = RankVerdict(
            False, verdict.pivots, verdict.stall, witness, null_vector
        )
        print(f"not full row rank: {verdict.stall.reason}")
        print("rank-deficient member:")
        print(witness)
        print("left null vector:", " ".join(map(str, null_vector)))
        return _rank_verdict_json(verdict), 1

    if command == "ssc":
        return _report(check_ssc(*patterns))
    if command == "descriptor":
        return _report(check_descriptor(StructuredDescriptorSystem(*patterns)))
    system = StructuredIOSystem(*patterns)
    if command == "iso":
        return _report(check_iso(system))
    return _report(check_output_controllability(system))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
