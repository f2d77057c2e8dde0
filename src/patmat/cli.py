"""Command-line front end.

Subcommands operate on pattern text files and graph edge-list files,
print a human-readable report to stdout, and optionally write a JSON
report (schema version 1).  Exit status: 0 the property holds or the
matrix passes, 1 it fails, 2 the test is inconclusive, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .errors import VertexRangeError
from .network import NetworkProblem, check_target_controllability, parse_graph
from .oracles import (
    OracleResult,
    minkowski_roundtrip,
    pencil_agreement,
    rank_soundness,
)
from .pattern import PatternMatrix, parse_pattern_text
from .rank import RankVerdict, full_row_rank, refutation
from .realization import RealizationMatrix
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


def _read_pattern(path: str) -> PatternMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_pattern_text(handle.read())


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


def _witness_json(witness: Optional[RealizationMatrix]):
    if witness is None:
        return None
    return witness.rational_strings()


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
        "witness": _witness_json(verdict.witness),
        "null_vector": (
            None if verdict.null_vector is None else list(verdict.null_vector)
        ),
    }


def _report_json(report: AnalysisReport) -> dict:
    return {
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


def _print_report(report: AnalysisReport) -> None:
    print(f"property: {report.property.value}")
    for cond in report.conditions:
        status = "full rank" if cond.passed else "not full rank"
        print(f"  condition {cond.name} ({cond.shape[0]}x{cond.shape[1]}): {status}")
    if report.rank_conditions_hold is not None:
        print(f"  rank conditions hold: {report.rank_conditions_hold}")
    print(f"verdict: {report.verdict.value}")


def _emit(payload: dict, json_path: Optional[str], started: float) -> None:
    if json_path is None:
        return
    payload = dict(payload)
    payload["timing_seconds"] = round(time.perf_counter() - started, 6)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _oracle_exit(result: OracleResult) -> int:
    print(result.detail)
    if result.counterexample is not None:
        print(f"counterexample: {result.counterexample}")
    return 0 if result.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patmat",
        description="Pattern-matrix algebra and strong structural system checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", metavar="PATH", help="write a JSON report")

    p_add = sub.add_parser("add", help="entrywise sum of two patterns")
    p_add.add_argument("left")
    p_add.add_argument("right")
    common(p_add)

    p_mul = sub.add_parser("mul", help="semiring product of two patterns")
    p_mul.add_argument("left")
    p_mul.add_argument("right")
    common(p_mul)

    p_rank = sub.add_parser("rank", help="strong full row rank with certificate")
    p_rank.add_argument("pattern")
    common(p_rank)

    p_ssc = sub.add_parser("ssc", help="strong structural controllability of (A, B)")
    p_ssc.add_argument("a")
    p_ssc.add_argument("b")
    common(p_ssc)

    p_desc = sub.add_parser(
        "descriptor", help="regular strong structural controllability of (E, A, B)"
    )
    p_desc.add_argument("e")
    p_desc.add_argument("a")
    p_desc.add_argument("b")
    common(p_desc)

    p_iso = sub.add_parser(
        "iso", help="strong structural input-state observability of (A, B, C, D)"
    )
    for name in ("a", "b", "c", "d"):
        p_iso.add_argument(name)
    common(p_iso)

    p_oc = sub.add_parser(
        "output-ctrl", help="strong structural output controllability of (A, B, C, D)"
    )
    for name in ("a", "b", "c", "d"):
        p_oc.add_argument(name)
    common(p_oc)

    p_target = sub.add_parser(
        "target", help="strong structural target controllability of a network"
    )
    p_target.add_argument("graph")
    p_target.add_argument("--leaders", required=True, metavar="LIST")
    p_target.add_argument("--targets", required=True, metavar="LIST")
    common(p_target)

    p_oracle = sub.add_parser("oracle", help="sampling cross-checks")
    p_oracle.add_argument(
        "property", choices=("minkowski", "pencil", "rank")
    )
    p_oracle.add_argument("patterns", nargs="+")
    p_oracle.add_argument("--trials", type=int, default=100)
    p_oracle.add_argument("--tol", type=float, default=1e-9)
    common(p_oracle)
    p_oracle.add_argument("--seed", type=int, default=0)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold into the input-error status
        return _INPUT_ERROR if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        return _dispatch(args, started)
    except (OSError, ValueError) as exc:  # every patmat error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_ERROR


def _dispatch(args, started: float) -> int:
    command = args.command
    if command in ("add", "mul"):
        left = _read_pattern(args.left)
        right = _read_pattern(args.right)
        result = left + right if command == "add" else left @ right
        print(result.to_text())
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "inputs": {"left": args.left, "right": args.right},
                "result": {"pattern": result.to_text().splitlines()},
            },
            args.json,
            started,
        )
        return 0

    if command == "rank":
        pattern = _read_pattern(args.pattern)
        verdict = full_row_rank(pattern)
        if not verdict.full_rank:
            verdict = verdict.with_witness(*refutation(pattern))
        if verdict.full_rank:
            pivot_text = ", ".join(f"({i}, {j})" for i, j in verdict.pivots)
            print(f"full row rank; pivots: {pivot_text or '(none)'}")
        else:
            print(f"not full row rank: {verdict.stall.reason}")
            print("rank-deficient member:")
            print(verdict.witness)
            print("left null vector:", " ".join(map(str, verdict.null_vector)))
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "inputs": {"pattern": args.pattern},
                "result": _rank_verdict_json(verdict),
            },
            args.json,
            started,
        )
        return 0 if verdict.full_rank else 1

    if command in ("ssc", "descriptor", "iso", "output-ctrl"):
        if command == "ssc":
            report = check_ssc(_read_pattern(args.a), _read_pattern(args.b))
            inputs = {"a": args.a, "b": args.b}
        elif command == "descriptor":
            system = StructuredDescriptorSystem(
                _read_pattern(args.e), _read_pattern(args.a), _read_pattern(args.b)
            )
            report = check_descriptor(system)
            inputs = {"e": args.e, "a": args.a, "b": args.b}
        else:
            system = StructuredIOSystem(
                _read_pattern(args.a),
                _read_pattern(args.b),
                _read_pattern(args.c),
                _read_pattern(args.d),
            )
            report = (
                check_iso(system)
                if command == "iso"
                else check_output_controllability(system)
            )
            inputs = {"a": args.a, "b": args.b, "c": args.c, "d": args.d}
        _print_report(report)
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "inputs": inputs,
                "result": _report_json(report),
            },
            args.json,
            started,
        )
        return _VERDICT_EXIT[report.verdict]

    if command == "target":
        with open(args.graph, "r", encoding="utf-8") as handle:
            graph = parse_graph(handle.read())
        problem = NetworkProblem(
            graph,
            _parse_vertex_list(args.leaders, graph.n),
            _parse_vertex_list(args.targets, graph.n),
        )
        report = check_target_controllability(problem)
        _print_report(report)
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "inputs": {
                    "graph": args.graph,
                    "leaders": args.leaders,
                    "targets": args.targets,
                },
                "result": _report_json(report),
            },
            args.json,
            started,
        )
        return _VERDICT_EXIT[report.verdict]

    if command == "oracle":
        patterns = [_read_pattern(path) for path in args.patterns]
        if args.property == "minkowski":
            if len(patterns) != 2:
                raise ValueError("oracle minkowski needs two pattern files")
            result = minkowski_roundtrip(
                patterns[0], patterns[1], args.trials, args.seed
            )
        elif args.property == "pencil":
            if len(patterns) != 2:
                raise ValueError("oracle pencil needs two pattern files")
            result = pencil_agreement(
                patterns[0], patterns[1], args.trials, args.seed, tol=args.tol
            )
        else:
            if len(patterns) != 1:
                raise ValueError("oracle rank needs one pattern file")
            result = rank_soundness(patterns[0], args.trials, args.seed)
        status = _oracle_exit(result)
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "oracle",
                "inputs": {"property": args.property, "patterns": args.patterns},
                "options": {"trials": args.trials, "seed": args.seed},
                "result": {
                    "name": result.name,
                    "trials": result.trials,
                    "passes": result.passes,
                    "ok": result.ok,
                    "counterexample": result.counterexample,
                    "detail": result.detail,
                },
            },
            args.json,
            started,
        )
        return status

    raise ValueError(f"unknown command {command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
