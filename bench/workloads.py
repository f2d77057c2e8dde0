"""The benchmark's workloads.

Each workload turns a seed into text inputs (generate, not timed), parses
them into patmat objects (build, timed as set-up) and returns one cycle of
operations.  An operation is one public patmat call, or one CLI process,
that returns one verdict; its check judges the output with check.py only.
README.md in this directory gives each workload's mix, size ladder, the
layer it loads and the layers it bypasses.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import check
import gen
from check import CheckError


@dataclass
class Op:
    id: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # reason the operation failed without being wrong, e.g. no witness found
    failure: Callable[[object], Optional[str]] = lambda result: None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _replay_rows(rows, verdict) -> None:
    if verdict.full_rank:
        check.replay_full_rank(rows, verdict.pivots)
    else:
        check.replay_stall(rows, verdict.pivots, verdict.stall.rows, verdict.stall.cols)


def _replay_cols(rows, verdict) -> None:
    stall = None if verdict.full_rank else (verdict.stall.rows, verdict.stall.cols)
    check.replay_column_rank(rows, verdict.pivots, stall)


def _check_report(expected: str, composites, column: bool):
    """A system report: the expected verdict, and every condition replayed
    against the checker's own composite pattern."""

    def run(report):
        _require(report.verdict.value == expected,
                 f"verdict {report.verdict.value}, planted {expected}")
        _require(len(report.conditions) == len(composites), "wrong number of conditions")
        for rows, cond in zip(composites, report.conditions):
            (_replay_cols if column else _replay_rows)(rows, cond.verdict)

    return run


def _answer(holds: bool) -> str:
    return "holds" if holds else "fails"


# ---------------------------------------------------------------------------


class Structural:
    """Pivot elimination on planted systems; no products, no refutation."""

    name = "structural"
    limit_s = 10.0
    alarm = True
    BELOW = 3  # random nonzeros per row left of the planted diagonal
    # (kind, n, count), grouped by cost at the seed.  p50 falls inside the
    # ~60 ms group and p90 inside the ~245 ms group: a percentile that falls
    # between groups of very different cost jumps from seed to seed.
    MIX = (
        # cheap: bipartite matching and small eliminations
        *(("nonsingular", n, 1) for n in range(60, 166, 15)),
        ("rank_row", 60, 2), ("rank_col", 60, 2), ("ssc", 60, 2), ("iso", 60, 1),
        ("descriptor", 60, 1),
        # about 60 ms each
        ("rank_row", 120, 4), ("rank_col", 120, 4), ("ssc", 95, 3), ("iso", 88, 3),
        ("descriptor", 83, 2),
        # about 135 ms
        ("rank_row", 150, 1), ("rank_col", 150, 1), ("ssc", 120, 2), ("iso", 112, 1),
        ("descriptor", 105, 1),
        # about 245 ms
        ("rank_row", 190, 3), ("rank_col", 190, 3), ("ssc", 150, 2), ("iso", 140, 1),
        ("descriptor", 131, 1),
    )

    def generate(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        items = []
        made = Counter()  # per kind, so holding and stalled instances alternate
        for kind, n, count in self.MIX:
            for _ in range(count):
                holds = made[kind] % 2 == 0
                made[kind] += 1
                m = max(2, n // 20)
                if kind == "rank_row":
                    parts = [gen.rank_pattern(rng, n, m, self.BELOW, holds)]
                elif kind == "rank_col":
                    parts = [check.transpose(gen.rank_pattern(rng, n, m, self.BELOW, holds))]
                elif kind == "nonsingular":
                    parts = [gen.rank_pattern(rng, n, 0, self.BELOW, holds)]
                elif kind == "ssc":
                    parts = gen.ssc_system(rng, n, m, self.BELOW, holds)
                elif kind == "descriptor":
                    parts = gen.descriptor_system(rng, n, m, self.BELOW, holds)
                else:
                    parts = gen.iso_system(rng, n, m, self.BELOW, holds)
                items.append({
                    "id": f"{kind}-n{n}-{_answer(holds)}-{made[kind]}",
                    "kind": kind, "n": n, "holds": holds, "parts": parts,
                    "texts": [gen.pattern_text(p) for p in parts],
                })
        rng.shuffle(items)
        return items

    def build(self, pm, items):
        built = []
        for item in items:
            pats = [pm.parse_pattern_text(t) for t in item["texts"]]
            if item["kind"] == "descriptor":
                pats = [pm.StructuredDescriptorSystem(*pats)]
            elif item["kind"] == "iso":
                pats = [pm.StructuredIOSystem(*pats)]
            built.append(pats)
        return built

    def cycle(self, pm, items, built):
        return [self._op(pm, item, objs) for item, objs in zip(items, built)]

    def _op(self, pm, item, objs):
        kind, holds, parts = item["kind"], item["holds"], item["parts"]
        obj = objs[0]
        if kind == "rank_row":
            def verify(v):
                _require(v.full_rank == holds, f"full_rank={v.full_rank}, planted {holds}")
                _replay_rows(parts[0], v)
            return Op(item["id"], lambda: pm.full_row_rank(obj), verify)
        if kind == "rank_col":
            def verify(v):
                _require(v.full_rank == holds, f"full_rank={v.full_rank}, planted {holds}")
                _replay_cols(parts[0], v)
            return Op(item["id"], lambda: pm.full_column_rank(obj), verify)
        if kind == "nonsingular":
            def verify(result):
                _require(result is holds, f"nonsingular={result}, planted {holds}")
            return Op(item["id"], lambda: pm.strongly_nonsingular_square(obj), verify)
        n = item["n"]
        if kind == "ssc":
            a, b = parts
            composites = [check.hcat(a, b), check.hcat(check.add(a, check.identity(n)), b)]
            return Op(item["id"], lambda: pm.check_ssc(*objs),
                      _check_report(_answer(holds), composites, column=False))
        if kind == "descriptor":
            e, a, b = parts
            composites = [check.hcat(e, b), check.hcat(a, b), check.hcat(check.add(a, e), b)]
            expected = "holds" if holds else "inconclusive"
            return Op(item["id"], lambda: pm.check_descriptor(obj),
                      _check_report(expected, composites, column=False))
        a, b, c, d = parts
        bottom = check.hcat(c, d)
        composites = [
            check.hcat(a, b) + bottom,
            check.hcat(check.add(a, check.identity(n)), b) + bottom,
        ]
        return Op(item["id"], lambda: pm.check_iso(obj),
                  _check_report(_answer(holds), composites, column=True))


# ---------------------------------------------------------------------------


class Network:
    """Target controllability: semiring products of growing powers."""

    name = "network"
    limit_s = 10.0
    alarm = True
    TARGETS = 4
    # (twins, n, count): holding instances (no twins) are checked up to
    # power n // 3, inconclusive ones (twins) through all n powers.  Grouped
    # by cost as in Structural: p50 falls in the ~60 ms group, p90 in the
    # ~140 ms group.
    MIX = (
        (False, 24, 9), (True, 20, 8),
        (True, 30, 8), (False, 44, 8),
        (False, 56, 5),
        (True, 40, 10),
        (False, 76, 2),
    )

    def generate(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        items = []
        for twins, n, count in self.MIX:
            for i in range(count):
                edges, pair = gen.path_network(rng, n, n // 2, twins)
                if twins:
                    targets = sorted(set(pair) | set(rng.sample(range(n - 2), self.TARGETS - 2)))
                else:
                    # the farthest target sits a third of the way down the
                    # path, so the test holds at power n // 3
                    far = n // 3
                    targets = sorted(rng.sample(range(far), self.TARGETS - 1) + [far])
                items.append({
                    "id": f"target-n{n}-{'inconclusive' if twins else 'holds'}-{i}",
                    "n": n, "edges": edges, "targets": targets, "holds": not twins,
                    "text": gen.graph_text(n, edges),
                })
        rng.shuffle(items)
        return items

    def build(self, pm, items):
        return [
            pm.NetworkProblem(pm.parse_graph(item["text"]), (0,), tuple(item["targets"]))
            for item in items
        ]

    def cycle(self, pm, items, built):
        return [self._op(pm, item, problem) for item, problem in zip(items, built)]

    def _op(self, pm, item, problem):
        n, targets, holds = item["n"], item["targets"], item["holds"]

        def verify(report):
            expected = "holds" if holds else "inconclusive"
            _require(report.verdict.value == expected,
                     f"verdict {report.verdict.value}, planted {expected}")
            # holds first at power max(targets); inconclusive runs all n powers
            powers = max(targets) + 1 if holds else n
            _require(len(report.conditions) == powers + 1,
                     f"{len(report.conditions)} conditions, expected {powers + 1}")
            prefix = check.target_prefix(n, item["edges"], 0, targets, powers)
            _replay_rows(prefix, report.conditions[-1].verdict)

        return Op(item["id"], lambda: pm.check_target_controllability(problem), verify)


# ---------------------------------------------------------------------------


def _oracle_failure(result) -> Optional[str]:
    ce = result.counterexample or {}
    if "no witness" in str(ce.get("reason", "")):
        return f"{result.name} oracle: {ce['reason']}"
    return None


def _oracle_ok(trials: int):
    def verify(result):
        _require(result.ok, f"{result.name} oracle counterexample: {result.counterexample}")
        _require(result.trials == trials, f"{result.trials} trials, expected {trials}")
    return verify


class Soundness:
    """Refutation witnesses, exact rank and the sampling oracles."""

    name = "soundness"
    limit_s = 1.0
    alarm = True
    # (kind, size, count), grouped by cost as in Structural: p50 falls in
    # the ~1.5 ms refutations, p90 in the ~60 ms Minkowski round trips.
    # "refute" sizes are (rows, block rows) of a stalled pattern; the subset
    # search behind refute_full_rank stops at 16 rows, so the 17- and 20-row
    # ones are left to the numeric descent.
    MIX = (
        *(("refute", (n, 3), 6) for n in (6, 7, 8, 9)),
        *(("pencil_fails", n, 2) for n in (8, 10, 12)),
        ("refute", (12, 3), 9), ("refute", (12, 4), 9), ("refute", (13, 3), 9),
        ("refute", (14, 3), 9),
        *(("iso", n, 2) for n in (8, 10, 12)),
        *(("pencil_holds", n, 2) for n in (8, 12, 16)),
        *(("rank_oracle", n, 1) for n in (10, 12, 14, 16, 18, 20)),
        ("refute", (15, 3), 2), ("refute", (16, 4), 2),
        ("minkowski", 20, 10),
        *(("rank_oracle", n, 1) for n in (24, 26, 28, 30)),
        ("refute", (17, 4), 1), ("refute", (20, 5), 1),
    )

    def generate(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        items = []
        for kind, size, count in self.MIX:
            for i in range(count):
                item = {"kind": kind}
                if kind == "refute":
                    n, block = size
                    extra, below = (6, 4) if n > 16 else (3, 3)
                    rows, item["block_rows"] = gen.block_stall_pattern(rng, n, extra, block, below)
                    item.update(id=f"refute-r{n}-b{block}-{i}", parts=[rows])
                elif kind == "rank_oracle":
                    item.update(id=f"oracle-rank-n{size}", parts=[gen.dense_lower(rng, size)])
                elif kind.startswith("pencil"):
                    holds = kind == "pencil_holds"
                    item.update(id=f"oracle-pencil-n{size}-{_answer(holds)}-{i}", holds=holds,
                                parts=list(gen.pencil_pair(rng, size, 3, holds)))
                elif kind == "minkowski":
                    item.update(id=f"oracle-minkowski-n{size}-{i}",
                                parts=[gen.random_pattern(rng, size, size),
                                       gen.random_pattern(rng, size, size)])
                else:
                    item.update(id=f"oracle-iso-n{size}-{i}",
                                parts=gen.iso_system(rng, size, 2, 2, True))
                item["texts"] = [gen.pattern_text(p) for p in item["parts"]]
                item["seed"] = rng.randrange(2**31)
                items.append(item)
        rng.shuffle(items)
        return items

    def build(self, pm, items):
        built = []
        for item in items:
            pats = [pm.parse_pattern_text(t) for t in item["texts"]]
            if item["kind"] == "iso":
                pats = [pm.StructuredIOSystem(*pats)]
            built.append(pats)
        return built

    def cycle(self, pm, items, built):
        from patmat import oracles

        ops = []
        for item, objs in zip(items, built):
            kind, seed = item["kind"], item["seed"]
            if kind == "refute":
                ops.append(self._refute_op(pm, item, objs[0]))
            elif kind == "rank_oracle":
                ops.append(Op(item["id"], lambda p=objs[0], s=seed: oracles.rank_soundness(p, 4, s),
                              _oracle_ok(4), _oracle_failure))
            elif kind.startswith("pencil"):
                trials = 3 if item["holds"] else 1
                ops.append(Op(item["id"],
                              lambda a=objs[0], b=objs[1], s=seed: oracles.pencil_agreement(
                                  a, b, 3, s, lam_count=5),
                              _oracle_ok(trials), _oracle_failure))
            elif kind == "minkowski":
                ops.append(Op(item["id"],
                              lambda a=objs[0], b=objs[1], s=seed: oracles.minkowski_roundtrip(
                                  a, b, 30, s),
                              _oracle_ok(30), _oracle_failure))
            else:
                ops.append(Op(item["id"],
                              lambda system=objs[0], s=seed: oracles.iso_stacked_rank_check(
                                  system, 12, 8, seed=s),
                              _oracle_ok(12), _oracle_failure))
        return ops

    def _refute_op(self, pm, item, pattern):
        rows = item["parts"][0]

        def call():
            verdict = pm.full_row_rank(pattern)
            witness = None if verdict.full_rank else pm.refute_full_rank(pattern)
            return verdict, witness

        def failure(result):
            return "refute_full_rank found no witness" if result[1] is None else None

        def verify(result):
            verdict, witness = result
            _require(not verdict.full_rank, "planted stall reported as full rank")
            _replay_rows(rows, verdict)
            _require(sorted(verdict.stall.rows) == item["block_rows"],
                     "stall rows differ from the planted block")
            check.check_deficient_witness(rows, witness.to_rows())

        return Op(item["id"], call, verify, failure)


# ---------------------------------------------------------------------------


class Cli:
    """`python -m patmat.cli` processes, one at a time."""

    name = "cli"
    limit_s = 10.0
    alarm = False  # the subprocess timeout bounds each operation

    def __init__(self):
        self.in_process = False  # traced runs call patmat.cli.run in this process

    def generate(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        folder = workdir / f"cli-inputs-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        items = []

        def write(name, text):
            path = folder / name
            path.write_text(text, encoding="utf-8")
            return str(path)

        for i, n in enumerate((4, 7)):
            rows = gen.rank_pattern(rng, n, 2, 2, True)
            items.append({"id": f"cli-rank-full-n{n}", "kind": "rank", "holds": True,
                          "rows": rows, "argv": ["rank", write(f"full{i}.pat", gen.pattern_text(rows))]})
        for i, (n, block) in enumerate(((5, 3), (8, 4))):
            rows, _ = gen.block_stall_pattern(rng, n, 2, block, 2)
            items.append({"id": f"cli-rank-deficient-n{n}", "kind": "rank", "holds": False,
                          "rows": rows, "argv": ["rank", write(f"def{i}.pat", gen.pattern_text(rows))]})
        for i, (n, holds) in enumerate(((6, True), (9, False))):
            a, b = gen.ssc_system(rng, n, 2, 2, holds)
            items.append({"id": f"cli-ssc-n{n}-{_answer(holds)}", "kind": "ssc", "holds": holds,
                          "argv": ["ssc", write(f"ssc{i}_a.pat", gen.pattern_text(a)),
                                   write(f"ssc{i}_b.pat", gen.pattern_text(b))]})
        for i, (n, twins) in enumerate(((10, False), (12, True))):
            edges, pair = gen.path_network(rng, n, n // 2, twins)
            targets = sorted(set(pair) | {1}) if twins else sorted(rng.sample(range(n // 2), 3))
            items.append({
                "id": f"cli-target-n{n}-{'inconclusive' if twins else 'holds'}",
                "kind": "target", "holds": not twins,
                "argv": ["target", write(f"net{i}.graph", gen.graph_text(n, edges)),
                         "--leaders", "1", "--targets", ",".join(str(t + 1) for t in targets)],
            })
        rng.shuffle(items)
        return items

    def build(self, pm, items):
        built = []
        for item in items:
            files = [a for a in item["argv"][1:] if a.endswith((".pat", ".graph"))]
            parse = pm.parse_graph if item["kind"] == "target" else pm.parse_pattern_text
            built.append([parse(Path(f).read_text(encoding="utf-8")) for f in files])
        return built

    def cycle(self, pm, items, built):
        return [Op(item["id"], self._caller(item["argv"]), self._verifier(item), _cli_failure)
                for item in items]

    def _caller(self, argv):
        if self.in_process:
            from patmat import cli

            def call():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(list(argv))
                return code, out.getvalue()
            return call

        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        command = [sys.executable, "-m", "patmat.cli", *argv]

        def call():
            done = subprocess.run(command, capture_output=True, text=True, env=env,
                                  timeout=self.limit_s)
            return done.returncode, done.stdout
        return call

    def _verifier(self, item):
        kind, holds = item["kind"], item["holds"]

        def verify(result):
            code, out = result
            if kind == "rank":
                _require(code == (0 if holds else 1), f"exit {code}, planted {_answer(holds)}")
                rows = item["rows"]
                lines = out.splitlines()
                if holds:
                    found = [l for l in lines if l.startswith("full row rank; pivots:")]
                    _require(bool(found), "no pivot line in the output")
                    pivots = [tuple(int(x) for x in p.strip(" ()").split(","))
                              for p in found[0].split("pivots:")[1].split("),") if p.strip()]
                    check.replay_full_rank(rows, pivots)
                else:
                    _require("rank-deficient member:" in lines, "no witness in the output")
                    start = lines.index("rank-deficient member:") + 1
                    matrix = [[check.parse_exact(tok) for tok in l.split()]
                              for l in lines[start:start + len(rows)]]
                    check.check_deficient_witness(rows, matrix)
                return
            expected = ("holds" if holds else "fails") if kind == "ssc" else (
                "holds" if holds else "inconclusive")
            codes = {"holds": 0, "fails": 1, "inconclusive": 2}
            _require(code == codes[expected], f"exit {code}, planted {expected}")
            _require(f"verdict: {expected}" in out.splitlines(), "verdict line missing")

        return verify


def _cli_failure(result) -> Optional[str]:
    code, out = result
    if code not in (0, 1, 2):
        return f"exit code {code}"
    if "no witness found" in out:
        return "no witness found within budget"
    return None


WORKLOADS = {w.name: w for w in (Structural, Network, Soundness, Cli)}
