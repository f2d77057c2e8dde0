"""Compare the command-line behaviour of this tree with another patmat tree.

Writes random pattern and graph files, then runs the same random commands
through patmat.cli.run in two child processes, one per tree, each with
that tree's src on PYTHONPATH.  The commands cover every subcommand, JSON
reports and input errors.  For each command it compares the exit code,
stdout, stderr and the JSON report less its timing_seconds.  It uses the
standard library alone:

    python tests/compare_cli.py OTHER_ROOT [--count N] [--seed S]

It prints the first difference and exits with status 1 if there is any.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in each child: reads the commands, runs each through cli.run with
# stdout and stderr captured, and prints one JSON list of outcomes.
_CHILD = """
import contextlib, io, json, os, sys
from patmat.cli import run
with open(sys.argv[1], encoding="utf-8") as handle:
    commands = json.load(handle)
report = sys.argv[2]
outcomes = []
for argv in commands:
    if os.path.exists(report):
        os.remove(report)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = run(argv)
        except Exception as exc:  # a crash is an outcome to compare too
            status = f"raised {type(exc).__name__}: {exc}"
    payload = None
    if os.path.exists(report):
        with open(report, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload.pop("timing_seconds", None)
    outcomes.append([status, out.getvalue(), err.getvalue(), payload])
json.dump(outcomes, sys.stdout)
"""


def _pattern_text(rng: random.Random, rows: int, cols: int, sparse: bool) -> str:
    weights = (60, 2, 1) if sparse else rng.choice(((1, 1, 1), (5, 3, 2), (2, 5, 1)))
    return "".join(
        " ".join(rng.choices("0*?", weights=weights, k=cols)) + "\n"
        for _ in range(rows)
    )


def _graph_text(rng: random.Random, n: int) -> str:
    lines = [f"n {n}"]
    for _ in range(rng.randint(0, 2 * n)):
        # self-loops and repeated edges warn; both are kept on purpose
        lines.append(f"{rng.randint(1, n)} {rng.randint(1, n)}")
    return "\n".join(lines) + "\n"


def _vertex_list(rng: random.Random, n: int) -> str:
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(("", "0", f"{n + 1}", "3-1", "x", f"1-{n + 5}"))
    if kind < 0.4:
        lo = rng.randint(1, n)
        return f"{lo}-{rng.randint(lo, n)}"
    return ",".join(str(rng.randint(1, n)) for _ in range(rng.randint(1, 3)))


class _Files:
    """Random input files in one directory, written once and reused."""

    def __init__(self, rng: random.Random, directory: Path):
        self.rng, self.directory, self.count = rng, directory, 0
        self.missing = str(directory / "missing.pat")
        self.bad = self._write(".pat", "* 0\n? x\n")

    def _write(self, suffix: str, text: str) -> str:
        self.count += 1
        path = self.directory / f"f{self.count}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def pattern(self, rows: int, cols: int, sparse: bool = False) -> str:
        """A pattern file of the shape, or now and then a bad one; a sparse
        one is mostly 0, so that large ones have all-0 rows and columns."""
        roll = self.rng.random()
        if roll < 0.03:
            return self.missing
        if roll < 0.06:
            return self.bad
        if roll < 0.1:  # a shape the command may not accept
            rows, cols = self.rng.randint(1, 4), self.rng.randint(1, 4)
        return self._write(".pat", _pattern_text(self.rng, rows, cols, sparse))

    def graph(self, n: int) -> str:
        if self.rng.random() < 0.05:
            return self._write(".graph", "n 2\n1 3\n")
        return self._write(".graph", _graph_text(self.rng, n))


def random_command(rng: random.Random, files: _Files, report: str) -> list:
    """One random argv for patmat.cli.run."""

    def size() -> int:
        return rng.randint(1, 4)

    command = rng.choice((
        "add", "mul", "rank", "rank", "ssc", "descriptor", "iso", "output-ctrl",
        "target", "oracle", "oracle", "usage",
    ))
    if command in ("add", "mul"):
        r, k, c = size(), size(), size()
        sparse = command == "mul" and rng.random() < 0.3
        if sparse:  # products large enough to skip rows and columns
            r, k, c = (rng.randint(1, 30) for _ in range(3))
        right = (k, c) if command == "mul" else (r, k)
        argv = [command, files.pattern(r, k, sparse), files.pattern(*right, sparse)]
    elif command == "rank":
        argv = ["rank", files.pattern(size(), size())]
    elif command in ("ssc", "descriptor"):
        n, m = size(), size()
        square = [files.pattern(n, n)] * (2 if command == "descriptor" else 1)
        argv = [command, *square, files.pattern(n, m)]
    elif command in ("iso", "output-ctrl"):
        n, m, p = size(), size(), size()
        shapes = ((n, n), (n, m), (p, n), (p, m))
        argv = [command, *(files.pattern(*shape) for shape in shapes)]
    elif command == "target":
        n = rng.randint(1, 8)
        argv = [
            "target", files.graph(n),
            "--leaders", _vertex_list(rng, n), "--targets", _vertex_list(rng, n),
        ]
    elif command == "oracle":
        prop = rng.choice(("minkowski", "pencil", "rank"))
        shape = (size(), size())
        count = 1 if prop == "rank" else 2
        if rng.random() < 0.05:
            count = 3 - count
        argv = ["oracle", prop, *(files.pattern(*shape) for _ in range(count))]
        argv += ["--trials", str(rng.choice((-1, 0, 1, 3, 10, 20)))]
        if rng.random() < 0.5:
            argv += ["--seed", str(rng.randint(0, 99))]
        if rng.random() < 0.3 or prop == "pencil" and rng.random() < 0.5:
            argv += ["--tol", rng.choice(("0", "1e-6", "0.5", "-1", "nan", "inf"))]
    else:  # usage errors and help, which write no report
        return rng.choice((
            [], ["frobnicate"], ["rank"], ["rank", "--help"], ["--help"],
            ["rank", files.pattern(2, 2), "--seed", "1"],
        ))
    if rng.random() < 0.5:
        argv += ["--json", report]
    return argv


def run_tree(root: Path, commands_path: str, report: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, commands_path, report],
        capture_output=True, text=True, env=env, cwd=root,
    )
    if done.returncode != 0:
        raise SystemExit(f"child for {root} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_root", type=Path)
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        report = str(directory / "report.json")
        files = _Files(rng, directory)
        commands = [random_command(rng, files, report) for _ in range(args.count)]
        commands_path = directory / "commands.json"
        commands_path.write_text(json.dumps(commands), encoding="utf-8")
        here = run_tree(ROOT, str(commands_path), report)
        there = run_tree(args.other_root.resolve(), str(commands_path), report)
    fields = ("exit code", "stdout", "stderr", "JSON")
    statuses = {}
    for argv, mine, theirs in zip(commands, here, there):
        for field, a, b in zip(fields, mine, theirs):
            if a != b:
                print(f"difference in {field} of {argv}:")
                print(f"  this tree:  {a!r}")
                print(f"  other tree: {b!r}")
                return 1
        statuses[str(mine[0])] = statuses.get(str(mine[0]), 0) + 1
    tally = ", ".join(f"{n} exit {s}" for s, n in sorted(statuses.items()))
    print(f"{len(commands)} commands identical ({tally})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
