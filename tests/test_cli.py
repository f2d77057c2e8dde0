"""End-to-end command-line behaviour: exit codes, reports, JSON output."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from patmat import TextParseError, VertexRangeError, parse_pattern_text
from patmat.cli import _parse_vertex_list, run
from patmat.oracles import OracleResult

from helpers import DATA_DIR, fig1_graph_text


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def drop_timing(text: str) -> str:
    return re.sub(r'\s*"timing_seconds": [0-9.e-]+,?', "", text)


def data_argv(argv):
    """argv with each pattern and graph file name resolved in DATA_DIR."""
    return [str(DATA_DIR / a) if a.endswith((".pat", ".graph")) else a for a in argv]


class TestRankCommand:
    def test_full_rank_exits_zero(self, write, capsys):
        # a file saved with a UTF-8 byte-order mark reads the same
        for text in ("* 0\n? *\n", "\ufeff* 0\n? *\n"):
            assert run(["rank", write("a.pat", text)]) == 0
            out = capsys.readouterr().out
            assert "full row rank" in out

    def test_all_star_reports_all_ones_witness(self, write, tmp_path, capsys):
        path = write("a.pat", "* *\n* *\n")
        report = str(tmp_path / "report.json")
        assert run(["rank", path, "--json", report]) == 1
        payload = json.loads(Path(report).read_text())
        assert payload["schema_version"] == "1"
        assert payload["result"]["full_rank"] is False
        assert payload["result"]["witness"] == [["1", "1"], ["1", "1"]]
        assert payload["result"]["null_vector"] == [1, -1]
        out = capsys.readouterr().out
        assert "not full row rank" in out
        # the null vector follows the member's rows
        lines = out.splitlines()
        start = lines.index("rank-deficient member:") + 1
        assert lines[start:] == ["1 1", "1 1", "left null vector: 1 -1"]

    def test_full_rank_json_has_no_null_vector(self, write, tmp_path):
        report = str(tmp_path / "report.json")
        assert run(["rank", write("a.pat", "* 0\n? *\n"), "--json", report]) == 0
        result = json.loads(Path(report).read_text())["result"]
        assert result["witness"] is None and result["null_vector"] is None

    def test_missing_file_is_input_error(self):
        assert run(["rank", "/nonexistent/x.pat"]) == 3

    def test_malformed_pattern_is_input_error(self, write):
        path = write("bad.pat", "* x\n")
        assert run(["rank", path]) == 3

    def test_seed_is_a_usage_error(self, write):
        path = write("a.pat", "* 0\n? *\n")
        assert run(["rank", path, "--seed", "7"]) == 3


class TestAlgebraCommands:
    def test_mul_outer_product(self, write, capsys):
        col = write("col.pat", "*\n*\n")
        row = write("row.pat", "* *\n")
        assert run(["mul", col, row]) == 0
        assert capsys.readouterr().out.strip() == "* *\n* *"

    def test_add_shape_mismatch_is_input_error(self, write, capsys):
        a = write("a.pat", "* 0\n")
        b = write("b.pat", "*\n*\n")
        assert run(["add", a, b]) == 3
        assert "error" in capsys.readouterr().err

    def test_add_writes_json(self, write, tmp_path):
        a = write("a.pat", "* 0\n")
        b = write("b.pat", "* *\n")
        report = str(tmp_path / "sum.json")
        assert run(["add", a, b, "--json", report]) == 0
        payload = json.loads(Path(report).read_text())
        assert payload["result"]["pattern"] == ["? *"]


class TestSystemCommands:
    def test_ssc_holds(self, write):
        a = write("a.pat", "0 0\n* 0\n")
        b = write("b.pat", "*\n0\n")
        assert run(["ssc", a, b]) == 0

    def test_ssc_fails(self, write):
        a = write("a.pat", "* 0\n0 *\n")
        b = write("b.pat", "0\n0\n")
        assert run(["ssc", a, b]) == 1

    def test_descriptor_inconclusive(self, write):
        e = write("e.pat", "* 0\n0 0\n")
        a = write("a.pat", "0 0\n0 *\n")
        b = write("b.pat", "0\n0\n")
        assert run(["descriptor", e, a, b]) == 2

    def test_descriptor_holds(self, write):
        e = write("e.pat", "* 0\n0 0\n")
        a = write("a.pat", "0 0\n0 *\n")
        b = write("b.pat", "*\n*\n")
        assert run(["descriptor", e, a, b]) == 0

    def test_iso_exit_codes(self, write):
        a = write("a.pat", "0\n")
        b = write("b.pat", "0\n")
        c1 = write("c1.pat", "*\n")
        d1 = write("d1.pat", "*\n")
        assert run(["iso", a, b, c1, d1]) == 1
        c2 = write("c2.pat", "*\n0\n")
        d2 = write("d2.pat", "0\n*\n")
        assert run(["iso", a, b, c2, d2]) == 0

    def test_output_ctrl_holds_and_inconclusive(self, write):
        a = write("a.pat", "? ?\n? ?\n")
        b = write("b.pat", "?\n?\n")
        c = write("c.pat", "? ?\n")
        d_star = write("d1.pat", "*\n")
        assert run(["output-ctrl", a, b, c, d_star]) == 0
        a2 = write("a2.pat", "* 0\n0 *\n")
        b2 = write("b2.pat", "*\n*\n")
        c2 = write("c2.pat", "* *\n")
        d_zero = write("d2.pat", "0\n")
        assert run(["output-ctrl", a2, b2, c2, d_zero]) == 2


class TestTargetCommand:
    def test_figure_one_network_holds(self, write, capsys):
        for bom in ("", "\ufeff"):
            graph = write("fig1.graph", bom + fig1_graph_text())
            assert run(["target", graph, "--leaders", "1,2", "--targets", "1-7"]) == 0
            out = capsys.readouterr().out
            assert "verdict: holds" in out

    def test_vertex_list_variants(self, write):
        graph = write("g.graph", "n 4\n1 2\n2 3\n3 4\n")
        assert run(["target", graph, "--leaders", "1", "--targets", "1,3-4"]) in (0, 2)

    def test_bad_vertex_list_is_input_error(self, write):
        graph = write("g.graph", "n 4\n1 2\n")
        assert run(["target", graph, "--leaders", "zero", "--targets", "1"]) == 3

    def test_out_of_range_target_is_input_error(self, write):
        graph = write("g.graph", "n 4\n1 2\n")
        assert run(["target", graph, "--leaders", "1", "--targets", "5"]) == 3

    def test_oversized_range_is_rejected_before_expansion(self, write):
        with pytest.raises(VertexRangeError):
            _parse_vertex_list("1-1000000000", 9)
        graph = write("fig1.graph", fig1_graph_text())
        assert run(["target", graph, "--leaders", "1-1000000000", "--targets", "1"]) == 3

    def test_empty_list_pieces_are_skipped(self):
        assert _parse_vertex_list("1,,2", 9) == (0, 1)

    @pytest.mark.parametrize(
        "text, match",
        [("5-3", "empty vertex range '5-3'"), (",", "empty vertex list ','")],
    )
    def test_empty_ranges_and_lists_are_rejected(self, text, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            _parse_vertex_list(text, 9)

    def test_parser_warnings_print_as_stable_lines_on_every_run(self, write, capsys):
        # the suite turns warnings into errors, so this also shows that a
        # warning neither raises nor ends the command
        graph = write("g.graph", "n 3\n1 2\n2 2\n1 2\n2 3\n")
        for _ in range(2):
            assert run(["target", graph, "--leaders", "1", "--targets", "1-3"]) == 0
            captured = capsys.readouterr()
            assert captured.err == (
                "warning: line 3: self-loop (2, 2) has no effect on the"
                " qualitative pattern (diagonal entries are already ?)\n"
                "warning: line 4: duplicate edge (1, 2)\n"
            )
            assert "verdict: holds" in captured.out

    def test_warnings_before_a_parse_error_are_printed(self, write, capsys):
        graph = write("g.graph", "n 2\n1 1\n1 x\n")
        assert run(["target", graph, "--leaders", "1", "--targets", "1"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("warning: line 2: self-loop (1, 1)")
        assert err[1] == "error: line 3: edge endpoints are not integers: '1 x'"


class TestOracleCommand:
    def test_minkowski_reports_all_trials(self, write, capsys):
        a = write("a.pat", "* ?\n0 *\n")
        b = write("b.pat", "? 0\n* *\n")
        assert run(["oracle", "minkowski", a, b, "--trials", "50"]) == 0
        assert "50/50" in capsys.readouterr().out

    def test_pencil_oracle(self, write, capsys):
        a = write("a.pat", "* 0\n")
        b = write("b.pat", "0 *\n")
        assert run(["oracle", "pencil", a, b, "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "full rank" in out

    def test_rank_oracle(self, write):
        p = write("p.pat", "* 0\n? *\n")
        assert run(["oracle", "rank", p, "--trials", "30"]) == 0

    @pytest.mark.parametrize("argv", [["rank"], ["oracle", "rank"]])
    def test_deficient_rank_runs_one_elimination(self, write, eliminations, argv):
        # the verdict, its witness and its null vector come from one run
        p = write("p.pat", "* ? 0\n* ? *\n0 0 *\n")
        assert run([*argv, p]) == (1 if argv == ["rank"] else 0)
        assert len(eliminations) == 1

    @pytest.mark.parametrize("b_text", ["0 0 0\n0 0 0\n", "0 0 *\n0 0 0\n"])
    def test_pencil_runs_one_elimination(self, write, eliminations, b_text):
        # deficient (A + B = A) or full rank: one run decides the verdict
        a = write("a.pat", "* ? 0\n* ? 0\n")
        b = write("b.pat", b_text)
        assert run(["oracle", "pencil", a, b, "--trials", "3"]) == 0
        assert len(eliminations) == 1

    def test_pencil_shape_mismatch_is_input_error(self, write, capsys):
        a = write("a.pat", "* 0\n")
        b = write("b.pat", "*\n0\n")
        assert run(["oracle", "pencil", a, b]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: pencil patterns differ: 1x2 vs 2x1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("prop, files", [("minkowski", 2), ("rank", 1)])
    def test_tol_is_refused_where_it_does_nothing(self, write, capsys, prop, files):
        p = write("p.pat", "* 0\n? *\n")
        assert run(["oracle", prop, *[p] * files, "--tol", "0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: oracle {prop} takes no --tol\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "prop, files", [("minkowski", 2), ("pencil", 2), ("rank", 1)]
    )
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_input_error(
        self, tmp_path, capsys, prop, files, trials
    ):
        # refused before any pattern file is read: these files do not exist
        missing = [str(tmp_path / f"missing{k}.pat") for k in range(files)]
        assert run(["oracle", prop, *missing, "--trials", trials]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: --trials must be at least 1\n"
        assert captured.out == ""

    def test_pencil_report_records_tol(self, write, tmp_path):
        a = write("a.pat", "* 0\n")
        b = write("b.pat", "0 *\n")
        report = tmp_path / "r.json"
        argv = ["oracle", "pencil", a, b, "--trials", "5", "--json", str(report)]
        assert run(argv + ["--tol", "1e-6"]) == 0
        options = json.loads(report.read_text())["options"]
        assert options == {"trials": 5, "seed": 0, "tol": 1e-6}
        assert run(argv) == 0
        assert json.loads(report.read_text())["options"]["tol"] == 1e-9

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_outside_zero_to_inf_is_input_error(self, tmp_path, capsys, tol):
        # refused before any pattern file is read: these files do not exist
        missing = [str(tmp_path / f"missing{k}.pat") for k in range(2)]
        report = tmp_path / "r.json"
        argv = ["oracle", "pencil", *missing, "--tol", tol, "--json", str(report)]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: --tol must be finite and at least 0\n"
        assert captured.out == ""
        assert not report.exists()

    def test_failing_oracle_prints_its_counterexample(
        self, write, tmp_path, capsys, monkeypatch
    ):
        counterexample = {"trial": 1, "member": [["1/2"]]}

        def failing(pattern, trials, seed):
            return OracleResult("rank", trials, trials - 1, counterexample, "2 of 3")

        monkeypatch.setattr("patmat.oracles.rank_soundness", failing)
        report = tmp_path / "r.json"
        argv = ["oracle", "rank", write("p.pat", "*\n"), "--trials", "3"]
        assert run([*argv, "--json", str(report)]) == 1
        assert capsys.readouterr().out == (
            "2 of 3\ncounterexample: {'trial': 1, 'member': [['1/2']]}\n"
        )
        assert json.loads(report.read_text())["result"] == {
            "name": "rank",
            "trials": 3,
            "passes": 2,
            "ok": False,
            "counterexample": counterexample,
            "detail": "2 of 3",
        }

    def test_wrong_arity_is_input_error(self, write, capsys):
        p = write("p.pat", "*\n")
        assert run(["oracle", "minkowski", p]) == 3
        assert capsys.readouterr().err == (
            "error: oracle minkowski needs two pattern files\n"
        )
        assert run(["oracle", "rank", p, p]) == 3
        assert capsys.readouterr().err == "error: oracle rank needs one pattern file\n"


class TestJsonDeterminism:
    def test_same_command_same_bytes_modulo_timing(self, write, tmp_path):
        a = write("a.pat", "* *\n* ?\n")
        first = str(tmp_path / "one.json")
        second = str(tmp_path / "two.json")
        assert run(["rank", a, "--json", first]) == 1
        assert run(["rank", a, "--json", second]) == 1
        text1 = drop_timing(Path(first).read_text())
        text2 = drop_timing(Path(second).read_text())
        assert text1 == text2
        payload = json.loads(Path(first).read_text())
        assert "timing_seconds" in payload

    def test_witness_entries_are_rational_strings(self, write, tmp_path):
        a = write("a.pat", "* *\n* ?\n")
        report = str(tmp_path / "r.json")
        run(["rank", a, "--json", report])
        payload = json.loads(Path(report).read_text())
        witness = payload["result"]["witness"]
        assert witness is not None
        for row in witness:
            for cell in row:
                assert isinstance(cell, str)
                assert re.fullmatch(r"-?\d+(/\d+)?", cell)


class TestCompareScript:
    def test_script_finds_its_own_tree_identical(self):
        # the random CLI comparison against another tree, run on this one
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "tests/compare_cli.py", str(root), "--count", "20"],
            cwd=root, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.startswith("20 commands identical")


class TestImportPath:
    def test_decision_commands_run_without_numpy(self, write):
        a = write("a.pat", "* *\n* *\n")
        b = write("b.pat", "*\n0\n")
        graph = write("fig1.graph", fig1_graph_text())
        code = (
            "import sys, patmat, patmat.cli\n"
            f"patmat.cli.run(['rank', {a!r}])\n"
            f"patmat.cli.run(['ssc', {a!r}, {b!r}])\n"
            f"patmat.cli.run(['target', {graph!r}, '--leaders', '1,2', '--targets', '1-7'])\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

    def test_sampling_oracles_run_without_numpy(self, write):
        a = write("a.pat", "* 0\n? *\n")
        b = write("b.pat", "0 *\n* 0\n")
        code = (
            "import sys, patmat.cli\n"
            "from patmat import StructuredIOSystem, parse_pattern_text as P\n"
            "from patmat.oracles import iso_stacked_rank_check\n"
            "system = StructuredIOSystem(P('*'), P('*'), P('*'), P('0'))\n"
            "assert iso_stacked_rank_check(system, members=3, lam_count=3).ok\n"
            f"assert patmat.cli.run(['oracle', 'pencil', {a!r}, {b!r}, '--trials', '3']) == 0\n"
            f"assert patmat.cli.run(['oracle', 'rank', {a!r}, '--trials', '3']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

    # (argv, exit status, which of WATCHED the command loads), on the
    # golden inputs; argv None is a bare `import patmat`.  Only a witness,
    # here the stalled rank pattern's, needs realization.
    WATCHED = (
        "patmat.realization", "patmat.systems", "patmat.network", "patmat.oracles",
        "json",
    )
    LOADS = {
        "import": (None, 0, []),
        "rank": (["rank", "stall.pat"], 1, ["patmat.realization"]),
        "add": (["add", "ssc_a.pat", "ssc_a.pat"], 0, []),
        "mul": (["mul", "mul_left.pat", "mul_right.pat"], 0, []),
        "ssc": (["ssc", "ssc_a.pat", "ssc_b.pat"], 0, ["patmat.systems"]),
        "descriptor": (
            ["descriptor", "descriptor_e.pat", "ssc_fail_a.pat", "ssc_fail_b.pat"],
            2,
            ["patmat.systems"],
        ),
        "iso": (
            ["iso", "io_a.pat", "io_b.pat", "io_c.pat", "io_d.pat"],
            1,
            ["patmat.systems"],
        ),
        "output-ctrl": (
            ["output-ctrl", "io_a.pat", "io_b.pat", "io_c.pat", "io_d.pat"],
            2,
            ["patmat.systems"],
        ),
        "target": (
            ["target", "fig1.graph", "--leaders", "1,2", "--targets", "1-7"],
            0,
            ["patmat.systems", "patmat.network"],
        ),
        "oracle": (
            ["oracle", "rank", "mul_right.pat", "--trials", "3"],
            0,
            ["patmat.realization", "patmat.systems", "patmat.oracles"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(LOADS))
    def test_each_subcommand_loads_only_what_it_runs(self, case):
        # a fresh process per command, so that no command relies on a
        # module another one loaded
        argv, status, loaded = self.LOADS[case]
        if argv is None:
            code = "import patmat\nstatus = 0\n"
        else:
            code = f"from patmat.cli import run\nstatus = run({data_argv(argv)!r})\n"
        code += (
            "import sys\n"
            "print(status, sorted(m for m in sys.modules"
            " if m.startswith('patmat.') or m == 'json'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        exit_text, _, modules = done.stdout.splitlines()[-1].partition(" ")
        modules = ast.literal_eval(modules)
        assert int(exit_text) == status
        assert [m for m in self.WATCHED if m in modules] == loaded
        if argv is None:
            assert modules == []


class TestGoldenJson:
    """JSON reports pinned byte for byte, modulo timing_seconds; the input
    paths are compared by file name."""

    CASES = {
        "rank": ["rank", "stall.pat"],
        "ssc": ["ssc", "ssc_a.pat", "ssc_b.pat"],
        "mul": ["mul", "mul_left.pat", "mul_right.pat"],
        "target": ["target", "fig1.graph", "--leaders", "1,2", "--targets", "1-7"],
        # narrow prefixes, a late pivot that frees an earlier column, and a
        # stall residual at every power
        "target_inconclusive": [
            "target", "twins.graph", "--leaders", "1,4", "--targets", "2,3,5-7"
        ],
        # sampling oracles: their pass counts depend on the sampled members
        "oracle_minkowski": [
            "oracle", "minkowski", "mul_right.pat", "ssc_a.pat",
            "--trials", "30", "--seed", "11",
        ],
        "oracle_rank": [
            "oracle", "rank", "mul_right.pat", "--trials", "30", "--seed", "11"
        ],
        "oracle_pencil": [
            "oracle", "pencil", "pencil_a.pat", "pencil_b.pat",
            "--trials", "10", "--seed", "11",
        ],
        # a deficient pencil: one exact witness at lambda = -1, no sampling
        "oracle_pencil_deficient": [
            "oracle", "pencil", "pencil_deficient_a.pat", "pencil_deficient_b.pat",
            "--trials", "10", "--seed", "11",
        ],
        # failing and inconclusive system reports: stalled conditions with
        # their residuals, column residuals (ISO) read in transposed order
        "ssc_fails": ["ssc", "ssc_fail_a.pat", "ssc_fail_b.pat"],
        "descriptor_inconclusive": [
            "descriptor", "descriptor_e.pat", "ssc_fail_a.pat", "ssc_fail_b.pat"
        ],
        "iso_fails": ["iso", "io_a.pat", "io_b.pat", "io_c.pat", "io_d.pat"],
        "output_ctrl_inconclusive": [
            "output-ctrl", "io_a.pat", "io_b.pat", "io_c.pat", "io_d.pat"
        ],
        # more rows than columns: no residual, a witness from the full run
        "rank_tall": ["rank", "tall.pat"],
    }
    EXIT = {
        "rank": 1, "ssc": 0, "mul": 0, "target": 0, "target_inconclusive": 2,
        "oracle_minkowski": 0, "oracle_rank": 0, "oracle_pencil": 0,
        "oracle_pencil_deficient": 0, "ssc_fails": 1, "descriptor_inconclusive": 2,
        "iso_fails": 1, "output_ctrl_inconclusive": 2, "rank_tall": 1,
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_matches_golden(self, name, tmp_path, capsys):
        argv = data_argv(self.CASES[name])
        report = tmp_path / "report.json"
        assert run(argv + ["--json", str(report)]) == self.EXIT[name]
        payload = json.loads(report.read_text())
        assert isinstance(payload.pop("timing_seconds"), float)

        def name_only(v):
            if isinstance(v, list):
                return [name_only(x) for x in v]
            return Path(v).name if v.endswith((".pat", ".graph")) else v

        payload["inputs"] = {k: name_only(v) for k, v in payload["inputs"].items()}
        golden = json.loads((DATA_DIR / "golden" / f"{name}.json").read_text())
        assert payload == golden

    @pytest.mark.parametrize(
        "name", ["rank", "target_inconclusive", "output_ctrl_inconclusive"]
    )
    def test_text_report_builds_no_json(self, name, tmp_path, capsys, monkeypatch):
        argv = data_argv(self.CASES[name])
        assert run(argv + ["--json", str(tmp_path / "report.json")]) == self.EXIT[name]
        expected = capsys.readouterr()

        def refuse(*args):
            raise AssertionError("a JSON result was built without --json")

        monkeypatch.setattr("patmat.cli._rank_verdict_json", refuse)
        assert run(argv) == self.EXIT[name]
        assert capsys.readouterr() == expected

    def test_bad_token_message_and_line(self, write, capsys):
        text = "* 0\n\n# c\n* x ?\n"
        with pytest.raises(TextParseError) as info:
            parse_pattern_text(text)
        assert str(info.value) == "line 4: not a pattern symbol: 'x'"
        assert info.value.line_number == 4
        assert run(["rank", write("bad.pat", text)]) == 3
        assert capsys.readouterr().err == "error: line 4: not a pattern symbol: 'x'\n"


class TestUsageErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 3

    @pytest.mark.parametrize(
        "command",
        ["add", "mul", "rank", "ssc", "descriptor", "iso", "output-ctrl",
         "target", "oracle"],
    )
    def test_help_exits_zero(self, command, capsys):
        assert run([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: patmat {command} ")

    def test_unwritable_json_path_is_input_error(self, write, tmp_path, capsys):
        path = write("a.pat", "* 0\n? *\n")
        report = str(tmp_path / "missing" / "report.json")
        assert run(["rank", path, "--json", report]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("full row rank; pivots: ")
        assert captured.err.startswith("error: ")
        assert "report.json" in captured.err

    def test_console_entry_point(self, tmp_path):
        pattern = tmp_path / "p.pat"
        pattern.write_text("* 0\n? *\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "patmat.cli", "rank", str(pattern)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "full row rank" in proc.stdout
