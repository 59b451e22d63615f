import contextlib
import importlib.util
from fractions import Fraction
import io
import json
import os
import re
import subprocess
import sys
import time
from unittest import mock

import pytest
from cli_oracle import _build_parser, oracle_parse
from hn_oracle import hn_problems
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pretty_oracle import pretty_text, record_json
from strata_oracle import stratum_records_per_call

import quivermoduli.cli as cli_module
import quivermoduli.strata as strata_module
from quivermoduli import (
    DimVector,
    InternalCheckError,
    LunaType,
    Stability,
    StratumRecord,
    generic_deformation,
    normalize_stability,
    stratum_records,
)
from quivermoduli.catalog import FAMILIES, example_from_spec
from quivermoduli.cli import (
    COMMAND_TABLE,
    PROBLEM_KEYS,
    ProblemSpec,
    _help_text,
    _json_text,
    _parse_argv,
    _pretty_lines,
    _Rows,
    load_problem,
    main,
)
from quivermoduli.core import DEFAULT_MAX_BOX, Quiver
from quivermoduli.errors import QuiverModuliError

SRC = os.path.dirname(os.path.dirname(os.path.abspath(strata_module.__file__)))

KRONECKER2_PROBLEM = {
    "vertices": ["i", "j"],
    "arrows": [[0, 2], [0, 0]],
    "dimension": [1, 1],
    "stability": [1, -1],
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    payload = json.loads(out) if out else None
    return code, payload, err


def run_stdin_json(capsys, monkeypatch, argv, problem):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(problem)))
    return run_json(capsys, argv + ["-"])


class TestExamplesAndInfo:
    def test_examples_lists_families(self, capsys):
        code, payload, _ = run_json(capsys, ["examples"])
        assert code == 0
        names = {fam["name"] for fam in payload["families"]}
        assert {"determinantal", "points", "levi_adjoint", "bipartite", "kronecker_general"} <= names

    def test_info(self, capsys):
        code, payload, _ = run_json(capsys, ["info", "--example", "determinantal:2,1"])
        assert code == 0
        assert payload["skew_rank"] == 0
        assert payload["kernel_symmetric"] is True
        assert payload["indivisible"] is True
        assert payload["coprime"] is False
        assert payload["expected_dim"] == 3

    def test_info_pretty_key_order(self, capsys):
        code, out, _ = run(capsys, ["info", "--example", "determinantal:2,1"])
        assert code == 0
        assert [line.partition(":")[0] for line in out.splitlines()] == [
            "vertices", "dimension", "stability", "normalized_stability", "euler_matrix",
            "skew_rank", "kernel_symmetric", "indivisible", "coprime", "slope", "expected_dim",
        ]

    def test_info_box_guard_before_forms(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("computed before the box guard")

        monkeypatch.setattr("quivermoduli.cli.skew_rank", refuse)
        monkeypatch.setattr("quivermoduli.cli.symmetric_on_kernel", refuse)
        monkeypatch.setattr(Quiver, "euler_matrix", refuse)
        code, out, err = run(capsys, ["info", "--example", "levi_adjoint:40"])
        assert code == 2 and out == ""
        assert err.startswith("error: precondition:") and "--max-box" in err

    @pytest.mark.parametrize(
        "spec", ["levi_adjoint:2000", "levi_adjoint:1000000000", "points:2000,3", "levi_adjoint:20"]
    )
    def test_example_box_guard_before_build(self, capsys, monkeypatch, spec):
        def refuse(*args):
            raise AssertionError("quiver built before the box guard")

        monkeypatch.setattr("quivermoduli.catalog.Quiver", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, ["info", "--example", spec])
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: precondition: enumeration needs more box cells")
        assert "--max-box" in err

    def test_example_box_guard_follows_max_box(self, capsys):
        # levi_adjoint:3 has 8 box cells: refused under 7, answered at 8
        assert run(capsys, ["info", "--example", "levi_adjoint:3", "--max-box", "7"])[0] == 2
        assert run(capsys, ["info", "--example", "levi_adjoint:3", "--max-box", "8"])[0] == 0

    def test_example_parameters_checked_before_the_guard(self, capsys):
        code, out, err = run(capsys, ["info", "--example", "points:2000,1"])
        assert code == 1 and out == ""
        assert err == "error: input: point_configurations needs m >= 1 and d >= 2\n"


class TestIc:
    def test_determinantal_json(self, capsys):
        code, payload, _ = run_json(capsys, ["ic", "--example", "determinantal:2,1"])
        assert code == 0
        assert payload["result"]["v_powers"] == {"4": "1", "6": "1"}
        assert payload["routes_agree"] is True

    # Rungs out of reach of a sum over ordered decompositions. (P^1)^5 // SL_2
    # at the symmetric stability is the degree-5 del Pezzo surface, whose
    # Betti numbers are 1, 5, 1; points:6,3 is pinned at the value both
    # routes give.
    @pytest.mark.parametrize(
        "spec, v_powers",
        [
            ("points:5,2", {"0": "1", "2": "5", "4": "1"}),
            ("points:6,3", {"0": "1", "2": "6", "4": "7", "6": "6", "8": "1"}),
        ],
    )
    def test_points_rungs(self, capsys, spec, v_powers):
        code, payload, _ = run_json(capsys, ["ic", "--example", spec])
        assert code == 0
        assert payload["result"]["v_powers"] == v_powers
        assert payload["routes_agree"] is True

    # Rungs out of reach of the series-log oracle: the DT route is checked
    # against the independent resolution route at full size.
    @pytest.mark.parametrize("spec", ["levi_adjoint:7", "determinantal:8,8"])
    def test_large_rungs_routes_agree(self, capsys, spec):
        code, out, _ = run(capsys, ["ic", "--example", spec, "--json"])
        assert code == 0
        assert '"routes_agree": true' in out

    def test_pretty_output(self, capsys):
        code, out, _ = run(capsys, ["ic", "--example", "determinantal:2,1"])
        assert code == 0
        assert "q^2 + q^3" in out


class TestExitCodes:
    def test_betti_not_coprime_is_precondition_error(self, capsys):
        code, out, err = run(capsys, ["betti", "--example", "determinantal:2,1"])
        assert code == 2
        assert "not coprime" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, ["info", str(bad)])
        assert code == 1
        assert err.startswith("error: input:")

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, ["info"])
        assert code == 1

    def test_input_and_example_refused_together(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(KRONECKER2_PROBLEM), encoding="utf-8")
        code, out, err = run(capsys, ["info", str(problem), "--example", "levi_adjoint:2"])
        assert (code, out) == (1, "")
        assert err == "error: input: give either an input file or --example, not both\n"

    def test_empty_example_spec_is_read(self, capsys):
        code, out, err = run(capsys, ["info", "--example", ""])
        assert code == 1 and out == ""
        assert err == "error: input: example must look like family:p1,p2,...\n"

    def test_empty_input_path_is_opened(self, capsys):
        code, out, err = run(capsys, ["info", ""])
        assert code == 1 and out == ""
        assert err.startswith("error: input: ") and err.count("\n") == 1
        assert err.endswith("No such file or directory: ''\n")

    @pytest.mark.parametrize("argv", [["examples", ""], ["examples", "--example", ""]])
    def test_examples_refuses_an_empty_input_or_example(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == (
            "error: input: examples takes no input, --example, --abelianize or --assume-nonempty\n"
        )

    def test_shape_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"arrows": [[0, 1]], "dimension": [1], "stability": [0]}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, ["info", str(bad)])
        assert code == 1

    def test_unknown_field_is_refused(self, capsys, monkeypatch):
        problem = dict(KRONECKER2_PROBLEM, deformed_stabilty=[1, -1])
        code, out, err = run_stdin_json(capsys, monkeypatch, ["ic"], problem)
        assert code == 1 and out is None
        assert err.startswith("error: input: ") and err.count("\n") == 1
        assert "deformed_stabilty" in err

    @pytest.mark.parametrize("key", ["vertices", "deformed_stability", "assume_nonempty"])
    def test_null_optional_key_reads_as_absent(self, capsys, monkeypatch, key):
        problem = {"arrows": [[0, 1], [0, 0]], "dimension": [1, 1], "stability": [0, 0]}
        for command in COMMAND_TABLE.keys() - {"examples"}:
            without = run_stdin_json(capsys, monkeypatch, [command], problem)
            with_null = run_stdin_json(capsys, monkeypatch, [command], dict(problem, **{key: None}))
            assert with_null == without, command

    def test_deeply_nested_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
        code, out, err = run(capsys, ["info", "-"])
        assert code == 1 and out == ""
        assert err == "error: input: problem description is nested too deeply\n"

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_wrong_typed_values_exit_1_with_one_line(self, data):
        # every known key, given a JSON value of a type it never takes, is an input error
        problem = dict(KRONECKER2_PROBLEM, deformed_stability=[2, -1], assume_nonempty=False)
        keys = data.draw(st.lists(st.sampled_from(PROBLEM_KEYS), min_size=1, unique=True))
        for key in keys:
            problem[key] = data.draw(_wrong_value(key), label=key)
        stdin, stdout, stderr = io.StringIO(json.dumps(problem)), io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(stdout):
            with contextlib.redirect_stderr(stderr):
                code = main(["info", "-", "--json"])
        err = stderr.getvalue()
        assert (code, stdout.getvalue()) == (1, "")
        assert err.startswith("error: input: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_key_error_in_a_handler_is_no_input_error(self, capsys, monkeypatch):
        # a KeyError inside the engine is a defect, not bad input: it is not
        # reported on the "error: input:" line with exit 1
        def handler(problem, max_box):
            raise KeyError("engine")

        monkeypatch.setitem(COMMAND_TABLE, "info", (handler, COMMAND_TABLE["info"][1]))
        with pytest.raises(KeyError, match="engine"):
            main(["info", "--example", "levi_adjoint:2"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_box_must_be_positive(self, capsys, value):
        code, out, err = run(capsys, ["info", "--example", "levi_adjoint:2", f"--max-box={value}"])
        assert code == 1 and out == ""
        assert err.startswith("error: input: ") and err.count("\n") == 1
        assert "--max-box" in err

    def test_box_guard(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(KRONECKER2_PROBLEM), encoding="utf-8")
        code, _, err = run(capsys, ["betti", str(problem), "--max-box", "2"])
        assert code == 2
        assert "--max-box" in err

    def test_abelianize_guarded_before_the_split(self, capsys, monkeypatch):
        # the split quiver would have 3000 vertices and 2^3000 box cells
        problem = {"arrows": [[0]], "dimension": [3000], "stability": [0]}
        start = time.perf_counter()
        code, out, err = run_stdin_json(capsys, monkeypatch, ["info", "--abelianize"], problem)
        assert time.perf_counter() - start < 1
        assert code == 2 and out is None and err.count("\n") == 1
        assert err == (
            "error: precondition: enumeration needs more box cells than the guard allows "
            "(1000000); raise the guard (--max-box) if this size is intended\n"
        )


_LONG_NAMES = ["--help", "--example", "--abelianize", "--assume-nonempty", "--json", "--max-box"]
_OPTION_WORDS = st.sampled_from(_LONG_NAMES).flatmap(
    lambda name: st.sampled_from([name[:k] for k in range(3, len(name) + 1)])
)
_VALUES = st.sampled_from(["5", "0", "-5", "many", "", "levi_adjoint:2", "-"])
# argv tokens: commands, operands, long option names and their prefixes (so
# "--a" is ambiguous), their =value forms, -h, --, values and unknown options;
# -h carries no value here, since argparse releases disagree on "-hx"
_ARGV_TOKENS = st.one_of(
    st.sampled_from([*COMMAND_TABLE, "nonsense", "-", "p.json", "--", "-h", "-x", "--bogus"]),
    _OPTION_WORDS,
    st.builds("{}={}".format, _OPTION_WORDS, _VALUES),
    _VALUES,
)


class TestParser:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        names = ["info", "deform", "pd", "betti", "dt", "ic", "strata", "smallness", "examples"]
        assert list(COMMAND_TABLE) == names
        for name, (_, text) in COMMAND_TABLE.items():
            assert re.search(rf"^  {name} +{re.escape(text)}$", out, re.M)

    def test_reused_parser_gives_each_call_its_defaults(self, capsys):
        argv = ["info", "--example", "points:3,2"]  # 24 box cells
        _build_parser.cache_clear()
        fresh, oracle = run(capsys, argv), oracle_parse(argv)
        assert fresh[0] == 0 and "dimension: [1, 1, 1, 2]" in fresh[1]
        options = ["--json", "--max-box", "5", "--abelianize"]
        first = run(capsys, ["info", "--example", "kronecker_general:2,2"] + options)
        assert first[0] == 0 and json.loads(first[1])["dimension"] == [1, 1]
        assert oracle_parse(["info", "--example", "kronecker_general:2,2"] + options)[0] == "ok"
        # neither the CLI nor the shared oracle parser keeps an earlier call's options
        assert run(capsys, argv) == fresh
        assert oracle_parse(argv) == oracle

    def test_usage_error_leaves_parser_intact(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(KRONECKER2_PROBLEM), encoding="utf-8")
        argv = ["--json", "strata", str(problem), "--max-box", "50"]
        before = run(capsys, argv)
        assert before[0] == 0
        for bad in (["info", "--max-box", "many"], ["nonsense", "-"], ["examples", "-"], []):
            assert run(capsys, bad)[0] == 1
            assert run(capsys, argv) == before

    def test_help_matches_a_fresh_parser(self, capsys, monkeypatch):
        run(capsys, ["info", "--example", "levi_adjoint:2"])
        outputs = []
        for flag in ("--help", "-h"):
            with pytest.raises(SystemExit) as exc:
                main([flag])
            assert exc.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        monkeypatch.setenv("COLUMNS", "80")
        fresh = _build_parser.__wrapped__()
        assert outputs[0] == fresh.format_help()
        # the oracle's preset usage text is the one argparse renders itself
        fresh.usage = None
        assert outputs[0] == fresh.format_help()

    def test_help_text_ignores_the_terminal_width(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert out == _help_text()
        assert "[--abelianize]\n                    [--assume-nonempty]" in out

    @settings(max_examples=400, deadline=None)
    @given(argv=st.lists(_ARGV_TOKENS, max_size=6))
    @example(argv=["--json", "--", "info", "-"])
    @example(argv=["info", "--", "--"])
    @example(argv=["--", "info", "--json"])
    @example(argv=["--", "info", "--json", "x"])
    @example(argv=["--", "info", "x", "--json", "--"])
    @example(argv=["info", "--max-box", "-5"])
    @example(argv=["--", "nonsense", "--help"])
    @example(argv=["nonsense", "--help"])
    @example(argv=["info", "-5"])
    @example(argv=["info", "--max-box", "5", "--max-box=7", "--ex", "a:1", "--example=b:2"])
    def test_same_verdict_as_the_oracle(self, argv):
        expected = oracle_parse(argv)
        try:
            args = _parse_argv(argv)
        except ValueError:
            assert expected[0] == "error", (argv, expected)
            return
        if args is None:
            assert expected == ("help", _help_text()), argv
        else:
            assert expected == ("ok", vars(args)), argv

    def test_benchmark_argv_never_builds_the_parser(self, monkeypatch):
        # every benchmark item is in the common form, which the one pass reads;
        # argparse is for the rest, and costs milliseconds to import
        path = os.path.join(os.path.dirname(SRC), "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)

        def refuse():
            raise AssertionError("the argparse parser was built")

        monkeypatch.setattr(cli_module, "_parser", refuse)
        for workload in workloads.WORKLOADS:
            for item in workloads.items(workload, 0):
                args = _parse_argv(list(item.argv))
                assert args is not None and args.command == item.argv[0], item.argv

    def test_options_in_any_position(self, capsys, monkeypatch):
        outputs = []
        for argv in (
            ["info", "--example", "determinantal:2,1", "--json"],
            ["--json", "info", "--example", "determinantal:2,1"],
            ["info", "--json", "-"],
        ):
            problem = {"arrows": [[0, 2], [2, 0]], "dimension": [1, 1], "stability": [0, 0]}
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(problem)))
            code, out, err = run(capsys, argv)
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[2])["euler_matrix"] == json.loads(outputs[0])["euler_matrix"]

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nonsense"],
            ["info", "--bogus"],
            ["info", "--max-box", "many"],
            ["examples", "--example", "levi_adjoint:3"],
            ["examples", "-"],
            ["examples", "--abelianize"],
            ["examples", "--assume-nonempty"],
        ],
    )
    def test_usage_error_is_one_input_line(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: input: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec", ["points:", "determinantal:1,1,1", "kronecker_general:1", "points:2,,3"]
    )
    def test_bad_example_parameters(self, capsys, spec):
        code, out, err = run(capsys, ["info", "--example", spec])
        assert code == 1 and out == ""
        assert err.startswith("error: input:") and err.count("\n") == 1
        assert FAMILIES[spec.partition(":")[0]][1] in err

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("bipartite:1", "bipartite needs k,l followed by k + l block sizes"),
            ("bipartite:1,1,1", "bipartite with k=1, l=1 needs exactly 2 block sizes"),
        ],
    )
    def test_bad_bipartite_parameters(self, capsys, spec, message):
        code, out, err = run(capsys, ["info", "--example", spec])
        assert code == 1 and out == ""
        assert err == f"error: input: {message}\n"


# JSON values of a type that no known key takes: neither a list nor, but for
# assume_nonempty, a boolean; a list of items that no list key takes
_NOT_A_LIST = (
    st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2)
)
_BAD_ITEMS = st.lists(
    st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
    min_size=1,
    max_size=3,
)


def _wrong_value(key):
    return _NOT_A_LIST | _BAD_ITEMS | (st.integers() if key == "assume_nonempty" else st.booleans())


class TestBooleanRejected:
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("arrows", [[0, True], [1, 0]], "arrow multiplicities"),
            ("dimension", [1, True], "dimension"),
            ("stability", [0, False], "stability"),
            ("deformed_stability", [True, -1], "deformed_stability"),
            ("vertices", ["a", 1], "vertices"),
        ],
    )
    def test_boolean_is_not_an_integer(self, capsys, monkeypatch, field, value, message):
        problem = {"arrows": [[0, 1], [1, 0]], "dimension": [1, 1], "stability": [0, 0]}
        problem[field] = value
        code, payload, err = run_stdin_json(capsys, monkeypatch, ["info"], problem)
        assert code == 1 and payload is None
        assert err.startswith(f"error: input: {message}")
        assert err.count("\n") == 1


class TestStrataRows:
    @pytest.mark.parametrize("spec", ["kronecker_general:0,0", "levi_adjoint:3"])
    def test_strata_rows_are_smallness_records(self, capsys, spec):
        _, strata, _ = run_json(capsys, ["strata", "--example", spec])
        _, smallness, _ = run_json(capsys, ["smallness", "--example", spec])
        assert smallness["verdict"] == "Certified"
        suffix = re.compile(r"(negative expected stable moduli dimension) \(-\d+\)$")
        for rec in smallness["records"]:
            if rec["reason"] is not None:
                rec["reason"] = suffix.sub(r"\1", rec["reason"])
        assert strata["types"] == smallness["records"]

    def test_negative_dimension_wording(self, capsys):
        reason = "part (1, 1) has negative expected stable moduli dimension"
        _, strata, _ = run_json(capsys, ["strata", "--example", "kronecker_general:0,0"])
        _, smallness, _ = run_json(capsys, ["smallness", "--example", "kronecker_general:0,0"])
        assert strata["types"][0]["reason"] == reason
        assert smallness["records"][0]["reason"] == reason + " (-1)"

    def test_non_symmetric_local_quiver(self, capsys, monkeypatch):
        problem = {
            "arrows": [[0, 1, 1], [3, 0, 3], [3, 2, 2]],
            "dimension": [1, 0, 1],
            "stability": [-3, 0, -3],
        }
        code, payload, _ = run_stdin_json(capsys, monkeypatch, ["strata"], problem)
        assert code == 0
        rows = [row for row in payload["types"] if row["filtered"]]
        assert len(rows) == 1
        row = rows[0]
        assert row["reason"] == "local quiver is not symmetric"
        assert row["local_arrows"] == [[0, 1], [3, 2]]
        assert row["local_dim"] == [1, 1] and row["local_stability"] == [1, -1]
        assert row["fiber_bound"] is None and row["margin"] is None

    def test_negative_arrow_count(self, capsys, monkeypatch):
        problem = {
            "arrows": [[3, 2, 1, 2], [1, 0, 1, 0], [3, 2, 3, 3], [2, 2, 3, 2]],
            "dimension": [0, 2, 0, 1],
            "stability": [0, 3, -2, 3],
        }
        code, payload, _ = run_stdin_json(capsys, monkeypatch, ["strata"], problem)
        assert code == 0
        rows = [
            row
            for row in payload["types"]
            if (row["reason"] or "").startswith("local quiver would need")
        ]
        assert len(rows) == 1
        assert rows[0]["filtered"] and rows[0]["local_arrows"] is None


class TestTooManyCandidateParts:
    @pytest.mark.parametrize("command", ["strata", "smallness"])
    @pytest.mark.parametrize("spec", ["levi_adjoint:10", "levi_adjoint:11"])
    def test_refused_before_the_walk(self, capsys, command, spec):
        # 1,023 and 2,047 candidate parts; the walk would meet Bell(10) and Bell(11) types
        start = time.perf_counter()
        code, out, err = run(capsys, [command, "--example", spec, "--json"])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: precondition: ") and "candidate parts" in err


class TestTooManyTypes:
    # two vertices at theta = 0: every nonzero e <= d is a candidate part; smallness
    # reaches the walk only when the form is symmetric, so it gets arrows both ways
    @pytest.mark.parametrize(
        "command, arrows", [("strata", [[0, 3], [0, 0]]), ("smallness", [[0, 3], [3, 0]])]
    )
    @pytest.mark.parametrize("dimension", [[10, 11], [20, 21]])
    def test_refused_before_the_walk(self, capsys, monkeypatch, command, arrows, dimension):
        # 94,664 and about 4.4 * 10^8 types, under the 1,000-candidate guard:
        # the walk refuses on meeting type 25,001
        problem = {"arrows": arrows, "dimension": dimension, "stability": [0, 0]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(problem)))
        start = time.perf_counter()
        code, out, err = run(capsys, [command, "-", "--json"])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: precondition: at least ") and "decomposition types" in err

    def test_million_cell_box_refused_in_time(self, capsys, monkeypatch):
        # 999 candidates (k, k) among the 10^6 cells: the candidate scan reads
        # every cell, so it must not build a DimVector per cell
        problem = {
            "arrows": [[0, 1], [0, 0]],
            "dimension": [999, 999],
            "stability": [1, -1],
            "deformed_stability": [999, -998],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(problem)))
        start = time.perf_counter()
        code, out, err = run(capsys, ["strata", "-"])
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == (
            "error: precondition: at least 25001 decomposition types, "
            f"more than the {strata_module.MAX_LUNA_TYPES} allowed\n"
        )


class TestDeformationErrors:
    def test_violations_are_named_by_coordinates_in_one_line(self, capsys, monkeypatch):
        # (9, 9, -12) is nonzero on d and ties two proper cells: the error
        # lists the first three violations with no Python repr in it
        problem = {
            "arrows": [[1, 2, 1], [2, 0, 3], [1, 3, 0]],
            "dimension": [3, 4, 5],
            "stability": [0, 0, 0],
            "deformed_stability": [9, 9, -12],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(problem)))
        code, out, err = run(capsys, ["ic", "-"])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "DimVector(" not in err
        assert err == (
            "error: precondition: deformed stability is not a generic deformation: "
            "nonzero_on_d (3, 4, 5), coprimality_tie (0, 3, 2), coprimality_tie (1, 2, 2)\n"
        )


def _rows_match_record_json(records):
    # the rows at three depths, in the strata and in the smallness wording,
    # indented and on one line
    for brief in (False, True):
        rows = [record_json(rec, brief) for rec in records]
        for wrap in (lambda v: v, lambda v: {"types": v}, lambda v: [{"a": [v], "b": 0}]):
            expected = json.dumps(wrap(rows), sort_keys=True, indent=2)
            assert "".join(_json_text(wrap(_Rows(records, brief)))) == expected
            expected = json.dumps(wrap(rows), sort_keys=True)
            assert "".join(_json_text(wrap(_Rows(records, brief)), "")) == expected


class TestRowWriter:
    """The rows of strata and smallness are written as text; record_json is the judge."""

    @pytest.mark.parametrize(
        "spec",
        [
            "levi_adjoint:2",
            "levi_adjoint:3",
            "levi_adjoint:4",
            "levi_adjoint:5",
            "determinantal:3,2",
            "points:4,2",
            # multiplicities up to 4, so the walk repeats a part
            "levi_adjoint:4,3,3",
        ],
    )
    def test_catalog_rows(self, spec):
        q, d, theta, deformed = example_from_spec(spec)[2]
        tnorm = normalize_stability(theta, d)
        theta_prime = deformed if deformed is not None else generic_deformation(tnorm, d)
        _rows_match_record_json(stratum_records(q, d, theta, theta_prime))

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(hn_problems(), st.data())
    def test_random_rows(self, problem, data):
        q, d, theta = problem
        theta_prime = Stability(data.draw(st.tuples(*[st.integers(-3, 3)] * len(d))))
        _rows_match_record_json(stratum_records(q, d, theta, theta_prime))

    def test_three_filters_in_both_wordings(self):
        q = Quiver.from_matrix([[3, 2, 1, 2], [1, 0, 1, 0], [3, 2, 3, 3], [2, 2, 3, 2]])
        d, theta = DimVector((0, 2, 0, 1)), Stability((0, 3, -2, 3))
        records = stratum_records(q, d, theta, Stability((-9, 1, -15, -2)))
        _rows_match_record_json(records)
        negative = "part (0, 2, 0, 0) has negative expected stable moduli dimension"
        smallness = "".join(_json_text(_Rows(records, brief=False)))
        strata = "".join(_json_text(_Rows(records, brief=True)))
        for text in (smallness, strata):
            assert '"local quiver would need -1 arrows from summand 2 to summand 1"' in text
            assert '"local quiver is not symmetric"' in text
        assert f'"{negative} (-3)"' in smallness and f'"{negative}"' in strata

    def test_no_rows(self):
        _rows_match_record_json(())

    # the rows of a key are rendered once; these cover every field of the key

    @pytest.mark.parametrize("spec", ["levi_adjoint:4", "determinantal:3,2", "levi_adjoint:2,2,1"])
    def test_catalog_rows_without_shared_pieces(self, spec):
        # the oracle builds every field anew for every record, so no key repeats
        q, d, theta, deformed = example_from_spec(spec)[2]
        tnorm = normalize_stability(theta, d)
        theta_prime = deformed if deformed is not None else generic_deformation(tnorm, d)
        _rows_match_record_json(stratum_records_per_call(q, d, theta, theta_prime))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(hn_problems(), st.data())
    def test_random_rows_without_shared_pieces(self, problem, data):
        q, d, theta = problem
        theta_prime = Stability(data.draw(st.tuples(*[st.integers(-3, 3)] * len(d))))
        _rows_match_record_json(stratum_records_per_call(q, d, theta, theta_prime))

    def test_shared_objects_in_rows_that_differ(self):
        # rows that share some objects and differ in one field each: a row
        # cache whose key misses a field would repeat an earlier row's text
        fiber, margin = Fraction(-1, 2), Fraction(-3, 2)
        lq, ld = Quiver.from_matrix([[1, 2], [2, 0]]), DimVector((1, 1))
        split = LunaType(((DimVector((1, 0)), 1), (DimVector((0, 1)), 1)))
        whole = LunaType(((DimVector((1, 1)), 1),))
        negative = "part (1, 0) has negative expected stable moduli dimension (-2)"
        base = dict(
            luna_type=split, filtered=False, reason=None, local_quiver=lq, local_dim=ld,
            local_stability=Stability((1, -1)), fiber_bound=fiber, codim_bound=3, margin=margin,
        )
        changes = [
            {},
            {"codim_bound": 4},
            {"filtered": True},
            {"filtered": True, "reason": "local quiver is not symmetric"},
            {"filtered": True, "reason": negative},
            {"filtered": True, "reason": negative.replace("(-2)", "(-1)")},
            {"luna_type": whole},
            {"local_quiver": Quiver.from_matrix([[1, 3], [3, 0]])},
            {"local_dim": DimVector((2, 1))},
            {"fiber_bound": Fraction(-5, 2)},
            {"margin": Fraction(-7, 2)},
            {"local_quiver": None, "local_dim": None, "local_stability": None},
            {"fiber_bound": None, "margin": None},
        ]
        records = tuple(StratumRecord(**{**base, **change}) for change in changes)
        _rows_match_record_json(records)
        _rows_match_record_json(records[::-1])


class TestInternalCheckMidWalk:
    @pytest.mark.parametrize("command", ["strata", "smallness"])
    def test_exit_3_leaves_stdout_empty(self, capsys, monkeypatch, command):
        check, calls = strata_module._fiber_and_margin, []

        def fail_on_the_fifth_key(*args):
            calls.append(args)
            if len(calls) == 5:
                raise InternalCheckError("margin identity failed")
            return check(*args)

        monkeypatch.setattr(strata_module, "_fiber_and_margin", fail_on_the_fifth_key)
        code, out, err = run(capsys, [command, "--example", "levi_adjoint:6", "--json"])
        assert code == 3 and out == ""
        assert err == "error: internal-consistency: margin identity failed\n"


class TestSmallness:
    def test_kronecker31_not_applicable_with_closed_form(self, capsys):
        code, payload, _ = run_json(
            capsys, ["smallness", "--example", "kronecker_general:3,1"]
        )
        assert code == 0
        assert payload["verdict"] == "NotApplicable"
        assert payload["kernel_symmetric"] is False
        assert payload["closed_form"]["note"] == "not small (m > n)"
        assert payload["closed_form"]["small"] is False

    def test_levi_certified(self, capsys):
        code, payload, _ = run_json(
            capsys, ["smallness", "--example", "levi_adjoint:3", "--assume-nonempty"]
        )
        assert code == 0
        assert payload["verdict"] == "Certified"
        assert payload["assume_stable_nonempty"] is True
        margins = sorted(
            rec["margin"] for rec in payload["records"] if not rec["filtered"]
        )
        assert margins == ["-1", "-1/2", "-1/2", "-1/2", "0"]


class TestOtherCommands:
    def test_deform(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps(
                {
                    "arrows": [[0, 2], [2, 0]],
                    "dimension": [1, 1],
                    "stability": [0, 0],
                }
            ),
            encoding="utf-8",
        )
        code, payload, _ = run_json(capsys, ["deform", str(problem)])
        assert code == 0
        assert payload["verified"] is True
        assert payload["deformed_stability"] == [1, -1]

    # d = (1, r) needs eta = (r, -1), of sup-norm r; the search bound grows with d
    @pytest.mark.parametrize(
        "command, spec, deformed",
        [
            ("deform", "determinantal:7,7", [7, -1]),
            ("deform", "determinantal:8,8", [8, -1]),
            ("strata", "levi_adjoint:1,8", [8, -1]),
        ],
    )
    def test_deformation_found_beyond_sup_norm_six(self, capsys, command, spec, deformed):
        code, payload, err = run_json(capsys, [command, "--example", spec])
        assert code == 0 and err == ""
        assert payload["deformed_stability"] == deformed
        if command == "deform":
            assert payload["verified"] is True and payload["violations"] == []

    def test_deform_on_one_vertex_is_refused(self, capsys):
        # only eta = 0 vanishes on d = (1), and it separates nothing
        code, out, err = run(capsys, ["deform", "--example", "levi_adjoint:1"])
        assert code == 2 and out == ""
        assert err == (
            "error: precondition: no nonzero separating covector with sup-norm at most 1 exists\n"
        )

    def test_pd(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(KRONECKER2_PROBLEM), encoding="utf-8")
        code, payload, _ = run_json(capsys, ["pd", str(problem)])
        assert code == 0
        # (q + 1)/(q - 1), serialized in v with the monic denominator
        assert payload["p"]["num"] == {"0": "1", "2": "1"}
        assert payload["p"]["den"] == {"0": "-1", "2": "1"}

    def test_betti_via_json_problem(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(KRONECKER2_PROBLEM), encoding="utf-8")
        code, payload, _ = run_json(capsys, ["betti", str(problem)])
        assert code == 0
        assert payload["betti"]["v_powers"] == {"0": "1", "2": "1"}

    def test_dt(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps(
                {
                    "arrows": [[0, 2], [2, 0]],
                    "dimension": [1, 1],
                    "stability": [0, 0],
                }
            ),
            encoding="utf-8",
        )
        code, payload, _ = run_json(capsys, ["dt", str(problem)])
        assert code == 0
        by_exp = {tuple(row["exponent"]): row["dt"] for row in payload["invariants"]}
        assert by_exp[(1, 1)]["num"] == {"1": "-1", "3": "-1"}

    def test_strata(self, capsys):
        code, payload, _ = run_json(capsys, ["strata", "--example", "levi_adjoint:3"])
        assert code == 0
        assert len(payload["types"]) == 5
        assert payload["derived_deformation"] is False

    def test_abelianize_flag(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps(
                {
                    "arrows": [[0, 1]] + [[0, 0]],
                    "dimension": [1, 2],
                    "stability": [2, -1],
                }
            ),
            encoding="utf-8",
        )
        code, payload, _ = run_json(capsys, ["info", str(problem), "--abelianize"])
        assert code == 0
        assert len(payload["vertices"]) == 3
        assert payload["dimension"] == [1, 1, 1]

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(KRONECKER2_PROBLEM)))
        code, payload, _ = run_json(capsys, ["info", "-"])
        assert code == 0
        assert payload["coprime"] is True


class TestPrettyOutput:
    """The exact lines of the human-readable output, one case per printing rule."""

    def test_examples(self, capsys):
        code, out, _ = run(capsys, ["examples"])
        assert code == 0
        assert out.splitlines() == [
            "available example families:",
            "  bipartite: k,l,v1,...,vk,w1,...,wl (block counts then block sizes)",
            "  determinantal: m,r with 1 <= r <= m",
            "  kronecker_general: m,n (arrow counts in the two directions)",
            "  levi_adjoint: l (torus case, all-ones), or block sizes d1,...,dl",
            "  points: m,d with m >= 1 and d >= 2",
        ]

    def test_ic_without_a_deformed_stability_hides_the_resolution_route(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(KRONECKER2_PROBLEM)))
        code, out, _ = run(capsys, ["ic", "-"])
        assert code == 0
        assert out.splitlines() == [
            "result: 1 + q",
            "route_dt: 1 + q",
            "assumed_nonempty: False",
        ]

    def test_smallness_prints_a_dict_without_pretty_as_json(self, capsys):
        code, out, _ = run(capsys, ["smallness", "--example", "kronecker_general:1,2"])
        assert code == 0
        assert out.splitlines() == [
            "verdict: NotApplicable",
            'reasons: ["form is not symmetric on the kernel of the stability"]',
            "records: []",
            "assume_stable_nonempty: False",
            "kernel_symmetric: False",
            "deformation_ok: True",
            "deformed_stability: [1, -1]",
            "derived_deformation: False",
            'closed_form: {"fiber_dim": 0, "note": "small (m <= n)", "small": true, '
            '"stratum_codim": 2}',
        ]

    def test_strata_prints_one_row_per_line(self, capsys):
        code, out, _ = run(capsys, ["strata", "--example", "levi_adjoint:2"])
        assert code == 0
        assert out.splitlines() == [
            "deformed_stability: [1, -1]",
            "derived_deformation: False",
            "types: ",
            '  - {"codim_bound": 0, "fiber_bound": "0", "filtered": false, '
            '"local_arrows": [[3]], "local_dim": [1], "local_stability": [0], '
            '"margin": "0", "reason": null, "trivial": true, "type": [[[1, 1], 1]]}',
            '  - {"codim_bound": 1, "fiber_bound": "0", "filtered": false, '
            '"local_arrows": [[1, 1], [1, 1]], "local_dim": [1, 1], '
            '"local_stability": [1, -1], "margin": "-1/2", "reason": null, '
            '"trivial": false, "type": [[[1, 0], 1], [[0, 1], 1]]}',
        ]


class TestDeterminismAndRoundTrip:
    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run(capsys, ["ic", "--example", "determinantal:2,1", "--json"])
        _, out2, _ = run(capsys, ["ic", "--example", "determinantal:2,1", "--json"])
        assert out1 == out2

    def test_json_round_trip_byte_identical(self, capsys):
        for argv in [
            ["ic", "--example", "determinantal:2,1"],
            ["smallness", "--example", "levi_adjoint:3"],
            ["dt", "--example", "determinantal:3,1"],
        ]:
            code, out, _ = run(capsys, argv + ["--json"])
            assert code == 0
            reparsed = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
            assert reparsed == out


# text with non-ASCII, quotes, backslashes, control characters and lone surrogates
JSON_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
    | st.sampled_from('"\\\x00\x1f'),
    max_size=6,
)

# every kind of value the writer takes, ints negative and beyond 2^64 included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(-(2**70), 2**70), max_size=4)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    """_json_text against json.dumps: indented at pad "\\n", on one line at pad ""."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert "".join(_json_text(value)) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(JSON_VALUES)
    def test_one_line_matches_json_dumps(self, value):
        assert "".join(_json_text(value, "")) == json.dumps(value, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [
            '"\\\x00\x1f\x7f\u00e9\u2603\ud800\U0001f600',
            -(2**64) - 1,
            [[], {}, (), [[]]],
            {"b": [True, None, False], "a": {"": (1, -2)}},
        ],
    )
    def test_edge_values(self, value):
        assert "".join(_json_text(value)) == json.dumps(value, sort_keys=True, indent=2)
        assert "".join(_json_text(value, "")) == json.dumps(value, sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, {1, 2}, {1: 0}, [0, {"a": 0.0}], {"a": {None: 1}}])
    def test_other_types_raise(self, value):
        for pad in ("\n", ""):
            with pytest.raises(TypeError):
                _json_text(value, pad)


# vertex names with non-ASCII characters, quotes and backslashes
VERTEX_NAMES = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from('"\\'), max_size=4)


def _payloads(problem):
    """The payload of every command on problem that answers."""
    for command, (handler, _) in COMMAND_TABLE.items():
        if command == "examples":
            yield handler()
            continue
        try:
            yield handler(problem, DEFAULT_MAX_BOX)
        except (QuiverModuliError, ValueError):
            pass


class TestPrettyView:
    """The human-readable view goes through the one-line writer; json.dumps is the judge."""

    @pytest.mark.parametrize(
        "spec",
        [
            "levi_adjoint:1",
            "levi_adjoint:3",
            "levi_adjoint:2,1",
            "determinantal:3,2",
            "points:4,2",
            "bipartite:1,2,1,1,1",
            "kronecker_general:0,0",
            "kronecker_general:2,3",
            "kronecker_general:3,2",
        ],
    )
    @pytest.mark.parametrize("options", [[], ["--abelianize"], ["--assume-nonempty"]])
    def test_catalog(self, capsys, spec, options):
        argv = ["--example", spec, *options]
        for payload in _payloads(load_problem(_parse_argv(["info", *argv]))):
            command = payload["command"]
            code, out, err = run(capsys, [command] + ([] if command == "examples" else argv))
            assert (code, out, err) == (0, pretty_text(payload), "")

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(hn_problems(max_cells=12), st.data())
    def test_random_problems(self, problem, data):
        q, d, theta = problem
        names = data.draw(st.lists(VERTEX_NAMES, min_size=q.n, max_size=q.n, unique=True))
        deformed = data.draw(st.none() | st.tuples(*[st.integers(-3, 3)] * q.n).map(Stability))
        quiver = Quiver(tuple(names), q.arrows)
        spec = ProblemSpec(quiver, d, theta, deformed, data.draw(st.booleans()))
        for payload in _payloads(spec):
            assert "".join(_pretty_lines(payload)) == pretty_text(payload)


def _cli_process(argv, stdout, stdin=None, text=True):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen(
        [sys.executable, "-m", "quivermoduli.cli", *argv],
        stdin=stdin,
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=text,
    )


class TestUnwritableOutput:
    """Output that cannot be written exits 1 with one line, never a traceback."""

    @staticmethod
    def _check(process):
        err = process.communicate(timeout=60)[1]
        assert process.returncode == 1, err
        assert "Traceback" not in err and err.count("\n") == 1
        assert err.startswith("error: output: ")
        return err

    @pytest.mark.parametrize("view", [["--json"], []])
    def test_reader_closes_after_a_few_bytes(self, view):
        # 5.8 MB of rows, far more than a pipe holds, so the writer meets the closed pipe
        process = _cli_process(["strata", "--example", "levi_adjoint:8", *view], subprocess.PIPE)
        head = process.stdout.read(10)
        process.stdout.close()
        assert len(head) == 10
        assert "Broken pipe" in self._check(process)

    @pytest.mark.parametrize(
        "argv", [["--help"], ["examples"], ["info", "--example", "levi_adjoint:3", "--json"]]
    )
    def test_reader_gone_before_the_first_write(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            process = _cli_process(argv, write_end)
        finally:
            os.close(write_end)
        self._check(process)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            process = _cli_process(["info", "--example", "levi_adjoint:3"], full)
        self._check(process)
