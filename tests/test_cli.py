import io
import json
import re

import pytest

from quivermoduli.cli import main

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


class TestIc:
    def test_determinantal_json(self, capsys):
        code, payload, _ = run_json(capsys, ["ic", "--example", "determinantal:2,1"])
        assert code == 0
        assert payload["result"]["v_powers"] == {"4": "1", "6": "1"}
        assert payload["routes_agree"] is True

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

    def test_shape_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"arrows": [[0, 1]], "dimension": [1], "stability": [0]}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, ["info", str(bad)])
        assert code == 1

    def test_box_guard(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(KRONECKER2_PROBLEM), encoding="utf-8")
        code, _, err = run(capsys, ["betti", str(problem), "--max-box", "2"])
        assert code == 2
        assert "--max-box" in err


class TestBooleanRejected:
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("arrows", [[0, True], [1, 0]], "arrow multiplicities"),
            ("dimension", [1, True], "dimension"),
            ("stability", [0, False], "stability"),
            ("deformed_stability", [True, -1], "deformed_stability"),
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
