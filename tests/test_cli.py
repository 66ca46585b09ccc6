import json
import os
import shutil
import subprocess
import sys

import pytest

from pocbounds import cli
from pocbounds.cli import FIXTURES_ENV, fixture_path, main
from pocbounds.simgen import SimulationSummary


def write_data(tmp_path, exp, obs, name="data.json"):
    m, n = len(exp), len(exp[0])
    doc = {
        "treatments": [f"x{j}" for j in range(1, m + 1)],
        "outcomes": [f"y{i}" for i in range(1, n + 1)],
        "experimental_counts": exp,
        "observational_counts": obs,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


TREATMENT = str(fixture_path("treatment"))
INSTITUTE = str(fixture_path("institute"))


class TestBound:
    def test_interval_output(self, capsys):
        code = main(["bound", "--data", TREATMENT, "--query", "P(y3_x1, y1_x2, y2_x3)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[0.000000, 0.098889]"

    def test_conditional_output(self, capsys):
        code = main(["bound", "--data", INSTITUTE, "--query", "P(y1_x4 | x2, y2)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[0.000000, 0.042373]"

    def test_trace_json(self, capsys):
        code = main(["bound", "--data", TREATMENT, "--query", "P(y3_x1, y1_x2)", "--trace"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        doc = json.loads("\n".join(lines[1:]))
        assert set(doc) == {
            "query", "theorem", "lower_branch", "upper_branch", "lo", "hi", "children",
        }
        assert doc["theorem"] == "T5"

    def test_oracle_cross_check(self, capsys):
        code = main(["bound", "--data", TREATMENT, "--query", "P(y3_x1, y1_x2, y2_x3)", "--oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle: [0.063333, 0.098889]" in out
        assert "oracle containment: ok" in out

    def test_refuses_inconsistent_data(self, tmp_path, capsys):
        # An exact query too: no model fits the data, so there is nothing to bound.
        data = write_data(tmp_path, [[2, 8], [5, 5]], [[5, 0], [2, 3]])
        code = main(["bound", "--data", data, "--query", "P(y1_x1)"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "inconsistent data: experimental and observational data admit no joint "
            "response-type distribution: P(y1 | do x1) = 1/5 < P(x1, y1) = 1/2",
            "  x1,y1: lower violated by 0.3",
        ]


class TestOracleCommand:
    def test_tight_interval(self, capsys):
        code = main(["oracle", "--data", TREATMENT, "--query", "P(y3_x1, y1_x2, y2_x3)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[0.063333, 0.098889]"


class TestValidate:
    def test_ok(self, capsys):
        code = main(["validate", "--data", TREATMENT])
        assert code == 0
        assert "validation: OK (3 treatments, 3 outcomes)" in capsys.readouterr().out

    def test_violations_reported(self, tmp_path, capsys):
        data = write_data(tmp_path, [[2, 8], [5, 5]], [[5, 0], [2, 3]])
        code = main(["validate", "--data", data])
        assert code == 2
        out = capsys.readouterr().out
        assert "violation" in out
        assert "x1,y1" in out


class TestSimulate:
    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--samples", "5", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("sample_id,")
        captured = capsys.readouterr()
        assert "wrote 5 rows" in captured.out
        assert "average_gap:" in captured.out

    def test_csv_to_stdout(self, capsys):
        code = main(["simulate", "--samples", "4", "--seed", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 5
        assert "average_gap:" in captured.err
        assert "containment_rate:" in captured.err

    def test_deterministic_given_args(self, capsys):
        main(["simulate", "--samples", "4", "--seed", "9"])
        first = capsys.readouterr()
        main(["simulate", "--samples", "4", "--seed", "9"])
        second = capsys.readouterr()
        assert first.out == second.out


class TestReproduce:
    @pytest.mark.parametrize("example", ["treatment", "institute", "vaccine"])
    def test_published_tables(self, example, capsys):
        code = main(["reproduce", "--example", example])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "all values match" in out

    def test_simulation_band_pass(self, monkeypatch, capsys):
        fake = SimulationSummary(
            num_samples=1000, average_gap=0.231, containment_rate=1.0, records=()
        )
        monkeypatch.setattr(cli.simgen, "run_simulation", lambda n, seed=0: fake)
        code = main(["reproduce", "--example", "simulation"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_simulation_band_fail(self, monkeypatch, capsys):
        fake = SimulationSummary(
            num_samples=1000, average_gap=0.170, containment_rate=1.0, records=()
        )
        monkeypatch.setattr(cli.simgen, "run_simulation", lambda n, seed=0: fake)
        code = main(["reproduce", "--example", "simulation"])
        assert code == 2
        assert "MISMATCH" in capsys.readouterr().out

    def test_fixture_override_env(self, tmp_path, monkeypatch, capsys):
        shutil.copy(TREATMENT, tmp_path / "treatment.json")
        monkeypatch.setenv(FIXTURES_ENV, str(tmp_path))
        code = main(["reproduce", "--example", "treatment"])
        assert code == 0
        assert "all values match" in capsys.readouterr().out

    def test_fixture_override_detects_drift(self, tmp_path, monkeypatch, capsys):
        doc = json.loads(fixture_path("treatment").read_text(encoding="utf-8"))
        # swap two observational cells: data stay consistent, bounds move
        row = doc["observational_counts"][0]
        row[0], row[2] = row[2], row[0]
        (tmp_path / "treatment.json").write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setenv(FIXTURES_ENV, str(tmp_path))
        code = main(["reproduce", "--example", "treatment"])
        assert code == 2
        assert "MISMATCH" in capsys.readouterr().out


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        strict = ["bound", "--data", TREATMENT, "--query", "P(y1_x1)", "--strict"]
        for argv in (["frobnicate"], strict):
            assert main(argv) == 1
            assert "error:" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert main(["bound", "--data", TREATMENT]) == 1

    def test_bad_sample_count_type(self, capsys):
        assert main(["simulate", "--samples", "many"]) == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_sample_count(self, count, capsys):
        assert main(["simulate", "--samples", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        usage = "error: pocbounds simulate: argument --samples: invalid positive integer"
        assert captured.err == f"{usage}: '{count}'\n"

    def test_query_syntax_error(self, capsys):
        assert main(["bound", "--data", TREATMENT, "--query", "P(y1_x1"]) == 1
        assert "query syntax error" in capsys.readouterr().err

    def test_query_index_error(self, capsys):
        assert main(["bound", "--data", TREATMENT, "--query", "P(y9_x1)"]) == 1
        assert "query error" in capsys.readouterr().err

    def test_missing_data_file(self, capsys):
        assert main(["bound", "--data", "/nonexistent.json", "--query", "P(y1_x1)"]) == 1
        assert "file error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--data", str(bad)]) == 1
        assert "data error" in capsys.readouterr().err

    def test_zero_evidence_conditional(self, tmp_path, capsys):
        data = write_data(tmp_path, [[5, 5], [5, 5]], [[5, 0], [3, 2]])
        code = main(["bound", "--data", data, "--query", "P(y1_x2 | x1, y2)"])
        assert code == 1
        assert "undefined conditional" in capsys.readouterr().err

    def test_oracle_refuses_evidence_below_eps(self, tmp_path, capsys):
        # P(x1, y1) is about 2.5e-10: the oracle refuses it as the engine does
        data = write_data(tmp_path, [[1, 1], [1, 1]], [[1, 2 * 10**9], [2 * 10**9, 1]])
        code = main(["oracle", "--data", data, "--query", "P(y1_x2 | x1, y1)"])
        assert code == 1
        assert capsys.readouterr().err.startswith("undefined conditional:")

    def _validate_doc(self, tmp_path, capsys, **tables):
        doc = {"treatments": ["x1", "x2"], "outcomes": ["y1", "y2"], **tables}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--data", str(path)]) == 1
        return capsys.readouterr().err

    def test_non_numeric_probability_cell(self, tmp_path, capsys):
        err = self._validate_doc(
            tmp_path,
            capsys,
            experimental_probs=[[0.6, 0.4], ["abc", 0.7]],
            observational_probs=[[0.3, 0.1], [0.2, 0.4]],
        )
        assert err.startswith("data error: experimental probabilities")
        assert "(x2, y1)" in err

    def test_null_probability_cell(self, tmp_path, capsys):
        err = self._validate_doc(
            tmp_path,
            capsys,
            experimental_probs=[[0.6, 0.4], [0.3, 0.7]],
            observational_probs=[[0.3, None], [0.2, 0.4]],
        )
        assert err.startswith("data error: observational probabilities")
        assert "(x1, y2)" in err

    def test_row_that_is_a_number(self, tmp_path, capsys):
        err = self._validate_doc(
            tmp_path,
            capsys,
            experimental_counts=[[1, 2], 5],
            observational_counts=[[3, 1], [2, 4]],
        )
        assert err.startswith("data error: experimental table")
        assert "row x2" in err

    def test_infeasible_oracle(self, tmp_path, capsys):
        data = write_data(tmp_path, [[2, 8], [5, 5]], [[5, 0], [2, 3]])
        code = main(["oracle", "--data", data, "--query", "P(y1_x1, y2_x2)"])
        assert code == 1
        assert capsys.readouterr().err.startswith("inconsistent data: ")

    # The consistency gap, 5e-7, is inside the 1e-6 slack that probability
    # cells and sums get at ingest. The consistency check takes no slack, so
    # the table fails validation.
    NEAR_INCONSISTENT = {
        "treatments": ["x1", "x2"],
        "outcomes": ["y1", "y2"],
        "experimental_probs": [[0.3, 0.7], [0.5, 0.5]],
        "observational_probs": [[0.3000005, 0.1999995], [0.2, 0.3]],
    }

    # P(y1 | do x1) < P(x1, y1) also puts the row's other cell over its
    # upper end by the same gap; the report names the one bad cell.
    NEAR_INCONSISTENT_CELLS = ["  x1,y1: lower violated by 5e-07"]

    def _near_inconsistent(self, tmp_path, capsys, command, query, *flags):
        path = tmp_path / "near.json"
        path.write_text(json.dumps(self.NEAR_INCONSISTENT), encoding="utf-8")
        code = main([command, "--data", str(path), *flags, "--query", query])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_every_entry_point_refuses_near_inconsistent_data(self, tmp_path, capsys):
        # Plain, conditional, exact and zero queries, with and without the
        # oracle: one rule, one message, nothing on stdout.
        runs = [
            ("bound", "P(y1_x1, y2_x2)"),
            ("bound", "P(y1_x2 | x1, y1)", "--oracle"),
            ("bound", "P(y2_x1)"),
            ("bound", "P(y1_x1, x1, y2)"),
            ("oracle", "P(y1_x1, y2_x2)"),
            ("oracle", "P(y1_x2 | x1, y1)"),
        ]
        errs = set()
        for run in runs:
            code, out, err = self._near_inconsistent(tmp_path, capsys, *run)
            assert (code, out) == (1, ""), run
            errs.add(err)
        assert len(errs) == 1
        lines = errs.pop().splitlines()
        assert lines[0].startswith("inconsistent data: ")
        assert lines[1:] == self.NEAR_INCONSISTENT_CELLS

    def test_validate_lists_near_inconsistent_cells(self, tmp_path, capsys):
        path = tmp_path / "near.json"
        path.write_text(json.dumps(self.NEAR_INCONSISTENT), encoding="utf-8")
        assert main(["validate", "--data", str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out == ["validation: 1 violation(s)", *self.NEAR_INCONSISTENT_CELLS]

    def test_inconsistent_data_not_blamed_on_oracle(self, tmp_path, capsys):
        # The report must name the data, not the oracle.
        code, _, err = self._near_inconsistent(
            tmp_path, capsys, "bound", "P(y1_x2 | x1, y1)", "--oracle"
        )
        assert code == 1
        assert "oracle" not in err

    def test_inconsistent_data_names_the_cell_exactly(self, tmp_path, capsys):
        code, _, err = self._near_inconsistent(tmp_path, capsys, "bound", "P(y1_x1, y2_x2)")
        assert code == 1
        assert err.splitlines()[0] == (
            "inconsistent data: experimental and observational data admit no joint "
            "response-type distribution: P(y1 | do x1) = 3/10 < P(x1, y1) = 600001/2000000"
        )


def test_cli_import_loads_no_numpy():
    # Each CLI process pays for its imports; dataclasses also pulls in
    # inspect, dis, ast and tokenize, and generates code for every class.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = (
        "import sys, pocbounds.cli; "
        "print([m for m in ('numpy', 'dataclasses') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
