import hashlib
import json
import os
import subprocess
import sys

import pytest

from pocbounds import cli, oracle, simgen
from pocbounds.cli import fixture_path, main
from pocbounds.model import Interval
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

# sha256 of `bound --trace` stdout for each published fixture row.
TRACE_DIGESTS = {
    ("treatment", "P(y3_x1, y1_x2)"): "a3fd666efe8487f087be19fd3e99960ab429de9f8c42d772bc250fd770e3095b",
    ("treatment", "P(y1_x2, y2_x3)"): "9bf086590e844b99e538bdbce209cabed9d0ecd6f60064793f93011be55a2fbf",
    ("treatment", "P(y3_x1, y2_x3)"): "c7f60129b7e8efbca7bf4b9627a5822c93d5ccbec28d15a034501d638d1a325d",
    ("treatment", "P(y1_x2, y2_x3, x1, y3)"): "2ee6f5b1a103d8ebece4518bf66cd1ba6e833ec5134fe1d3cbb71b6ffdcc66d1",
    ("treatment", "P(y3_x1, y2_x3, x2, y1)"): "0dbb12e4337c367accf800161f97b9b2ad67fcfef823d180d2544b12e5f34e46",
    ("treatment", "P(y3_x1, y1_x2, x3, y2)"): "701ffad23798afe41837c2a0f62074c35fb014291ea05cda2e32d8ef6beede94",
    ("treatment", "P(y3_x1, y1_x2, y2_x3)"): "dd5449e639b9a09883f48c47e62239240e373876e3e84c94d11ab4845294b990",
    ("institute", "P(y1_x3 | x2, y2)"): "7f6f71e00c53309649799e5c3c06c66bd2370c38453e3e45f5b9c88a3584a444",
    ("institute", "P(y1_x4 | x2, y2)"): "5e528392ed4793383018be65a59d76170b917135e2b450c5d7a4a979a72f91b4",
    ("vaccine", "P(y4_x2, x1, y1)"): "f1104788363db06f7861172ea9a3425c2a803d8f2f9cb3912c61d91489480fdc",
    ("vaccine", "P(y1_x1, x2, y4)"): "98bda9d05aa20eb639761362f8cb1fa6804674e23f8594c1be68077b7b3c7fa8",
    ("vaccine", "P(y4_x2, x1, y2)"): "85935f7570fe750441c96941f62866aa87183f3152eecea693ef136ceea5386e",
    ("vaccine", "P(y2_x1, x2, y4)"): "33ec9f8e790f23d766a83e955895273cba0f8b3941daecd314d7a501be9d1642",
    ("vaccine", "P(y4_x2, x1, y3)"): "cec04ce287b8050196cb8551a3107b18753aed3fc093d9e8e277516ae7b0f091",
    ("vaccine", "P(y3_x1, x2, y4)"): "747ecefeca5b031026d36c6fc59e0c78c6d67c4316db77930e12f95828b53db8",
    ("vaccine", "P(y1_x1, y4_x2)"): "c1e5acdb8114b767637dfc3e8ce51d5f440163bce5f189233e3770615a9ca6f2",
    ("vaccine", "P(y2_x1, y4_x2)"): "5fcc8046377ddd8bd7a95d614c137289b509a634d9ed3d35f90e9fcac4411012",
    ("vaccine", "P(y3_x1, y4_x2)"): "6931730e6def7dbb6dbe02dd3fdc4a816e03a20fa161bc8c2443324ca2660f8e",
}
FIXTURE_ROWS = [(ex, text) for ex, rows in cli._REPRODUCE_BOUNDS.items() for text, _, _ in rows]


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

    @pytest.mark.parametrize("example, query", FIXTURE_ROWS)
    def test_trace_bytes_pinned(self, example, query, capsys):
        code = main(["bound", "--data", str(fixture_path(example)), "--query", query, "--trace"])
        assert code == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == TRACE_DIGESTS[example, query], (
            f"`bound --trace` output of {query} on {example} changed; a moved label or "
            "branch must be listed in CHANGES.md before this digest is updated"
        )

    def test_oracle_cross_check(self, capsys):
        code = main(["bound", "--data", TREATMENT, "--query", "P(y3_x1, y1_x2, y2_x3)", "--oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle: [0.063333, 0.098889]" in out
        assert "oracle containment: ok" in out

    def test_oracle_containment_violated(self, monkeypatch, capsys):
        # A tight interval the engine's does not contain fails the cross-check.
        monkeypatch.setattr(oracle, "tight_bounds", lambda dataset, query: Interval(0.0, 1.0))
        code = main(["bound", "--data", TREATMENT, "--query", "P(y3_x1, y1_x2, y2_x3)", "--oracle"])
        assert code == 2
        out = capsys.readouterr().out
        assert "oracle: [0.000000, 1.000000]" in out
        assert "oracle containment: VIOLATED" in out

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
        monkeypatch.setattr(simgen, "run_simulation", lambda n, seed=0: fake)
        code = main(["reproduce", "--example", "simulation"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_simulation_band_fail(self, monkeypatch, capsys):
        fake = SimulationSummary(
            num_samples=1000, average_gap=0.170, containment_rate=1.0, records=()
        )
        monkeypatch.setattr(simgen, "run_simulation", lambda n, seed=0: fake)
        code = main(["reproduce", "--example", "simulation"])
        assert code == 2
        assert "MISMATCH" in capsys.readouterr().out

    def test_fixture_override_detects_drift(self, tmp_path, monkeypatch, capsys):
        doc = json.loads(fixture_path("treatment").read_text(encoding="utf-8"))
        # swap two observational cells: data stay consistent, bounds move
        row = doc["observational_counts"][0]
        row[0], row[2] = row[2], row[0]
        drifted = tmp_path / "treatment.json"
        drifted.write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setattr(cli, "fixture_path", lambda name: drifted)
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

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed(self, seed, capsys):
        assert main(["simulate", "--samples", "2", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        usage = "error: pocbounds simulate: argument --seed: invalid non-negative integer"
        assert captured.err == f"{usage}: '{seed}'\n"

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


# Prints, after `import pocbounds.cli` and again after `main(sys.argv[1:])`,
# the pocbounds modules loaded and which of the watched standard-library
# modules are.
_MODULES_PROBE = """
import json, sys
def loaded():
    watched = ('numpy', 'dataclasses', 'fractions', 'decimal', 'csv')
    return [sorted(m for m in sys.modules if m.startswith('pocbounds')),
            [m for m in watched if sys.modules.get(m)]]
import pocbounds.cli
print(json.dumps(loaded()))
sys.modules['numpy'] = None
status = pocbounds.cli.main(sys.argv[1:])
print(json.dumps(loaded()))
sys.exit(status)
"""


def test_cli_import_loads_no_numpy():
    # Each CLI process pays for its imports, so it loads only the modules its
    # subcommand runs: fractions (and with it decimal) only for the oracle,
    # which needs no engine, csv only for the simulation. dataclasses would
    # also pull in inspect, dis, ast and tokenize. The package has no runtime
    # dependency: with numpy made unimportable, the simulation still runs.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    data = str(fixture_path("treatment"))
    base = ["pocbounds", "pocbounds.cli", "pocbounds.model", "pocbounds.queryir"]
    cases = [
        (["validate", "--data", data], [], []),
        (["reproduce", "--example", "treatment"], ["engine"], []),
        (
            ["bound", "--oracle", "--data", data, "--query", "P(y3_x1, y1_x2)"],
            ["engine", "oracle"],
            ["fractions", "decimal"],
        ),
        (
            ["oracle", "--data", data, "--query", "P(y3_x1, y1_x2)"],
            ["oracle"],
            ["fractions", "decimal"],
        ),
        (["simulate", "--samples", "2"], ["engine", "simgen"], ["csv"]),
    ]
    for argv, added, stdlib in cases:
        out = subprocess.run(
            [sys.executable, "-c", _MODULES_PROBE, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        lines = out.stdout.splitlines()
        assert json.loads(lines[0]) == [base, []], argv
        after = sorted(base + [f"pocbounds.{name}" for name in added])
        assert json.loads(lines[-1]) == [after, stdlib], argv
    # The last case, simulate, printed a CSV header and two rows.
    assert lines[1].startswith("sample_id,")
    assert len(lines) == 5
