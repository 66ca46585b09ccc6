"""The scripts that draw random models from `pocbounds.simgen` run end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "scripts" / script), *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)


def test_validate_against_oracle():
    out = _run("validate_against_oracle.py", "--cases", "40")
    assert out.returncode == 0, out.stderr
    assert "containment: OK" in out.stdout.splitlines()


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_validate_against_oracle_refuses_no_cases(cases):
    # With no case run, "containment: OK" would pass vacuously.
    out = _run("validate_against_oracle.py", f"--cases={cases}")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "argument --cases: invalid positive integer" in out.stderr


def test_engine_corpus_check_lists_every_difference(tmp_path):
    doc = json.loads((ROOT / "tests" / "data" / "engine_corpus.json").read_text())
    doc["queries"] = [e for e in doc["queries"] if "lo" in e][:12]
    altered = [doc["queries"][2], doc["queries"][9]]
    altered[0]["lo"] = altered[1]["hi"] = (-1.0).hex()
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(doc))
    out = _run("engine_corpus.py", "--check", "--corpus", str(corpus))
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    for line, entry in zip(lines, altered):
        assert line.startswith(f"table {entry['table']}, {entry['query']}: expected ")


def test_oracle_timings():
    out = _run("oracle_timings.py")
    assert out.returncode == 0, out.stderr


def test_run_simulation(tmp_path):
    csv = tmp_path / "sim.csv"
    out = _run("run_simulation.py", "--samples", "20", "--out", str(csv))
    assert out.returncode == 0, out.stderr
    assert len(csv.read_text(encoding="utf-8").splitlines()) == 21


@pytest.mark.parametrize("arg, value", [("--samples", "0"), ("--seed", "-1"), ("--bins", "0")])
def test_run_simulation_refuses_bad_counts(arg, value):
    out = _run("run_simulation.py", arg, value)
    assert out.returncode == 2
    assert out.stdout == ""
    assert f"argument {arg}: invalid" in out.stderr
    assert "Traceback" not in out.stderr
