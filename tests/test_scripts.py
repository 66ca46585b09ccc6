"""The scripts that draw random models from `pocbounds.simgen` run end to end."""

import importlib.util
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


def _bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _made_up_runs(metric, unit, parent_values, change_values):
    return [
        {"side": side, "pair": k, "result": {"metrics": {metric: {"value": v, "unit": unit}}}}
        for side, values in (("parent", parent_values), ("change", change_values))
        for k, v in enumerate(values)
    ]


@pytest.mark.parametrize("rise, flagged", [(1.11, True), (1.09, False), (0.8, False)])
def test_bench_ab_flags_a_metric_worse_than_its_bound(rise, flagged):
    bench_ab = _bench_ab()
    specs = bench_ab.metric_specs(ROOT)
    assert specs["peak_rss_mb"]["bound"] == 0.1
    parent = [18.4, 18.5, 18.6]
    runs = _made_up_runs("peak_rss_mb", "MB", parent, [v * rise for v in parent])
    entry = bench_ab.summarize(runs, specs)["peak_rss_mb"]
    assert entry["bound"] == 0.1
    assert entry["exceeds_bound"] is flagged


@pytest.mark.parametrize("ratio, flagged", [(0.74, True), (0.76, False), (1.5, False)])
def test_bench_ab_bound_follows_the_better_direction(ratio, flagged):
    # ops_per_s is better higher: only a drop past its 25 % bound is flagged.
    bench_ab = _bench_ab()
    runs = _made_up_runs("ops_per_s", "ops/s", [500.0, 510.0], [500.0 * ratio, 510.0 * ratio])
    entry = bench_ab.summarize(runs, bench_ab.metric_specs(ROOT))["ops_per_s"]
    assert entry["exceeds_bound"] is flagged


def test_bench_ab_per_layer_metric_has_no_bound():
    bench_ab = _bench_ab()
    runs = _made_up_runs("engine.bound_self_us", "us", [10.0], [20.0])
    entry = bench_ab.summarize(runs, bench_ab.metric_specs(ROOT))["engine.bound_self_us"]
    assert "exceeds_bound" not in entry and entry["change_better_pairs"] == 0
