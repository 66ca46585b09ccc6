"""Tests of the benchmark itself: a tiny run of every workload, and every check rejecting a wrong answer.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
import random
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
Iv = namedtuple("Iv", "lo hi")


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run(name, trace):
    result, failures = run.measure(name, seed=3, seconds=0, trace=trace, min_ops=2)
    assert failures == {}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_traced_run_counts_the_engine():
    result, _ = run.measure("engine_wide", seed=4, seconds=0, trace=True, min_ops=2)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["model.ingest_calls"] > 0
    assert metrics["engine.bound_calls"] == 35  # one traced round
    assert metrics["queryir.parse_us"] > 0 and metrics["engine.nodes_per_call"] > 0
    assert metrics["oracle.tight_calls"] == 0


def test_blocks_are_whole_rounds_of_at_least_block_ops():
    recs = [run.Record(None, float(r), False, None, r) for r in range(7) for _ in range(40)]
    sizes = [len(b) for b in run.blocks(recs)]
    assert sizes == [120, 160]  # blocks of three rounds; the seventh, left over, joins the last
    assert [len(b) for b in run.blocks(recs[:80])] == [80]
    assert all(len(set(b)) == len(b) // 40 for b in run.blocks(recs))


# -- generators -----------------------------------------------------------------


def _single_terms(table):
    m, n = len(table.obs), len(table.obs[0])
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            yield j, i, gen.QuerySpec(f"P(y{i}_x{j})", ((j, i),), None, None, False)


def test_witness_reproduces_both_tables():
    table = gen.wide_table(random.Random(0), 6, 3)
    total = table.total
    for j, i, q in _single_terms(table):
        assert gen.wide_value(table, q) == Fraction(table.exp[j - 1][i - 1], total)
        joint = gen.QuerySpec("", ((j, i),), j, None, False)
        assert gen.wide_value(table, joint) == Fraction(table.obs[j - 1][i - 1], total)


def test_same_seed_same_inputs():
    a, b = workloads.EngineWide(7), workloads.EngineWide(7)
    assert a.tables == b.tables and a.queries == b.queries
    assert workloads.EngineWide(8).tables != a.tables


# -- checks reject wrong answers --------------------------------------------------


@pytest.fixture
def wide():
    rng = random.Random(1)
    table = gen.wide_table(rng, 6, 4)
    q = gen.query(rng, 6, 4, "plain", 4)
    return table, q, float(gen.wide_value(table, q))


def test_wide_check_accepts_the_witness_point(wide):
    table, q, value = wide
    assert workloads.check_wide(table, q, value, value) is None


def test_wide_check_rejects_interval_missing_the_witness(wide):
    table, q, value = wide
    assert "witness" in workloads.check_wide(table, q, value + 0.01, value + 0.02)


def test_wide_check_rejects_upper_end_above_a_term(wide):
    table, q, _ = wide
    assert "exceeds" in workloads.check_wide(table, q, 0.0, 1.0)


def test_wide_check_rejects_crossed_interval(wide):
    table, q, value = wide
    assert "not an interval" in workloads.check_wide(table, q, value + 0.01, value)


FRACTIONS = (0.1, 0.05, 0.15, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1)  # P(y1|do x1) = 0.3, P(y1|do x2) = 0.4


def test_sample_check_accepts_frechet_bounds():
    assert workloads.check_sample(FRACTIONS, 0.0, 0.3) is None


def test_sample_check_rejects_interval_outside_frechet_bounds():
    assert "Frechet" in workloads.check_sample(FRACTIONS, 0.0, 0.35)


def test_containment_check_rejects_narrower_engine_interval():
    assert workloads.check_contains(Iv(0.1, 0.2), Iv(0.1, 0.2)) is None
    assert "does not contain" in workloads.check_contains(Iv(0.1, 0.2), Iv(0.05, 0.2))


def _reproduce_text(fixture, rows):
    lines = [f"example: {fixture}"]
    for query, (lo, hi) in rows.items():
        lines.append(f"  {query:32s} expected [{lo}, {hi}]  got [{lo}, {hi}]  ok")
    return "\n".join(lines + ["all values match", ""])


BOUND_TEXT = "[0.000000, 0.098889]\noracle: [0.063333, 0.098889]\noracle containment: ok\n"


def test_cli_check_accepts_published_output():
    for fixture, rows in workloads.PUBLISHED.items():
        assert workloads.check_cli("reproduce", fixture, 0, _reproduce_text(fixture, rows)) is None
    assert workloads.check_cli("bound", "treatment", 0, BOUND_TEXT) is None
    assert workloads.check_cli("validate", "vaccine", 0, "validation: OK (2 treatments, 4 outcomes)\n") is None


def test_cli_check_rejects_nonzero_exit():
    assert "exit code 2" in workloads.check_cli("bound", "treatment", 2, BOUND_TEXT)


def test_cli_check_rejects_value_off_the_published_one():
    rows = dict(workloads.PUBLISHED["institute"], **{"P(y1_x4 | x2, y2)": ("0.000", "0.043")})
    assert "published" in workloads.check_cli("reproduce", "institute", 0, _reproduce_text("institute", rows))
    wrong = BOUND_TEXT.replace("0.098889]\noracle", "0.101000]\noracle")
    assert "published" in workloads.check_cli("bound", "treatment", 0, wrong)


def test_cli_check_rejects_oracle_outside_engine():
    wrong = BOUND_TEXT.replace("oracle: [0.063333, 0.098889]", "oracle: [0.063333, 0.099000]")
    assert "not inside" in workloads.check_cli("bound", "treatment", 0, wrong)


def test_cli_check_rejects_failed_validation():
    assert workloads.check_cli("validate", "vaccine", 0, "validation: 1 violation(s)\n") is not None
