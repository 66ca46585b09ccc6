"""The benchmark's span tracer still sees every layer of the program.

perfbench/spans.py wraps functions by module attribute name. If an entry
point stops looking a wrapped name up where the tracer patches it, that
layer silently reads 0 in the benchmark. These tests install the tracer's
own target list on the real modules and check that every span records a
call, and that parsing and canonicalization nest under the engine and the
oracle.
"""

import importlib.util
from pathlib import Path

import pytest

from pocbounds import cli, engine, model, oracle, simgen

from conftest import TREATMENT_EXP, TREATMENT_OBS

_SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

QUERY = "P(y3_x1, y1_x2, y2_x3)"
TARGETS = spans.targets(engine, model, oracle, simgen, cli)


def _traced(call):
    tracer = spans.Tracer(TARGETS)
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer.spans


def _bound():
    engine.bound(model.dataset_from_counts(TREATMENT_EXP, TREATMENT_OBS), QUERY)


def _tight():
    oracle.tight_bounds(model.dataset_from_counts(TREATMENT_EXP, TREATMENT_OBS), QUERY)


def _simulate():
    simgen.run_simulation(2)


def _cli():
    args = ["bound", "--data", str(cli.fixture_path("treatment")), "--query", QUERY, "--oracle"]
    assert cli.main(args) == 0


def _children(recorded, parent_name):
    return {
        name
        for name, _, _, parent, _ in recorded
        if parent >= 0 and recorded[parent][0] == parent_name
    }


def _top_level(recorded):
    return {name for name, _, _, parent, _ in recorded if parent < 0}


def test_every_span_records_a_call(capsys):
    recorded = []
    for call in (_bound, _tight, _simulate, _cli):
        recorded += _traced(call)
    capsys.readouterr()
    assert {name for name, *_ in recorded} == {name for _, _, name, _ in TARGETS}


@pytest.mark.parametrize("call, entry", [(_bound, "engine.bound"), (_tight, "oracle.tight")])
def test_parse_and_canonicalize_nest_under_entry_points(call, entry):
    recorded = _traced(call)
    assert _top_level(recorded) == {"model.ingest", entry}
    assert _children(recorded, entry) == {"queryir.parse", "queryir.canonicalize"}


def test_engine_span_reads_node_count():
    recorded = _traced(_bound)
    (nodes,) = [attr for name, _, _, _, attr in recorded if name == "engine.bound"]
    dataset = model.dataset_from_counts(TREATMENT_EXP, TREATMENT_OBS)
    assert nodes == engine.bound(dataset, QUERY).stats_evaluated > 1


def test_simulation_spans():
    recorded = _traced(_simulate)
    calls = [name for name, *_ in recorded]
    assert calls.count("simgen.sample") == 2
    assert calls.count("engine.bound") == 2
    assert _children(recorded, "simgen.sample") == {"model.ingest"}
    assert _children(recorded, "engine.bound") == {"queryir.canonicalize"}


def test_cli_spans(capsys):
    recorded = _traced(_cli)
    capsys.readouterr()
    assert _top_level(recorded) == {"model.ingest", "queryir.parse", "engine.bound", "oracle.tight"}
    assert _children(recorded, "engine.bound") == {"queryir.canonicalize"}
    assert _children(recorded, "oracle.tight") == {"queryir.canonicalize"}
