"""The engine against a stored corpus of its own intervals, bit for bit.

`tests/data/engine_corpus.json` holds seeded tables, queries and the
intervals the engine gave for them, as written by
`scripts/engine_corpus.py --write`. Any change to the engine that moves an
interval by one ulp, or changes which queries raise, fails here.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "engine_corpus.py"


def _corpus_module():
    spec = importlib.util.spec_from_file_location("engine_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _corpus_module()


def test_corpus_covers_every_form_and_decisive_loo_branches():
    doc = corpus.load()
    queries = doc["queries"]
    assert {e["form"] for e in queries} == set(corpus.FORMS)
    assert any(t["skewed"] for t in doc["tables"])
    assert max(len(t["exp"]) for t in doc["tables"]) == 6
    # Queries whose interval a leave-one-out lower candidate decides: a
    # pruning that dropped those candidates outright would fail on them.
    assert sum(1 for e in queries if e.get("loo_lower")) >= 10


def test_engine_matches_corpus_bit_for_bit():
    mismatches = corpus.check()
    assert not mismatches, f"{len(mismatches)} differ; first: {mismatches[0]}"


def test_check_lists_untraced_differences(monkeypatch, tmp_path):
    # An untraced call whose node count drifts from the traced one is
    # reported, one line per query, even when the interval still matches.
    doc = corpus.load()
    doc["queries"] = doc["queries"][:12]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    real = corpus.bound

    def drifting(dataset, text, *, trace=True):
        result = real(dataset, text, trace=trace)
        return result if trace else result._replace(stats_evaluated=result.stats_evaluated + 1)

    monkeypatch.setattr(corpus, "bound", drifting)
    lines = corpus.check(path)
    answered = [e for e in doc["queries"] if "lo" in e]
    assert answered and len(lines) == len(answered)
    for line, entry in zip(lines, answered):
        assert line.startswith(f"table {entry['table']}, {entry['query']}: traced ")


def test_generator_rewrites_the_corpus_byte_for_byte():
    # The tables and queries are seeded draws: a change to the generator, or
    # to the order it draws in, writes a different corpus. Compared by line,
    # since pytest's diff of two whole corpora is slow to print.
    written = corpus.dump(corpus.generate()).splitlines(keepends=True)
    stored = corpus.DEFAULT_CORPUS.read_text().splitlines(keepends=True)
    differ = [no for no, (a, b) in enumerate(zip(written, stored), start=1) if a != b]
    assert (len(written), differ[:1]) == (len(stored), []), "(line count, first line that differs)"
