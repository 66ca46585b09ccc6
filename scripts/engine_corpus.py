#!/usr/bin/env python3
"""Write or check a differential corpus of engine intervals.

The corpus is a seeded set of count tables and query texts together with the
interval `engine.bound` gave for each, stored as hex floats so that a check
compares bit for bit. A query that raised stores the exception's class name
instead.

    python3 scripts/engine_corpus.py --write   # (re)generate the corpus
    python3 scripts/engine_corpus.py --check   # diff the engine against it

--check prints each query whose answer differs, one per line, and exits 1.
It also runs every query untraced, `bound(..., trace=False)`, and prints a
line for each query where that call's interval, error or stats_evaluated
differs from the traced call's, so the corpus guards both paths.

Tables come from random integer response-type masses, so every table is
consistent by construction. Half of them are skewed: a few types carry most
of the mass, so outcomes are lopsided and some cells are empty. Queries have
up to five terms on up to six treatments, in five evidence forms: plain,
`x`, `y`, `x,y`, and conditional. The script imports the engine from the
`src/` directory of its own checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pocbounds.engine import bound  # noqa: E402
from pocbounds.model import dataset_from_counts  # noqa: E402
from pocbounds.simgen import counts_from_masses  # noqa: E402

DEFAULT_CORPUS = ROOT / "tests" / "data" / "engine_corpus.json"
# (m, n) with at most 729 response types, so the masses stay small.
SIZES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3)]
FORMS = ("plain", "x", "y", "xy", "cond")
MAX_TERMS = 5
SEED = 0
TABLES = 180
# Per table and form: the first PER_FORM queries drawn, plus any of the next
# POOL - PER_FORM that a leave-one-out lower candidate decides.
PER_FORM = 3
POOL = 24


def masses_table(rng: random.Random, m: int, n: int, skewed: bool):
    """Experimental and observational counts realized by response-type masses.

    A skewed table favours one outcome per treatment: a type keeps its mass
    with probability 0.3 per coordinate off the favoured outcome. A draw with
    no mass at all puts 1 on the favoured type under x_1.
    """
    favoured = tuple(rng.randint(1, n) for _ in range(m))
    types = list(itertools.product(range(1, n + 1), repeat=m))
    masses = []
    for t in types:
        keep = 0.3 ** sum(1 for a, b in zip(t, favoured) if a != b)
        masses.append(
            [0 if skewed and rng.random() >= keep else rng.randrange(0, 7) for _ in range(m)]
        )
    if not any(map(any, masses)):
        masses[types.index(favoured)][0] = 1
    return counts_from_masses(masses, m, n)


def query_text(rng: random.Random, m: int, n: int, form: str) -> str:
    """A query in one evidence form; terms may share the evidence treatment."""
    k = rng.randint(1, min(MAX_TERMS, m))
    events = [f"y{rng.randint(1, n)}_x{j}" for j in rng.sample(range(1, m + 1), k)]
    ex = f"x{rng.randint(1, m)}"
    ey = f"y{rng.randint(1, n)}"
    if form == "plain":
        return f"P({', '.join(events)})"
    if form == "cond":
        evidence = rng.choice([[ex], [ey], [ex, ey]])
        return f"P({', '.join(events)} | {', '.join(evidence)})"
    evidence = {"x": [ex], "y": [ey], "xy": [ex, ey]}[form]
    return f"P({', '.join(events + evidence)})"


def run(dataset, text: str, trace: bool = True):
    """bound's result, or the ValueError it raised."""
    try:
        return bound(dataset, text, trace=trace)
    except ValueError as exc:
        return exc


def stored(result) -> dict:
    """A result as the corpus stores it: hex-float ends, or the error's class name."""
    if isinstance(result, ValueError):
        return {"error": type(result).__name__}
    lo, hi = result.interval
    return {"lo": lo.hex(), "hi": hi.hex()}


def compared(result) -> dict:
    """What the traced and the untraced call must agree on."""
    got = stored(result)
    if not isinstance(result, ValueError):
        got["stats_evaluated"] = result.stats_evaluated
    return got


def answer(dataset, text: str) -> tuple[dict, bool]:
    """The engine's answer as stored in the corpus, and whether a
    leave-one-out lower candidate strictly beats all others at the root.

    Deleting the loo(...) lower candidates would change such an interval,
    so those queries keep the corpus from passing a pruning that drops them
    outright.
    """
    result = run(dataset, text)
    if isinstance(result, ValueError):
        return stored(result), False
    cands = result.trace.lower_candidates
    loo = [v for name, v in cands if name.startswith("loo")]
    others = [v for name, v in cands if not name.startswith("loo")]
    return stored(result), bool(loo) and max(loo) > max(others)


def generate() -> dict:
    rng = random.Random(SEED)
    doc = {"tables": [], "queries": []}
    for idx in range(TABLES):
        m, n = SIZES[idx % len(SIZES)]
        skewed = (idx // len(SIZES)) % 2 == 1
        exp, obs = masses_table(rng, m, n, skewed)
        dataset = dataset_from_counts(exp, obs)
        doc["tables"].append({"exp": exp, "obs": obs, "skewed": skewed})
        for form in FORMS:
            for drawn in range(POOL):
                text = query_text(rng, m, n, form)
                got, decided = answer(dataset, text)
                if drawn >= PER_FORM and not decided:
                    continue
                entry = {"table": idx, "form": form, "query": text, **got}
                if decided:
                    entry["loo_lower"] = True
                doc["queries"].append(entry)
    return doc


def dump(doc: dict) -> str:
    """JSON with one table or query per line, so diffs stay readable."""
    def rows(items):
        return ",\n".join("  " + json.dumps(item) for item in items)

    return '{"tables": [\n%s\n],\n"queries": [\n%s\n]}\n' % (rows(doc["tables"]), rows(doc["queries"]))


def load(path: Path = DEFAULT_CORPUS) -> dict:
    return json.loads(Path(path).read_text())


def check(path: Path = DEFAULT_CORPUS) -> list[str]:
    """Re-run every corpus query, traced and untraced, and describe each
    answer that differs from the corpus and each untraced call that differs
    from the traced one."""
    doc = load(path)
    datasets = [dataset_from_counts(t["exp"], t["obs"]) for t in doc["tables"]]
    mismatches = []
    for entry in doc["queries"]:
        where = f"table {entry['table']}, {entry['query']}"
        want = {key: entry[key] for key in ("lo", "hi", "error") if key in entry}
        dataset, text = datasets[entry["table"]], entry["query"]
        traced, untraced = run(dataset, text), run(dataset, text, trace=False)
        got = stored(traced)
        if got != want:
            mismatches.append(f"{where}: expected {want}, got {got}")
        if compared(untraced) != compared(traced):
            mismatches.append(f"{where}: traced {compared(traced)}, untraced {compared(untraced)}")
    return mismatches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="generate the corpus")
    mode.add_argument(
        "--check", action="store_true", help="diff the engine, traced and untraced, against the corpus"
    )
    ap.add_argument("--corpus", type=Path, default=DEFAULT_CORPUS)
    ns = ap.parse_args()

    if ns.write:
        doc = generate()
        ns.corpus.parent.mkdir(parents=True, exist_ok=True)
        ns.corpus.write_text(dump(doc))
        flagged = sum(1 for e in doc["queries"] if e.get("loo_lower"))
        print(f"wrote {len(doc['queries'])} queries on {len(doc['tables'])} tables "
              f"({flagged} decided by a loo lower candidate) to {ns.corpus}")
        return 0

    mismatches = check(ns.corpus)
    if mismatches:
        print("\n".join(mismatches))
        return 1
    print("every query matches bit for bit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
