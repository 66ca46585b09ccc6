#!/usr/bin/env python3
"""Time `tight_bounds` (the exact closed form) on the cases of README's oracle table.

Bundled fixtures: median of 3 calls of one published query. Random spaces
(`simgen.random_model` and `random_query`, as in validate_against_oracle.py):
the median over 5 random queries with k <= 4 (3 queries with k <= 8 at 8x4).
The last row is the total time of 300 random queries with m, n <= 3 and
k <= 3. Prints one line per case and, with --json, writes the figures in
milliseconds.

    PYTHONPATH=src python3 scripts/oracle_timings.py [--seed 0] [--json out.json]
"""

import argparse
import json
import random
import statistics
import time

from validate_against_oracle import SIZES, VARIANTS

from pocbounds.cli import fixture_path
from pocbounds.model import load_dataset
from pocbounds.oracle import tight_bounds
from pocbounds.simgen import random_model, random_query

FIXTURE_CASES = [
    ("treatment", "P(y3_x1, y1_x2, y2_x3)"),
    ("institute", "P(y1_x4 | x2, y2)"),
    ("vaccine", "P(y3_x1, y4_x2)"),
]
# (m, n, largest k, queries)
SPACE_CASES = [(4, 4, 4, 5), (5, 3, 4, 5), (6, 2, 4, 5), (5, 4, 4, 5), (6, 3, 4, 5), (8, 4, 8, 3)]


def _ms(dataset, query) -> float:
    start = time.perf_counter()
    tight_bounds(dataset, query)
    return (time.perf_counter() - start) * 1e3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", help="write the figures (ms) to this file")
    ns = ap.parse_args()
    rng = random.Random(ns.seed)
    results = {}

    for name, query in FIXTURE_CASES:
        ds = load_dataset(fixture_path(name))
        results[f"{name} {query}"] = statistics.median(_ms(ds, query) for _ in range(3))
    for m, n, kmax, count in SPACE_CASES:
        ds = random_model(rng, m, n)
        times = [_ms(ds, random_query(rng, m, n, kmax=kmax)) for _ in range(count)]
        results[f"{m}x{n}, k <= {kmax}"] = statistics.median(times)
    total = 0.0
    for idx in range(300):
        m, n = SIZES[idx % len(SIZES)]
        ds = random_model(rng, m, n)
        total += _ms(ds, random_query(rng, m, n, variant=VARIANTS[(idx // len(SIZES)) % len(VARIANTS)]))
    results["300 random queries, m, n <= 3, k <= 3 (total)"] = total

    for key, ms in results.items():
        print(f"{key:45s} {ms:10.3f} ms")
    if ns.json:
        with open(ns.json, "w", encoding="utf-8") as fh:
            json.dump({k: round(v, 3) for k, v in results.items()}, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
