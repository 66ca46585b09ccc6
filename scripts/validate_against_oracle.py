#!/usr/bin/env python3
"""Stress the closed-form bounds against the LP oracle on random models.

Models and queries come from `pocbounds.simgen`: count tables realized by
random response-type masses, so every table is consistent.

For each random (dataset, query) pair the LP-tight interval must sit inside
the closed-form interval, with no slack: both paths round the same exact
rationals once. The report shows the worst containment slack seen,
how often the closed forms are tight, and average interval widths, broken
down by query shape.
"""

import argparse
import random
import time
from collections import defaultdict
from dataclasses import dataclass

from pocbounds.cli import _positive_int
from pocbounds.engine import bound
from pocbounds.oracle import tight_bounds
from pocbounds.queryir import format_query
from pocbounds.simgen import random_model, random_query

SIZES = [(2, 2), (2, 3), (3, 2), (3, 3)]
VARIANTS = ["plain", "x", "y", "xy"]


@dataclass
class Bucket:
    cases: int = 0
    tight: int = 0
    engine_width: float = 0.0
    lp_width: float = 0.0


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=_positive_int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    rng = random.Random(args.seed)
    worst_slack = float("inf")
    worst_case = None
    buckets: dict[str, Bucket] = defaultdict(Bucket)
    start = time.perf_counter()

    for idx in range(args.cases):
        m, n = SIZES[idx % len(SIZES)]
        variant = VARIANTS[(idx // len(SIZES)) % len(VARIANTS)]
        ds = random_model(rng, m, n)
        q = random_query(rng, m, n, variant=variant)
        eng = bound(ds, q, trace=False).interval
        lp = tight_bounds(ds, q)

        slack = min(lp.lo - eng.lo, eng.hi - lp.hi)
        if slack < worst_slack:
            worst_slack, worst_case = slack, (m, n, q)
        key = f"{m}x{n} k={len(q.terms)} {variant}"
        b = buckets[key]
        b.cases += 1
        b.tight += int(eng == lp)
        b.engine_width += eng.width
        b.lp_width += lp.width

    elapsed = time.perf_counter() - start
    print(f"cases:       {args.cases} (seed {args.seed}, {elapsed:.1f}s)")
    print(f"worst slack: {worst_slack:.3e}  (negative would mean the LP escaped)")
    if worst_case:
        m, n, q = worst_case
        print(f"             at {m}x{n}, query {format_query(q)}")
    print(f"containment: {'OK' if worst_slack >= 0 else 'VIOLATED'}")
    print()
    print(f"{'bucket':22s} {'cases':>5s} {'tight':>5s} {'avg engine width':>17s} {'avg LP width':>13s}")
    for key in sorted(buckets):
        b = buckets[key]
        print(
            f"{key:22s} {b.cases:5d} {b.tight:5d} "
            f"{b.engine_width / b.cases:17.4f} {b.lp_width / b.cases:13.4f}"
        )
    return 0 if worst_slack >= 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
