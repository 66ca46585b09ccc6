#!/usr/bin/env python3
"""Run the random-model simulation study and summarize the bound gaps.

Writes the per-sample CSV next to a console summary: average gap,
containment rate, and a small gap histogram to eyeball the distribution.
"""

import argparse

from pocbounds.cli import _nonnegative_int, _positive_int
from pocbounds.simgen import run_simulation, write_csv


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=_positive_int, default=1000)
    ap.add_argument("--seed", type=_nonnegative_int, default=0)
    ap.add_argument("--out", help="CSV path for per-sample rows")
    ap.add_argument("--bins", type=_positive_int, default=10, help="histogram bins")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    summary = run_simulation(args.samples, seed=args.seed)

    gaps = sorted(r.gap for r in summary.records)
    mean = summary.average_gap
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    se = (var / len(gaps)) ** 0.5

    print(f"samples:          {summary.num_samples}")
    print(f"seed:             {args.seed}")
    print(f"average gap:      {mean:.6f} (se {se:.6f})")
    print(f"median gap:       {gaps[len(gaps) // 2]:.6f}")
    print(f"containment rate: {summary.containment_rate:.4f}")

    print("gap histogram:")
    width = 1.0 / args.bins
    for b in range(args.bins):
        lo, hi = b * width, (b + 1) * width
        count = sum(1 for g in gaps if lo <= g < hi or (b == args.bins - 1 and g == hi))
        bar = "#" * round(60 * count / len(gaps))
        print(f"  [{lo:.2f}, {hi:.2f}) {count:5d} {bar}")

    if args.out:
        write_csv(summary, args.out)
        print(f"wrote {summary.num_samples} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
