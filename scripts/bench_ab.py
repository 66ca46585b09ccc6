#!/usr/bin/env python3
"""A/B the benchmark between two checkouts, in alternating pairs of runs.

For each workload and seed, runs `python3 perfbench/run.py --workload W
--seed N --seconds S --trace T` once in the parent checkout and once in the
change checkout, each from the root of its own checkout with its own
unmodified `perfbench/run.py`. The order alternates: the parent runs first
in the 1st, 3rd, ... pair and second in the others, so that a slow period
of the machine falls on both sides alike. Every run's result line (the JSON
object `run.py` prints last) is kept.

The output file holds, per workload, every run's result line; per metric,
each side's median and quartiles over its runs; the number of pairs in which
the change was better (by the metric's `better` direction in
`BENCHMARK.json`); whether the medians differ by more than the parent's
interquartile range; and whether the change's median is worse than the
parent's by more than the metric's `bound` in `BENCHMARK.json`, a fraction
of the parent's median (`exceeds_bound`, with one warning line printed for
each such metric). BENCHMARK.json is only read. With --append, the sets already in the file are kept
and the new ones added after them, so one file can gather runs made with
different seeds, durations or --trace.

    python3 scripts/bench_ab.py --parent ../parent --change . \\
        --workload simulation --seeds 1301-1310 --seconds 35 --out BENCH_8.json

Runs are sequential and each starts a fresh process; a run that fails (a
non-zero exit or no result line) stops the script with the run's stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1301-1305,1310' -> [1301, 1302, 1303, 1304, 1305, 1310]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def metric_specs(root: Path) -> dict[str, dict]:
    """Each metric's entry in BENCHMARK.json: its `better` direction ('higher'
    or 'lower') and, for an end-to-end metric, its `bound`."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def revision(root: Path) -> str:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {' '.join(cmd[1:])} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], specs: dict[str, dict]) -> dict:
    """Per metric: each side's median and quartiles, pairs won by the change,
    median gap against the parent's IQR, and against the metric's bound."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    names = by_side["parent"][0]["result"]["metrics"]
    out = {}
    for name in names:
        values = {
            side: [r["result"]["metrics"][name]["value"] for r in by_side[side]] for side in SIDES
        }
        stats = {side: quartiles(values[side]) for side in SIDES}
        entry = {**stats, "unit": by_side["parent"][0]["result"]["metrics"][name]["unit"]}
        spec = specs.get(name, {})
        direction = spec.get("better")
        if direction:
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
            iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
            entry.update(
                better=direction,
                change_better_pairs=wins,
                pairs=len(values["parent"]),
                median_gain_over_parent_iqr=gap > iqr,
            )
            if "bound" in spec:
                parent = stats["parent"]["median"]
                entry.update(bound=spec["bound"], exceeds_bound=-gap > spec["bound"] * abs(parent))
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="root of the change checkout")
    ap.add_argument("--workload", required=True, action="append", help="repeat for several workloads")
    ap.add_argument("--seeds", required=True, help="e.g. 1301-1310 or 1301,1305")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    ap.add_argument("--append", action="store_true", help="keep the sets already in --out")
    ap.add_argument("--note", default="", help="free text stored with the sets of this invocation")
    ns = ap.parse_args()

    roots = {"parent": ns.parent.resolve(), "change": ns.change.resolve()}
    specs = metric_specs(roots["change"])
    seeds = parse_seeds(ns.seeds)
    doc = {"sets": []}
    if ns.append and ns.out.exists():
        doc = json.loads(ns.out.read_text(encoding="utf-8"))
    doc.update(
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}, "
        f"Python {platform.python_version()}",
        command="python3 perfbench/run.py --workload W --seed N --seconds S --trace T, "
        "from the root of each checkout; pairs alternate which side runs first",
    )
    for workload in ns.workload:
        runs = []
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(roots[side], workload, seed, ns.seconds, ns.trace)
                runs.append({"side": side, "seed": seed, "pair": k, "result": result})
                value = result["metrics"].get("ops_per_s", {}).get("value")
                shown = f" ops_per_s={value:.4g}" if value is not None else ""
                print(f"{workload} seed {seed} {side}: correct={result['correct']}{shown}", flush=True)
        summary = summarize(runs, specs)
        for name, entry in summary.items():
            if entry.get("exceeds_bound"):
                print(
                    f"warning: {workload} {name}: change median {entry['change']['median']:.6g} is worse "
                    f"than parent median {entry['parent']['median']:.6g} by more than {entry['bound']:.0%}",
                    flush=True,
                )
        doc["sets"].append(
            {
                "workload": workload,
                "trace": ns.trace,
                "seconds": ns.seconds,
                "seeds": seeds,
                "note": ns.note,
                "revisions": {side: revision(root) for side, root in roots.items()},
                "all_correct": all(r["result"]["correct"] for r in runs),
                "summary": summary,
                "runs": runs,
            }
        )
        ns.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
